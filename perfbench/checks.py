"""Checks on the program's outputs that do not trust the program's answers.

Binary files are decoded with numpy from their documented byte layouts,
neighbour lists are compared with a brute-force cosine oracle, attention
outputs with a numpy forward pass, and sense splits and probes with the
properties the methods must have. Every check raises :class:`CheckError`
with a reason; none compares against a stored copy of earlier output.
"""

import math
import struct

import numpy as np

FILTER_FLAGS = "subwords,specials,nonalpha"
FILTER_RULES = ("drop-prefix:##", "drop-bracketed", "drop-non-alphabetic")
TINY = math.ulp(0.0)


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# --- binary containers -------------------------------------------------------


def _names(blob, pos, count):
    """``count`` u32-length-prefixed UTF-8 strings starting at ``pos``."""
    out = []
    for _ in range(count):
        require(pos + 4 <= len(blob), "truncated name table")
        (n,) = struct.unpack_from("<I", blob, pos)
        out.append(blob[pos + 4:pos + 4 + n].decode("utf-8"))
        pos += 4 + n
    return out, pos


def decode_emb1(blob):
    """EMB1: magic, u64 V, u64 D, V names, V*D little-endian f32."""
    require(blob[:4] == b"EMB1", f"EMB1 magic is {blob[:4]!r}")
    V, D = struct.unpack_from("<QQ", blob, 4)
    vocab, pos = _names(blob, 20, V)
    require(len(blob) - pos == V * D * 4, "EMB1 payload has the wrong length")
    return vocab, np.frombuffer(blob, dtype="<f4", offset=pos).reshape(V, D)


def decode_tlm1(blob):
    """TLM1: magic, u64 V, u64 d, V names, W_in then W_out as f64 LE."""
    require(blob[:4] == b"TLM1", f"TLM1 magic is {blob[:4]!r}")
    V, d = struct.unpack_from("<QQ", blob, 4)
    vocab, pos = _names(blob, 20, V)
    require(len(blob) - pos == 2 * V * d * 8, "TLM1 payload has the wrong length")
    w = np.frombuffer(blob, dtype="<f8", offset=pos).reshape(2, V, d)
    return vocab, w[0], w[1]


def decode_prb1(blob):
    """PRB1: magic, u64 classes, u64 d, then per class a name, f64 bias, d f64."""
    require(blob[:4] == b"PRB1", f"PRB1 magic is {blob[:4]!r}")
    k, d = struct.unpack_from("<QQ", blob, 4)
    pos = 20
    classes, biases, weights = [], [], []
    for _ in range(k):
        (name,), pos = _names(blob, pos, 1)
        classes.append(name)
        biases.append(struct.unpack_from("<d", blob, pos)[0])
        weights.append(np.frombuffer(blob, dtype="<f8", count=d, offset=pos + 8))
        pos += 8 + 8 * d
    require(pos == len(blob), "PRB1 has trailing bytes")
    return classes, np.array(biases), np.array(weights)


def parse_text_table(blob):
    """The text table format, parsed field by field with ``float``."""
    lines = blob.decode("utf-8").split("\n")
    require(lines[-1] == "", "text table does not end with a newline")
    V, D = map(int, lines[0].split(" "))
    rows = [line.split(" ") for line in lines[1:-1]]
    require(len(rows) == V and all(len(r) == D + 1 for r in rows), "text table shape")
    vocab = [r[0] for r in rows]
    return vocab, np.array([[float(x) for x in r[1:]] for r in rows])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_table(vocab, values, want_vocab, want_values, what):
    """Vocabulary and values equal the expected ones bit for bit."""
    require(list(vocab) == list(want_vocab), f"{what}: vocabulary differs")
    require(same_bits(values, want_values), f"{what}: values differ")


# --- training ---------------------------------------------------------------


def parse_train_tsv(stdout):
    """Per-epoch mean losses from ``embgeom train --format tsv``."""
    losses = []
    for line in stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "epoch":
            require(int(fields[1]) == len(losses), "epochs out of order")
            losses.append(float(fields[2]))
    return losses


def corpus_vocab(corpus):
    """Vocabulary in first-occurrence order, as the trainer documents it."""
    seen = {}
    for sentence in corpus:
        for tok in sentence:
            seen.setdefault(tok, len(seen))
    return list(seen)


def unit_rows(values):
    values = np.asarray(values, dtype=np.float64)
    return values / np.linalg.norm(values, axis=1, keepdims=True)


def topic_margin(vocab, values, groups):
    """Mean cosine within each word group minus mean cosine across groups."""
    index = {t: i for i, t in enumerate(vocab)}
    unit = unit_rows(values)
    rows = [unit[[index[w] for w in g]] for g in groups]
    within = [
        (r @ r.T)[np.triu_indices(len(r), 1)].mean() for r in rows if len(r) > 1
    ]
    across = [
        (rows[a] @ rows[b].T).mean()
        for a in range(len(rows)) for b in range(a + 1, len(rows))
    ]
    return float(np.mean(within) - np.mean(across))


def check_train(stdout, epochs, model_blob, out_blob, corpus, groups):
    """Loss is finite and falls; model and --out table agree; topics cluster.

    Returns the --out table (vocab, f64 rows) for later checks.
    """
    losses = parse_train_tsv(stdout)
    require(len(losses) == epochs, f"{len(losses)} epoch lines for {epochs} epochs")
    require(all(math.isfinite(x) for x in losses), f"non-finite loss in {losses}")
    require(losses[-1] < losses[0], f"loss does not fall: {losses}")
    want_vocab = corpus_vocab(corpus)
    m_vocab, w_in, _ = decode_tlm1(model_blob)
    t_vocab, rows = parse_text_table(out_blob)
    require(m_vocab == want_vocab, "model vocabulary is not the corpus vocabulary")
    check_table(t_vocab, rows, want_vocab, w_in, "--out table against TLM1 W_in")
    margin = topic_margin(t_vocab, rows, groups)
    require(margin > 0, f"within-topic cosine does not exceed cross-topic ({margin:.3f})")
    return t_vocab, rows


# --- neighbours ---------------------------------------------------------------


def keep_token(token):
    """The benchmark's own reading of ``--filter subwords,specials,nonalpha``."""
    if token.startswith("##"):
        return False
    if token.startswith("[") and token.endswith("]"):
        return False
    return token.isalpha()


class NeighbourOracle:
    """Brute-force cosine top-k over a table given as numpy rows."""

    def __init__(self, vocab, values):
        self.vocab = list(vocab)
        self.index = {t: i for i, t in enumerate(self.vocab)}
        self.rows = np.asarray(values, dtype=np.float64)
        self.norms = np.linalg.norm(self.rows, axis=1)
        self.passes = np.array([keep_token(t) for t in self.vocab])

    def candidates(self, query, filtered):
        keep = self.norms > 0
        if filtered:
            keep &= self.passes
        keep[self.index[query]] = False
        return keep

    def check(self, query, k, filtered, entries):
        """``entries`` is a valid top-k list; returns the candidate count."""
        qi = self.index[query]
        keep = self.candidates(query, filtered)
        sims = (self.rows @ self.rows[qi]) / (self.norms * self.norms[qi])
        np.clip(sims, -1.0, 1.0, out=sims)
        cand = sims[keep]
        want = min(k, cand.size)
        require(len(entries) == want, f"{query}: {len(entries)} neighbours, want {want}")
        tokens = [t for t, _ in entries]
        require(len(set(tokens)) == len(tokens), f"{query}: repeated neighbour")
        prev = math.inf
        for token, sim in entries:
            i = self.index.get(token)
            require(i is not None and keep[i], f"{query}: {token!r} is not a candidate")
            require(abs(sim - sims[i]) <= 1e-9, f"{query}: {token} similarity {sim} != {sims[i]}")
            require(sim <= prev + 1e-12, f"{query}: list is not sorted")
            prev = sim
        if want:
            kth = np.partition(cand, cand.size - want)[cand.size - want]
            require(prev >= kth - 1e-9, f"{query}: lowest {prev} below oracle k-th {kth}")
        return int(keep.sum())


def parse_neighbors_tsv(stdout):
    lines = stdout.splitlines()
    require(len(lines) >= 2 and lines[1] == "neighbour\tsimilarity", "neighbors TSV header")
    out = []
    for line in lines[2:]:
        token, sim = line.split("\t")
        out.append((token, float(sim)))
    return out


# --- attention ------------------------------------------------------------------


def stack_arrays(params):
    """Weight matrices of a parameter stack as numpy arrays."""
    arr = lambda m: np.array(m.row_tuples(), dtype=np.float64)
    return [
        ([(arr(h.Wq), arr(h.Wk), arr(h.Wv)) for h in layer.heads], arr(layer.Wo))
        for layer in params
    ]


def numpy_forward(x, arrays, scale=True):
    """Attention stack on an L x d array: per head softmax(QK^T)V, concat, Wo."""
    y = np.asarray(x, dtype=np.float64)
    for heads, wo in arrays:
        outs = []
        for wq, wk, wv in heads:
            q, k, v = y @ wq.T, y @ wk.T, y @ wv.T
            s = q @ k.T
            if scale:
                s = s / math.sqrt(q.shape[1])
            e = np.exp(s - s.max(axis=1, keepdims=True))
            p = np.maximum(e / e.sum(axis=1, keepdims=True), TINY)
            outs.append(p @ v)
        y = np.concatenate(outs, axis=1) @ wo.T
    return y


def check_forward(x, arrays, out, what):
    want = numpy_forward(x, arrays)
    got = np.array([v.components for v in out])
    require(got.shape == want.shape, f"{what}: output shape {got.shape}")
    err = float(np.abs(got - want).max())
    require(err <= 1e-9, f"{what}: differs from numpy forward by {err:.3g}")


def check_permuted(out, out_perm, perm):
    """Position i of the permuted sentence carries output perm[i]."""
    got = np.array([v.components for v in out_perm])
    want = np.array([out[p].components for p in perm])
    err = float(np.abs(got - want).max())
    require(err <= 1e-9, f"permuted sentence: outputs moved by {err:.3g}")


# --- sense geometry -------------------------------------------------------------


def cosine_distances(points, centroids):
    p = unit_rows(points)
    c = unit_rows(centroids)
    return 1.0 - p @ c.T


def purity(assign, gold):
    hits = 0
    for cluster in set(assign):
        labels = [g for a, g in zip(assign, gold) if a == cluster]
        hits += max(labels.count(g) for g in set(labels))
    return hits / len(assign)


def check_separation(report, occurrences, gold, floor, what):
    """The split is a 2-means fixpoint and finds the planted senses."""
    x = np.asarray(occurrences, dtype=np.float64)
    assign = np.array(report.assignments)
    cents = np.array([c.components for c in report.centroids])
    require(len(assign) == len(x), f"{what}: {len(assign)} assignments")
    for k in (0, 1):
        members = x[assign == k]
        require(len(members) > 0, f"{what}: cluster {k} is empty")
        err = float(np.abs(members.mean(axis=0) - cents[k]).max())
        require(err <= 1e-9, f"{what}: centroid {k} is off its members' mean by {err:.3g}")
    dist = cosine_distances(x, cents)
    own = dist[np.arange(len(x)), assign]
    other = dist[np.arange(len(x)), 1 - assign]
    require(bool(np.all(own <= other + 1e-9)), f"{what}: an occurrence is nearer the other centroid")
    p = purity(list(assign), gold)
    require(abs(p - report.purity) <= 1e-12, f"{what}: purity {report.purity} != {p}")
    require(p >= floor, f"{what}: purity {p:.3f} below {floor}")


def check_inventory(report, groups, token):
    """Centroids are the sense means; distances and flags follow from them."""
    names = sorted(groups)
    require(list(report.names) == names, f"senses {report.names} != {names}")
    cents = np.array([np.mean(groups[n], axis=0) for n in names])
    got = np.array([c.components for c in report.centroids])
    require(float(np.abs(got - cents).max()) <= 1e-9, "sense centroids are not sense means")
    unit = unit_rows(cents)
    pair = 1.0 - unit @ unit.T
    rows = np.array(report.pairwise_distances.row_tuples())
    require(float(np.abs(rows - pair).max()) <= 1e-9, "centroid distances")
    t2c = 1.0 - unit @ (np.asarray(token) / np.linalg.norm(token))
    require(float(np.abs(np.array(report.token_to_centroid) - t2c).max()) <= 1e-9,
            "token-to-centroid distances")
    for (i, j), flag in report.betweenness.items():
        margin = min(pair[i, j] - t2c[i], pair[i, j] - t2c[j])
        if abs(margin) > 1e-9:
            require(flag == (margin >= 0), f"betweenness of {names[i]}, {names[j]}")


def check_probe(blob, x, labels, predictions, accuracy, floor, what):
    """Predictions equal sigma(w.x+b) >= 0.5 from the saved probe weights."""
    classes, biases, weights = decode_prb1(blob)
    require(classes == sorted(set().union(*labels)), f"{what}: probe classes {classes}")
    z = np.asarray(x, dtype=np.float64) @ weights.T + biases
    score = 1.0 / (1.0 + np.exp(-z))
    hits = 0
    for i, predicted in enumerate(predictions):
        want = {c for c, s in zip(classes, score[i]) if s >= 0.5}
        near = {c for c, zz in zip(classes, z[i]) if abs(zz) <= 1e-9}
        require(predicted - near == want - near, f"{what}: prediction {i} is {predicted}, want {want}")
        hits += predicted == labels[i]
    require(abs(accuracy - hits / len(labels)) <= 1e-12, f"{what}: accuracy {accuracy}")
    require(accuracy >= floor, f"{what}: training accuracy {accuracy:.3f} below {floor}")
