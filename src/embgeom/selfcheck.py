"""Built-in invariant suite behind the ``selfcheck`` CLI subcommand.

Each check draws randomized cases from a seeded generator, asserts one
documented invariant, and reports pass/fail with a short detail line.
The checks run the code the commands run: centroids come from
``inventory_report``, as ``embgeom centroid`` prints them, and positional
rows from ``embed_sequence``, as ``embgeom contextualize --positional``
builds them. The suite is sized to finish in seconds.

Each ``_check_*`` function returns ``(passed, detail)``. Its printed name
is written once, in ``_CHECKS``, and :func:`run_all` builds every
:class:`CheckResult` from that table, so a check that raises fails under
the name it passes under. Each check's generator is seeded from its
function's name, which fixes its draws and so its printed details.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import attention, embed_store, sense_geometry, trainer
from .linalg import Matrix, random_array

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_vector(rng, d, scale=1.0):
    return random_array(rng, d, -scale, scale)


def _check_softmax_normalization(rng):
    # The shipped attention kernel with keys = I: its scores q @ I.T are
    # the row q itself, so it returns the softmax of q.
    worst = 0.0
    for _ in range(200):
        d = rng.randint(1, 12)
        scale = rng.choice([1.0, 10.0, 1e2, 1e4])
        q = np.array([_random_vector(rng, d, scale)])
        out = attention._weights(q, np.eye(d), False)[0]
        worst = max(worst, abs(out.sum() - 1.0))
        if (out <= 0.0).any():
            return False, "non-positive probability"
    return worst <= 1e-9, f"max |sum-1| = {worst:.2e}"


def _check_attention_row_sums(rng):
    # With X = I_L, d = d_head = L and Wv = I, head_forward's output rows
    # are the attention weights themselves.
    worst = 0.0
    for _ in range(50):
        L = rng.randint(1, 8)
        head = attention.AttentionHeadParams(
            Wq=Matrix([_random_vector(rng, L, 3.0) for _ in range(L)]),
            Wk=Matrix([_random_vector(rng, L, 3.0) for _ in range(L)]),
            Wv=Matrix.identity(L),
        )
        out = attention.head_forward(Matrix.identity(L), head, scale_scores=rng.random() < 0.5)
        for w in out:
            worst = max(worst, abs(sum(w) - 1.0))
            if any(p <= 0.0 for p in w):
                return False, "non-positive attention weight"
    return worst <= 1e-9, f"max |sum-1| = {worst:.2e}"


def _check_permutation_equivariance(rng):
    worst = 0.0
    for _ in range(5):
        d, n = rng.choice([(4, 2), (6, 3), (8, 2)])
        L = rng.randint(2, 6)
        config = attention.MultiHeadConfig(d=d, n=n, layers=2)
        params = attention.random_stack_params(config, seed=rng.randrange(10**9))
        X = [_random_vector(rng, d) for _ in range(L)]
        perm = list(range(L))
        rng.shuffle(perm)
        out = attention.stack_forward(X, config, params)
        out_perm = attention.stack_forward([X[p] for p in perm], config, params)
        for i, p in enumerate(perm):
            diff = max(abs(a - b) for a, b in zip(out[p], out_perm[i]))
            worst = max(worst, diff)
    if worst > 1e-9:
        return False, f"max deviation = {worst:.2e}"
    # positional encodings must break the symmetry for distinct tokens
    d, n = 4, 2
    config = attention.MultiHeadConfig(d=d, n=n, layers=1)
    params = attention.random_stack_params(config, seed=rng.randrange(10**9))
    tokens = ["t0", "t1", "t2"]
    table = embed_store.EmbeddingTable(tokens, [_random_vector(rng, d) for _ in tokens])
    with_pos = attention.embed_sequence(table, tokens, use_positional=True)
    with_pos_rev = attention.embed_sequence(table, tokens[::-1], use_positional=True)
    out = attention.stack_forward(with_pos, config, params)
    out_rev = attention.stack_forward(with_pos_rev, config, params)
    broke = any(
        max(abs(a - b) for a, b in zip(out[2 - i], out_rev[i])) > 1e-3
        for i in range(3)
    )
    return broke, f"max deviation = {worst:.2e}; positional encodings break symmetry: {broke}"


def _check_concat_dimensionality(rng):
    cases = [(8, 1), (8, 2), (8, 4), (8, 8), (64, 4), (64, 16), (768, 12)]
    for d, n in cases:
        config = attention.MultiHeadConfig(d=d, n=n, layers=1)
        dh = config.d_head
        zero_head = attention.AttentionHeadParams(
            Wq=Matrix.zeros(dh, d), Wk=Matrix.zeros(dh, d), Wv=Matrix.zeros(dh, d)
        )
        layer = attention.AttentionLayerParams(
            heads=(zero_head,) * n, Wo=Matrix.zeros(d, d)
        )
        seq = [_random_vector(rng, d) for _ in range(2)]
        head_out = attention.head_forward(seq, zero_head)
        if any(o.dim != dh for o in head_out):
            return False, f"head output is not d/n at d={d}, n={n}"
        out = attention.multihead_forward(seq, layer)
        if any(o.dim != d for o in out):
            return False, f"layer output is not d at d={d}, n={n}"
    return True, f"{len(cases)} (d, n) cases exact"


def _shipped_loss_and_gradients(w_in, w_out, target, ctx):
    """The training step at learning rate 1, run on copies of the weights.

    Returns the loss, which the step computes before its update, and the
    gradients of ``w_in`` and ``w_out``: the weights before minus after.
    """
    a, b = w_in.copy(), w_out.copy()
    loss = trainer._sgd_step_arrays(a, b, target, ctx, 1.0)
    return loss, (w_in - a, w_out - b)


def _check_gradients(rng):
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        V = rng.randint(2, 6)
        d = rng.randint(1, 4)
        w_in, w_out = random_array(rng, 2 * V * d, -0.5, 0.5).reshape(2, V, d)
        indices = list(range(V))
        rng.shuffle(indices)
        k = rng.randint(1, V - 1)
        target, ctx = indices[0], np.array(sorted(indices[1 : k + 1]), dtype=np.intp)
        _, grads = _shipped_loss_and_gradients(w_in, w_out, target, ctx)
        for w, analytic in zip((w_in, w_out), grads):
            for i in range(V):
                for j in range(d):
                    orig = w[i, j]
                    w[i, j] = orig + step
                    hi, _ = _shipped_loss_and_gradients(w_in, w_out, target, ctx)
                    w[i, j] = orig - step
                    lo, _ = _shipped_loss_and_gradients(w_in, w_out, target, ctx)
                    w[i, j] = orig
                    fd = (hi - lo) / (2 * step)
                    a = float(analytic[i, j])
                    rel = abs(a - fd) / max(abs(a), abs(fd), 1e-2)
                    worst = max(worst, rel)
    return worst < 1e-4, f"max relative error = {worst:.2e}"


def _centroid(occurrences):
    """The centroid ``embgeom centroid`` prints for one sense of these occurrences."""
    inventory = sense_geometry.SenseInventory("w", {"s": occurrences})
    return sense_geometry.inventory_report(inventory).centroids[0]


def _check_centroid_identity(rng):
    for _ in range(20):
        d = rng.randint(1, 6)
        v = _random_vector(rng, d)
        k = rng.randint(1, 5)
        c = _centroid([v] * k)
        if max(abs(a - b) for a, b in zip(c, v)) > 1e-12:
            return False, "mean of copies is not the copy"
        occ = [_random_vector(rng, d) for _ in range(k + 1)]
        perm = list(range(k + 1))
        rng.shuffle(perm)
        c1 = _centroid(occ)
        c2 = _centroid([occ[p] for p in perm])
        if max(abs(a - b) for a, b in zip(c1, c2)) > 1e-12:
            return False, "centroid is order-sensitive"
        cancel = _centroid([v, -v])
        if max(abs(x) for x in cancel) > 1e-12:
            return False, "opposite pairs do not cancel"
    return True, "60 randomized identities hold"


def _planted_table(nrng, V, D, k):
    """A seeded table whose rows around row 0's k-th neighbour nearly tie.

    Rows are noise, of cosine about 0 with row 0, but for 2k planted rows
    of random lengths whose cosines with row 0 step by 2**-26 around 0.8:
    a quarter of a float32 ulp, well inside the screen's error. The k-th
    highest of them has an exact copy, so a tie straddles the k-th place,
    and two other rows are copies of each other. Every third planted token
    and every tenth other token start with ``##``. Returns (vocab, rows).
    """
    rows = nrng.normal(size=(V, D))
    q = rows[0] / np.linalg.norm(rows[0])
    *planted, copy, other = nrng.choice(np.arange(1, V), size=2 * k + 2, replace=False)
    for j, i in enumerate(planted):  # the top k are planted[k:]
        c = 0.8 + (j - k) * 2.0**-26
        w = nrng.normal(size=D)
        w -= (w @ q) * q
        rows[i] = nrng.uniform(0.5, 2.0) * (c * q + math.sqrt(1 - c * c) * w / np.linalg.norm(w))
    rows[copy] = rows[planted[k]]
    rows[other] = rows[planted[0]]
    prefixed = set(planted[::3]) | set(range(5, V, 10))
    vocab = [f"##t{i}" if i in prefixed else f"t{i}" for i in range(V)]
    return vocab, rows


def _ranked_by_brute_force(vocab, rows, qi, k, keep=None):
    """Every row's float64 cosine with row ``qi``, ranked by a stable sort:
    the top ``k`` (token, similarity) pairs among nonzero rows ``keep``s."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0.0 if keep is None else (norms > 0.0) & keep
    live[qi] = False
    (cand,) = np.nonzero(live)
    sims = np.clip(rows[cand] @ rows[qi] / (norms[cand] * norms[qi]), -1.0, 1.0)
    order = np.argsort(-sims, kind="stable")[:k]
    return [(vocab[cand[j]], float(sims[j])) for j in order]


def _check_neighbour_ranking(rng):
    nrng = np.random.default_rng(rng.randrange(2**32))
    V, D, k = 1500, 64, 10
    drop = embed_store.token_filter(["drop-prefix:##"])
    worst = 0.0
    for f32 in (False, True):
        vocab, rows = _planted_table(nrng, V, D, k)
        table = embed_store.EmbeddingTable(vocab, rows)
        if f32:  # an EMB1 table keeps float32 rows
            table = embed_store.load_embeddings_binary(embed_store.save_embeddings_binary(table))
            rows = rows.astype(np.float32)
        keep = np.array([drop(t) for t in vocab])
        for qi in (0, *nrng.integers(1, V, size=3).tolist()):
            for filter, kk in ((None, k), (drop, k), (None, V), (drop, V)):
                got = list(embed_store.nearest_neighbors(table, vocab[qi], kk, filter=filter))
                want = _ranked_by_brute_force(vocab, rows, qi, kk, None if filter is None else keep)
                if [t for t, _ in got] != [t for t, _ in want]:
                    return False, f"top {kk} of {vocab[qi]!r} differs from the float64 ranking"
                worst = max([worst] + [abs(a - b) for (_, a), (_, b) in zip(got, want)])
    return worst <= 1e-12, f"max |similarity - float64 ranking| = {worst:.2e}"


# The one place a check's printed name is written. Each check is seeded
# from its function's name, not its printed one: the seed string decides
# the draws and so the printed details, so renaming a function changes
# the output and renaming a check does not.
_CHECKS = (
    ("softmax normalization", _check_softmax_normalization),
    ("attention row sums", _check_attention_row_sums),
    ("permutation equivariance", _check_permutation_equivariance),
    ("concat dimensionality", _check_concat_dimensionality),
    ("gradient check", _check_gradients),
    ("centroid identity", _check_centroid_identity),
    ("neighbour ranking", _check_neighbour_ranking),
)


def run_all(seed=42):
    """Run every invariant check; returns one CheckResult per check."""
    results = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(random.Random(f"{seed}:{check.__name__}"))
        except Exception as exc:  # a crash is a failed check, not a crash
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
