"""Geometry of word senses in embedding space, plus linear probes.

Covers four analyses: sense centroids (means of same-sense occurrence
vectors), distances between senses and between a token and its
contextualized occurrences, a deterministic two-cluster separation of a
homonym's occurrences, and one-vs-rest logistic probes that read sense
classes and ambiguity off embeddings.
"""

import functools
import math
import numbers
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import container, linalg
from .errors import (
    DegenerateClassError,
    DegenerateClustersWarning,
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    ParseError,
    ZeroVectorError,
)
from .linalg import Matrix, Vector

__all__ = [
    "SenseInventory",
    "SenseReport",
    "ProbeModel",
    "ProbeConfig",
    "ProbeExample",
    "sense_centroid",
    "contextual_shift",
    "homonym_separation",
    "inventory_report",
    "probe_train",
    "probe_predict",
    "ambiguity_flag",
    "probe_accuracy",
    "load_sense_tsv",
    "save_sense_tsv",
    "load_probe_tsv",
    "save_probe_tsv",
    "save_probe_model",
    "load_probe_model",
]

METRICS = ("cosine", "euclidean")

# 2-means: the farthest pair plus seeded random pairs, each run to a fixpoint
RESTARTS = 10
MAX_ITER = 100


def _check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


@dataclass(frozen=True)
class SenseInventory:
    """All occurrence vectors of one word: one read-only Matrix per sense name."""

    word: str
    senses: dict

    def __post_init__(self):
        if not self.senses:
            raise EmptyInputError("an inventory needs at least one sense")
        clean = {}
        for name, occurrences in self.senses.items():
            try:
                clean[name] = Matrix(occurrences)
            except EmptyInputError:
                raise EmptyInputError(f"sense {name!r} has no occurrences") from None
        dims = {m.cols for m in clean.values()}
        if len(dims) != 1:
            raise DimensionError(f"{self.word!r}: mixed occurrence dims {sorted(dims)}")
        object.__setattr__(self, "senses", clean)

    @property
    def d(self):
        return next(iter(self.senses.values())).cols


@dataclass(frozen=True)
class SenseReport:
    """Centroid geometry for one word's senses or clusters.

    ``pairwise_distances`` is symmetric with a zero diagonal;
    ``betweenness`` maps each centroid pair (i, j), i < j, to whether the
    word's token embedding sits at least as close to both centroids as the
    centroids sit to each other. Cosine distances live in [0, 2].
    """

    names: tuple
    centroids: tuple
    pairwise_distances: Matrix
    metric: str
    token_to_centroid: tuple = None
    betweenness: dict = None
    assignments: tuple = None
    purity: float = None
    degenerate: bool = False

    def __post_init__(self):
        k = len(self.centroids)
        m = self.pairwise_distances.array
        if len(self.names) != k or m.shape != (k, k):
            raise DimensionError("report fields disagree on the number of senses")
        if np.diag(m).any():
            raise ValueError("pairwise distance diagonal must be zero")
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("pairwise distances must be symmetric")
        if self.metric == "cosine" and not ((m >= -1e-12) & (m <= 2 + 1e-12)).all():
            raise ValueError("cosine distances must lie in [0, 2]")


def _in_float64(fn):
    """Run ``fn`` with numpy overflow and invalid results raising ValueError."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValueError(f"vectors too large for float64 distances: {exc}") from None
    return run


def _mean(x):
    """Mean of the rows of ``x``: their sum times 1/n."""
    return x.sum(axis=0) * (1.0 / len(x))


def _row_norms(a):
    return np.sqrt((a * a).sum(axis=1))


def _distances(x, xnorms, c, metric):
    """Distances from each row of ``x`` (n x d) to each row of ``c`` (k x d), as n x k."""
    if metric == "euclidean":
        # from differences, one row of c at a time: no n x k x d intermediate
        # and no cancellation from expanding |x - c|^2
        return np.column_stack([_row_norms(x - row) for row in c])
    cnorms = _row_norms(c)
    if not (xnorms.all() and cnorms.all()):
        raise ZeroVectorError("cosine distance is undefined for zero-norm vectors")
    dist = x @ c.T
    dist /= np.outer(xnorms, cnorms)
    return np.subtract(1.0, dist, out=dist)


@_in_float64
def sense_centroid(occurrences):
    """Mean of the occurrence vectors of one sense."""
    try:
        x = linalg.matrix_array(occurrences)
    except EmptyInputError:
        raise EmptyInputError("a centroid needs at least one occurrence") from None
    return Vector(_mean(x).tolist())


@_in_float64
def contextual_shift(token_emb, ctx_emb, metric="cosine"):
    """How far a contextualized occurrence moved from its token embedding.

    Larger shifts signal stronger context effects; idiomatic usage tends
    to shift further than literal usage. Cosine distance by default;
    either vector of zero norm raises ZeroVectorError under cosine.
    """
    _check_metric(metric)
    x = linalg.matrix_array([token_emb, ctx_emb])
    return float(_distances(x[:1], _row_norms(x[:1]), x[1:], metric)[0, 0])


def _lloyd(x, norms, init_pair, metric):
    """Two-centroid k-means from one starting pair; returns (assign, centroids, cost).

    A pass that changes no assignment ends the run: its centroids are the
    means of those same members and its distances are the final ones.
    """
    centroids = x[list(init_pair)]
    assign = None
    for _ in range(MAX_ITER):
        dist = _distances(x, norms, centroids, metric)
        new = np.where(dist[:, 0] <= dist[:, 1], 0, 1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for k in (0, 1):
            members = x[assign == k]
            # an emptied cluster keeps its previous centroid
            if len(members):
                centroids[k] = _mean(members)
    else:
        dist = _distances(x, norms, centroids, metric)
    return assign, centroids, float(dist[np.arange(len(x)), assign].sum())


def _farthest_pair(x, norms, metric):
    # the first maximum in row-major i < j order: argmax scans row-major,
    # and the masked diagonal and lower triangle can never be the maximum
    dist = _distances(x, norms, x, metric)
    dist[np.tri(len(x), dtype=bool)] = -np.inf
    return divmod(int(np.argmax(dist)), len(x))


def _purity(assign, gold_labels):
    labels = list(gold_labels)
    if len(labels) != len(assign):
        raise DimensionError(
            f"{len(labels)} gold labels for {len(assign)} occurrences"
        )
    if len(set(labels)) > 2:
        raise ValueError("gold labeling must be two-way")
    counts = Counter(zip(assign, labels))  # (cluster, label) -> occurrences
    correct = sum(max((n for (a, _), n in counts.items() if a == c), default=0) for c in (0, 1))
    return correct / len(assign)


def _centroid_geometry(c, token_emb, metric):
    """The distances among the centroid rows ``c`` (k x d) as a Matrix, its
    upper triangle mirrored: the diagonal is exactly 0 and the matrix exactly
    symmetric. Given ``token_emb``, also its distance to each centroid and
    the betweenness flag of each pair i < j; else None for both.
    """
    k, d = c.shape
    pair = np.zeros((k, k))
    if k > 1:  # one centroid has no pair, so it needs no norm under cosine
        pair = np.triu(_distances(c, _row_norms(c), c, metric), 1)
        pair = pair + pair.T
    if token_emb is None:
        return Matrix._take(pair), None, None
    t = linalg.matrix_array([token_emb])
    if t.shape[1] != d:
        raise DimensionError(f"token dim {t.shape[1]} does not match occurrence dim {d}")
    t2c = _distances(t, _row_norms(t), c, metric)[0].tolist()
    m = pair.tolist()
    flags = {(i, j): t2c[i] <= m[i][j] and t2c[j] <= m[i][j]
             for i in range(k) for j in range(i + 1, k)}
    return Matrix._take(pair), tuple(t2c), flags


@_in_float64
def homonym_separation(token_emb, occurrences, gold_labels=None, seed=0,
                       metric="cosine"):
    """Split a homonym's occurrence vectors into two sense clusters.

    ``occurrences`` is one n x d 2-D input, n >= 4: a Matrix, an array or a
    sequence of rows. Runs k-means with k=2: the first of ``RESTARTS``
    restarts initializes centroids at the farthest occurrence pair, the rest
    at seeded random distinct pairs; each runs until an assignment pass
    changes nothing, for at most ``MAX_ITER`` passes. The run with the
    lowest within-cluster distance sum wins (first winner on ties). The
    report carries both centroids, their distance, the token embedding's
    distance to each, purity against ``gold_labels`` when given, and the
    betweenness flag: whether the token embedding is at least as similar to
    each centroid as the centroids are to each other.
    """
    _check_metric(metric)
    x = linalg.matrix_array(occurrences)
    n = len(x)
    if n < 4:
        raise InsufficientDataError(
            f"homonym separation needs at least 4 occurrences, got {n}"
        )

    rng = random.Random(seed)
    norms = _row_norms(x)
    inits = [_farthest_pair(x, norms, metric)]
    while len(inits) < RESTARTS:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            inits.append((i, j))
    best = None
    for pair in inits:
        assign, centroids, cost = _lloyd(x, norms, pair, metric)
        if best is None or cost < best[2] - 1e-12:
            best = (assign, centroids, cost)
    assign, centroids = best[0].tolist(), best[1]

    pairwise, t2c, flags = _centroid_geometry(centroids, token_emb, metric)
    degenerate = pairwise.row(0)[1] <= 1e-9
    if degenerate:
        warnings.warn("clustering produced (near-)identical centroids",
                      DegenerateClustersWarning, stacklevel=3)
    purity = None if gold_labels is None else _purity(assign, gold_labels)
    return SenseReport(
        names=("cluster-0", "cluster-1"),
        centroids=tuple(Matrix._take(centroids)),
        pairwise_distances=pairwise,
        metric=metric,
        token_to_centroid=t2c,
        betweenness=flags,
        assignments=tuple(assign),
        purity=purity,
        degenerate=degenerate,
    )


@_in_float64
def inventory_report(inventory, token_emb=None, metric="cosine"):
    """Centroid geometry of a labeled sense inventory.

    Senses are ordered by name. When ``token_emb`` is given the report
    also carries token-to-centroid distances and per-pair betweenness.
    """
    _check_metric(metric)
    names = tuple(sorted(inventory.senses))
    c = np.array([_mean(inventory.senses[n].array) for n in names])
    pairwise, t2c, flags = _centroid_geometry(c, token_emb, metric)
    return SenseReport(
        names=names,
        centroids=tuple(Matrix._take(c)),
        pairwise_distances=pairwise,
        metric=metric,
        token_to_centroid=t2c,
        betweenness=flags,
    )


class ProbeExample(NamedTuple):
    token: str
    labels: frozenset
    vector: Vector


@dataclass(frozen=True)
class ProbeConfig:
    """Hyperparameters for probe training."""

    learning_rate: float = 0.5
    epochs: int = 200
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(frozen=True)
class ProbeModel:
    """One-vs-rest linear classifiers: row i of the read-only k x d ``weights``
    Matrix (given as anything Matrix takes) and the finite real ``biases[i]``
    score ``classes[i]``, a nonempty str with no comma, tab or newline."""

    classes: tuple
    weights: Matrix
    biases: tuple

    def __post_init__(self):
        if not self.classes:
            raise EmptyInputError("a probe needs at least one class")
        for c in self.classes:  # labels load_probe_tsv can read, and probe-eval can print
            if not (isinstance(c, str) and c) or {",", "\t", "\n"} & set(c):
                raise ValueError(f"class name {c!r} is empty or holds a comma, tab or newline")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("class names must be unique")
        object.__setattr__(self, "weights", Matrix(self.weights))
        if not (len(self.classes) == self.weights.rows == len(self.biases)):
            raise DimensionError("classes, weights, and biases must align")
        if not all(isinstance(b, numbers.Real) and math.isfinite(b) for b in self.biases):
            raise ValueError(f"probe biases must be finite real numbers, got {self.biases!r}")
        object.__setattr__(self, "biases", tuple(map(float, self.biases)))

    @property
    def d(self):
        return self.weights.cols


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _normalize_examples(examples):
    """The vectors of (vector, label-set) pairs as one validated n x d float64
    array, and their label sets as frozensets."""
    pairs = list(examples)
    if not pairs:
        raise EmptyInputError("probe training needs at least one example")
    if any(isinstance(labels, str) for _, labels in pairs):
        raise TypeError("labels must be a set of class names, not a string")
    return linalg.matrix_array([v for v, _ in pairs]), [frozenset(l) for _, l in pairs]


def probe_train(examples, config=None):
    """Fit one logistic classifier per class on (vector, label-set) pairs.

    Classes are the sorted union of all labels; each classifier treats
    examples carrying its class as positives and everything else as
    negatives. Weights start at zero and follow seeded-shuffle SGD on the
    log loss, so a fixed config yields a fixed model. Each step updates
    every class at once: one ``k x d`` mat-vec gives the ``k`` scores and
    one outer product moves the weights. A class with no positives or no
    negatives is untrainable one-vs-rest and raises DegenerateClassError;
    weights that leave float64 raise ValueError.
    """
    if config is None:
        config = ProbeConfig()
    x_all, label_sets = _normalize_examples(examples)
    classes = sorted(set().union(*label_sets))
    if len(classes) < 2:
        raise DegenerateClassError(f"probing needs at least 2 classes, got {len(classes)}")
    for c in classes:
        if all(c in labels for labels in label_sets):
            raise DegenerateClassError(f"class {c!r} has no negative examples")

    xs = list(x_all)  # each row's view made once, not once per step
    ys = [[1.0 if c in labels else 0.0 for c in classes] for labels in label_sets]
    weights = np.zeros((len(classes), x_all.shape[1]))
    biases = [0.0] * len(classes)

    rng = random.Random(config.seed)
    order = list(range(len(xs)))
    lr = config.learning_rate
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(config.epochs):
                rng.shuffle(order)
                for k in order:
                    x = xs[k]
                    # a saturated class has g == 0 and so moves by zero
                    f = [
                        lr * (_sigmoid(z + b) - y)
                        for z, b, y in zip((weights @ x).tolist(), biases, ys[k])
                    ]
                    weights -= np.multiply.outer(f, x)
                    biases = [b - fc for b, fc in zip(biases, f)]
    except FloatingPointError as exc:
        raise ValueError(f"probe weights left float64: {exc}") from None
    return ProbeModel(tuple(classes), Matrix._take(weights), tuple(biases))


def _scores(model, x):
    """The k class scores of each row of ``x`` (n x d float64), as n tuples.

    ``add.reduce`` sums each row's products on their own, as one BLAS product
    over all rows need not, so a row scores the same bits alone as in a batch.
    Overflow is silent, as in float arithmetic.
    """
    if x.shape[1] != model.d:
        raise DimensionError(f"embedding dim {x.shape[1]} does not match probe {model.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.column_stack([np.add.reduce(x * w, axis=1) for w in model.weights.array])
    return [tuple(map(_sigmoid, row)) for row in (z + model.biases).tolist()]


def _predict(model, x, threshold):
    """The class set each row of ``x`` predicts: the classes whose score
    reaches the threshold; a NaN threshold, which none reaches, is a ValueError."""
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    return [{c for c, s in zip(model.classes, row) if s >= threshold} for row in _scores(model, x)]


def _evaluate(model, examples, threshold):
    """Each example's predicted class set, and the fraction that equal their labels."""
    x, labels = _normalize_examples(examples)
    predictions = _predict(model, x, threshold)
    return predictions, sum(p == l for p, l in zip(predictions, labels)) / len(labels)


def probe_scores(model, emb):
    """Sigmoid score per class, in model class order."""
    return _scores(model, linalg.matrix_array([emb]))[0]


def probe_predict(model, emb, threshold=0.5):
    """All classes whose score reaches the threshold (inclusive); a NaN
    threshold, which no score reaches, raises ValueError."""
    return _predict(model, linalg.matrix_array([emb]), threshold)[0]


def ambiguity_flag(model, emb, threshold=0.5):
    """True when the embedding is claimed by two or more sense classes."""
    return len(probe_predict(model, emb, threshold)) >= 2


def probe_accuracy(model, examples, threshold=0.5):
    """Fraction of examples whose predicted label set matches exactly."""
    return _evaluate(model, examples, threshold)[1]


def _tsv_rows(source):
    """Yield (line number, column 1, column 2, tuple of decimals) per 3-column line."""
    lines = container.read_text(source).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_no, line in enumerate(lines, 1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated columns, found {len(parts)}", line=line_no
            )
        values = container.build(tuple, map(container.decimal, parts[2].split(" ")), line=line_no)
        yield line_no, parts[0], parts[1], values


def load_sense_tsv(source):
    """Parse `word<TAB>sense<TAB>x1 ... xD` lines into SenseInventory objects.

    Returns a dict keyed by word, preserving first-appearance order.
    """
    grouped, dims = {}, {}
    for line_no, word, sense, values in _tsv_rows(source):
        if not word or not sense:
            raise ParseError("empty word or sense label", line=line_no)
        d, first = dims.setdefault(word, (len(values), line_no))
        if len(values) != d:
            raise ParseError(
                f"{word!r} vector has {len(values)} components, line {first} has {d}", line=line_no
            )
        grouped.setdefault(word, {}).setdefault(sense, []).append(values)
    if not grouped:
        raise ParseError("no occurrences found")
    return {
        word: SenseInventory(word, {name: np.array(rows) for name, rows in senses.items()})
        for word, senses in grouped.items()
    }


def _tsv_bytes(rows):
    """(column 1, column 2, values) rows as UTF-8 `col1<TAB>col2<TAB>x1 ... xD` lines."""
    return "".join(
        f"{a}\t{b}\t{' '.join(f'{x:.17g}' for x in values)}\n" for a, b, values in rows
    ).encode("utf-8")


def save_sense_tsv(inventories):
    """Serialize SenseInventory objects back to the TSV occurrence format."""
    return _tsv_bytes((inv.word, sense, row) for inv in inventories
                      for sense, occ in inv.senses.items() for row in occ.array.tolist())


def load_probe_tsv(source):
    """Parse `token<TAB>labels<TAB>x1 ... xD` lines into ProbeExamples.

    Labels are comma-separated; an empty label column means the example
    is a negative for every class.
    """
    out = []
    for line_no, token, labels, values in _tsv_rows(source):
        if not token:
            raise ParseError("empty token", line=line_no)
        if out and len(values) != out[0].vector.dim:
            raise ParseError(
                f"vector has {len(values)} components, line 1 has {out[0].vector.dim}",
                line=line_no,
            )
        label_set = frozenset(l for l in labels.split(",") if l)
        out.append(ProbeExample(token=token, labels=label_set, vector=Vector._of(values)))
    if not out:
        raise ParseError("no examples found")
    return out


def save_probe_tsv(examples):
    """Serialize ProbeExamples back to the TSV probe-dataset format."""
    return _tsv_bytes((ex.token, ",".join(sorted(ex.labels)), ex.vector) for ex in examples)


def save_probe_model(model):
    """Serialize a ProbeModel: per class, a name, f64 bias, and f64 weights."""
    rows = np.column_stack((model.biases, model.weights.array))
    parts = [container.PRB1, container.u64s(len(model.classes), model.d)]
    for c, row in zip(model.classes, rows):
        parts += (container.names([c]), container.floats(row, "<f8"))
    return b"".join(parts)


def load_probe_model(source):
    """Rebuild a ProbeModel serialized by :func:`save_probe_model`."""
    r = container.Reader(source, container.PRB1)
    k, d = r.u64s(2, "class count and dim")
    classes, rows = [], []
    for _ in range(k):
        classes += r.names(1, "class name")
        rows.append(r.floats(1 + d, "<f8", "class payload"))
    r.end()
    rows = np.vstack(rows)
    return container.build(ProbeModel, tuple(classes), rows[:, 1:], tuple(rows[:, 0].tolist()))
