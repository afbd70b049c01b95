"""Simplified multi-head self-attention over token sequences.

Each layer is attention plus an output projection and nothing else: no
residual connections, no layer normalization, no feed-forward sublayer.
Per head, every position's embedding is projected to a query, a key, and a
value; dot-product scores against all keys are softmax-normalized into
weights; the output is the weight-averaged sum of values. Head outputs are
concatenated and mapped back to model dimensionality by ``Wo``.

A sequence is one gather of table rows into an L x d Matrix. The stack
runs on numpy float64 arrays: one head is three matmuls, a
row-wise softmax and one more matmul over the whole sequence. The weights
come from one kernel, which :func:`head_forward` and the public
:func:`attention_weights` share. Heads, layers and the stack return a
:class:`~embgeom.linalg.Matrix`, the read-only array itself, which passes
from head to layer to layer without a copy; it is a sequence of row
Vectors, each built only when a caller asks for it.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import container, linalg
from .errors import (
    ContextWindowExceededError,
    DimensionError,
    EmptyInputError,
    HeadCountError,
    ParseError,
)
from .linalg import Matrix, Vector

__all__ = [
    "AttentionHeadParams",
    "AttentionLayerParams",
    "MultiHeadConfig",
    "attention_weights",
    "head_forward",
    "multihead_forward",
    "stack_forward",
    "positional_encoding",
    "embed_sequence",
    "random_stack_params",
    "save_attention_params",
    "load_attention_params",
    "save_named_matrices",
    "load_named_matrices",
]

DEFAULT_CONTEXT_WINDOW = 128

_TINY = math.ulp(0.0)


@dataclass(frozen=True)
class AttentionHeadParams:
    """Projection matrices for one head; all three map dim d to dim d_head."""

    Wq: Matrix
    Wk: Matrix
    Wv: Matrix

    def __post_init__(self):
        shapes = {self.Wq.shape, self.Wk.shape, self.Wv.shape}
        if len(shapes) != 1:
            raise DimensionError(
                f"head projections disagree on shape: {sorted(shapes)}"
            )

    @property
    def d(self):
        """Input (model) dimensionality."""
        return self.Wq.cols

    @property
    def d_head(self):
        """Output (per-head) dimensionality."""
        return self.Wq.rows


@dataclass(frozen=True)
class AttentionLayerParams:
    """One layer's heads plus its own d x d output projection."""

    heads: tuple
    Wo: Matrix

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))
        if not self.heads:
            raise EmptyInputError("a layer needs at least one head")
        shapes = {h.Wq.shape for h in self.heads}
        if len(shapes) != 1:
            raise DimensionError(f"heads of a layer disagree on shape: {sorted(shapes)}")
        d, n = self.d, len(self.heads)
        if n * self.heads[0].d_head != d:
            raise HeadCountError(
                f"{n} heads of dim {self.heads[0].d_head} do not make model dim {d}"
            )
        if self.Wo.shape != (d, d):
            raise DimensionError(f"Wo must be {d}x{d}, got {self.Wo.rows}x{self.Wo.cols}")

    @property
    def d(self):
        """Model dimensionality: the heads' input and Wo's size."""
        return self.heads[0].d


@dataclass(frozen=True)
class MultiHeadConfig:
    """Stack hyperparameters: shapes and flags, no weights.

    ``n`` must divide ``d``; every head then works at d/n dimensions so the
    concatenation of all head outputs restores dimensionality d.
    """

    d: int
    n: int
    layers: int = 1
    scale_scores: bool = True
    context_window: int = DEFAULT_CONTEXT_WINDOW

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.layers < 1:
            raise ValueError("d, n, and layers must all be positive")
        if self.d % self.n != 0:
            raise HeadCountError(
                f"{self.n} heads do not divide model dimensionality {self.d}"
            )
        if self.context_window < 1:
            raise ValueError("context window must be positive")

    @property
    def d_head(self):
        return self.d // self.n


def _weights(q, k, scale_scores):
    """Row-softmax of the scores ``q @ k.T``: one row of weights per query.

    With ``scale_scores`` the scores are divided by sqrt(q.shape[1]) first.
    Each row is shifted by its maximum before ``exp`` so no score
    overflows, and entries that underflow are floored at the smallest
    subnormal, as in ``linalg.softmax``. The inputs are not validated.
    """
    w = q @ k.T
    if scale_scores:
        w /= math.sqrt(q.shape[1])
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    np.maximum(w, _TINY, out=w)
    return w


def attention_weights(queries, keys, scale_scores=True):
    """Softmax-normalized dot-product scores of each query against all keys.

    ``queries`` and ``keys`` are sequences of rows (or 2-D arrays) of one
    dimensionality. Returns a rows(queries) x rows(keys) Matrix whose
    rows are strictly positive and sum to 1. With ``scale_scores`` the raw
    scores are divided by sqrt(d) first, which keeps the softmax out of its
    saturated regime at realistic dimensionalities; disable it to follow
    the bare dot-product procedure.
    """
    q = linalg.matrix_array(queries)
    try:
        k = linalg.matrix_array(keys)
    except EmptyInputError:
        raise EmptyInputError("attention needs at least one key") from None
    if q.shape[1] != k.shape[1]:
        raise DimensionError(f"queries of dim {q.shape[1]} against keys of dim {k.shape[1]}")
    if k is q:  # numpy runs q @ q.T as a symmetric product, which rounds differently
        k = k.copy()
    return Matrix._take(_weights(q, k, scale_scores))


def head_forward(seq, params, scale_scores=True):
    """Run one attention head over a sequence of d-dim vectors.

    Returns an L x d_head Matrix. Row i is the attention-weighted sum of
    projected values, with weights from position i's query against every
    position's key, so it lies in the convex hull of the values. A
    non-finite output entry raises ValueError.
    """
    x = linalg.matrix_array(seq)
    if x.shape[1] != params.d:
        raise DimensionError(f"head expects input dim {params.d}, sequence has {x.shape[1]}")
    wq, wk, wv = params.Wq.array, params.Wk.array, params.Wv.array
    w = _weights(x @ wq.T, x @ wk.T, scale_scores)
    return Matrix._take(w @ (x @ wv.T))


def multihead_forward(seq, heads, Wo, scale_scores=True):
    """Run every head, concatenate per position, project back to dim d.

    ``Wo`` is the layer's d x d output projection Matrix. Returns an
    L x d Matrix.
    """
    x = linalg.matrix_array(seq)
    heads = list(heads)
    if not heads:
        raise EmptyInputError("attention needs at least one head")
    d = x.shape[1]
    n = len(heads)
    if d % n != 0:
        raise HeadCountError(f"{n} heads do not divide model dimensionality {d}")
    d_head = d // n
    for h in heads:
        if h.d != d:
            raise DimensionError(f"head expects input dim {h.d}, sequence has {d}")
        if h.d_head != d_head:
            raise DimensionError(
                f"head emits dim {h.d_head}, expected d/n = {d_head}"
            )
    if Wo.shape != (d, d):
        raise DimensionError(f"Wo must be {d}x{d}, got {Wo.rows}x{Wo.cols}")

    per_head = [head_forward(x, h, scale_scores=scale_scores) for h in heads]
    return Matrix._take(np.hstack([m.array for m in per_head]) @ Wo.array.T)


def stack_forward(seq, config, layer_params):
    """Apply every configured layer in order; returns an L x d Matrix.

    ``seq`` may be a Matrix such as :func:`embed_sequence` returns, a
    bare list of vectors or a 2-D array; it is validated once. The output
    Matrix of layer k feeds layer k+1 unchanged (no residuals), so every
    layer boundary carries vectors of dim d exactly. Row i of the result
    is position i's contextualized vector.
    """
    try:
        x = linalg.matrix_array(seq)
    except EmptyInputError:
        raise EmptyInputError("attention needs at least one position") from None
    length, dim = x.shape
    if length > config.context_window:
        raise ContextWindowExceededError(
            f"sequence length {length} exceeds context window "
            f"{config.context_window}"
        )
    if dim != config.d:
        raise DimensionError(f"sequence has dim {dim}, config expects {config.d}")
    layer_params = list(layer_params)
    if len(layer_params) != config.layers:
        raise DimensionError(
            f"{len(layer_params)} layer parameter sets for {config.layers} layers"
        )
    for lp in layer_params:
        if len(lp.heads) != config.n:
            raise HeadCountError(
                f"layer has {len(lp.heads)} heads, config expects {config.n}"
            )
        x = multihead_forward(x, lp.heads, lp.Wo, scale_scores=config.scale_scores)
    return x


def positional_encoding(position, d):
    """Fixed sinusoidal position vector of even dimensionality d.

    Component 2i is sin(position / 10000^(2i/d)) and component 2i+1 is the
    matching cosine, so every component is bounded in [-1, 1].
    """
    if d < 1 or d % 2 != 0:
        raise DimensionError(f"positional encoding needs even positive d, got {d}")
    if position < 0:
        raise ValueError(f"position must be nonnegative, got {position}")
    comps = []
    for i in range(d // 2):
        angle = position / (10000.0 ** (2 * i / d))
        comps.append(math.sin(angle))
        comps.append(math.cos(angle))
    return Vector(comps)


def embed_sequence(table, tokens, use_positional=False,
                   context_window=DEFAULT_CONTEXT_WINDOW):
    """Embed a token list as an L x d Matrix: one gather of table rows.

    Row i embeds ``tokens[i]``. With ``use_positional`` each row is the
    token row plus the sinusoidal encoding of its position (requires even
    D); without it, repeated tokens embed identically at every position.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise EmptyInputError("a sequence needs at least one token")
    if len(tokens) > context_window:
        raise ContextWindowExceededError(
            f"sequence length {len(tokens)} exceeds context window {context_window}"
        )
    rows = table.gather(tokens)
    if not use_positional:
        return rows
    positions = [positional_encoding(i, table.D).components for i in range(len(tokens))]
    return Matrix._take(rows.array + np.array(positions))


def _random_matrix(rows, cols, bound, rng):
    # rng.uniform(a, b) is a + (b - a) * rng.random(); the same two float64
    # operations in numpy give weights bit-identical to per-entry draws.
    u = linalg.random_array(rng, rows * cols).reshape(rows, cols)
    lo, hi = -bound, bound
    return Matrix(lo + (hi - lo) * u)


def random_stack_params(config, seed):
    """Draw a full parameter stack, uniform in [-1/sqrt(d), 1/sqrt(d)].

    Deterministic in (config shape, seed): the same call yields the same
    weights, so untrained demos are reproducible.
    """
    rng = random.Random(seed)
    bound = 1.0 / math.sqrt(config.d)
    layers = []
    for _ in range(config.layers):
        heads = tuple(
            AttentionHeadParams(
                Wq=_random_matrix(config.d_head, config.d, bound, rng),
                Wk=_random_matrix(config.d_head, config.d, bound, rng),
                Wv=_random_matrix(config.d_head, config.d, bound, rng),
            )
            for _ in range(config.n)
        )
        Wo = _random_matrix(config.d, config.d, bound, rng)
        layers.append(AttentionLayerParams(heads=heads, Wo=Wo))
    return tuple(layers)


def save_named_matrices(named):
    """Serialize an ordered mapping of name -> Matrix as ATT1 bytes."""
    parts = [container.ATT1, container.u64s(len(named))]
    for name, m in named.items():
        parts += (container.names([name]), container.u64s(m.rows, m.cols),
                  container.floats(m.array, "<f4"))
    return b"".join(parts)


def load_named_matrices(source):
    """Parse ATT1 bytes back into an ordered dict of name -> Matrix."""
    r = container.Reader(source, container.ATT1)
    (count,) = r.u64s(1, "matrix count", minimum=0)
    out = {}
    for _ in range(count):
        (name,) = r.names(1, "matrix name")
        rows, cols = r.u64s(2, f"shape of matrix {name!r}")
        entries = r.floats(rows * cols, "<f4", f"payload of matrix {name!r}")
        if name in out:
            raise ParseError(f"duplicate matrix name {name!r}")
        out[name] = Matrix(entries.reshape(rows, cols))
    r.end()
    return out


def save_attention_params(layer_params):
    """Serialize a parameter stack with layer<i>.head<j>.{Wq,Wk,Wv} names."""
    named = {}
    for li, lp in enumerate(layer_params):
        for hi, h in enumerate(lp.heads):
            named[f"layer{li}.head{hi}.Wq"] = h.Wq
            named[f"layer{li}.head{hi}.Wk"] = h.Wk
            named[f"layer{li}.head{hi}.Wv"] = h.Wv
        named[f"layer{li}.Wo"] = lp.Wo
    return save_named_matrices(named)


def load_attention_params(source):
    """Rebuild a parameter stack saved by :func:`save_attention_params`."""
    named = load_named_matrices(source)
    layers = []
    while f"layer{len(layers)}.Wo" in named:
        layer = f"layer{len(layers)}."
        heads = []
        while f"{layer}head{len(heads)}.Wq" in named:
            keys = [f"{layer}head{len(heads)}.{w}" for w in ("Wq", "Wk", "Wv")]
            missing = [k for k in keys if k not in named]
            if missing:
                raise ParseError(f"parameter file has no matrix {missing[0]!r}")
            heads.append(container.build(AttentionHeadParams, *(named[k] for k in keys)))
        layers.append(container.build(AttentionLayerParams, heads, named[layer + "Wo"]))
    if not layers:
        raise ParseError("no attention layers found in parameter file")
    if len({lp.d for lp in layers}) != 1:
        raise ParseError(f"layers disagree on model dim: {[lp.d for lp in layers]}")
    expected = sum(3 * len(lp.heads) + 1 for lp in layers)
    if expected != len(named):
        raise ParseError("parameter file holds matrices outside the layer scheme")
    return tuple(layers)
