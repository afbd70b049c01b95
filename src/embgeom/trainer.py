"""Masked-word toy trainer whose input weights become static embeddings.

The model is deliberately small: context word vectors (rows of ``W_in``)
are averaged into a hidden state, projected by ``W_out`` to one logit per
vocabulary item, and softmax-normalized into a prediction for the masked
word. Cross-entropy gradients are exact and propagated by plain SGD. After
training, row w of ``W_in`` is the embedding of vocabulary item w.

:func:`train` runs one fused numpy step per example, whose softmax is
linalg's array kernel, the one attention runs. That step is the only
shipped implementation of the forward pass and the gradient; the built-in
gradient check and the acceptance criterion run it with a learning rate
of 1 and read the gradient off the weights' change. Its pure-Python
reference (``loss_and_gradients`` then ``sgd_step``) lives in the tests,
which replay training through it. Each epoch runs under linalg's float64
policy, so a learning rate that makes the weights diverge fails naming
its epoch, with no numpy warning and no nan loss.

:func:`make_training_examples` returns the ``(target, context)`` steps in
the form that step runs, and the trained :class:`ToyLM` takes the two
weight arrays the loop updated, not copies of them.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import container
from .embed_store import EmbeddingTable, token_index
from .errors import (
    DimensionError,
    EmptyInputError,
    OutOfVocabularyError,
)
from .linalg import Matrix, _draw_count, _float64_policy, _softmax_in_place, random_array

__all__ = [
    "ToyLM",
    "TrainConfig",
    "make_training_examples",
    "train",
    "extract_embeddings",
    "load_corpus",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ToyLM:
    """Vocabulary plus the two V x d weight matrices of the network."""

    vocab: tuple
    W_in: Matrix
    W_out: Matrix

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        if not self.vocab:
            raise EmptyInputError("a model needs at least one vocabulary item")
        token_index(self.vocab)
        V = len(self.vocab)
        if self.W_in.shape != self.W_out.shape or self.W_in.rows != V:
            raise DimensionError(
                f"weights must both be {V} x d, got {self.W_in.shape} "
                f"and {self.W_out.shape}"
            )

    @property
    def V(self):
        return len(self.vocab)

    @property
    def d(self):
        return self.W_in.cols


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    d: int
    window: int = 5
    learning_rate: float = 0.1
    epochs: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("embedding dim must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def make_training_examples(corpus, window, vocab):
    """The training steps: one ``(target, context)`` pair per corpus
    position that has at least one usable neighbor.

    ``corpus`` is a list of sentences, each a token list; windows never
    cross sentence boundaries. ``target`` is the position's vocab index and
    ``context`` the distinct vocab indices within +-window of it, as a
    sorted, read-only ``np.intp`` array: the form :func:`train`'s step
    runs. The context never holds the target's own index, so positions
    whose window holds only repeats of the target word emit nothing.
    ``vocab`` is checked as a model's vocabulary is, so a token that
    :class:`ToyLM` would reject fails here, before any training.
    """
    index = token_index(vocab)
    if window < 1:
        raise ValueError("window must be positive")
    steps = []
    for sentence in corpus:
        ids = []
        for tok in sentence:
            try:
                ids.append(index[tok])
            except KeyError:
                raise OutOfVocabularyError(tok) from None
        for i, target in enumerate(ids):
            lo = max(0, i - window)
            context = {
                ids[j]
                for j in range(lo, min(len(ids), i + window + 1))
                if j != i and ids[j] != target
            }
            if context:
                ctx = np.array(sorted(context), dtype=np.intp)
                ctx.flags.writeable = False
                steps.append((target, ctx))
    return steps


def _sgd_step_arrays(w_in, w_out, target, ctx, lr):
    """In-place fused forward/backward/update on V x d arrays; returns the loss.

    The update of loss_and_gradients followed by sgd_step, equal up to
    rounding and in the same order: the hidden gradient is taken from the
    old ``w_out`` before ``w_out`` moves, then the context rows of ``w_in``
    move. ``ctx`` holds distinct indices, so the indexed update touches each
    row once.
    """
    inv = 1.0 / len(ctx)
    h = w_in.take(ctx, axis=0).sum(axis=0)
    h *= inv
    p = _softmax_in_place(w_out @ h)
    loss = -math.log(p[target])
    p[target] -= 1.0
    g_h = p @ w_out
    p *= lr
    w_out -= p[:, None] * h
    g_h *= lr * inv
    w_in[ctx] -= g_h
    return loss


def induce_vocab(corpus):
    """Vocabulary in order of first occurrence across the corpus."""
    return tuple(dict.fromkeys(tok for sentence in corpus for tok in sentence))


def train(corpus, config, on_epoch=None):
    """Fit a ToyLM on a tokenized corpus; deterministic for a fixed seed.

    The vocabulary is induced from the corpus in first-occurrence order.
    Weights initialize uniformly in [-0.5/d, 0.5/d], W_in then W_out in one
    draw, from the seeded generator that also drives the per-epoch example
    shuffle. ``on_epoch`` (if given) is called with (epoch index, mean loss).
    The vocabulary is checked before the weights are drawn, so a token that
    :class:`ToyLM` rejects raises ValueError before any epoch runs. Each
    epoch runs under linalg's float64 policy: weights that overflow raise
    ``ValueError("weights in epoch k left float64: ...")``, never a nan loss.
    """
    corpus = [list(s) for s in corpus]
    vocab = induce_vocab(corpus)
    if not vocab:
        raise EmptyInputError("corpus has no tokens")
    steps = make_training_examples(corpus, config.window, vocab)

    rng = random.Random(config.seed)
    d = config.d
    V = len(vocab)
    m = _draw_count(2 * V * d, f"{V} tokens at d = {d}")
    w_in, w_out = random_array(rng, m, -0.5 / d, 0.5 / d).reshape(2, V, d)
    order = list(range(len(steps)))
    lr = config.learning_rate
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        with _float64_policy(f"weights in epoch {epoch}"):
            for k in order:
                total += _sgd_step_arrays(w_in, w_out, *steps[k], lr)
        if on_epoch is not None:
            mean = total / len(order) if order else 0.0
            on_epoch(epoch, mean)
    return ToyLM(vocab=vocab, W_in=Matrix._take(w_in), W_out=Matrix._take(w_out))


def extract_embeddings(m):
    """The model's input weights as an embedding table, one row per token."""
    return EmbeddingTable(m.vocab, m.W_in)


def load_corpus(source, lowercase=False):
    """Read a corpus file: one sentence per line, space-separated tokens."""
    text = container.read_text(source)
    if lowercase:
        text = text.lower()
    return [tokens for line in text.split("\n") if (tokens := line.split())]


def save_model(m):
    """Serialize a ToyLM to bytes: vocab, then W_in and W_out as f64 LE.

    Full 64-bit floats keep extract-after-reload bit-identical to
    extract-before-save.
    """
    blob = container.TLM1 + container.u64s(m.V, m.d) + container.names(m.vocab)
    for matrix in (m.W_in, m.W_out):
        blob += container.floats(matrix.array, "<f8")
    return blob


def load_model(source):
    """Rebuild a ToyLM serialized by :func:`save_model`."""
    r = container.Reader(source, container.TLM1)
    V, d = r.u64s(2, "V and d")
    vocab = r.names(V, "vocabulary")
    W_in, W_out = (
        Matrix._take(r.floats(V * d, "<f8", "weights").reshape(V, d)) for _ in range(2)
    )
    r.end()
    return container.build(ToyLM, vocab=tuple(vocab), W_in=W_in, W_out=W_out)
