"""Dense vector/matrix primitives used by every other module.

A ``Vector`` is a tuple of 64-bit Python floats; a ``Matrix`` is one
read-only float64 numpy array, the same array the numpy code computes
with, and a read-only sequence of its rows, each a Vector built when it is
read. :func:`matrix_array` validates Vector and Matrix input alike; a
Matrix has passed it, so handing one on costs no second check.
:func:`random_array` is the bulk seeded uniform draw behind every random
weight, run by numpy's ``MT19937`` on a ``random.Random``'s own state when
large and scaled to its bounds in place. ``_softmax_in_place`` is the one
array softmax: attention's weights and the trainer's step both run it.
``_float64_policy`` is the package's one rule for numeric failure: numpy
overflow or an invalid result inside it raises
``ValueError("<what> left float64: ...")`` with no numpy warning, and
underflow stays silent, which keeps the softmax floor. The attention
entry points and sense geometry enter it once per call, the trainer once
per epoch. ``_row_scales`` is the one norm rule, which the neighbour
cache and every sense distance follow alike.
The rest of the package computes on numpy arrays. Beyond a Vector's ``+``
and ``*``, only ``dot``, ``softmax`` and ``linear_apply`` work on plain
floats, each small enough to verify by hand. No shipped path runs them:
the benchmark pins them, and the tests replay the attention stack to 1e-12.
"""

import math
from operator import index, mul

import numpy as np

from .errors import DimensionError, EmptyInputError

__all__ = [
    "Vector",
    "Matrix",
    "matrix_array",
    "dot",
    "softmax",
    "linear_apply",
]


# Importing numpy.random costs a process about 13 ms and 6 MB of memory,
# more than getrandbits takes to draw fewer values (7 ms for 2**18).
_NUMPY_DRAW_MIN = 1 << 18

# the smallest subnormal: the floor of every softmax entry
_TINY = math.ulp(0.0)

# a sum of squares in this range lost nothing that matters to under- or overflow
_SAFE_SQUARES = (2.0**-960, 2.0**960)


def _float64_policy(what):
    """A numpy error state, for a ``with`` block or a decorator, in which
    overflow or an invalid result (inf - inf, 0 * inf) raises
    ``ValueError("<what> left float64: overflow")`` (or "invalid value").

    numpy would otherwise warn and carry on with inf or nan. Underflow stays
    silent: subnormals and the softmax's ``ulp(0)`` floor are results, not
    failures. Entering costs about 1 µs: once per epoch, never per step.
    """

    def fail(kind, flag):
        raise ValueError(f"{what} left float64: {kind}")

    return np.errstate(over="call", invalid="call", call=fail)


def _row_scales(a, ss):
    """Each row's power-of-two scale, or None when all are 1. A row whose sum
    of squares in ``ss`` (inf if it overflowed) is out of the safe range scales
    exactly by 2**-e, e the exponent of its largest |x|; a zero row keeps 1."""
    lo, hi = _SAFE_SQUARES
    tiny = ss < lo
    if np.maximum.reduce(ss) <= hi and not (np.count_nonzero(tiny) and a[tiny].any()):
        return None  # every row is in the range or zero
    odd = np.flatnonzero(tiny | (ss > hi))
    scale = np.ones(len(a))
    scale[odd] = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(a[odd]).max(axis=1))[1], -1021))
    return scale


def _draw_count(count, what):
    """``count`` (an int) if numpy can allocate that many float64s, else ValueError."""
    if count > np.iinfo(np.intp).max // 8:
        raise ValueError(f"{what} need {count} weights, more than numpy can allocate")
    return count


def random_array(rng, m, lo=0.0, hi=1.0):
    """``m`` successive ``rng.uniform(lo, hi)`` values as one float64 array.

    Equal bit for bit to ``m`` calls of ``rng.uniform(lo, hi)``, which is
    ``lo + (hi - lo) * rng.random()``, and ``rng`` ends in the same state.
    ``random()`` makes a double of two 32-bit Mersenne Twister words a, b:
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``. A small draw reads them from
    the bytes of ``getrandbits(64 * m)``; a large one runs numpy's
    ``MT19937``, which makes doubles the same way, on ``rng``'s own state
    and hands the advanced state back, pending ``gauss()`` kept.
    """
    if m < _NUMPY_DRAW_MIN:
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4")
        out = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 9007199254740992.0
    else:
        from numpy.random import MT19937, Generator

        version, internal, gauss_next = rng.getstate()
        bits = MT19937(0)  # any seed: the state is replaced before the first word
        bits.state = {"bit_generator": "MT19937", "state": {"key": internal[:-1], "pos": internal[-1]}}
        out = Generator(bits).random(m)
        state = bits.state["state"]
        rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss_next))
    out *= hi - lo
    out += lo
    return out


class Vector:
    """An ordered, immutable list of finite reals, checked by :func:`matrix_array`."""

    __slots__ = ("_data",)

    def __init__(self, components):
        self._data = tuple(matrix_array([components])[0].tolist())

    @classmethod
    def _of(cls, data):
        # ``data`` is a nonempty tuple of finite floats, checked by the caller
        v = cls.__new__(cls)
        v._data = data
        return v

    @property
    def components(self):
        return self._data

    @property
    def dim(self):
        return len(self._data)

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __getitem__(self, i):
        return self._data[i]

    def __eq__(self, other):
        if isinstance(other, Vector):
            return self._data == other._data
        return NotImplemented

    def __hash__(self):
        return hash(self._data)

    # The package computes on arrays; the benchmark's own tests perturb
    # rows and weights with these two.
    def __add__(self, other):
        other = Vector(other)
        if other.dim != self.dim:
            raise DimensionError(f"cannot add dim {self.dim} and dim {other.dim}")
        return Vector(a + b for a, b in zip(self._data, other._data))

    def __mul__(self, scalar):
        return Vector(a * scalar for a in self._data)

    def __repr__(self):
        if self.dim <= 8:
            return f"Vector({list(self._data)!r})"
        head = ", ".join(repr(x) for x in self._data[:4])
        return f"Vector([{head}, ...], dim={self.dim})"


def matrix_array(rows):
    """``rows`` as a validated rows x cols float64 array, rows, cols >= 1.

    Takes a Matrix, a numpy array or a sequence of rows of reals (Vectors
    or any iterables). Empty input raises EmptyInputError, rows of
    different lengths or an array that is not 2-D raise DimensionError,
    and a non-finite entry raises ValueError. An array or Matrix argument
    is returned without a copy when it is already float64.
    """
    if isinstance(rows, Matrix):
        return rows.array
    if isinstance(rows, np.ndarray):
        a = rows.astype(np.float64, copy=False)
        if a.ndim != 2:
            raise DimensionError(f"need a 2-D array, got shape {a.shape}")
    else:
        packed = [r.components if isinstance(r, Vector) else tuple(map(float, r))
                  for r in rows]
        if not packed or not packed[0]:
            raise EmptyInputError("input has no entries")
        width = len(packed[0])
        for i, row in enumerate(packed):
            if len(row) != width:
                raise DimensionError(f"row {i} has {len(row)} entries, expected {width}")
        a = np.array(packed, dtype=np.float64)
    if a.size == 0:
        raise EmptyInputError("input has no entries")
    if not np.isfinite(a).all():
        raise ValueError("input has a non-finite entry")
    return a


class Matrix:
    """An immutable rows x cols matrix of finite reals: one read-only float64 array.

    A Matrix is also a read-only sequence of its rows: ``len``, indexing
    (negative too) and iteration give each row as a Vector, built when it
    is asked for.
    """

    __slots__ = ("_array",)

    def __init__(self, rows):
        a = matrix_array(rows)
        if a is rows:  # the caller's own array: a copy the caller cannot write
            a = np.array(a)
        a.flags.writeable = False
        self._array = a

    @classmethod
    def _take(cls, arr):
        """A Matrix over the 2-D float64 ``arr`` itself, not a copy.

        The caller gives ``arr`` up: it becomes read-only. One finiteness
        check covers every entry, so rows need no check of their own.
        """
        if not np.isfinite(arr).all():
            raise ValueError("matrix has a non-finite entry")
        arr.flags.writeable = False
        m = cls.__new__(cls)
        m._array = arr
        return m

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, cols)))

    @property
    def array(self):
        """The entries as a read-only rows x cols float64 array."""
        return self._array

    @property
    def rows(self):
        return self._array.shape[0]

    @property
    def cols(self):
        return self._array.shape[1]

    @property
    def shape(self):
        return self._array.shape

    def row(self, i):
        return Vector._of(tuple(self._array[index(i)].tolist()))

    __getitem__ = row

    def __len__(self):
        return self._array.shape[0]

    def __iter__(self):
        return map(Vector._of, map(tuple, self._array.tolist()))

    def row_tuples(self):
        """The rows as tuples of Python floats, built on each call."""
        return tuple(map(tuple, self._array.tolist()))

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return np.array_equal(self._array, other._array)
        return NotImplemented

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.shape, (self._array + 0.0).tobytes()))

    def __reduce__(self):
        # rebuilt through __init__, so a pickled or deep-copied Matrix is frozen too
        return (Matrix, (self._array,))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def dot(a, b):
    """Inner product of two equal-dimension vectors."""
    xa, xb = Vector(a).components, Vector(b).components
    if len(xa) != len(xb):
        raise DimensionError(f"dot of dim {len(xa)} against dim {len(xb)}")
    return sum(map(mul, xa, xb))


def softmax(scores):
    """Normalize scores to a strictly positive vector summing to 1.

    The maximum is subtracted before exponentiation so large inputs cannot
    overflow; the result is unchanged because softmax is shift-invariant.
    Entries that underflow to zero are floored at the smallest subnormal
    float: the true softmax is strictly positive everywhere, and the floor
    perturbs the unit sum by far less than any tolerance we promise.
    """
    x = Vector(scores).components
    m = max(x)
    exps = [math.exp(s - m) for s in x]
    total = sum(exps)
    return Vector(max(e / total, _TINY) for e in exps)


def _softmax_in_place(w):
    """Softmax over the last axis of the float64 array ``w``, in place; returns ``w``.

    The array form of :func:`softmax`, with the same shift by the maximum
    and the same floor. Attention runs it on rows of scores, the trainer on
    each step's logits.
    """
    # the ufuncs' own reduce: ndarray.max and .sum wrap these in Python
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    np.maximum(w, _TINY, out=w)
    return w


def linear_apply(weights, x):
    """Apply a linear layer (a bare matrix, no bias) to a vector."""
    xs = Vector(x).components
    if weights.cols != len(xs):
        raise DimensionError(
            f"matrix with {weights.cols} columns applied to dim {len(xs)}"
        )
    return Vector(sum(map(mul, row, xs)) for row in weights.row_tuples())
