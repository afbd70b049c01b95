"""Dense vector/matrix primitives used by every other module.

A ``Vector`` is a tuple of 64-bit Python floats; a ``Matrix`` is one
read-only float64 numpy array, the same array the numpy code computes
with, and a read-only sequence of its rows, each a Vector built when it is
read. :func:`matrix_array` is the one validator for 2-D input, and
:func:`random_array` the bulk seeded draw behind every random matrix.
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


# Values per getrandbits call in random_array: 128 KiB of generator output.
_DRAW_CHUNK = 1 << 14


def random_array(rng, m):
    """``m`` successive ``rng.random()`` values as a float64 array, drawn in bulk.

    Equal bit for bit to ``m`` calls of ``rng.random()``, and ``rng`` ends
    in the same state. ``random()`` takes two 32-bit Mersenne Twister words
    a, b and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
    ``getrandbits(64 * c)`` returns the next 2c words, the first in its
    lowest 32 bits, so its little-endian bytes hold the same a, b pairs.
    """
    out = np.empty(m)
    for start in range(0, m, _DRAW_CHUNK):
        c = min(_DRAW_CHUNK, m - start)
        w = np.frombuffer(rng.getrandbits(64 * c).to_bytes(8 * c, "little"), dtype="<u4")
        u = out[start : start + c]
        np.multiply(w[0::2] >> 5, 67108864.0, out=u)
        u += w[1::2] >> 6
        u *= 1.0 / 9007199254740992.0
    return out


def _check_finite(values):
    # Fast path: a finite sum proves nothing is nan/inf unless the sum
    # itself overflowed, so only then inspect element by element.
    if math.isfinite(sum(values)):
        return
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"non-finite component: {x!r}")


class Vector:
    """An ordered, immutable list of finite real numbers."""

    __slots__ = ("_data",)

    def __init__(self, components):
        if isinstance(components, Vector):
            self._data = components._data
            return
        data = tuple(map(float, components))
        if not data:
            raise EmptyInputError("a vector needs at least one component")
        _check_finite(data)
        self._data = data

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
            raise EmptyInputError("a matrix needs at least one row and one column")
        width = len(packed[0])
        for i, row in enumerate(packed):
            if len(row) != width:
                raise DimensionError(f"row {i} has {len(row)} entries, expected {width}")
        a = np.array(packed, dtype=np.float64)
    if a.size == 0:
        raise EmptyInputError("a matrix needs at least one row and one column")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    return a


class Matrix:
    """An immutable rows x cols matrix of finite reals: one read-only float64 array.

    A Matrix is also a read-only sequence of its rows: ``len``, indexing
    (negative too) and iteration give each row as a Vector, built when it
    is asked for.
    """

    __slots__ = ("_array",)

    def __init__(self, rows):
        if isinstance(rows, Matrix):
            self._array = rows._array
            return
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
    tiny = math.ulp(0.0)
    return Vector(max(e / total, tiny) for e in exps)


def linear_apply(weights, x):
    """Apply a linear layer (a bare matrix, no bias) to a vector."""
    xs = Vector(x).components
    if weights.cols != len(xs):
        raise DimensionError(
            f"matrix with {weights.cols} columns applied to dim {len(xs)}"
        )
    return Vector(sum(map(mul, row, xs)) for row in weights.row_tuples())
