"""Tests for the vector and matrix types and the plain-Python primitives."""

import copy
import math
import pickle
import random
import struct

import numpy as np
import pytest

from embgeom import linalg
from embgeom.errors import DimensionError, EmptyInputError
from embgeom.linalg import Matrix, Vector

# Inputs for Vector and matrix_array alike, each made afresh: a generator is read once.
ACCEPTED = {
    "ints": lambda: [1, -2, 3],
    "bools": lambda: (True, False),
    "float32-scalars": lambda: [np.float32(0.1), np.float32(-3e38)],
    "decimal-strings": lambda: ["1.5", "-0.25", "1e-300"],
    "generator": lambda: (x / 3 for x in range(4)),
    "range": lambda: range(5),
    "1-d-array": lambda: np.array([0.1, -1.5, 2.0]),
    "negative-zero": lambda: [-0.0, 0.0],
    "subnormals": lambda: [math.ulp(0.0), -2.2250738585072e-308],
    "sum-overflows": lambda: (1e308, 1e308),
}
REJECTED = {
    "empty": (lambda: [], EmptyInputError),
    "nan": (lambda: [1.0, math.nan], ValueError),
    "inf": (lambda: [math.inf], ValueError),
    "minus-inf": (lambda: [0.0, -math.inf], ValueError),
    "inf-and-minus-inf": (lambda: (math.inf, -math.inf), ValueError),
    "nested": (lambda: [[1.0, 2.0]], TypeError),
    "scalar": (lambda: 3.0, TypeError),
}


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


class TestVector:
    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepts_what_matrix_array_accepts_with_the_same_bits(self, case):
        make = ACCEPTED[case]
        want = _bits([float(x) for x in make()])
        v, a = Vector(make()), linalg.matrix_array([make()])
        assert all(type(x) is float for x in v)
        assert _bits(v.components) == a.astype("<f8").tobytes() == want

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejects_what_matrix_array_rejects_alike(self, case):
        make, error = REJECTED[case]
        with pytest.raises(error) as by_vector:
            Vector(make())
        with pytest.raises(error) as by_matrix_array:
            linalg.matrix_array([make()])
        assert type(by_vector.value) is type(by_matrix_array.value)

    def test_copy_equals_its_source(self):
        v = Vector([1.0, -0.0, 2.5])
        assert Vector(v) == v and _bits(Vector(v).components) == _bits(v.components)

    def test_components_are_floats(self):
        v = Vector([1, 2, 3])
        assert v.components == (1.0, 2.0, 3.0)
        assert all(isinstance(x, float) for x in v)

    def test_dim(self):
        assert Vector([0.5]).dim == 1
        assert Vector(range(10)).dim == 10

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Vector([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Vector([1.0, math.nan])
        with pytest.raises(ValueError):
            Vector([math.inf, 0.0])
        with pytest.raises(ValueError):
            Vector([-math.inf])

    def test_nan_hiding_behind_finite_sum(self):
        # nan + anything is nan so a plain sum does catch it, but two
        # opposite infinities cancel to nan as well; make sure both the
        # sum trick and the fallback agree.
        with pytest.raises(ValueError):
            Vector([math.inf, -math.inf])

    def test_large_finite_values_accepted(self):
        big = 1e308
        v = Vector([big, big])  # sum overflows to inf, components are fine
        assert v.components == (big, big)

    def test_add_and_scale(self):
        a = Vector([1.0, 2.0])
        b = Vector([3.0, -1.0])
        assert (a + b).components == (4.0, 1.0)
        assert (a * 2.0).components == (2.0, 4.0)
        assert (a * -1.0).components == (-1.0, -2.0)

    def test_add_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Vector([1.0]) + Vector([1.0, 2.0])

    def test_equality_and_hash(self):
        assert Vector([1, 2]) == Vector([1.0, 2.0])
        assert hash(Vector([1, 2])) == hash(Vector([1.0, 2.0]))
        assert Vector([1, 2]) != Vector([2, 1])
        assert (Vector([1.0]) == (1.0,)) is False

    def test_repr_shows_at_most_eight_components(self):
        assert repr(Vector([1, 2])) == "Vector([1.0, 2.0])"
        assert repr(Vector(range(8))) == f"Vector({[float(i) for i in range(8)]})"
        assert repr(Vector(range(9))) == "Vector([0.0, 1.0, 2.0, 3.0, ...], dim=9)"


class TestMatrix:
    def test_shape(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.rows == 2 and m.cols == 3
        assert repr(m) == "Matrix(2x3)"

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Matrix([])
        with pytest.raises(EmptyInputError):
            Matrix([[]])

    def test_identity(self):
        assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])

    def test_zeros(self):
        assert Matrix.zeros(2, 3).row_tuples() == ((0.0,) * 3,) * 2

    def test_row(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.row(1) == Vector([3, 4])

    def test_rows_as_a_sequence(self):
        m = Matrix([[1, 2], [3, 4], [5, 6]])
        assert len(m) == 3
        assert m[-1] == Vector([5, 6]) and m[-3] == m[0] == Vector([1, 2])
        assert list(m) == [m.row(i) for i in range(3)]
        assert all(type(x) is float for row in m for x in row.components)
        for i in (3, -4):
            with pytest.raises(IndexError):
                m[i]

    def test_copy_shares_the_read_only_array(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert Matrix(m).array is m.array

    def test_take_adopts_the_array(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Matrix._take(a)
        assert m.array is a and linalg.matrix_array(m) is a
        assert not a.flags.writeable
        assert m == Matrix([[1, 2], [3, 4]])

    def test_take_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Matrix._take(np.array([[1.0, bad], [0.0, 0.0]]))

    def test_row_tuples_are_python_floats(self):
        rows = Matrix(np.array([[1, 2], [3, 4]])).row_tuples()
        assert rows == ((1.0, 2.0), (3.0, 4.0))
        assert all(type(x) is float for row in rows for x in row)

    def test_array_is_a_read_only_float64_copy(self):
        source = np.array([[1, 2], [3, 4]], dtype=np.float64)
        m = Matrix(source)
        assert m.array.dtype == np.float64
        assert not m.array.flags.writeable
        with pytest.raises(ValueError):
            m.array[0, 0] = 9.0
        source[0, 0] = 9.0
        assert m.array[0, 0] == 1.0
        assert m == Matrix([[1, 2], [3, 4]])

    def test_integer_array_becomes_float64(self):
        m = Matrix(np.arange(6).reshape(2, 3))
        assert m.array.dtype == np.float64
        assert m.row_tuples() == ((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))

    def test_array_not_two_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            Matrix(np.ones(3))
        with pytest.raises(DimensionError):
            Matrix(np.ones((2, 2, 2)))

    def test_empty_array_rejected(self):
        with pytest.raises(EmptyInputError):
            Matrix(np.ones((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Matrix(np.array([[1.0, math.nan]]))
        with pytest.raises(ValueError):
            Matrix([[1.0], [math.inf]])

    def test_signed_zeros_equal_with_equal_hashes(self):
        assert Matrix([[0.0]]) == Matrix([[-0.0]])
        assert hash(Matrix([[0.0]])) == hash(Matrix([[-0.0]]))

    def test_copies_stay_read_only(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert back == m
            assert not back.array.flags.writeable

    def test_equality_needs_equal_shapes(self):
        assert Matrix([[1.0, 2.0]]) != Matrix([[1.0], [2.0]])
        assert Matrix([[1.0, 2.0]]) != Matrix([[1.0, 3.0]])
        assert (Matrix([[3.0]]) == 3) is False


class TestMatrixArray:
    def test_rows_of_vectors_and_sequences(self):
        x = linalg.matrix_array([Vector([1, 2]), (3, 4), [5.0, 6.0]])
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, [[1, 2], [3, 4], [5, 6]])

    def test_float64_array_and_matrix_pass_through(self):
        a = np.ones((2, 3))
        assert linalg.matrix_array(a) is a
        m = Matrix(a)
        assert linalg.matrix_array(m) is m.array

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            linalg.matrix_array([])
        with pytest.raises(EmptyInputError):
            linalg.matrix_array(np.ones((2, 0)))
        with pytest.raises(DimensionError):
            linalg.matrix_array([[1.0, 2.0], [3.0]])
        with pytest.raises(DimensionError):
            linalg.matrix_array(np.ones(4))
        with pytest.raises(ValueError):
            linalg.matrix_array([[1.0], [math.nan]])


class TestRandomArray:
    @pytest.mark.parametrize("m", [0, 1, 2, (1 << 14) - 1, 1 << 14, 3 * (1 << 14) + 5])
    def test_equals_per_call_draws_and_leaves_equal_state(self, m):
        bulk, single = random.Random(m), random.Random(m)
        got = linalg.random_array(bulk, m)
        want = [single.random() for _ in range(m)]
        assert got.dtype == np.float64 and got.shape == (m,)
        assert got.tolist() == want  # bit for bit
        assert bulk.getstate() == single.getstate()

    @pytest.mark.parametrize("m", [
        0, 3, (1 << 16) + 7, linalg._NUMPY_DRAW_MIN - 1, linalg._NUMPY_DRAW_MIN + 7,
    ])
    def test_keeps_a_pending_gauss_value(self, m):
        bulk, single = random.Random(5), random.Random(5)
        assert bulk.gauss(0.0, 1.0) == single.gauss(0.0, 1.0)  # leaves gauss_next set
        assert bulk.getstate()[2] is not None
        assert linalg.random_array(bulk, m).tolist() == [single.random() for _ in range(m)]
        assert bulk.getstate() == single.getstate()
        assert bulk.gauss(0.0, 1.0) == single.gauss(0.0, 1.0)

    @pytest.mark.parametrize("m", [0, 1, 625, (1 << 16) + 1, linalg._NUMPY_DRAW_MIN])
    def test_str_seed(self, m):
        # selfcheck seeds each check with a string
        bulk, single = random.Random("3:check"), random.Random("3:check")
        assert linalg.random_array(bulk, m).tolist() == [single.random() for _ in range(m)]
        assert bulk.getstate() == single.getstate()

    def test_draws_continue_where_a_bulk_draw_ends(self):
        bulk, single = random.Random(11), random.Random(11)
        big = linalg._NUMPY_DRAW_MIN + 1
        got = linalg.random_array(bulk, 1000).tolist()
        got += [bulk.random() for _ in range(700)]
        got += linalg.random_array(bulk, big).tolist()
        got += linalg.random_array(bulk, 3).tolist()
        got += [bulk.random(), bulk.randrange(10**9)]
        want = [single.random() for _ in range(1703 + big)]
        want += [single.random(), single.randrange(10**9)]
        assert got == want
        assert bulk.getstate() == single.getstate()


def test_draw_count_is_the_largest_numpy_can_size():
    most = np.iinfo(np.intp).max // 8
    assert linalg._draw_count(most, "a draw") == most
    with pytest.raises(ValueError, match=f"^a draw need {most + 1} weights, more than numpy"):
        linalg._draw_count(most + 1, "a draw")


class TestDot:
    def test_hand_value(self):
        assert linalg.dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.dot([1.0], [1.0, 2.0])

    def test_against_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 20))
            a = rng.normal(size=d)
            b = rng.normal(size=d)
            assert linalg.dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)


class TestSoftmax:
    def test_hand_value(self):
        out = linalg.softmax([1.0, 0.0])
        assert out[0] == pytest.approx(0.7310585786, abs=1e-5)
        assert out[1] == pytest.approx(0.2689414214, abs=1e-5)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 12))
            scale = float(rng.choice([1.0, 10.0, 100.0, 1e4]))
            x = rng.normal(size=d) * scale
            out = linalg.softmax(x)
            assert sum(out) == pytest.approx(1.0, abs=1e-9)
            assert all(p > 0.0 for p in out)

    def test_shift_invariance(self):
        x = [0.3, -1.2, 2.5]
        a = linalg.softmax(x)
        b = linalg.softmax([s + 123.456 for s in x])
        np.testing.assert_allclose(a.components, b.components, atol=1e-12)

    def test_extreme_magnitudes_do_not_overflow(self):
        out = linalg.softmax([1e4, -1e4, 0.0])
        assert sum(out) == pytest.approx(1.0, abs=1e-9)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=7) * 3.0
            e = np.exp(x - x.max())
            expected = e / e.sum()
            got = linalg.softmax(x)
            np.testing.assert_allclose(got.components, expected, atol=1e-12)


class TestLinearApply:
    def test_hand_value(self):
        w = Matrix([[1.0, 1.0], [1.0, -1.0]])
        out = linalg.linear_apply(w, [2.0, 3.0])
        assert out == Vector([5.0, -1.0])

    def test_identity_is_noop(self):
        v = Vector([3.0, -4.0, 5.0])
        assert linalg.linear_apply(Matrix.identity(3), v) == v

    def test_additivity_and_homogeneity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            w = Matrix(rng.normal(size=(4, 3)).tolist())
            x = Vector(rng.normal(size=3))
            y = Vector(rng.normal(size=3))
            c = float(rng.normal())
            lhs = linalg.linear_apply(w, x + y)
            rhs = linalg.linear_apply(w, x) + linalg.linear_apply(w, y)
            np.testing.assert_allclose(lhs.components, rhs.components, atol=1e-9)
            lhs2 = linalg.linear_apply(w, x * c)
            rhs2 = linalg.linear_apply(w, x) * c
            np.testing.assert_allclose(lhs2.components, rhs2.components, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.linear_apply(Matrix([[1.0, 2.0]]), [1.0])

    def test_against_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.normal(size=(r, c))
            x = rng.normal(size=c)
            got = linalg.linear_apply(Matrix(w.tolist()), x)
            np.testing.assert_allclose(got.components, w @ x, atol=1e-12)

