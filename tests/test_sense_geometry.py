"""Tests for sense centroids, homonym clustering, and probing classifiers."""

import math
import random
import struct
import time
import warnings
from operator import mul

import numpy as np
import pytest

from embgeom import sense_geometry
from embgeom.errors import (
    DegenerateClassError,
    DegenerateClustersWarning,
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    ParseError,
    ZeroVectorError,
)
from embgeom.linalg import Vector
from embgeom.sense_geometry import (
    METRICS,
    ProbeConfig,
    ProbeExample,
    ProbeModel,
    SenseInventory,
    ambiguity_flag,
    contextual_shift,
    homonym_separation,
    inventory_report,
    load_probe_model,
    load_probe_tsv,
    load_sense_tsv,
    probe_accuracy,
    probe_predict,
    probe_train,
    save_probe_model,
    save_probe_tsv,
    save_sense_tsv,
)
from embgeom.linalg import Matrix


# The pure-Python 2-means that homonym_separation ran before its array
# kernel, kept as the reference the kernel is replayed against.


def _norm_tuple(x):
    return math.sqrt(sum(map(mul, x, x)))


def _point_distance(x, xnorm, c, cnorm, metric):
    if metric == "euclidean":
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, c)))
    if xnorm == 0.0 or cnorm == 0.0:
        raise ZeroVectorError("cosine distance is undefined for zero-norm vectors")
    return 1.0 - sum(map(mul, x, c)) / (xnorm * cnorm)


def _mean_rows(points, members):
    d = len(points[0])
    acc = [0.0] * d
    for i in members:
        row = points[i]
        for j in range(d):
            acc[j] += row[j]
    inv = 1.0 / len(members)
    return tuple(a * inv for a in acc)


def reference_lloyd(points, norms, init_pair, metric):
    n = len(points)
    centroids = [points[init_pair[0]], points[init_pair[1]]]
    assign = [-1] * n
    for _ in range(sense_geometry.MAX_ITER):
        cnorms = [_norm_tuple(c) for c in centroids]
        changed = False
        for i, x in enumerate(points):
            d0 = _point_distance(x, norms[i], centroids[0], cnorms[0], metric)
            d1 = _point_distance(x, norms[i], centroids[1], cnorms[1], metric)
            best = 0 if d0 <= d1 else 1
            if assign[i] != best:
                assign[i] = best
                changed = True
        members = ([i for i in range(n) if assign[i] == 0],
                   [i for i in range(n) if assign[i] == 1])
        centroids = [
            _mean_rows(points, members[k]) if members[k] else centroids[k]
            for k in range(2)
        ]
        if not changed:
            break
    cnorms = [_norm_tuple(c) for c in centroids]
    cost = sum(
        _point_distance(x, norms[i], centroids[assign[i]], cnorms[assign[i]], metric)
        for i, x in enumerate(points)
    )
    return assign, centroids, cost


def reference_farthest_pair(points, norms, metric):
    best = None
    best_d = -1.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = _point_distance(points[i], norms[i], points[j], norms[j], metric)
            if d > best_d:
                best_d = d
                best = (i, j)
    return best


def reference_separation(occurrences, seed, metric):
    """Assignments and centroids of homonym_separation, replayed in pure Python."""
    raw = [tuple(map(float, v)) for v in occurrences]
    norms = [_norm_tuple(x) for x in raw]
    rng = random.Random(seed)
    inits = [reference_farthest_pair(raw, norms, metric)]
    while len(inits) < sense_geometry.RESTARTS:
        i = rng.randrange(len(raw))
        j = rng.randrange(len(raw))
        if i != j:
            inits.append((i, j))
    best = None
    for pair in inits:
        assign, centroids, cost = reference_lloyd(raw, norms, pair, metric)
        if best is None or cost < best[2] - 1e-12:
            best = (assign, centroids, cost)
    return tuple(best[0]), best[1]


def two_clusters(n, d, seed):
    """n occurrences, each near one of two random directions, with clear margins."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(2, d))
    labels = rng.integers(0, 2, size=n)
    occ = centers[labels] + 0.1 * rng.normal(size=(n, d))
    return occ.tolist(), rng.normal(size=d).tolist()


def _sense_centroid(occurrences):
    """The centroid of one sense's occurrences, read off inventory_report."""
    return inventory_report(SenseInventory(word="w", senses={"s": occurrences})).centroids[0]


class TestSenseCentroid:
    def test_singleton(self):
        v = Vector([1.5, -2.0])
        assert _sense_centroid([v]) == v

    def test_midpoint(self):
        assert _sense_centroid([[0.0, 2.0], [2.0, 0.0]]) == Vector([1.0, 1.0])

    def test_cancellation(self):
        v = Vector([3.0, -1.0, 2.0])
        occ = [v] * 4 + [Vector([-3.0, 1.0, -2.0])] * 4
        assert _sense_centroid(occ) == Vector([0.0, 0.0, 0.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(50)
        occ = [rng.normal(size=3) for _ in range(6)]
        a = _sense_centroid(occ)
        perm = [occ[i] for i in rng.permutation(6)]
        b = _sense_centroid(perm)
        np.testing.assert_allclose(a.components, b.components, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            _sense_centroid([])


def _sense_distance(c1, c2, metric="cosine"):
    """Distance between two one-occurrence senses, read off inventory_report."""
    inv = SenseInventory(word="w", senses={"a": [c1], "b": [c2]})
    return inventory_report(inv, metric=metric).pairwise_distances.row(0)[1]


class TestSenseDistance:
    def test_identity_is_zero(self):
        v = [0.4, 0.6]
        assert _sense_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert _sense_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert _sense_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.29289, abs=1e-5)

    def test_euclidean_flag(self):
        assert _sense_distance([0.0, 3.0], [4.0, 0.0], metric="euclidean") == 5.0


class TestContextualShift:
    def test_unmodified_embedding(self):
        v = [1.0, 2.0]
        assert contextual_shift(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert contextual_shift([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hand_value(self):
        assert contextual_shift([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            0.29289, abs=1e-5
        )

    def test_euclidean_flag(self):
        assert contextual_shift([0.0, 0.0], [3.0, 4.0], metric="euclidean") == 5.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            d = contextual_shift(a, b)
            assert d == pytest.approx(contextual_shift(b, a), abs=1e-12)
            assert d == pytest.approx(contextual_shift(2.5 * a, 0.3 * b), abs=1e-9)
            assert -1e-12 <= d <= 2 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            contextual_shift([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            contextual_shift([1.0, 0.0], [0.0, 0.0])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            contextual_shift([1.0], [1.0], metric="manhattan")

    def test_dims_must_match(self):
        with pytest.raises(DimensionError, match="context dim 2 does not match token dim 3"):
            contextual_shift([1.0, 0.0, 0.0], [1.0, 0.0])


class TestHomonymSeparation:
    def axes_case(self):
        occurrences = [[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3
        token = [0.7, 0.7]
        gold = ["x", "x", "x", "y", "y", "y"]
        return token, occurrences, gold

    def test_hand_geometry(self):
        token, occ, gold = self.axes_case()
        report = homonym_separation(token, occ, gold_labels=gold, seed=0)
        assert report.purity == 1.0
        assert report.betweenness[(0, 1)] is True
        assert len(set(report.assignments[:3])) == 1
        assert len(set(report.assignments[3:])) == 1
        assert report.assignments[0] != report.assignments[3]
        # centroids are the axis points; inter-centroid cosine distance 1
        d = report.pairwise_distances.row(0)[1]
        assert d == pytest.approx(1.0, abs=1e-9)
        for t2c in report.token_to_centroid:
            assert t2c == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-9)

    def test_identical_occurrences_degenerate(self):
        with pytest.warns(DegenerateClustersWarning):
            report = homonym_separation([1.0, 1.0], [[2.0, 1.0]] * 5, seed=0)
        assert report.degenerate
        assert report.pairwise_distances.row(0)[1] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_is_a_python_bool(self):
        with pytest.warns(DegenerateClustersWarning):
            same = homonym_separation([1.0, 1.0], [[2.0, 1.0]] * 4, seed=0)
        apart = homonym_separation([1.0, 1.0], [[1.0, 0.0]] * 2 + [[0.0, 1.0]] * 2, seed=0)
        assert (same.degenerate, apart.degenerate) == (True, False)
        assert type(same.degenerate) is type(apart.degenerate) is bool

    def test_purity_one_on_separated_gold(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(20, 4)) * 0.05 + np.array([1.0, 0.0, 0.0, 0.0])
        b = rng.normal(size=(20, 4)) * 0.05 + np.array([0.0, 1.0, 0.0, 0.0])
        occ = np.vstack([a, b]).tolist()
        gold = ["a"] * 20 + ["b"] * 20
        report = homonym_separation([0.5, 0.5, 0.0, 0.0], occ, gold_labels=gold)
        assert report.purity == 1.0

    def test_too_few_occurrences(self):
        with pytest.raises(InsufficientDataError):
            homonym_separation([1.0], [[1.0], [2.0], [3.0]])
        with pytest.raises(InsufficientDataError):
            homonym_separation([1.0], Matrix([[1.0], [2.0], [3.0]]))

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_empty_input_is_empty_input_error(self, empty):
        with pytest.raises(EmptyInputError):
            homonym_separation([1.0, 0.0], empty)

    def test_takes_one_matrix_or_array(self):
        occ, token = two_clusters(30, 5, seed=55)
        gold = ["a" if i % 2 else "b" for i in range(30)]
        want = homonym_separation(token, occ, gold_labels=gold, seed=3)
        arr = np.array(occ)
        for x in (arr, Matrix(occ), iter(map(Vector, occ))):
            got = homonym_separation(token, x, gold_labels=gold, seed=3)
            assert got == want
        assert np.array_equal(arr, occ)  # the caller's array is not written

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(10, 3)) * 0.05 + np.array([1.0, 0.0, 0.0])
        b = rng.normal(size=(10, 3)) * 0.05 + np.array([0.0, 1.0, 0.0])
        occ = np.vstack([a, b])
        perm = rng.permutation(20)
        r1 = homonym_separation([0.5, 0.5, 0.0], occ.tolist(), seed=4)
        r2 = homonym_separation([0.5, 0.5, 0.0], occ[perm].tolist(), seed=4)
        direct = [r1.assignments[i] for i in perm]
        same = [a == b for a, b in zip(direct, r2.assignments)]
        assert all(same) or not any(same)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(54)
        occ = rng.normal(size=(12, 3)).tolist()
        r1 = homonym_separation([1.0, 0.0, 0.0], occ, seed=9)
        r2 = homonym_separation([1.0, 0.0, 0.0], occ, seed=9)
        assert r1.assignments == r2.assignments
        assert r1.centroids == r2.centroids

    def test_gold_label_length_mismatch(self):
        occ = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]]
        with pytest.raises(DimensionError):
            homonym_separation([1.0, 1.0], occ, gold_labels=["a"])

    def test_three_way_gold_rejected(self):
        occ = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]]
        with pytest.raises(ValueError, match="two-way"):
            homonym_separation([1.0, 1.0], occ, gold_labels=list("abcd"))

    def test_euclidean_metric(self):
        occ = [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]
        report = homonym_separation([2.5, 2.5], occ, metric="euclidean", seed=1)
        assert report.metric == "euclidean"
        assert report.assignments[0] == report.assignments[1]
        assert report.assignments[2] == report.assignments[3]
        assert report.assignments[0] != report.assignments[2]
        # token midway: closer to each centroid than they are to each other
        assert report.betweenness[(0, 1)] is True

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            homonym_separation([1.0, 0.0], [[1.0], [2.0], [3.0], [4.0]])

    def test_equidistant_point_goes_to_cluster_0(self):
        # farthest pair (0, 3) seeds centroids -1 and 1; the point at 0 is
        # equidistant and joins cluster 0, whose mean -2/3 then holds it.
        # The mirror split costs the same, so no restart replaces this one.
        report = homonym_separation(
            [0.5], [[-1.0], [-1.0], [0.0], [1.0], [1.0]], metric="euclidean"
        )
        assert report.assignments == (0, 0, 0, 1, 1)
        assert report.centroids[0][0] == pytest.approx(-2 / 3, abs=1e-15)

    def test_first_of_equally_far_pairs_seeds_first_restart(self):
        # pairs (0, 1) and (1, 2) are both exactly 10 apart; (0, 1) comes
        # first, so occurrence 0 seeds cluster 0. Seeding from (1, 2) would
        # label the same optimal split the other way round.
        occ = [[0.0, 0.0], [10.0, 0.0], [4.0, 8.0], [9.0, 1.0]]
        report = homonym_separation([5.0, 2.0], occ, metric="euclidean")
        assert report.assignments == (0, 1, 0, 1)

    def test_zero_norm_occurrence(self):
        occ = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(ZeroVectorError):
            homonym_separation([1.0, 1.0], occ)
        report = homonym_separation([1.0, 1.0], occ, metric="euclidean")
        assert len(report.assignments) == 5

    def test_centroid_averaging_to_zero(self):
        # a restart seeded on two copies of one occurrence ties every
        # occurrence to cluster 0, whose mean is the zero vector
        occ = [[1.0, 0.0]] * 4 + [[-1.0, 0.0]] * 4
        with pytest.raises(ZeroVectorError):
            homonym_separation([1.0, 1.0], occ, seed=0)

    def test_no_numpy_warning(self):
        occ, token = two_clusters(30, 5, seed=60)
        zero = [[0.0] * 5] + occ
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for metric in ("cosine", "euclidean"):
                homonym_separation(token, occ, metric=metric)
            homonym_separation(token, zero, metric="euclidean")
            with pytest.raises(ZeroVectorError):
                homonym_separation(token, zero)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_float64_overflow_is_value_error(self, metric):
        # rows whose squares overflow are scaled first, so they split as
        # rows of ordinary size do: nothing here leaves float64
        occ = [[1e200, 0.0], [1e200, 1.0], [-1e200, 0.0], [-1e200, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = homonym_separation([1.0, 1.0], occ, metric=metric)
        assert report.assignments == (0, 0, 1, 1)
        assert report.centroids == (Vector([1e200, 0.5]), Vector([-1e200, 0.5]))
        if metric == "cosine":
            assert report.pairwise_distances.row(0)[1] == 2.0
            assert report.token_to_centroid == pytest.approx((1 - 0.5**0.5, 1 + 0.5**0.5))
        else:
            assert report.pairwise_distances.row(0)[1] == 2e200
            assert report.token_to_centroid == pytest.approx((1e200, 1e200), rel=1e-15)


class TestSeparationMatchesReference:
    # a cap of one pass ends every run at the cap, not at a fixpoint
    @pytest.mark.parametrize("metric, n, d, seed, max_iter", [
        ("cosine", 150, 32, 61, sense_geometry.MAX_ITER),
        ("cosine", 24, 768, 62, sense_geometry.MAX_ITER),
        ("euclidean", 40, 4, 63, sense_geometry.MAX_ITER),
        ("cosine", 150, 32, 61, 1),
    ], ids=["cosine-150-32-61", "cosine-24-768-62", "euclidean-40-4-63", "cosine-150-32-61-capped"])
    def test_replay(self, metric, n, d, seed, max_iter, monkeypatch):
        monkeypatch.setattr(sense_geometry, "MAX_ITER", max_iter)
        occ, token = two_clusters(n, d, seed)
        for split_seed in range(3):
            report = homonym_separation(token, occ, seed=split_seed, metric=metric)
            assign, centroids = reference_separation(occ, split_seed, metric)
            assert report.assignments == assign
            np.testing.assert_allclose(
                [c.components for c in report.centroids], centroids, atol=1e-12, rtol=0
            )


class TestSeparationBudget:
    def test_n400_d64_under_fifth_of_a_second(self):
        # the array kernel takes about 0.03 s here; the pure-Python
        # reference takes about 0.4 s, most of it in the farthest pair
        occ, token = two_clusters(400, 64, seed=64)
        start = time.perf_counter()
        report = homonym_separation(token, occ)
        elapsed = time.perf_counter() - start
        assert len(report.assignments) == 400
        assert elapsed < 0.2, f"homonym_separation took {elapsed:.2f} s"


class TestInventoryReport:
    def test_centroids_and_distances(self):
        inv = SenseInventory(
            word="bank",
            senses={
                "river": [[0.0, 2.0], [2.0, 0.0]],
                "money": [[0.0, -1.0], [0.0, -3.0]],
            },
        )
        report = inventory_report(inv, token_emb=[1.0, 0.0])
        assert report.names == ("money", "river")
        assert report.centroids[0] == Vector([0.0, -2.0])
        assert report.centroids[1] == Vector([1.0, 1.0])
        m = report.pairwise_distances
        assert m.row(0)[0] == 0.0
        assert m.row(0)[1] == m.row(1)[0]
        assert len(report.token_to_centroid) == 2
        assert (0, 1) in report.betweenness

    def test_single_sense(self):
        inv = SenseInventory(word="w", senses={"only": [[1.0, 1.0]]})
        report = inventory_report(inv)
        assert report.names == ("only",)
        assert report.token_to_centroid is None

    def test_single_zero_sense_has_no_cosine_distance_to_take(self):
        inv = SenseInventory(word="w", senses={"only": [[1.0, 0.0], [-1.0, 0.0]]})
        assert inventory_report(inv).pairwise_distances == Matrix([[0.0]])
        with pytest.raises(ZeroVectorError):
            inventory_report(inv, token_emb=[1.0, 0.0])

    def test_pairwise_matrix_is_exactly_symmetric(self):
        rng = np.random.default_rng(70)
        inv = SenseInventory("w", {f"s{i}": rng.normal(size=(3, 32)) for i in range(5)})
        for metric in METRICS:
            m = inventory_report(inv, metric=metric).pairwise_distances.array
            assert np.array_equal(m, m.T) and not np.diag(m).any()


class TestSenseReport:
    """A report's fields must agree and its distances be a distance matrix."""

    @staticmethod
    def report(m, names=("a", "b"), metric="cosine"):
        return sense_geometry.SenseReport(names=names, centroids=(Vector([1.0]), Vector([2.0])),
                                          pairwise_distances=Matrix(m), metric=metric)

    @pytest.mark.parametrize("names, m", [
        (("a",), [[0.0, 1.0], [1.0, 0.0]]),
        (("a", "b"), [[0.0]]),
    ], ids=["names", "matrix"])
    def test_sense_count_disagreement_is_dimension_error(self, names, m):
        with pytest.raises(DimensionError, match="number of senses"):
            self.report(m, names=names)

    @pytest.mark.parametrize("m, match", [
        ([[0.5, 1.0], [1.0, 0.0]], "diagonal must be zero"),
        ([[0.0, 1.0], [1.5, 0.0]], "must be symmetric"),
        ([[0.0, 2.5], [2.5, 0.0]], r"lie in \[0, 2\]"),
        ([[0.0, -0.5], [-0.5, 0.0]], r"lie in \[0, 2\]"),
    ], ids=["diagonal", "asymmetric", "above-2", "negative"])
    def test_distances_that_are_no_distance_matrix(self, m, match):
        with pytest.raises(ValueError, match=match):
            self.report(m)


def _pairwise(report):
    return report.pairwise_distances.row(0)[1]


def _token(report):
    return report.token_to_centroid


@pytest.mark.parametrize("call, expected", [
    (lambda: contextual_shift([1e200, 1.0], [1e200, 2.0]), 0.0),
    (lambda: contextual_shift([1e200, 0.0], [-1e200, 0.0], metric="euclidean"), 2e200),
    (lambda: inventory_report(SenseInventory("w", {"a": [[1e308, 0.0], [1e308, 0.0]]})),
     ValueError),
    (lambda: _pairwise(inventory_report(SenseInventory("w", {"a": [[1e200, 1.0]],
                                                             "b": [[1e200, 2.0]]}))), 0.0),
    (lambda: _pairwise(inventory_report(SenseInventory("w", {"a": [[1e200, 0.0]],
                                                             "b": [[-1e200, 0.0]]}),
                                        metric="euclidean")), 2e200),
    (lambda: _token(inventory_report(SenseInventory("w", {"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]}),
                                     token_emb=[1e200, 1.0])), (0.0, 1.0)),
    (lambda: _token(inventory_report(SenseInventory("w", {"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]}),
                                     token_emb=[-1e200, 1e200], metric="euclidean")),
     (2**0.5 * 1e200, 2**0.5 * 1e200)),
    (lambda: contextual_shift([1e308, 0.0], [-1e308, 0.0], metric="euclidean"), ValueError),
], ids=["shift-cosine", "shift-euclidean", "centroid", "pairwise-cosine", "pairwise-euclidean",
        "token-cosine", "token-euclidean", "difference-euclidean"])
def test_float64_overflow_is_value_error(call, expected):
    # Rows whose squares overflow are scaled first, so only a true overflow
    # fails: the sum of two 1e308 rows, or their difference. It fails by
    # name, never as nan or inf distances or betweenness flags silently False.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is ValueError:
            with pytest.raises(ValueError, match=" left float64: "):
                call()
        else:
            assert call() == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [2, 32, 768])
def test_geometry_matches_the_reference(metric, d):
    """Centroids, centroid and token distances and shifts against plain floats."""
    rng = np.random.default_rng(d)
    groups = [rng.normal(size=(n, d)).tolist() for n in (1, 4, 9)]
    token = rng.normal(size=d).tolist()
    occ, _ = two_clusters(24, d, seed=d)
    split = homonym_separation(token, occ, metric=metric)
    for report, members in (
        (inventory_report(SenseInventory("w", {f"s{i}": g for i, g in enumerate(groups)}),
                          token_emb=token, metric=metric), groups),
        (split, [[x for x, a in zip(occ, split.assignments) if a == k] for k in (0, 1)]),
    ):
        cents = [_mean_rows(rows, range(len(rows))) for rows in members]
        norms = [_norm_tuple(c) for c in cents]
        pair = [[0.0 if i == j else _point_distance(ci, ni, cj, nj, metric)
                 for j, (cj, nj) in enumerate(zip(cents, norms))]
                for i, (ci, ni) in enumerate(zip(cents, norms))]
        t2c = [_point_distance(token, _norm_tuple(token), c, n, metric)
               for c, n in zip(cents, norms)]
        close = dict(atol=1e-12, rtol=1e-12)
        np.testing.assert_allclose([c.components for c in report.centroids], cents, **close)
        np.testing.assert_allclose(report.pairwise_distances.array, pair, **close)
        np.testing.assert_allclose(report.token_to_centroid, t2c, **close)
    for a, b in rng.normal(size=(5, 2, d)).tolist():
        want = _point_distance(a, _norm_tuple(a), b, _norm_tuple(b), metric)
        assert contextual_shift(a, b, metric=metric) == pytest.approx(want, abs=1e-12, rel=1e-12)


class TestSenseInventory:
    def test_empty_sense_rejected(self):
        with pytest.raises(EmptyInputError):
            SenseInventory(word="w", senses={"a": []})

    def test_no_senses_rejected(self):
        with pytest.raises(EmptyInputError):
            SenseInventory(word="w", senses={})

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionError):
            SenseInventory(word="w", senses={"a": [[1.0]], "b": [[1.0, 2.0]]})
        with pytest.raises(DimensionError):
            SenseInventory(word="w", senses={"a": [[1.0], [1.0, 2.0]]})

    def test_each_sense_is_one_read_only_matrix(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        inv = SenseInventory(word="w", senses={"a": rows, "b": [Vector([5.0, 6.0])]})
        rows[0, 0] = 9.0  # the inventory holds a copy
        assert list(inv.senses["a"]) == [Vector([1.0, 2.0]), Vector([3.0, 4.0])]
        assert inv.senses["a"].cols == 2
        assert not inv.senses["b"].array.flags.writeable


# The pure-Python SGD loop that probe_train ran before its array kernel,
# one class at a time, kept as the reference the kernel is replayed against.


def reference_probe_train(examples, config):
    """(weights, biases, skipped) per sorted class; ``skipped`` counts g == 0 steps."""
    pairs = [(tuple(map(float, v)), frozenset(labels)) for v, labels in examples]
    classes = sorted(set().union(*(labels for _, labels in pairs)))
    n, d = len(pairs), len(pairs[0][0])
    xs = [v for v, _ in pairs]
    ys = {c: [1.0 if c in labels else 0.0 for _, labels in pairs] for c in classes}
    weights = {c: [0.0] * d for c in classes}
    biases = {c: 0.0 for c in classes}
    skipped = 0

    rng = random.Random(config.seed)
    order = list(range(n))
    lr = config.learning_rate
    for _ in range(config.epochs):
        rng.shuffle(order)
        for k in order:
            x = xs[k]
            for c in classes:
                w = weights[c]
                g = sense_geometry._sigmoid(sum(map(mul, w, x)) + biases[c]) - ys[c][k]
                if g:
                    f = lr * g
                    w[:] = [wj - f * xj for wj, xj in zip(w, x)]
                    biases[c] -= f
                else:
                    skipped += 1
    return [weights[c] for c in classes], [biases[c] for c in classes], skipped


def probe_clusters(n, d, seed, label_sets):
    """n probe examples cycling through ``label_sets``, separable one-vs-rest.

    Each class owns one of a set of random orthonormal directions; an
    example sits at the sum of its classes' directions (the origin for an
    empty set) plus noise of norm about 0.1.
    """
    rng = np.random.default_rng(seed)
    classes = sorted(set().union(*label_sets))
    axes = np.linalg.qr(rng.normal(size=(d, len(classes))))[0].T
    examples = []
    for i in range(n):
        labels = label_sets[i % len(label_sets)]
        point = sum((axes[classes.index(c)] for c in labels), np.zeros(d))
        point += rng.normal(size=d) * (0.1 / math.sqrt(d))
        examples.append((point.tolist(), set(labels)))
    return examples


MULTI_LABEL = ({"A"}, {"B"}, {"C"}, {"A", "B"}, set())


def separable_points(rng, n=100, noise=0.1):
    a = rng.normal(size=(n, 2)) * noise + np.array([1.0, 0.0])
    b = rng.normal(size=(n, 2)) * noise + np.array([0.0, 1.0])
    examples = [(row.tolist(), {"A"}) for row in a]
    examples += [(row.tolist(), {"B"}) for row in b]
    return examples


class TestProbeTrain:
    def test_separable_accuracy(self):
        rng = np.random.default_rng(55)
        examples = separable_points(rng)
        model = probe_train(examples)
        assert probe_accuracy(model, examples) >= 0.95

    def test_class_order_sorted(self):
        rng = np.random.default_rng(56)
        model = probe_train(separable_points(rng, n=10))
        assert model.classes == ("A", "B")

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateClassError):
            probe_train([([1.0, 0.0], {"A"}), ([0.0, 1.0], {"A"})])

    def test_class_without_negatives_rejected(self):
        with pytest.raises(DegenerateClassError, match="negative"):
            probe_train([([1.0, 0.0], {"A", "B"}), ([0.0, 1.0], {"A"})])

    def test_xor_is_not_linearly_separable(self):
        corners = [
            ([0.0, 0.0], {"A"}),
            ([1.0, 1.0], {"A"}),
            ([0.0, 1.0], {"B"}),
            ([1.0, 0.0], {"B"}),
        ]
        examples = corners * 25
        model = probe_train(examples)
        assert probe_accuracy(model, examples) <= 0.75

    def test_deterministic(self):
        rng = np.random.default_rng(57)
        examples = separable_points(rng, n=20)
        m1 = probe_train(examples, ProbeConfig(seed=3))
        m2 = probe_train(examples, ProbeConfig(seed=3))
        assert m1.weights == m2.weights and m1.biases == m2.biases

    def test_string_labels_rejected(self):
        with pytest.raises(TypeError):
            probe_train([([1.0], "A"), ([0.0], "B")])

    def test_no_examples_rejected(self):
        with pytest.raises(EmptyInputError):
            probe_train([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(epochs=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            ProbeConfig(learning_rate=rate)


class TestProbeMatchesReference:
    @pytest.mark.parametrize("n, d, label_sets, seed", [
        (8, 768, ({"A"}, {"B"}), 71),
        (150, 32, ({"A"}, {"B"}), 72),
        (15, 16, MULTI_LABEL, 73),
    ])
    def test_replay(self, n, d, label_sets, seed):
        examples = probe_clusters(n, d, seed, label_sets)
        config = ProbeConfig(seed=seed)
        model = probe_train(examples, config)
        weights, biases, _ = reference_probe_train(examples, config)
        assert model.classes == tuple(sorted(set().union(*label_sets)))
        np.testing.assert_allclose(
            [w.components for w in model.weights], weights, atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(model.biases, biases, atol=1e-12, rtol=0)

    def test_saturated_class_is_not_moved(self):
        # positives at +-50 push their class score past 37, where _sigmoid
        # rounds to exactly 1.0: g == 0 and the reference skips the update
        examples = [([50.0, -3.0], {"A"}), ([-50.0, 3.0], {"B"})]
        config = ProbeConfig(epochs=20)
        model = probe_train(examples, config)
        weights, biases, skipped = reference_probe_train(examples, config)
        assert skipped > 0
        np.testing.assert_allclose(
            [w.components for w in model.weights], weights, atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(model.biases, biases, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("examples, rate", [
        ([([1e300, 1e300], {"A"}), ([-1e300, 1e300], {"B"})], 0.5),
        ([([10.0], {"A"}), ([-10.0], {"B"})], 1e308),
    ])
    def test_float64_overflow_is_value_error(self, examples, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="left float64"):
                probe_train(examples, ProbeConfig(learning_rate=rate))


class TestProbeBudget:
    def test_n24_d768_three_classes_under_three_tenths_of_a_second(self):
        # the array kernel takes about 0.08 s here; the pure-Python
        # reference takes about 1 s
        examples = probe_clusters(24, 768, 74, MULTI_LABEL)
        config = ProbeConfig(epochs=200)
        elapsed = math.inf
        for _ in range(3):
            start = time.perf_counter()
            model = probe_train(examples, config)
            elapsed = min(elapsed, time.perf_counter() - start)
        assert model.classes == ("A", "B", "C")
        assert elapsed < 0.3, f"probe_train took {elapsed:.2f} s"


class TestProbePredict:
    def make_model(self):
        # FOOD claimed on x0 > 0.5, ORGANIZATION on x1 > 0.5
        return ProbeModel(
            classes=("FOOD", "ORGANIZATION"),
            weights=(Vector([10.0, 0.0]), Vector([0.0, 10.0])),
            biases=(-5.0, -5.0),
        )

    def test_unreachable_threshold_gives_empty_set(self):
        model = self.make_model()
        for point in ([5.0, 5.0], [1.0, 0.0], [0.0, 0.0]):
            assert probe_predict(model, point, threshold=1.1) == set()

    def test_separable_class_a_predicts_a(self):
        rng = np.random.default_rng(58)
        examples = separable_points(rng)
        model = probe_train(examples)
        a_points = [v for v, labels in examples if labels == {"A"}]
        hits = sum(1 for v in a_points if probe_predict(model, v) == {"A"})
        assert hits / len(a_points) >= 0.95

    def test_boundary_score_included(self):
        # zero weights and bias give sigmoid(0) = 0.5 exactly
        model = ProbeModel(
            classes=("A", "B"),
            weights=(Vector([0.0]), Vector([0.0])),
            biases=(0.0, 0.0),
        )
        assert probe_predict(model, [3.0]) == {"A", "B"}
        assert sense_geometry._scores(model, np.array([[3.0]])) == [(0.5, 0.5)]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            probe_predict(self.make_model(), [1.0, 2.0, 3.0])

    def test_nan_threshold_rejected(self):
        # no score reaches nan: it would read as an empty prediction
        model = self.make_model()
        for call in (
            lambda: probe_predict(model, [1.0, 0.0], threshold=math.nan),
            lambda: ambiguity_flag(model, [1.0, 1.0], threshold=math.nan),
            lambda: probe_accuracy(model, [([1.0, 0.0], {"FOOD"})], threshold=math.nan),
        ):
            with pytest.raises(ValueError, match="threshold"):
                call()

    def test_nan_score_is_value_error_naming_its_class(self):
        # 1e300 * 1e10 overflows both ways, and inf - inf is NaN: a NaN score
        # reaches no threshold, so it would drop its class from the prediction
        model = ProbeModel(classes=("A", "B"), weights=((1e300, -1e300), (1e300, 0.0)),
                           biases=(0.0, 0.0))
        for call in (
            lambda: sense_geometry._scores(model, np.array([[1e10, 1e10]])),
            lambda: probe_predict(model, [1e10, 1e10], threshold=0.0),
            lambda: probe_accuracy(model, [([0.0, 1.0], {"A"}), ([1e10, 1e10], {"B"})]),
        ):
            with pytest.raises(ValueError, match="class 'A' is NaN"):
                call()

    def test_overflow_to_inf_still_scores(self):
        model = ProbeModel(classes=("A", "B"), weights=((1e300, 1e300), (-1e300, 0.0)),
                           biases=(0.0, 0.0))
        assert sense_geometry._scores(model, np.array([[1e10, 1e10]])) == [(1.0, 0.0)]
        assert probe_predict(model, [1e10, 1e10]) == {"A"}


class TestProbeModel:
    @pytest.mark.parametrize("weights", [
        (Vector([1.0, 0.0]), Vector([0.0, 1.0])),
        [[1.0, 0.0], [0.0, 1.0]],
        np.eye(2),
        Matrix([[1.0, 0.0], [0.0, 1.0]]),
    ], ids=["vectors", "lists", "array", "matrix"])
    def test_weights_are_one_read_only_matrix(self, weights):
        model = ProbeModel(classes=("A", "B"), weights=weights, biases=(0.5, -1))
        assert isinstance(model.weights, Matrix) and not model.weights.array.flags.writeable
        assert model.weights == Matrix(np.eye(2)) and model.d == 2
        assert model.biases == (0.5, -1.0) and type(model.biases[1]) is float

    @pytest.mark.parametrize("biases", [
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), ("0.5", 0.0), (None, 0.0),
        (0.0, [1.0]),
    ], ids=["nan", "inf", "-inf", "str", "none", "list"])
    def test_biases_must_be_finite_reals(self, biases):
        with pytest.raises(ValueError, match="biases"):
            ProbeModel(classes=("A", "B"), weights=np.eye(2), biases=biases)

    @pytest.mark.parametrize("name", ["", "a,b", "x\ty", "x\ny", 5])
    def test_class_names_fit_the_probe_tsv(self, name):
        # load_probe_tsv can produce no such label: it would corrupt probe-eval's output
        with pytest.raises(ValueError, match="class name"):
            ProbeModel(classes=("A", name), weights=np.eye(2), biases=(0.0, 0.0))

    def test_no_classes_is_empty_input_error(self):
        with pytest.raises(EmptyInputError, match="at least one class"):
            ProbeModel(classes=(), weights=np.ones((0, 2)), biases=())

    def test_misaligned_fields_are_dimension_errors(self):
        for weights, biases in ((np.eye(2), (0.0,)), (np.ones((3, 2)), (0.0, 0.0))):
            with pytest.raises(DimensionError, match="align"):
                ProbeModel(classes=("A", "B"), weights=weights, biases=biases)


class TestOneScoringKernel:
    """probe_predict and probe_accuracy share one scoring kernel whose
    scores of a row do not depend on the other rows scored with it."""

    @pytest.mark.parametrize("n, d, seed", [(24, 768, 81), (60, 8, 82), (7, 3, 83)])
    def test_one_row_equals_its_row_of_the_batch(self, n, d, seed):
        examples = probe_clusters(n, d, seed, MULTI_LABEL)
        model = probe_train(examples, ProbeConfig(epochs=20, seed=seed))
        x = np.array([v for v, _ in examples])
        batch = sense_geometry._scores(model, x)
        odd = sense_geometry._scores(model, x[1::2])
        predictions, accuracy = sense_geometry._evaluate(model, examples, 0.5)
        for i, (v, labels) in enumerate(examples):
            assert sense_geometry._scores(model, np.array([v])) == [batch[i]]
            assert probe_predict(model, v) == predictions[i]
            if i % 2:
                assert odd[i // 2] == batch[i]
        assert probe_accuracy(model, examples) == accuracy == sum(
            probe_predict(model, v) == labels for v, labels in examples) / n


class TestAmbiguityFlag:
    def test_two_classes_true(self):
        model = TestProbePredict().make_model()
        assert probe_predict(model, [1.0, 1.0]) == {"FOOD", "ORGANIZATION"}
        assert ambiguity_flag(model, [1.0, 1.0]) is True

    def test_single_class_false(self):
        model = TestProbePredict().make_model()
        assert probe_predict(model, [1.0, 0.0]) == {"FOOD"}
        assert ambiguity_flag(model, [1.0, 0.0]) is False

    def test_empty_prediction_false(self):
        model = TestProbePredict().make_model()
        assert probe_predict(model, [0.0, 0.0]) == set()
        assert ambiguity_flag(model, [0.0, 0.0]) is False

    def test_equivalence_with_predict_cardinality(self):
        rng = np.random.default_rng(59)
        model = TestProbePredict().make_model()
        for _ in range(50):
            p = rng.uniform(-1, 2, size=2).tolist()
            assert ambiguity_flag(model, p) == (len(probe_predict(model, p)) >= 2)


class TestProbeAccuracy:
    def test_exact_set_match(self):
        model = TestProbePredict().make_model()
        examples = [
            ([1.0, 1.0], {"FOOD", "ORGANIZATION"}),  # predicted both: hit
            ([1.0, 0.0], {"FOOD"}),  # hit
            ([1.0, 0.0], {"FOOD", "ORGANIZATION"}),  # miss: only FOOD predicted
            ([0.0, 0.0], set()),  # hit: empty prediction
        ]
        assert probe_accuracy(model, examples) == 0.75


class TestSenseTsv:
    SAMPLE = (
        b"bank\triver\t1 0\n"
        b"bank\triver\t0.9 0.1\n"
        b"bank\tmoney\t0 1\n"
        b"rock\tstone\t1 1\n"
    )

    def test_load_groups_by_word_and_sense(self):
        inventories = load_sense_tsv(self.SAMPLE)
        assert set(inventories) == {"bank", "rock"}
        bank = inventories["bank"]
        assert set(bank.senses) == {"river", "money"}
        assert len(bank.senses["river"]) == 2
        assert bank.senses["money"][0] == Vector([0.0, 1.0])

    def test_round_trip(self):
        inventories = load_sense_tsv(self.SAMPLE)
        blob = save_sense_tsv(inventories.values())
        again = load_sense_tsv(blob)
        assert set(again) == set(inventories)
        assert again["bank"].senses == inventories["bank"].senses

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 2"):
            load_sense_tsv(b"bank\triver\t1 0\nbank\triver\n")

    def test_bad_float(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sense_tsv(b"bank\triver\t1 oops\n")

    def test_mixed_dims_rejected(self):
        for second in (b"bank\tmoney\t1\n", b"bank\triver\t1 0 0\n"):
            with pytest.raises(ParseError, match="line 2: 'bank'"):
                load_sense_tsv(b"bank\triver\t1 0\n" + second)

    def test_each_sense_loads_as_one_array(self):
        bank = load_sense_tsv(self.SAMPLE)["bank"]
        np.testing.assert_array_equal(bank.senses["river"].array, [[1.0, 0.0], [0.9, 0.1]])
        # each word has its own dim
        assert load_sense_tsv(b"a\tx\t1\nb\ty\t1 2\n")["b"].senses["y"].cols == 2

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            load_sense_tsv(b"")

    @pytest.mark.parametrize("line", [b"\triver\t1 0\n", b"bank\t\t1 0\n"],
                             ids=["word", "sense"])
    def test_empty_label_rejected(self, line):
        with pytest.raises(ParseError, match="line 2: empty word or sense label"):
            load_sense_tsv(b"bank\triver\t1 0\n" + line)


class TestProbeTsv:
    SAMPLE = (
        b"apple\tFOOD\t1 0\n"
        b"apple\tFOOD,ORGANIZATION\t0.5 0.5\n"
        b"filler\t\t0 0\n"
    )

    def test_load(self):
        examples = load_probe_tsv(self.SAMPLE)
        assert examples[0] == ProbeExample("apple", frozenset({"FOOD"}), Vector([1.0, 0.0]))
        assert examples[1].labels == {"FOOD", "ORGANIZATION"}
        assert examples[2].labels == frozenset()

    def test_round_trip(self):
        examples = load_probe_tsv(self.SAMPLE)
        assert load_probe_tsv(save_probe_tsv(examples)) == examples

    def test_wrong_columns(self):
        with pytest.raises(ParseError, match="line 1"):
            load_probe_tsv(b"apple\t1 0\n")

    def test_empty_token_rejected(self):
        with pytest.raises(ParseError, match="line 1: empty token"):
            load_probe_tsv(b"\tA\t1 0\n")


class TestProbeModelPersistence:
    def test_round_trip_identical_predictions(self):
        rng = np.random.default_rng(60)
        examples = separable_points(rng, n=20)
        model = probe_train(examples)
        back = load_probe_model(save_probe_model(model))
        assert back.classes == model.classes
        assert back.weights == model.weights
        assert back.biases == model.biases

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_probe_model(b"XXXX" + b"\x00" * 24)

    def test_truncated(self):
        model = TestProbePredict().make_model()
        blob = save_probe_model(model)
        with pytest.raises(ParseError):
            load_probe_model(blob[:-1])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:-8] + struct.pack("<d", math.nan),
            lambda b: b[:-8] + struct.pack("<d", -math.inf),
            # the last class's bias sits just before its d = 2 weights
            lambda b: b[:-24] + struct.pack("<d", math.nan) + b[-16:],
            lambda b: b.replace(b"\x01\x00\x00\x00y", b"\x01\x00\x00\x00x"),
        ],
        ids=["nan-weight", "inf-weight", "nan-bias", "duplicate-class"],
    )
    def test_malformed_rejected(self, mutate):
        model = ProbeModel(
            classes=("x", "y"),
            weights=(Vector([1.0, 0.0]), Vector([0.0, 1.0])),
            biases=(0.5, -0.5),
        )
        with pytest.raises(ParseError):
            load_probe_model(mutate(save_probe_model(model)))


# Rows near two directions, with entries between 2**-8 and 4 in size: every
# product with 2**k, -1000 <= k <= 1000, is an exact normal float, and so
# are the differences and means the geometry takes of them.
SCALE_ROWS = np.array([
    [1.0, 0.75, -0.25], [1.25, 0.5, -0.375], [0.875, 1.0, -0.125], [1.5, 0.625, 0.0078125],
    [-0.5, 1.0, 2.0], [-0.75, 1.25, 1.75], [-0.625, 0.875, 2.5], [-0.375, 1.125, 2.25],
])
SCALE_TOKEN = np.array([0.25, 1.0, 1.0])
GOLD = "AAAABBBB"


def _geometry(k, metric):
    """Every number the three sense-geometry calls give for the rows times 2**k."""
    x, t = np.ldexp(SCALE_ROWS, k), np.ldexp(SCALE_TOKEN, k)
    inv = SenseInventory("w", {"a": x[:4], "b": x[4:]})
    reports = [inventory_report(inv, token_emb=t, metric=metric),
               homonym_separation(t, x, gold_labels=GOLD, seed=3, metric=metric)]
    distances = [contextual_shift(t, x[0], metric=metric),
                 contextual_shift(x[1], x[6], metric=metric)]
    for r in reports:
        distances += [*r.pairwise_distances.array.ravel().tolist(), *r.token_to_centroid]
    centroids = [np.array([c.components for c in r.centroids]) for r in reports]
    return distances, centroids, [(r.betweenness, r.assignments, r.purity) for r in reports]


@pytest.mark.parametrize("metric", METRICS)
def test_one_norm_rule_takes_every_scale_alike(metric):
    # a cosine does not depend on how large the rows are; a euclidean
    # distance scales with them, exactly, since a power of two is exact
    distances, centroids, labels = _geometry(0, metric)
    assert labels[1][2] == 1.0  # the split finds the two directions
    for k in range(-1000, 1001, 8):  # both ends of the squares' safe range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _geometry(k, metric)
        want = distances if metric == "cosine" else [math.ldexp(v, k) for v in distances]
        assert got[0] == want, k
        assert all(np.array_equal(g, np.ldexp(c, k)) for g, c in zip(got[1], centroids)), k
        assert got[2] == labels, k
