"""Tests for simplified multi-head self-attention."""

import math
import random
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from embgeom import attention, linalg
from embgeom.attention import (
    AttentionHeadParams,
    AttentionLayerParams,
    MultiHeadConfig,
    attention_weights,
    embed_sequence,
    head_forward,
    load_attention_params,
    load_named_matrices,
    multihead_forward,
    positional_encoding,
    random_stack_params,
    save_attention_params,
    save_named_matrices,
    stack_forward,
)
from embgeom.embed_store import EmbeddingTable, load_embeddings_binary, save_embeddings_binary
from embgeom.errors import (
    ContextWindowExceededError,
    DimensionError,
    EmptyInputError,
    HeadCountError,
    OutOfVocabularyError,
    ParseError,
)
from embgeom.linalg import Matrix, Vector


def identity_head(d):
    eye = Matrix.identity(d)
    return AttentionHeadParams(Wq=eye, Wk=eye, Wv=eye)


def as_array(vectors):
    return np.array([v.components for v in vectors])


def reference_weights(query, keys, scale_scores=True):
    """One query's weights in pure Python: linalg.dot scores, linalg.softmax."""
    scores = [linalg.dot(query, k) for k in keys]
    if scale_scores:
        scores = [x / math.sqrt(len(query)) for x in scores]
    return linalg.softmax(scores)


class TestAttentionWeights:
    def test_one_matrix_as_queries_and_keys_rounds_as_two(self):
        # embgeom attend passes a sequence's one Matrix as both arguments
        m = Matrix(np.random.default_rng(3).normal(size=(6, 100)))
        assert attention_weights(m, m) == attention_weights(m, m.array.copy())

    def test_hand_value_unscaled(self):
        w = attention_weights([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], scale_scores=False)
        assert w.shape == (1, 2)
        assert w[0][0] == pytest.approx(0.73106, abs=1e-5)
        assert w[0][1] == pytest.approx(0.26894, abs=1e-5)

    def test_identical_keys_uniform(self):
        keys = [[0.3, -1.0]] * 5
        w = attention_weights([[2.0, 1.0], [-1.0, 0.5]], keys, scale_scores=True)
        np.testing.assert_allclose(w.array, 0.2, atol=1e-12, rtol=0)

    def test_single_key(self):
        w = attention_weights([[1.0, 2.0]], [[3.0, 4.0]], scale_scores=False)
        assert w == Matrix([[1.0]])

    def test_scaling_divides_by_sqrt_dim(self):
        q = [[2.0, 0.0, 0.0, 0.0]]
        keys = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        unscaled = attention_weights(q, keys, scale_scores=False)
        scaled = attention_weights(q, keys, scale_scores=True)
        # scores [2, 0] scaled by 1/sqrt(4) become [1, 0]
        assert scaled[0][0] == pytest.approx(0.73106, abs=1e-5)
        assert unscaled[0][0] == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-9)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            L = int(rng.integers(1, 9))
            d = int(rng.integers(1, 7))
            queries = rng.normal(size=(int(rng.integers(1, 4)), d)) * 3
            keys = rng.normal(size=(L, d)) * 3
            for flag in (False, True):
                w = attention_weights(queries, keys, scale_scores=flag).array
                np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9, rtol=0)
                assert (w > 0.0).all()

    def test_empty_keys_rejected(self):
        with pytest.raises(EmptyInputError, match="at least one key"):
            attention_weights([[1.0]], [])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            attention_weights([[1.0, 0.0]], [[1.0]])

    @pytest.mark.parametrize("scale", [True, False])
    def test_matches_the_reference(self, scale):
        # BLAS orders the sums differently from the Python reference, so the
        # last digits may differ, by far less than 1e-13
        rng = np.random.default_rng(24)
        for d in (1, 2, 8, 64, 300, 768):
            for sigma in (0.1, 1.0, 3.0):
                x = rng.normal(size=(int(rng.integers(1, 17)), d)) * sigma
                got = attention_weights(x, x, scale_scores=scale).array
                want = [reference_weights(q, x.tolist(), scale).components for q in x.tolist()]
                np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


class TestHeadForward:
    def test_hand_value_identity_projections(self):
        out = head_forward(
            [[1.0, 0.0], [0.0, 1.0]], identity_head(2), scale_scores=False
        )
        np.testing.assert_allclose(
            out[0].components, [0.73106, 0.26894], atol=1e-5
        )
        np.testing.assert_allclose(
            out[1].components, [0.26894, 0.73106], atol=1e-5
        )

    def test_identical_inputs_pass_through(self):
        v = [0.5, -1.5, 2.0]
        out = head_forward([v, v, v], identity_head(3), scale_scores=False)
        for o in out:
            np.testing.assert_allclose(o.components, v, atol=1e-12)

    def test_zero_value_projection_zeroes_output(self):
        params = AttentionHeadParams(
            Wq=Matrix.identity(2), Wk=Matrix.identity(2), Wv=Matrix.zeros(2, 2)
        )
        out = head_forward([[1.0, 2.0], [3.0, 4.0]], params)
        for o in out:
            assert o.components == (0.0, 0.0)

    def test_output_dim_is_d_head(self):
        rng = np.random.default_rng(21)
        params = AttentionHeadParams(
            Wq=Matrix(rng.normal(size=(3, 6)).tolist()),
            Wk=Matrix(rng.normal(size=(3, 6)).tolist()),
            Wv=Matrix(rng.normal(size=(3, 6)).tolist()),
        )
        out = head_forward(rng.normal(size=(4, 6)).tolist(), params)
        assert all(o.dim == 3 for o in out)

    def test_outputs_in_value_bounding_box(self):
        # weights are a convex combination, so each output coordinate must
        # sit inside the min/max of the projected values' coordinates
        rng = np.random.default_rng(22)
        for _ in range(20):
            d, dh, L = 5, 2, 6
            params = AttentionHeadParams(
                Wq=Matrix(rng.normal(size=(dh, d)).tolist()),
                Wk=Matrix(rng.normal(size=(dh, d)).tolist()),
                Wv=Matrix(rng.normal(size=(dh, d)).tolist()),
            )
            seq = rng.normal(size=(L, d)).tolist()
            values = as_array(
                [attention.linalg.linear_apply(params.Wv, x) for x in seq]
            )
            out = as_array(head_forward(seq, params))
            lo, hi = values.min(axis=0), values.max(axis=0)
            assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d, dh, L = 4, 3, 5
            Wq, Wk, Wv = (rng.normal(size=(dh, d)) for _ in range(3))
            X = rng.normal(size=(L, d))
            S = (X @ Wq.T) @ (X @ Wk.T).T / math.sqrt(dh)
            E = np.exp(S - S.max(axis=1, keepdims=True))
            W = E / E.sum(axis=1, keepdims=True)
            expected = W @ (X @ Wv.T)
            params = AttentionHeadParams(
                Wq=Matrix(Wq.tolist()), Wk=Matrix(Wk.tolist()), Wv=Matrix(Wv.tolist())
            )
            got = as_array(head_forward(X.tolist(), params, scale_scores=True))
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_overflowing_output_raises_value_error(self):
        # numpy's own overflow warnings are silenced, so only the output's
        # finiteness check can stop the call; it must raise, not warn
        head = AttentionHeadParams(
            Wq=Matrix.zeros(1, 2), Wk=Matrix.zeros(1, 2), Wv=Matrix([[1e308, 1e308]])
        )
        seq = [[1.0, 1.0], [1.0, 0.5]]  # values 2e308 and 1.5e308: both overflow
        big_wo = Matrix([[1.5e308, 1.5e308], [1.5e308, 1.5e308]])  # rows sum past 2e308
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                head_forward(seq, head)
            with pytest.raises(ValueError):
                multihead_forward(seq, [identity_head(2)], big_wo)

    def test_head_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            AttentionHeadParams(
                Wq=Matrix.identity(2), Wk=Matrix.identity(2), Wv=Matrix.zeros(3, 2)
            )


class TestMultiheadForward:
    def test_single_head_identity_wo_matches_head_forward(self):
        rng = np.random.default_rng(24)
        d, L = 4, 3
        head = AttentionHeadParams(
            Wq=Matrix(rng.normal(size=(d, d)).tolist()),
            Wk=Matrix(rng.normal(size=(d, d)).tolist()),
            Wv=Matrix(rng.normal(size=(d, d)).tolist()),
        )
        seq = rng.normal(size=(L, d)).tolist()
        got = multihead_forward(seq, [head], Matrix.identity(d))
        expected = head_forward(seq, head)
        np.testing.assert_allclose(as_array(got), as_array(expected), atol=1e-12)

    def test_two_heads_of_four_make_eight(self):
        rng = np.random.default_rng(25)
        d, n = 8, 2
        heads = [
            AttentionHeadParams(
                Wq=Matrix(rng.normal(size=(4, d)).tolist()),
                Wk=Matrix(rng.normal(size=(4, d)).tolist()),
                Wv=Matrix(rng.normal(size=(4, d)).tolist()),
            )
            for _ in range(n)
        ]
        seq = rng.normal(size=(3, d)).tolist()
        per_head = [head_forward(seq, h) for h in heads]
        assert all(o.dim == 4 for outs in per_head for o in outs)
        out = multihead_forward(seq, heads, Matrix.identity(d))
        assert all(o.dim == 8 for o in out)

    def test_zero_output_projection(self):
        seq = [[1.0, 2.0], [3.0, 4.0]]
        out = multihead_forward(seq, [identity_head(2)], Matrix.zeros(2, 2))
        for o in out:
            assert o.components == (0.0, 0.0)

    def test_head_count_must_divide_d(self):
        rng = np.random.default_rng(26)
        heads = [
            AttentionHeadParams(
                Wq=Matrix(rng.normal(size=(2, 8)).tolist()),
                Wk=Matrix(rng.normal(size=(2, 8)).tolist()),
                Wv=Matrix(rng.normal(size=(2, 8)).tolist()),
            )
            for _ in range(3)
        ]
        with pytest.raises(HeadCountError):
            multihead_forward(rng.normal(size=(2, 8)).tolist(), heads, Matrix.identity(8))

    def test_wrong_wo_shape(self):
        with pytest.raises(DimensionError):
            multihead_forward([[1.0, 0.0]], [identity_head(2)], Matrix.zeros(2, 3))

    def test_wrong_head_output_dim(self):
        rng = np.random.default_rng(27)
        half = AttentionHeadParams(
            Wq=Matrix(rng.normal(size=(1, 4)).tolist()),
            Wk=Matrix(rng.normal(size=(1, 4)).tolist()),
            Wv=Matrix(rng.normal(size=(1, 4)).tolist()),
        )
        # one head must emit d/1 = 4 dims, not 1
        with pytest.raises(DimensionError):
            multihead_forward(rng.normal(size=(2, 4)).tolist(), [half], Matrix.identity(4))


class TestStackForward:
    def test_single_layer_reduces_to_multihead(self):
        rng = np.random.default_rng(28)
        config = MultiHeadConfig(d=4, n=2, layers=1, scale_scores=True)
        params = random_stack_params(config, seed=7)
        seq = rng.normal(size=(3, 4)).tolist()
        got = stack_forward(seq, config, params)
        expected = multihead_forward(seq, params[0].heads, params[0].Wo)
        np.testing.assert_allclose(as_array(got), as_array(expected), atol=1e-12)

    def test_zero_parameters_absorb(self):
        config = MultiHeadConfig(d=2, n=1, layers=3, scale_scores=False)
        zero_head = AttentionHeadParams(
            Wq=Matrix.zeros(2, 2), Wk=Matrix.zeros(2, 2), Wv=Matrix.zeros(2, 2)
        )
        params = [
            AttentionLayerParams(heads=(zero_head,), Wo=Matrix.zeros(2, 2))
        ] * 3
        out = stack_forward([[1.0, 2.0], [3.0, 4.0]], config, params)
        for o in out:
            assert o.components == (0.0, 0.0)

    def test_two_layer_identity_hand_values(self):
        # freezes the composition of the one-layer hand example with itself
        config = MultiHeadConfig(d=2, n=1, layers=2, scale_scores=False)
        eye = Matrix.identity(2)
        layer = AttentionLayerParams(heads=(identity_head(2),), Wo=eye)
        out = stack_forward([[1.0, 0.0], [0.0, 1.0]], config, [layer, layer])
        np.testing.assert_allclose(
            out[0].components, [0.524578206017, 0.475421793983], atol=1e-9
        )
        np.testing.assert_allclose(
            out[1].components, [0.475421793983, 0.524578206017], atol=1e-9
        )

    def test_two_layer_equals_composed_multihead(self):
        rng = np.random.default_rng(29)
        config = MultiHeadConfig(d=6, n=3, layers=2)
        params = random_stack_params(config, seed=11)
        seq = rng.normal(size=(4, 6)).tolist()
        got = stack_forward(seq, config, params)
        step = multihead_forward(seq, params[0].heads, params[0].Wo)
        expected = multihead_forward(step, params[1].heads, params[1].Wo)
        np.testing.assert_allclose(as_array(got), as_array(expected), atol=1e-12)

    def test_dim_d_preserved_at_every_layer(self):
        rng = np.random.default_rng(30)
        for d, n in ((8, 2), (6, 3), (4, 4)):
            config = MultiHeadConfig(d=d, n=n, layers=2)
            params = random_stack_params(config, seed=d * 10 + n)
            out = stack_forward(rng.normal(size=(3, d)).tolist(), config, params)
            assert all(o.dim == d for o in out)

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(31)
        config = MultiHeadConfig(d=6, n=2, layers=2)
        params = random_stack_params(config, seed=3)
        for _ in range(10):
            X = rng.normal(size=(5, 6))
            perm = rng.permutation(5)
            out = as_array(stack_forward(X.tolist(), config, params))
            out_perm = as_array(stack_forward(X[perm].tolist(), config, params))
            np.testing.assert_allclose(out[perm], out_perm, atol=1e-9)

    def test_contextualization_changes_shared_token(self):
        rng = np.random.default_rng(32)
        config = MultiHeadConfig(d=4, n=2, layers=1)
        params = random_stack_params(config, seed=5)
        shared = rng.normal(size=4).tolist()
        ctx_a = [shared, rng.normal(size=4).tolist()]
        ctx_b = [shared, rng.normal(size=4).tolist()]
        out_a = stack_forward(ctx_a, config, params)[0]
        out_b = stack_forward(ctx_b, config, params)[0]
        assert max(abs(x - y) for x, y in zip(out_a, out_b)) > 1e-6

    def test_sequence_embedding_input(self):
        table = EmbeddingTable(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        seq = embed_sequence(table, ["a", "b"])
        config = MultiHeadConfig(d=2, n=1, layers=1, scale_scores=False)
        eye = Matrix.identity(2)
        layer = AttentionLayerParams(heads=(identity_head(2),), Wo=eye)
        out = stack_forward(seq, config, [layer])
        np.testing.assert_allclose(out[0].components, [0.73106, 0.26894], atol=1e-5)

    def test_every_level_returns_a_read_only_matrix(self):
        config = MultiHeadConfig(d=4, n=2, layers=2)
        params = random_stack_params(config, seed=2)
        seq = np.random.default_rng(33).normal(size=(3, 4))
        lp = params[0]
        for out in (
            head_forward(seq, lp.heads[0]),
            multihead_forward(seq, lp.heads, lp.Wo),
            stack_forward(seq, config, params),
        ):
            assert isinstance(out, Matrix) and len(out) == 3
            assert not out.array.flags.writeable
        assert seq.flags.writeable  # the caller's input stays its own

    def test_input_errors_keep_their_messages(self):
        config = MultiHeadConfig(d=2, n=1, layers=1)
        params = random_stack_params(config, seed=1)
        with pytest.raises(EmptyInputError, match="at least one position"):
            stack_forward([], config, params)
        with pytest.raises(DimensionError, match="sequence has dim 3, config expects 2"):
            stack_forward([[1.0, 0.0, 0.0]], config, params)
        with pytest.raises(ValueError):
            stack_forward([[1.0, math.nan]], config, params)

    def test_context_window_enforced(self):
        config = MultiHeadConfig(d=2, n=1, layers=1, context_window=2)
        params = random_stack_params(config, seed=1)
        with pytest.raises(ContextWindowExceededError):
            stack_forward([[1.0, 0.0]] * 3, config, params)

    def test_layer_count_mismatch(self):
        config = MultiHeadConfig(d=2, n=1, layers=2)
        params = random_stack_params(config, seed=1)[:1]
        with pytest.raises(DimensionError):
            stack_forward([[1.0, 0.0]], config, params)


def reference_head(seq, params, scale_scores=True):
    """One head in pure Python: linear_apply projections, reference_weights."""
    queries = [linalg.linear_apply(params.Wq, x) for x in seq]
    keys = [linalg.linear_apply(params.Wk, x) for x in seq]
    values = [linalg.linear_apply(params.Wv, x) for x in seq]
    out = []
    for q in queries:
        w = reference_weights(q, keys, scale_scores=scale_scores)
        acc = [w[0] * v for v in values[0]]
        for j in range(1, len(values)):
            acc = [a + w[j] * v for a, v in zip(acc, values[j])]
        out.append(Vector(acc))
    return out


def reference_multihead(seq, heads, Wo, scale_scores=True):
    per_head = [reference_head(seq, h, scale_scores) for h in heads]
    return [
        linalg.linear_apply(Wo, Vector([x for outs in per_head for x in outs[i]]))
        for i in range(len(seq))
    ]


def reference_stack(seq, config, layer_params):
    for lp in layer_params:
        seq = reference_multihead(seq, lp.heads, lp.Wo, config.scale_scores)
    return seq


@pytest.fixture(scope="module")
def stack768():
    config = MultiHeadConfig(d=768, n=12, layers=1)
    return config, random_stack_params(config, seed=4)


class TestNumpyStackMatchesReference:
    """The numpy stack replayed through the pure-Python reference ops."""

    @pytest.mark.parametrize("scale", [True, False])
    def test_small_stack_with_repeated_token(self, scale):
        rng = np.random.default_rng(33)
        config = MultiHeadConfig(d=8, n=2, layers=2, scale_scores=scale)
        params = random_stack_params(config, seed=12)
        rows = rng.normal(size=(4, 8)).tolist()
        seq = [Vector(r) for r in rows + [rows[1]]]  # position 4 repeats position 1
        lp = params[0]
        for h in lp.heads:
            np.testing.assert_allclose(
                as_array(head_forward(seq, h, scale_scores=scale)),
                as_array(reference_head(seq, h, scale)), atol=1e-12, rtol=0,
            )
        np.testing.assert_allclose(
            as_array(multihead_forward(seq, lp.heads, lp.Wo, scale_scores=scale)),
            as_array(reference_multihead(seq, lp.heads, lp.Wo, scale)), atol=1e-12, rtol=0,
        )
        got = as_array(stack_forward(seq, config, params))
        np.testing.assert_allclose(
            got, as_array(reference_stack(seq, config, params)), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(got[4], got[1], atol=1e-12, rtol=0)

    def test_bert_sized_layer(self, stack768):
        config, params = stack768
        rng = np.random.default_rng(34)
        seq = [Vector(r) for r in rng.normal(size=(5, 768)).tolist()]
        lp = params[0]
        np.testing.assert_allclose(
            as_array(head_forward(seq, lp.heads[3])),
            as_array(reference_head(seq, lp.heads[3])), atol=1e-12, rtol=0,
        )
        want = as_array(reference_stack(seq, config, params))
        np.testing.assert_allclose(
            as_array(multihead_forward(seq, lp.heads, lp.Wo)), want, atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            as_array(stack_forward(seq, config, params)), want, atol=1e-12, rtol=0
        )


class TestStackBudget:
    def test_d768_twelve_heads_sixteen_tokens_under_quarter_second(self, stack768):
        # the numpy stack takes about 0.03 s here; per-element Python
        # arithmetic takes about 1.25 s
        config, params = stack768
        seq = np.random.default_rng(35).normal(size=(16, 768)).tolist()
        start = time.perf_counter()
        out = stack_forward(seq, config, params)
        elapsed = time.perf_counter() - start
        assert len(out) == 16 and out[0].dim == 768
        assert elapsed < 0.25, f"stack_forward took {elapsed:.2f} s"


class TestMultiHeadConfig:
    def test_head_count_must_divide(self):
        with pytest.raises(HeadCountError):
            MultiHeadConfig(d=8, n=3)

    def test_d_head(self):
        assert MultiHeadConfig(d=8, n=2).d_head == 4
        assert MultiHeadConfig(d=768, n=12).d_head == 64

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            MultiHeadConfig(d=0, n=1)
        with pytest.raises(ValueError):
            MultiHeadConfig(d=2, n=1, layers=0)


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        v = positional_encoding(0, 6)
        assert v.components == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)

    def test_hand_value(self):
        v = positional_encoding(1, 2)
        assert v[0] == pytest.approx(0.84147, abs=1e-5)
        assert v[1] == pytest.approx(0.54030, abs=1e-5)

    def test_bounded(self):
        for pos in (0, 1, 7, 100, 12345):
            v = positional_encoding(pos, 8)
            assert all(-1.0 <= x <= 1.0 for x in v)

    def test_frequency_schedule(self):
        # component pair i uses wavelength 10000^(2i/d)
        pos, d = 3, 4
        v = positional_encoding(pos, d)
        assert v[0] == pytest.approx(math.sin(3.0), abs=1e-12)
        assert v[2] == pytest.approx(math.sin(3.0 / 100.0), abs=1e-12)

    def test_odd_d_rejected(self):
        with pytest.raises(DimensionError):
            positional_encoding(0, 3)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(-1, 2)


class TestEmbedSequence:
    def make_table(self):
        return EmbeddingTable(
            ["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        )

    def test_raw_rows_without_positions(self):
        seq = embed_sequence(self.make_table(), ["a", "c"])
        assert seq[0] == Vector([1.0, 0.0])
        assert seq[1] == Vector([1.0, 1.0])

    @pytest.mark.parametrize("positional", [False, True])
    def test_returns_one_read_only_matrix(self, positional):
        table = self.make_table()
        seq = embed_sequence(table, iter(["a", "c", "a"]), use_positional=positional)
        assert type(seq) is Matrix and seq.shape == (3, 2)
        assert seq.array.dtype == np.float64 and not seq.array.flags.writeable
        if not positional:  # the one gather, handed over as it is
            assert seq == table.gather(["a", "c", "a"])

    def test_repeated_token_identical_without_positions(self):
        seq = embed_sequence(self.make_table(), ["b", "b"])
        assert seq[0] == seq[1]

    def test_positions_shift_repeated_token(self):
        table = self.make_table()
        seq = embed_sequence(table, ["b", "b"], use_positional=True)
        diff = np.diff(seq.array, axis=0)
        expected = np.diff(as_array([positional_encoding(0, 2), positional_encoding(1, 2)]), axis=0)
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_unknown_token(self):
        with pytest.raises(OutOfVocabularyError):
            embed_sequence(self.make_table(), ["a", "zebra"])

    def test_window_limit(self):
        with pytest.raises(ContextWindowExceededError):
            embed_sequence(self.make_table(), ["a"] * 5, context_window=4)
        seq = embed_sequence(self.make_table(), ["a"] * 4, context_window=4)
        assert len(seq) == 4

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            embed_sequence(self.make_table(), [])

    @pytest.mark.parametrize("emb1", [False, True], ids=["float64", "float32-emb1"])
    @pytest.mark.parametrize("positional", [False, True])
    def test_rows_equal_lookup_bit_for_bit(self, emb1, positional):
        rng = np.random.default_rng(71)
        vocab = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(vocab, rng.normal(size=(40, 32)))
        if emb1:  # float32 rows
            table = load_embeddings_binary(save_embeddings_binary(table))
        tokens = [vocab[i] for i in rng.integers(0, 40, size=17)]
        seq = embed_sequence(table, tokens, use_positional=positional)
        for i, (tok, row) in enumerate(zip(tokens, seq)):
            pos = positional_encoding(i, 32) if positional else [0.0] * 32
            assert row.components == tuple(a + b for a, b in zip(table.lookup(tok), pos))


class TestRandomStackParams:
    def test_deterministic(self):
        config = MultiHeadConfig(d=4, n=2, layers=2)
        a = random_stack_params(config, seed=9)
        b = random_stack_params(config, seed=9)
        assert a == b
        c = random_stack_params(config, seed=10)
        assert a != c

    def test_bounds(self):
        config = MultiHeadConfig(d=16, n=4, layers=1)
        params = random_stack_params(config, seed=0)
        bound = 1.0 / math.sqrt(16)
        for h in params[0].heads:
            for m in (h.Wq, h.Wk, h.Wv):
                assert np.all(np.abs(m.row_tuples()) <= bound)
        assert np.all(np.abs(params[0].Wo.row_tuples()) <= bound)

    def test_shapes(self):
        config = MultiHeadConfig(d=6, n=3, layers=2)
        params = random_stack_params(config, seed=1)
        assert len(params) == 2
        for lp in params:
            assert len(lp.heads) == 3
            assert all(h.Wq.shape == (2, 6) for h in lp.heads)
            assert lp.Wo.shape == (6, 6)

    def test_weights_match_per_entry_uniform_draws(self):
        config = MultiHeadConfig(d=6, n=3, layers=2)
        rng = random.Random(8)
        bound = 1.0 / math.sqrt(6)

        def draw(rows, cols):
            return Matrix(
                [[rng.uniform(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            )

        expected = []
        for _ in range(2):
            heads = [
                AttentionHeadParams(Wq=draw(2, 6), Wk=draw(2, 6), Wv=draw(2, 6))
                for _ in range(3)
            ]
            expected.append(AttentionLayerParams(heads=heads, Wo=draw(6, 6)))
        # Matrix equality compares the floats exactly
        assert random_stack_params(config, seed=8) == tuple(expected)

    def test_bulk_draw_crosses_chunks_bit_identically(self):
        # 192 x 192 = 36,864 entries span three 2**14-value draws
        bound = 1.0 / math.sqrt(192)
        bulk, single = random.Random(9), random.Random(9)
        got = attention._random_matrix(192, 192, bound, bulk)
        want = Matrix(
            [[single.uniform(-bound, bound) for _ in range(192)] for _ in range(192)]
        )
        assert got == want
        assert bulk.getstate() == single.getstate()

    def test_weights_are_stored_once(self):
        # one float64 array per Matrix: about 8 bytes per weight, not a
        # Python float and a tuple slot beside an array copy
        config = MultiHeadConfig(d=64, n=4, layers=2)
        tracemalloc.start()
        try:
            params = random_stack_params(config, seed=4)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = sum(
            m.rows * m.cols
            for lp in params
            for m in (lp.Wo, *(w for h in lp.heads for w in (h.Wq, h.Wk, h.Wv)))
        )
        assert weights == 2 * 4 * 64 * 64
        assert retained / weights <= 10

    def test_heads_compute_on_the_matrix_arrays(self):
        config = MultiHeadConfig(d=4, n=2, layers=1)
        (lp,) = random_stack_params(config, seed=5)
        for m in (lp.Wo, *(w for h in lp.heads for w in (h.Wq, h.Wk, h.Wv))):
            assert m.array.dtype == np.float64
            assert not m.array.flags.writeable
        x = np.random.default_rng(5).normal(size=(3, 4))
        out = as_array(attention.multihead_forward(x, lp.heads, lp.Wo))
        joined = np.hstack([
            as_array(attention.head_forward(x, h)) for h in lp.heads
        ])
        np.testing.assert_array_equal(out, joined @ lp.Wo.array.T)


def head_matrices(layer, head, d_head, d):
    """One head's projections under their ATT1 names, all d_head x d."""
    m = Matrix(np.reshape([1.0] * (d_head * d), (d_head, d)))
    return {f"layer{layer}.head{head}.{w}": m for w in ("Wq", "Wk", "Wv")}


class TestParamPersistence:
    def test_named_matrix_round_trip(self):
        named = {
            "alpha": Matrix([[1.0, 2.0], [3.0, 4.0]]),
            "beta": Matrix([[0.5]]),
        }
        back = load_named_matrices(save_named_matrices(named))
        assert list(back) == ["alpha", "beta"]
        assert back["alpha"] == named["alpha"]
        assert back["beta"] == named["beta"]

    def test_stack_round_trip_float32(self):
        config = MultiHeadConfig(d=4, n=2, layers=2)
        params = random_stack_params(config, seed=13)
        back = load_attention_params(save_attention_params(params))
        assert len(back) == 2
        for lp, lb in zip(params, back):
            assert len(lb.heads) == len(lp.heads)
            for h, hb in zip(lp.heads, lb.heads):
                for m, mb in zip((h.Wq, h.Wk, h.Wv), (hb.Wq, hb.Wk, hb.Wv)):
                    np.testing.assert_allclose(
                        mb.row_tuples(), m.row_tuples(), atol=1e-6
                    )
            np.testing.assert_allclose(
                lb.Wo.row_tuples(), lp.Wo.row_tuples(), atol=1e-6
            )

    def test_loaded_params_run_forward(self):
        config = MultiHeadConfig(d=4, n=2, layers=1)
        params = random_stack_params(config, seed=2)
        back = load_attention_params(save_attention_params(params))
        rng = np.random.default_rng(33)
        seq = rng.normal(size=(3, 4)).tolist()
        a = as_array(stack_forward(seq, config, params))
        b = as_array(stack_forward(seq, config, back))
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_named_matrices(b"XXXX" + b"\x00" * 16)

    def test_truncated(self):
        blob = save_attention_params(
            random_stack_params(MultiHeadConfig(d=2, n=1), seed=0)
        )
        with pytest.raises(ParseError):
            load_named_matrices(blob[:-2])

    def test_trailing_garbage(self):
        blob = save_named_matrices({"m": Matrix([[1.0]])})
        with pytest.raises(ParseError, match="trailing"):
            load_named_matrices(blob + b"\x00")

    @pytest.mark.parametrize(
        "blob",
        [
            save_named_matrices({"layer0.head0.Wq": Matrix([[1.0]]),
                                 "layer0.Wo": Matrix([[1.0]])}),
            save_named_matrices({"layer0.head0.Wq": Matrix([[1.0]]),
                                 "layer0.head0.Wk": Matrix([[1.0]]),
                                 "layer0.Wo": Matrix([[1.0]])}),
            save_named_matrices({"layer0.Wo": Matrix([[1.0]])}),
            save_named_matrices({"layer0.head0.Wq": Matrix([[1.0, 2.0]]),
                                 "layer0.head0.Wk": Matrix([[1.0], [2.0]]),
                                 "layer0.head0.Wv": Matrix([[1.0, 2.0]]),
                                 "layer0.Wo": Matrix([[1.0]])}),
            b"ATT1" + struct.pack("<QI", 1, 1) + b"m" + struct.pack("<QQ", 0, 5),
            save_named_matrices({"m": Matrix([[1.0]])})[:-4] + struct.pack("<f", math.nan),
            save_named_matrices({**head_matrices(0, 0, 2, 2),
                                 **head_matrices(0, 1, 1, 2),
                                 "layer0.Wo": Matrix.identity(2)}),
            save_named_matrices({**head_matrices(0, 0, 1, 4),
                                 **head_matrices(0, 1, 1, 4),
                                 "layer0.Wo": Matrix.identity(4)}),
            save_named_matrices({**head_matrices(0, 0, 2, 2),
                                 "layer0.Wo": Matrix.identity(3)}),
            save_named_matrices({**head_matrices(0, 0, 2, 2),
                                 "layer0.Wo": Matrix.identity(2),
                                 **head_matrices(1, 0, 3, 3),
                                 "layer1.Wo": Matrix.identity(3)}),
        ],
        ids=["no-Wk", "no-Wv", "no-heads", "unequal-shapes", "zero-rows", "nan-entry",
             "unequal-heads", "heads-short-of-d", "wo-not-d-by-d", "layers-differ-in-d"],
    )
    def test_malformed_rejected(self, blob):
        with pytest.raises(ParseError):
            load_attention_params(blob)
