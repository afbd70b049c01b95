"""Tests for the masked-word trainer and its gradient math."""

import math
import random
import struct
import time
from operator import mul

import numpy as np
import pytest

from embgeom import trainer
from embgeom.errors import (
    DimensionError,
    EmptyInputError,
    OutOfVocabularyError,
    ParseError,
)
from embgeom.linalg import Matrix
from embgeom.trainer import (
    ToyLM,
    TrainConfig,
    _sgd_step_arrays,
    extract_embeddings,
    induce_vocab,
    load_corpus,
    load_model,
    make_training_examples,
    save_model,
    train,
)


def tiny_model():
    return ToyLM(
        vocab=("x", "y"),
        W_in=Matrix([[1.0], [-1.0]]),
        W_out=Matrix([[1.0], [-1.0]]),
    )


def random_weights(rng, V, d):
    return rng.random(size=(V, d)) - 0.5, rng.random(size=(V, d)) - 0.5


def shipped_step(w_in, w_out, target, context, lr=1.0):
    """The training step on copies of the weights: (loss, W_in, W_out after)."""
    a, b = np.array(w_in, dtype=np.float64), np.array(w_out, dtype=np.float64)
    ctx = np.array(sorted(context), dtype=np.intp)
    loss = _sgd_step_arrays(a, b, target, ctx, lr)
    return loss, a, b


def shipped_gradients(w_in, w_out, target, context):
    """The step's loss and gradients: at lr = 1 the weights move by -gradient."""
    loss, a, b = shipped_step(w_in, w_out, target, context)
    return loss, np.asarray(w_in) - a, np.asarray(w_out) - b


def shipped_probs(w_in, w_out, context):
    """The step's prediction: p[t] = exp(-loss) with t as the target."""
    return [math.exp(-shipped_step(w_in, w_out, t, context)[0]) for t in range(len(w_out))]


def loss_and_gradients(w_in, w_out, target, context):
    """Pure-Python reference of one step's loss and exact gradients.

    loss = -ln p[target]; dW_out = (p - onehot) outer h; each context row
    of dW_in receives W_out^T (p - onehot) / |context|; all other rows of
    dW_in are zero.
    """
    context = sorted(context)
    inv = 1.0 / len(context)
    h = [sum(col) * inv for col in zip(*(w_in[c] for c in context))]
    logits = [sum(map(mul, row, h)) for row in w_out]
    m = max(logits)
    exps = [math.exp(s - m) for s in logits]
    total = sum(exps)
    p = [max(e / total, math.ulp(0.0)) for e in exps]
    loss = -math.log(p[target])
    p[target] -= 1.0  # p - onehot
    g_h = [sum(pv * row[j] for pv, row in zip(p, w_out)) * inv for j in range(len(h))]
    d_in = [g_h if i in context else [0.0] * len(h) for i in range(len(w_in))]
    return loss, d_in, [[pv * hj for hj in h] for pv in p]


def sgd_step(w, g, lr):
    return [[x - lr * gx for x, gx in zip(wr, gr)] for wr, gr in zip(w, g)]


def replay_reference(vocab, steps, config):
    """Training replayed through the reference loss_and_gradients and
    sgd_step, with the seeded init and per-epoch shuffle of :func:`train`."""
    rng = random.Random(config.seed)
    bound = 0.5 / config.d
    V, d = len(vocab), config.d
    w_in = [[rng.uniform(-bound, bound) for _ in range(d)] for _ in range(V)]
    w_out = [[rng.uniform(-bound, bound) for _ in range(d)] for _ in range(V)]
    order = list(range(len(steps)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for k in order:
            target, context = steps[k]
            _, d_in, d_out = loss_and_gradients(w_in, w_out, target, context.tolist())
            w_in = sgd_step(w_in, d_in, config.learning_rate)
            w_out = sgd_step(w_out, d_out, config.learning_rate)
    return w_in, w_out


def numpy_loss(w_in, w_out, context, target):
    """Independent reference: mean-context hidden, softmax, cross-entropy."""
    h = w_in[sorted(context)].mean(axis=0)
    logits = w_out @ h
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    return -math.log(p[target])


class TestTypes:
    def test_model_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ToyLM(vocab=("a",), W_in=Matrix([[1.0]]), W_out=Matrix([[1.0, 2.0]]))
        with pytest.raises(DimensionError):
            ToyLM(
                vocab=("a", "b"),
                W_in=Matrix([[1.0]]),
                W_out=Matrix([[1.0]]),
            )

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(EmptyInputError):
            ToyLM(vocab=(), W_in=Matrix([[1.0]]), W_out=Matrix([[1.0]]))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            TrainConfig(d=8, learning_rate=rate)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(d=8, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(d=8, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(d=0)
        with pytest.raises(ValueError):
            TrainConfig(d=8, window=0)


def step_lists(steps):
    """(target, context) steps with each context array as a list."""
    return [(target, ctx.tolist()) for target, ctx in steps]


class TestMakeTrainingExamples:
    def test_window_one(self):
        got = make_training_examples([["a", "b", "c"]], 1, ["a", "b", "c"])
        assert step_lists(got) == [(0, [1]), (1, [0, 2]), (2, [1])]

    def test_contexts_are_the_arrays_the_step_runs(self):
        corpus = [["c", "a", "b", "a", "d", "c", "b"], ["d", "a"]]
        got = make_training_examples(corpus, 3, ["a", "b", "c", "d"])
        assert len(got) == 9
        for target, ctx in got:
            assert type(target) is int
            assert ctx.dtype == np.intp and ctx.ndim == 1
            assert not ctx.flags.writeable
            assert (np.diff(ctx) > 0).all()  # sorted, distinct
            assert target not in ctx.tolist()

    def test_single_token_sentence_emits_nothing(self):
        assert make_training_examples([["a"]], 3, ["a"]) == []

    def test_window_clipped_at_sentence_bounds(self):
        got = make_training_examples([["a", "b"]], 5, ["a", "b"])
        assert step_lists(got) == [(0, [1]), (1, [0])]

    def test_windows_do_not_cross_sentences(self):
        got = make_training_examples([["a", "b"], ["c"]], 5, ["a", "b", "c"])
        assert all(2 not in ctx.tolist() for _, ctx in got)
        assert all(target != 2 for target, _ in got)

    def test_repeated_target_word_excluded_from_context(self):
        # window around each "a" holds only other copies of "a": no example
        got = make_training_examples([["a", "a"]], 1, ["a", "b"])
        assert got == []
        got = make_training_examples([["a", "b", "a"]], 2, ["a", "b"])
        assert step_lists(got) == [(0, [1]), (1, [0]), (0, [1])]

    def test_out_of_vocab_token(self):
        with pytest.raises(OutOfVocabularyError):
            make_training_examples([["a", "zebra"]], 1, ["a"])

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window must be positive"):
            make_training_examples([["a", "b"]], 0, ["a", "b"])


class TestModelForward:
    """The prediction the training step takes its loss from."""

    def test_hand_values(self):
        m = tiny_model()
        probs = shipped_probs(m.W_in.array, m.W_out.array, {0})
        assert probs[0] == pytest.approx(0.88080, abs=1e-5)
        assert probs[1] == pytest.approx(0.11920, abs=1e-5)

    def test_zero_output_weights_give_uniform(self):
        w_in = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        for p in shipped_probs(w_in, np.zeros((3, 2)), {0, 2}):
            assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_hidden_gives_uniform(self):
        w_in = [[1.0, -2.0], [-1.0, 2.0]]
        w_out = [[0.3, 0.7], [-0.2, 0.1]]
        for p in shipped_probs(w_in, w_out, {0, 1}):
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_distribution_property(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            V, d = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            w_in, w_out = random_weights(rng, V, d)
            k = int(rng.integers(1, V + 1))
            context = set(rng.choice(V, size=k, replace=False).tolist())
            probs = shipped_probs(w_in, w_out, context)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in probs)

    def test_against_numpy(self):
        rng = np.random.default_rng(41)
        w_in, w_out = random_weights(rng, 5, 3)
        h = w_in[[1, 3]].mean(axis=0)
        e = np.exp(w_out @ h - (w_out @ h).max())
        expected = e / e.sum()
        got = shipped_probs(w_in, w_out, {1, 3})
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestLossAndGradients:
    """The training step's loss and the gradient it descends."""

    def test_hand_loss(self):
        w_out = [[1.0], [-1.0]]
        # context {1} gives h=-1, logits [-1,1], p[0]=0.11920
        loss, _, _ = shipped_gradients([[1.0], [-1.0]], w_out, 0, {1})
        assert loss == pytest.approx(-math.log(0.11920), abs=1e-4)
        loss2, _, _ = shipped_gradients([[1.0], [1.0]], w_out, 0, {1})
        assert loss2 == pytest.approx(-math.log(1 / (1 + math.exp(-2))), abs=1e-12)
        assert loss2 == pytest.approx(0.12693, abs=1e-4)

    def test_saturated_target_loss_and_grads_vanish(self):
        loss, d_in, d_out = shipped_gradients([[1.0], [1.0]], [[50.0], [-50.0]], 0, {1})
        assert loss < 1e-9
        assert np.max(np.abs(d_in)) < 1e-9
        assert np.max(np.abs(d_out)) < 1e-9

    def test_non_context_rows_have_zero_gradient(self):
        rng = np.random.default_rng(42)
        _, d_in, _ = shipped_gradients(*random_weights(rng, 6, 4), 0, {2, 5})
        for i in range(6):
            if i in (2, 5):
                assert (d_in[i] != 0.0).any()
            else:
                assert (d_in[i] == 0.0).all()

    def test_matches_finite_differences(self):
        # gradient check with a numpy reference loss; relative error uses a
        # 1e-2 floor so finite-difference noise on near-zero components
        # cannot dominate the ratio
        rng = np.random.default_rng(43)
        step = 1e-5
        for _ in range(8):
            V, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            w_in, w_out = random_weights(rng, V, d)
            k = int(rng.integers(1, V))
            indices = rng.choice(V, size=k + 1, replace=False).tolist()
            target, context = indices[0], set(indices[1:])
            _, *grads = shipped_gradients(w_in, w_out, target, context)
            worst = 0.0
            for w, analytic in zip((w_in, w_out), grads):
                fd = np.zeros_like(w)
                for i in range(w.shape[0]):
                    for j in range(w.shape[1]):
                        orig = w[i, j]
                        w[i, j] = orig + step
                        hi = numpy_loss(w_in, w_out, context, target)
                        w[i, j] = orig - step
                        lo = numpy_loss(w_in, w_out, context, target)
                        w[i, j] = orig
                        fd[i, j] = (hi - lo) / (2 * step)
                denom = np.maximum(
                    np.maximum(np.abs(analytic), np.abs(fd)), 1e-2
                )
                worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
            assert worst < 1e-4


class TestSgdStep:
    """The training step's update: every weight moves by -lr times its gradient."""

    def test_zero_gradient_is_fixed_point(self):
        # the context rows cancel (h = 0) and W_out = 0, so both gradients are 0
        w_in = np.array([[1.0, -2.0], [-1.0, 2.0], [0.5, 0.25]])
        _, a, b = shipped_step(w_in, np.zeros((3, 2)), 2, {0, 1}, lr=0.5)
        assert (a == w_in).all() and (b == 0.0).all()

    def test_arithmetic(self):
        # context {1}, target 0: h = -1, logits [-1, 1], p = [1 - s, s] with
        # s = sigmoid(2); p - onehot = [-s, s]
        s = 1 / (1 + math.exp(-2))
        _, a, b = shipped_step([[1.0], [-1.0]], [[1.0], [-1.0]], 0, {1}, lr=0.5)
        np.testing.assert_allclose(a, [[1.0], [-1.0 + 0.5 * 2 * s]], atol=1e-12, rtol=0)
        np.testing.assert_allclose(b, [[1.0 - 0.5 * s], [-1.0 + 0.5 * s]], atol=1e-12, rtol=0)

    def test_update_is_linear_in_the_rate(self):
        rng = np.random.default_rng(44)
        w_in, w_out = random_weights(rng, 3, 2)
        _, a1, b1 = shipped_step(w_in, w_out, 0, {1, 2}, lr=0.1)
        _, a2, b2 = shipped_step(w_in, w_out, 0, {1, 2}, lr=0.2)
        np.testing.assert_allclose(a2 - w_in, 2 * (a1 - w_in), atol=1e-12)
        np.testing.assert_allclose(b2 - w_out, 2 * (b1 - w_out), atol=1e-12)

    def test_nonpositive_lr_rejected(self):
        for rate in (0.0, -0.1):
            with pytest.raises(ValueError, match="positive and finite"):
                TrainConfig(d=2, learning_rate=rate)


CORPUS = [
    ["river", "water", "fish"],
    ["money", "loan", "teller"],
    ["water", "river", "fish"],
    ["loan", "money", "teller"],
]


class TestTrain:
    def test_deterministic_for_fixed_seed(self):
        config = TrainConfig(d=4, window=2, epochs=3, seed=42)
        a = train(CORPUS, config)
        b = train(CORPUS, config)
        assert a.W_in == b.W_in  # bit-identical
        assert a.W_out == b.W_out
        c = train(CORPUS, TrainConfig(d=4, window=2, epochs=3, seed=43))
        assert c.W_in != a.W_in

    def test_a_draw_numpy_cannot_size_names_d(self, monkeypatch):
        # the count is checked as a Python int, before anything is drawn
        monkeypatch.setattr(trainer, "random_array", lambda *args: pytest.fail("drew"))
        d = 10**18
        with pytest.raises(ValueError, match=f"^6 tokens at d = {d} need {2 * 6 * d} weights"):
            train(CORPUS, TrainConfig(d=d, window=2, epochs=1))

    def test_vocab_induced_in_first_occurrence_order(self):
        config = TrainConfig(d=2, window=1, epochs=1, seed=0)
        m = train(CORPUS, config)
        assert m.vocab == ("river", "water", "fish", "money", "loan", "teller")
        assert induce_vocab(CORPUS) == m.vocab

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInputError):
            train([], TrainConfig(d=2))

    def test_model_keeps_the_trained_arrays(self):
        # W_in and W_out are the two halves of the one draw the loop
        # updated, handed over without a copy
        m = train(CORPUS, TrainConfig(d=4, window=2, epochs=1, seed=3))
        base = m.W_in.array.base
        assert base is not None and m.W_out.array.base is base

    def test_invalid_token_rejected_before_any_epoch(self):
        seen = []
        with pytest.raises(ValueError, match="invalid token: 'a b'"):
            train([["a b", "c"] * 200] * 50, TrainConfig(d=8, epochs=3),
                  on_epoch=lambda e, loss: seen.append(e))
        assert seen == []

    def test_epoch_callback_reports_every_epoch(self):
        seen = []
        config = TrainConfig(d=2, window=1, epochs=4, seed=1)
        train(CORPUS, config, on_epoch=lambda e, loss: seen.append((e, loss)))
        assert [e for e, _ in seen] == [0, 1, 2, 3]
        assert all(loss > 0 for _, loss in seen)

    def test_fused_loop_matches_public_ops(self):
        # replay training through the reference loss_and_gradients and
        # sgd_step, mirroring the seeded init and shuffle, and compare weights
        config = TrainConfig(d=3, window=2, epochs=2, seed=7, learning_rate=0.3)
        fused = train(CORPUS, config)
        vocab = induce_vocab(CORPUS)
        examples = make_training_examples(CORPUS, config.window, list(vocab))
        for got, want in zip((fused.W_in, fused.W_out), replay_reference(vocab, examples, config)):
            np.testing.assert_allclose(got.array, want, atol=1e-12, rtol=0)

    def test_array_loop_matches_public_ops_at_larger_shape(self):
        rng = random.Random(11)
        words = [f"w{i}" for i in range(40)]
        corpus = [rng.choices(words, k=rng.randint(5, 8)) for _ in range(50)]
        corpus += [["solo"], ["echo", "echo"]]  # positions with no context
        config = TrainConfig(d=8, window=3, epochs=3, seed=5, learning_rate=0.2)
        vocab = induce_vocab(corpus)
        examples = make_training_examples(corpus, config.window, list(vocab))
        assert len(examples) < sum(map(len, corpus))
        assert 38 <= len(vocab) <= 42

        fused = train(corpus, config)
        for got, want in zip((fused.W_in, fused.W_out), replay_reference(vocab, examples, config)):
            np.testing.assert_allclose(got.array, want, atol=1e-12, rtol=0)

    def test_init_matches_per_entry_uniform_draws(self):
        # one-token sentences give no examples, so the weights stay at their
        # init; 120 x 192 = 23,040 entries per matrix cross a 2**14 chunk
        corpus = [[f"w{i}"] for i in range(120)]
        config = TrainConfig(d=192, epochs=1, seed=6)
        m = train(corpus, config)
        rng = random.Random(config.seed)
        bound = 0.5 / config.d
        for got in (m.W_in, m.W_out):
            want = [[rng.uniform(-bound, bound) for _ in range(192)] for _ in range(120)]
            assert got == Matrix(want)

    def test_single_example_convergence(self):
        w_in = np.reshape([0.01 * i for i in range(32)], (4, 8))
        w_out = np.reshape([0.02 * (i % 7) for i in range(32)], (4, 8))
        ctx = np.array([1, 2], dtype=np.intp)
        for _ in range(500):
            loss = _sgd_step_arrays(w_in, w_out, 0, ctx, 0.5)
            if loss < 0.01:
                break
        assert loss < 0.01


class TestTrainBudget:
    def test_v200_d32_four_epochs_under_three_seconds(self):
        # the array loop takes about 0.2 s here; a loop back on per-element
        # Python arithmetic takes about 6 s
        rng = random.Random(17)
        words = [f"w{i}" for i in range(200)]
        corpus = [rng.choices(words, k=9) for _ in range(150)]
        config = TrainConfig(d=32, window=3, epochs=4, seed=1, learning_rate=0.2)
        start = time.perf_counter()
        m = train(corpus, config)
        elapsed = time.perf_counter() - start
        assert m.V >= 190
        assert elapsed < 3.0, f"training took {elapsed:.2f} s"


class TestExtract:
    def test_rows_are_input_weights_exactly(self):
        rng = np.random.default_rng(45)
        w_in, w_out = random_weights(rng, 5, 3)
        m = ToyLM(vocab=tuple("abcde"), W_in=Matrix(w_in), W_out=Matrix(w_out))
        table = extract_embeddings(m)
        assert (table.V, table.D) == (5, 3)
        for i, tok in enumerate(m.vocab):
            assert table.lookup(tok) == m.W_in.row(i)

    def test_deterministic(self):
        config = TrainConfig(d=4, window=2, epochs=2, seed=9)
        t1 = extract_embeddings(train(CORPUS, config))
        t2 = extract_embeddings(train(CORPUS, config))
        assert t1 == t2


class TestLoadCorpus:
    def test_lines_are_sentences(self):
        corpus = load_corpus(b"a b c\nd e\n")
        assert corpus == [["a", "b", "c"], ["d", "e"]]

    def test_blank_lines_skipped(self):
        assert load_corpus(b"a b\n\nc d\n\n") == [["a", "b"], ["c", "d"]]

    def test_lowercase_flag(self):
        assert load_corpus(b"The Bank\n", lowercase=True) == [["the", "bank"]]

    def test_invalid_utf8_is_parse_error(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_corpus(b"a \xff b\n")

    def test_accepts_str_and_file(self):
        import io

        assert load_corpus("x y\n") == [["x", "y"]]
        assert load_corpus(io.BytesIO(b"x y\n")) == [["x", "y"]]


class TestModelPersistence:
    def test_round_trip_bit_exact(self):
        config = TrainConfig(d=3, window=1, epochs=1, seed=5)
        m = train(CORPUS, config)
        back = load_model(save_model(m))
        assert back.vocab == m.vocab
        assert back.W_in == m.W_in
        assert back.W_out == m.W_out
        assert extract_embeddings(back) == extract_embeddings(m)

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_model(b"NOPE" + b"\x00" * 40)

    def test_truncated(self):
        blob = save_model(tiny_model())
        with pytest.raises(ParseError):
            load_model(blob[:-4])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:-8] + struct.pack("<d", math.nan),
            lambda b: b[:-8] + struct.pack("<d", math.inf),
            lambda b: b.replace(b"\x01\x00\x00\x00x", b"\x00\x00\x00\x00"),
            lambda b: b.replace(b"\x01\x00\x00\x00x", b"\x01\x00\x00\x00 "),
        ],
        ids=["nan-weight", "inf-weight", "empty-token", "space-token"],
    )
    def test_malformed_rejected(self, mutate):
        with pytest.raises(ParseError):
            load_model(mutate(save_model(tiny_model())))
