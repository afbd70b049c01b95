"""Acceptance suite: one test per shipped criterion, one status line each.

Criteria 1 and 2 compare against reference neighbour lists for the
BERT-base-uncased input token embeddings. They need that table exported
to the text format once (see scripts/export_bert_token_embeddings.py)
and skip, rather than fail, when the export is absent.
"""

import math
import os
import random
import time
import warnings
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from embgeom import attention, embed_store, selfcheck, sense_geometry, trainer
from embgeom.linalg import Matrix, Vector

BERT_VEC = os.environ.get(
    "EMBGEOM_BERT_VEC",
    str(Path(__file__).resolve().parent.parent
        / "data" / "bert-base-uncased-input-embeddings.vec"),
)

HORSE_NEIGHBOURS = {
    "horses": 0.68, "dog": 0.43, "cattle": 0.38, "cow": 0.37, "animal": 0.37,
    "animals": 0.36, "dogs": 0.36, "bike": 0.35, "sheep": 0.35,
    "livestock": 0.35,
}

ROCK_NEIGHBOURS = {
    "rocks": 0.6, "stone": 0.46, "metal": 0.38, "pop": 0.37, "rocky": 0.36,
    "stones": 0.36, "punk": 0.34, "boulder": 0.34, "cliff": 0.34,
    "wood": 0.32,
}

WORDPIECE_FILTER = embed_store.token_filter(
    ["drop-prefix:##", "drop-bracketed", "drop-non-alphabetic"]
)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} - {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="session")
def bert_table():
    if not os.path.exists(BERT_VEC):
        pytest.skip(
            f"BERT input-embedding export not found at {BERT_VEC}; generate it "
            "once with scripts/export_bert_token_embeddings.py (or point "
            "EMBGEOM_BERT_VEC at an existing export)"
        )
    start = time.perf_counter()
    with open(BERT_VEC, "rb") as fh:
        table = embed_store.load_embeddings_text(fh.read())
    return table, time.perf_counter() - start


def _check_reference_neighbours(table, word, expected):
    result = embed_store.nearest_neighbors(table, word, 10, filter=WORDPIECE_FILTER)
    got = dict(result)
    overlap = set(got) & set(expected)
    mismatches = [
        f"{t}: {got[t]:.3f} vs {expected[t]:.2f}"
        for t in sorted(overlap)
        if abs(got[t] - expected[t]) > 0.02
    ]
    return got, overlap, mismatches


def test_criterion_01_bert_horse_neighbours(bert_table):
    table, load_seconds = bert_table
    start = time.perf_counter()
    got, overlap, mismatches = _check_reference_neighbours(
        table, "horse", HORSE_NEIGHBOURS
    )
    elapsed = load_seconds + (time.perf_counter() - start)
    ok = len(overlap) >= 8 and not mismatches and elapsed < 5.0
    _report(
        1, ok,
        f"overlap {len(overlap)}/10, {len(mismatches)} similarity mismatches"
        f"{' (' + '; '.join(mismatches) + ')' if mismatches else ''}, "
        f"{elapsed:.2f}s (limit 5s); got {sorted(got)}",
    )


def test_criterion_02_bert_rock_neighbours(bert_table):
    table, _ = bert_table
    got, overlap, mismatches = _check_reference_neighbours(
        table, "rock", ROCK_NEIGHBOURS
    )
    ok = len(overlap) >= 8 and not mismatches
    _report(
        2, ok,
        f"overlap {len(overlap)}/10, {len(mismatches)} similarity mismatches"
        f"{' (' + '; '.join(mismatches) + ')' if mismatches else ''}; "
        f"got {sorted(got)}",
    )


def test_criterion_03_attention_hand_values():
    params = attention.AttentionHeadParams(
        Wq=Matrix.identity(2), Wk=Matrix.identity(2), Wv=Matrix.identity(2)
    )
    seq = [Vector([1.0, 0.0]), Vector([0.0, 1.0])]
    out = attention.head_forward(seq, params, scale_scores=False)
    expected = (0.73106, 0.26894)
    err = max(abs(a - b) for a, b in zip(out[0], expected))
    _report(3, err < 1e-5, f"position-0 output {tuple(out[0])}, max error {err:.2e}")


def test_criterion_04_head_dimensionality():
    bad = []
    checked = 0
    for d in (8, 64, 768):
        for n in (n for n in range(1, d + 1) if d % n == 0):
            d_head = d // n
            head = attention.AttentionHeadParams(
                Wq=Matrix.zeros(d_head, d),
                Wk=Matrix.zeros(d_head, d),
                Wv=Matrix.zeros(d_head, d),
            )
            seq = [Vector([1.0] * d)]
            per_head = attention.head_forward(seq, head)
            combined = attention.multihead_forward(
                seq, attention.AttentionLayerParams((head,) * n, Matrix.zeros(d, d))
            )
            if len(per_head[0]) != d_head or len(combined[0]) != d:
                bad.append((d, n))
            checked += 1
    _report(4, not bad, f"{checked} (d, n) cases exact, {len(bad)} wrong: {bad}")


def test_criterion_05_permutation_equivariance():
    rng = random.Random(77)
    worst = 0.0
    for case in range(100):
        d = rng.choice([2, 4, 8, 16, 32])
        n = rng.choice([k for k in (1, 2, 4) if d % k == 0])
        length = rng.randint(2, 16)
        config = attention.MultiHeadConfig(d=d, n=n, layers=1)
        params = attention.random_stack_params(config, seed=case)
        vecs = [
            Vector([rng.uniform(-1, 1) for _ in range(d)]) for _ in range(length)
        ]
        out = attention.stack_forward(vecs, config, params)
        perm = list(range(length))
        rng.shuffle(perm)
        out_p = attention.stack_forward([vecs[i] for i in perm], config, params)
        dev = max(
            abs(a - b)
            for i, j in enumerate(perm)
            for a, b in zip(out_p[i], out[j])
        )
        worst = max(worst, dev)

    # positional encodings are position-dependent, so they must break this
    rng = random.Random(78)
    broken = 0.0
    for case in range(100):
        d, n, length = 8, 2, 4
        config = attention.MultiHeadConfig(d=d, n=n, layers=1)
        params = attention.random_stack_params(config, seed=case)
        vecs = [
            Vector([rng.uniform(-1, 1) for _ in range(d)]) for _ in range(length)
        ]
        with_pos = [
            v + attention.positional_encoding(i, d) for i, v in enumerate(vecs)
        ]
        out = attention.stack_forward(with_pos, config, params)
        perm = list(range(length))
        rng.shuffle(perm)
        permuted_pos = [
            vecs[perm[i]] + attention.positional_encoding(i, d)
            for i in range(length)
        ]
        out_p = attention.stack_forward(permuted_pos, config, params)
        dev = max(
            abs(a - b)
            for i, j in enumerate(perm)
            for a, b in zip(out_p[i], out[j])
        )
        broken = max(broken, dev)

    ok = worst < 1e-9 and broken > 1e-3
    _report(
        5, ok,
        f"100 permuted sequences deviate at most {worst:.2e} without positions; "
        f"positional encodings push deviation to {broken:.2e}",
    )


def _criterion_06_worst_error(rng, h=1e-5):
    """Max relative error of the shipped training step's gradient (the
    change of its weights at learning rate 1) against central differences
    of its loss, over 20 random models."""
    step = selfcheck._shipped_loss_and_gradients
    worst = 0.0
    for _ in range(20):
        v = rng.randint(3, 7)
        d = rng.randint(2, 5)
        w_in = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(v)])
        w_out = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(v)])
        target = rng.randrange(v)
        others = [i for i in range(v) if i != target]
        ctx = np.array(sorted(rng.sample(others, rng.randint(1, len(others)))), dtype=np.intp)
        _, grads = step(w_in, w_out, target, ctx)
        for w, analytic in zip((w_in, w_out), grads):
            for i, j in np.ndindex(w.shape):
                keep = w[i, j]
                w[i, j] = keep + h
                up, _ = step(w_in, w_out, target, ctx)
                w[i, j] = keep - h
                down, _ = step(w_in, w_out, target, ctx)
                w[i, j] = keep
                fd = (up - down) / (2 * h)
                a = analytic[i, j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-2))
    return worst


def test_criterion_06_gradient_check():
    start = time.perf_counter()
    worst = _criterion_06_worst_error(random.Random(4242))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(
        6, ok,
        f"20 models, max relative gradient error {worst:.2e} "
        f"(limit 1e-4), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_06_checks_the_shipped_step(monkeypatch):
    shipped = trainer._sgd_step_arrays
    monkeypatch.setattr(
        trainer, "_sgd_step_arrays",
        lambda w_in, w_out, target, ctx, lr: shipped(w_in, w_out, target, ctx, 1.5 * lr),
    )
    assert _criterion_06_worst_error(random.Random(4242)) > 0.1


def cosine(a, b):
    return sum(map(mul, a, b)) / (math.sqrt(sum(map(mul, a, a))) * math.sqrt(sum(map(mul, b, b))))


def _cluster_margin(table, cluster_a, cluster_b):
    within, between = [], []
    for words in (cluster_a, cluster_b):
        for i, x in enumerate(words):
            for y in words[i + 1:]:
                within.append(cosine(table.lookup(x), table.lookup(y)))
    for x in cluster_a:
        for y in cluster_b:
            between.append(cosine(table.lookup(x), table.lookup(y)))
    return sum(within) / len(within) - sum(between) / len(between)


def test_criterion_07_distributional_clustering(
    two_cluster_corpus, trained_cluster_table
):
    margin = _cluster_margin(
        trained_cluster_table,
        two_cluster_corpus.cluster_a,
        two_cluster_corpus.cluster_b,
    )
    _report(
        7, margin >= 0.2,
        f"within-cluster minus between-cluster mean cosine = {margin:.3f} "
        "(needs >= 0.2)",
    )


def test_criterion_08_homonym_betweenness(two_cluster_corpus, trained_cluster_table):
    table = trained_cluster_table
    config = attention.MultiHeadConfig(d=16, n=2, layers=1)
    params = attention.random_stack_params(config, seed=5)
    occurrences = []
    gold = []
    for toks in two_cluster_corpus.bank_sentences():
        seq = attention.embed_sequence(table, toks)
        out = attention.stack_forward(seq, config, params)
        occurrences.append(out[toks.index("bank")])
        other = next(t for t in toks if t != "bank")
        gold.append("A" if other in two_cluster_corpus.cluster_a else "B")

    report = sense_geometry.homonym_separation(
        table.lookup("bank"), occurrences, gold_labels=gold, seed=42
    )
    between = report.betweenness[(0, 1)]
    ok = report.purity >= 0.9 and between
    _report(
        8, ok,
        f"{len(occurrences)} contextualized occurrences, purity {report.purity:.3f} "
        f"(needs >= 0.9), token-between-centroids {between}",
    )


def test_criterion_09_probe_ambiguity():
    rng = random.Random(42)
    examples = []
    dual_region = []
    for _ in range(100):
        v = (rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5))
        examples.append((v, frozenset({"FOOD"})))
    for _ in range(100):
        v = (rng.uniform(-0.5, 0.5), rng.uniform(1.5, 2.5))
        examples.append((v, frozenset({"ORGANIZATION"})))
    for _ in range(40):
        v = (rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5))
        examples.append((v, frozenset({"FOOD", "ORGANIZATION"})))
        dual_region.append(v)

    model = sense_geometry.probe_train(examples)
    accuracy = sense_geometry.probe_accuracy(model, examples)
    ambiguous = sum(
        1 for v in dual_region if sense_geometry.ambiguity_flag(model, v)
    ) / len(dual_region)
    ok = accuracy >= 0.95 and ambiguous >= 0.9
    _report(
        9, ok,
        f"training accuracy {accuracy:.3f} (needs >= 0.95), ambiguity flagged "
        f"on {ambiguous:.0%} of dual-region points (needs >= 90%)",
    )


def test_criterion_10_selfcheck_runtime():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning inside a check is a defect
        results = selfcheck.run_all(seed=42)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 30.0
    _report(
        10, ok,
        f"{len(results) - len(failed)}/{len(results)} checks passed in "
        f"{elapsed:.2f}s (limit 30s){'; failed: ' + ', '.join(failed) if failed else ''}",
    )
