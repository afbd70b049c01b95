"""Tests of the benchmark itself: every check fails on a corrupted output,
both workloads run end to end at smoke size, and BENCHMARK.json matches
what the runs print.

    python3 -m pytest perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
from checks import CheckError  # noqa: E402
from embgeom import attention, embed_store, sense_geometry, trainer  # noqa: E402
from embgeom.linalg import Vector  # noqa: E402


def corrupt_f32(values):
    bad = np.array(values, dtype=np.float32, copy=True)
    bad.view(np.uint32)[0, 0] ^= 1
    return bad


@pytest.fixture(scope="module")
def smoke_plan():
    return inputs.make_plan("bert_table", 5, "smoke")


def test_inputs_repeat_for_a_seed(tmp_path, smoke_plan):
    again = inputs.make_plan("bert_table", 5, "smoke")
    a = inputs.write_inputs(smoke_plan, tmp_path / "a")
    b = inputs.write_inputs(again, tmp_path / "b")
    for role in a:
        assert open(a[role], "rb").read() == open(b[role], "rb").read()
    other = inputs.write_inputs(inputs.make_plan("bert_table", 6, "smoke"), tmp_path / "c")
    assert open(a["table"], "rb").read() != open(other["table"], "rb").read()


def test_text_table_parses_to_the_generator_values(tmp_path, smoke_plan):
    paths = inputs.write_inputs(smoke_plan, tmp_path)
    table = embed_store.load_embeddings_text(open(paths["table"], "rb").read())
    blob = embed_store.save_embeddings_binary(table)
    vocab, values = checks.decode_emb1(blob)
    checks.check_table(vocab, values, smoke_plan.table_vocab, smoke_plan.table_values(), "EMB1")
    with pytest.raises(CheckError):
        checks.check_table(vocab, values, smoke_plan.table_vocab,
                           corrupt_f32(smoke_plan.table_values()), "EMB1")
    with pytest.raises(CheckError):
        checks.check_table(vocab[::-1], values, smoke_plan.table_vocab,
                           smoke_plan.table_values(), "EMB1")
    with pytest.raises(CheckError):
        checks.decode_emb1(b"EMB2" + blob[4:])


@pytest.fixture(scope="module")
def trained():
    plan = inputs.make_plan("trained_senses", 3, "smoke")
    s = plan.sizes
    lines = []
    model = trainer.train(plan.corpus, trainer.TrainConfig(
        d=s.train_dim, window=s.window, epochs=s.epochs, learning_rate=s.lr, seed=3),
        on_epoch=lambda e, loss: lines.append(f"epoch\t{e}\t{loss!r}"))
    table = trainer.extract_embeddings(model)
    return plan, "\n".join(lines), trainer.save_model(model), embed_store.save_embeddings_text(table)


def test_train_check_fails_on_corrupted_outputs(trained):
    plan, stdout, model, out = trained
    epochs = plan.sizes.epochs
    checks.check_train(stdout, epochs, model, out, plan.corpus, plan.corpus_topics)
    rising = "\n".join(f"epoch\t{e}\t{1.0 + e}" for e in range(epochs))
    nan = stdout.replace(stdout.splitlines()[-1].split("\t")[2], "nan")
    _, _, w_out = checks.decode_tlm1(model)
    flipped_in = bytearray(model)
    flipped_in[len(model) - w_out.nbytes - 1] ^= 1  # the last byte of W_in
    cases = [
        (rising, model, out, plan.corpus_topics),
        (nan, model, out, plan.corpus_topics),
        (stdout, bytes(flipped_in), out, plan.corpus_topics),
        (stdout, model, out.replace(b"\n", b"\n ", 1), plan.corpus_topics),
        (stdout, model, out, [[w for g in plan.corpus_topics for w in g[::2]],
                              [w for g in plan.corpus_topics for w in g[1::2]]]),
    ]
    for case in cases:
        with pytest.raises((CheckError, ValueError)):
            checks.check_train(case[0], epochs, case[1], case[2], plan.corpus, case[3])


def test_neighbour_check_fails_on_wrong_lists(smoke_plan):
    vocab, values = smoke_plan.table_vocab, smoke_plan.table_values()
    table = embed_store.EmbeddingTable(vocab, values.astype(np.float64))
    oracle = checks.NeighbourOracle(vocab, values)
    rules = embed_store.token_filter(checks.FILTER_RULES)
    word = smoke_plan.topics[0][0]
    for filtered in (False, True):
        got = [tuple(e) for e in embed_store.nearest_neighbors(
            table, word, 10, filter=rules if filtered else None)]
        assert oracle.check(word, 10, filtered, got) > 10
    good = [tuple(e) for e in embed_store.nearest_neighbors(table, word, 10)]
    deeper = [tuple(e) for e in embed_store.nearest_neighbors(table, word, 40)]
    special = next(t for t in vocab if t.startswith("##"))
    wrong = [
        good[:-1],                                   # too short
        good[:1] + good[2:] + deeper[20:21],         # skips a true neighbour
        [(good[0][0], good[0][1] + 1e-6)] + good[1:],  # similarity off
        good[:9] + [good[0]],                        # repeated entry
        good[::-1],                                  # not sorted
        good[:9] + [(word, 1.0)],                    # the query itself
    ]
    for entries in wrong:
        with pytest.raises(CheckError):
            oracle.check(word, 10, False, entries)
    entries = good[:9] + [(special, good[9][1])]
    with pytest.raises(CheckError):
        oracle.check(word, 10, True, entries)


def _contextualized(d=8, n=2, layers=2, length=5, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((length, d))
    config = attention.MultiHeadConfig(d=d, n=n, layers=layers)
    params = attention.random_stack_params(config, seed=seed)
    out = attention.stack_forward([Vector(r) for r in x], config, params)
    return x, config, params, out


def test_forward_checks_fail_on_wrong_outputs():
    x, config, params, out = _contextualized()
    arrays = checks.stack_arrays(params)
    checks.check_forward(x, arrays, out, "sentence")
    bumped = list(out)
    bumped[2] = bumped[2] + Vector([1e-6] + [0.0] * (len(out[2]) - 1))
    with pytest.raises(CheckError):
        checks.check_forward(x, arrays, bumped, "sentence")
    perm = [2, 0, 4, 1, 3]
    shuffled = attention.stack_forward([Vector(x[i]) for i in perm], config, params)
    checks.check_permuted(out, shuffled, perm)
    with pytest.raises(CheckError):
        checks.check_permuted(out, shuffled, [0, 1, 2, 3, 4])


def _senses(n=40, d=6, seed=2):
    rng = random.Random(seed)
    vecs, gold = [], []
    for i in range(n):
        sense = i % 2
        vecs.append(tuple(rng.gauss(3.0 if j == sense else 0.0, 0.5) for j in range(d)))
        gold.append(f"s{sense}")
    return vecs, gold, tuple(1.0 for _ in range(d))


def test_separation_and_inventory_checks_fail_on_wrong_reports():
    vecs, gold, token = _senses()
    report = sense_geometry.homonym_separation(token, vecs, gold_labels=gold, seed=0)
    checks.check_separation(report, vecs, gold, 0.9, "word")
    swapped = list(report.assignments)
    swapped[0] = 1 - swapped[0]
    bad_cases = [
        report.__class__(**{**report.__dict__, "assignments": tuple(swapped)}),
        report.__class__(**{**report.__dict__, "purity": 0.5}),
        report.__class__(**{**report.__dict__, "centroids": report.centroids[::-1]}),
    ]
    for bad in bad_cases:
        with pytest.raises(CheckError):
            checks.check_separation(bad, vecs, gold, 0.9, "word")
    with pytest.raises(CheckError):
        checks.check_separation(report, vecs, ["s0"] * 20 + ["s1"] * 20, 0.9, "word")

    groups = {"s0": vecs[0::2], "s1": vecs[1::2]}
    inv = sense_geometry.SenseInventory(word="w", senses=groups)
    rep = sense_geometry.inventory_report(inv, token_emb=token)
    checks.check_inventory(rep, groups, np.array(token))
    with pytest.raises(CheckError):
        checks.check_inventory(rep, {"s0": vecs[1::2], "s1": vecs[0::2]}, np.array(token))
    with pytest.raises(CheckError):
        checks.check_inventory(rep, groups, -np.array(token))


def test_probe_check_fails_on_wrong_predictions():
    vecs, gold, _ = _senses()
    labels = [{g} for g in gold]
    pairs = list(zip(vecs, labels))
    model = sense_geometry.probe_train(pairs, sense_geometry.ProbeConfig(epochs=50))
    accuracy = sense_geometry.probe_accuracy(model, pairs)
    predictions = [sense_geometry.probe_predict(model, v) for v in vecs]
    blob = sense_geometry.save_probe_model(model)
    checks.check_probe(blob, vecs, labels, predictions, accuracy, 0.9, "w")
    flipped = [{"s0", "s1"} - p for p in predictions[:1]] + predictions[1:]
    with pytest.raises(CheckError):
        checks.check_probe(blob, vecs, labels, flipped, accuracy, 0.9, "w")
    with pytest.raises(CheckError):
        checks.check_probe(blob, vecs, labels, predictions, accuracy - 0.025, 0.9, "w")
    with pytest.raises(CheckError):
        checks.check_probe(blob, vecs, labels, predictions, accuracy, 1.01, "w")
    other = sense_geometry.save_probe_model(sense_geometry.ProbeModel(
        classes=model.classes, weights=tuple(w * -1.0 for w in model.weights),
        biases=model.biases))
    with pytest.raises(CheckError):
        checks.check_probe(other, vecs, labels, predictions, accuracy, 0.9, "w")


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == session.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = session.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "trained_senses", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
