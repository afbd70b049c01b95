"""End-to-end tests for the command-line interface."""

import hashlib
import os
import random
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from embgeom import attention, cli, embed_store, selfcheck, sense_geometry, trainer
from embgeom.errors import ParseError
from embgeom.linalg import Matrix

MINI_TABLE = (
    "4 2\n"
    "horse 1 0\n"
    "horses 0.9 0.1\n"
    "cow 0.5 0.5\n"
    "##h 1 0.01\n"
)

SENSES_TSV = (
    "bank\triver\t1 0\n"
    "bank\triver\t0.9 0.1\n"
    "bank\tmoney\t0 1\n"
    "bank\tmoney\t0.1 0.9\n"
)

PROBE_TSV = (
    "apple\tFOOD\t1 0\n"
    "ipad\tORG\t0 1\n"
    "pie\tFOOD\t0.9 0.2\n"
    "mac\tORG\t0.1 0.95\n"
    "brand\tFOOD,ORG\t0.8 0.8\n"
    "rock\t\t-1 -1\n"
)


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "mini.vec"
    path.write_text(MINI_TABLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def senses_file(tmp_path):
    path = tmp_path / "senses.tsv"
    path.write_text(SENSES_TSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(
        "the river bank flooded today\nthe bank loan was approved\n",
        encoding="utf-8",
    )
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys, table_file):
        code, _, _ = run(capsys, ["neighbors", "--table", table_file, "--word", "horse"])
        assert code == 0

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["neighbors", "--word", "horse"])
        assert code == 2
        assert "--table" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_domain_error_is_one_with_name_on_stderr(self, capsys, table_file):
        code, _, err = run(
            capsys, ["neighbors", "--table", table_file, "--word", "zebra"]
        )
        assert code == 1
        assert err.startswith("OutOfVocabularyError")

    def test_unreadable_input_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.vec"
        bad.write_text("not a table\n", encoding="utf-8")
        code, _, err = run(
            capsys, ["neighbors", "--table", str(bad), "--word", "horse"]
        )
        assert code == 1
        assert err.startswith("ParseError")

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["neighbors", "--table", str(tmp_path / "nope.vec"), "--word", "x"],
        )
        assert code == 1
        assert "Error" in err

    def test_unknown_filter_rule_is_usage_error(self, capsys, table_file):
        code, _, _ = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse",
             "--filter", "bogus-rule"],
        )
        assert code == 2


class TestSeedEcho:
    def test_default_seed_is_42(self, capsys, table_file):
        _, out, _ = run(capsys, ["neighbors", "--table", table_file, "--word", "horse"])
        assert out.splitlines()[0] == "# seed=42"

    def test_explicit_seed_echoed(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse", "--seed", "7"],
        )
        assert out.splitlines()[0] == "# seed=7"

    def test_selfcheck_echoes_seed(self, capsys):
        _, out, _ = run(capsys, ["selfcheck", "--seed", "3"])
        assert out.splitlines()[0] == "# seed=3"


class TestNeighbors:
    def test_pretty_header_and_rounding(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse", "--k", "2",
             "--filter", "subwords"],
        )
        lines = out.splitlines()
        assert lines[1] == "Neighbour  Similarity"
        assert lines[2] == "horses 0.99"
        assert lines[3] == "cow 0.71"

    def test_tsv_keeps_full_precision(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse", "--k", "1",
             "--filter", "subwords", "--format", "tsv"],
        )
        token, sim = out.splitlines()[2].split("\t")
        assert token == "horses"
        # repr round-trips, so the printed value is not a rounded one
        assert abs(float(sim) - 0.9938837346736189) < 1e-12

    def test_filter_aliases_drop_subwords(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse",
             "--filter", "subwords,specials"],
        )
        assert "##h" not in out

    def test_unfiltered_keeps_subwords(self, capsys, table_file):
        _, out, _ = run(
            capsys, ["neighbors", "--table", table_file, "--word", "horse"]
        )
        assert "##h" in out

    def test_tsv_byte_identical_across_runs(self, capsys, table_file):
        argv = ["neighbors", "--table", table_file, "--word", "horse",
                "--format", "tsv"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestImport:
    def test_text_to_binary_round_trip(self, capsys, table_file, tmp_path):
        out_path = str(tmp_path / "mini.emb")
        code, _, _ = run(
            capsys, ["import", "--input", table_file, "--output", out_path]
        )
        assert code == 0
        with open(out_path, "rb") as fh:
            table = embed_store.load_embeddings_binary(fh.read())
        assert table.vocab == ("horse", "horses", "cow", "##h")

    def test_binary_input_autodetected(self, capsys, table_file, tmp_path):
        emb = str(tmp_path / "mini.emb")
        txt = str(tmp_path / "back.vec")
        run(capsys, ["import", "--input", table_file, "--output", emb])
        code, _, _ = run(
            capsys, ["import", "--input", emb, "--output", txt, "--to", "text"]
        )
        assert code == 0
        code, out, _ = run(capsys, ["neighbors", "--table", txt, "--word", "horse"])
        assert code == 0
        assert "horses" in out

    def test_tsv_summary(self, capsys, table_file, tmp_path):
        _, out, _ = run(
            capsys,
            ["import", "--input", table_file,
             "--output", str(tmp_path / "x.emb"), "--format", "tsv"],
        )
        assert "tokens\t4" in out
        assert "dim\t2" in out

    def test_text_table_is_read_in_one_copy(self, tmp_path, monkeypatch):
        # A buffered read() would join its read-ahead to the rest: two copies.
        rows = "\n".join(f"t{i} {i}.5 -1.25" for i in range(40000))
        blob = f"40000 2\n{rows}\n".encode()
        path = tmp_path / "big.vec"
        path.write_bytes(blob)
        seen = []

        def loader(raw, lowercase=False):
            seen.append((raw == blob, tracemalloc.get_traced_memory()[1]))
            return "table"

        monkeypatch.setattr(embed_store, "load_embeddings_text", loader)
        tracemalloc.start()
        try:
            assert cli._load_table(str(path)) == "table"
        finally:
            tracemalloc.stop()
        (same, peak), = seen
        assert same and peak < 1.5 * len(blob)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "emb1"])
    def test_tables_load_from_a_pipe(self, tmp_path, binary):
        table = embed_store.load_embeddings_text(MINI_TABLE.encode())
        save = embed_store.save_embeddings_binary if binary else embed_store.save_embeddings_text
        blob = save(table)
        fifo = tmp_path / "table.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
        writer.start()
        try:
            got = cli._load_table(str(fifo))
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert got == (embed_store.load_embeddings_binary(blob) if binary else table)

    def test_dead_worker_is_one_error_line(self, table_file, tmp_path):
        # Force the worker path, then kill each worker as it starts a chunk.
        script = (
            "import os, sys\n"
            "from embgeom import cli, embed_store\n"
            "embed_store._CHUNK_BYTES = 3\n"
            "embed_store._usable_cpus = lambda: 2\n"
            "embed_store._parse_values = lambda *args: os._exit(1)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "import", "--input", table_file,
             "--output", str(tmp_path / "x.emb")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("BrokenProcessPool: ")
        assert result.stderr.count("\n") == 1  # no traceback


class TestTrain:
    def test_same_seed_gives_byte_identical_tables(self, capsys, corpus_file, tmp_path):
        a = tmp_path / "a.vec"
        b = tmp_path / "b.vec"
        base = ["train", "--corpus", corpus_file, "--dim", "4", "--window", "2",
                "--epochs", "3", "--seed", "42"]
        run(capsys, base + ["--out", str(a)])
        run(capsys, base + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_table(self, capsys, corpus_file, tmp_path):
        a = tmp_path / "a.vec"
        b = tmp_path / "b.vec"
        base = ["train", "--corpus", corpus_file, "--dim", "4", "--window", "2",
                "--epochs", "3"]
        run(capsys, base + ["--seed", "1", "--out", str(a)])
        run(capsys, base + ["--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_epoch_losses_on_stdout(self, capsys, corpus_file):
        _, out, _ = run(
            capsys,
            ["train", "--corpus", corpus_file, "--dim", "4", "--epochs", "2",
             "--format", "tsv"],
        )
        epochs = [l for l in out.splitlines() if l.startswith("epoch\t")]
        assert len(epochs) == 2
        losses = [float(l.split("\t")[2]) for l in epochs]
        assert all(x > 0 for x in losses)

    def test_extract_matches_train_output(self, capsys, corpus_file, tmp_path):
        trained = tmp_path / "t.vec"
        model = tmp_path / "m.tlm"
        extracted = tmp_path / "e.vec"
        run(capsys, ["train", "--corpus", corpus_file, "--dim", "4",
                     "--epochs", "2", "--out", str(trained),
                     "--model-out", str(model)])
        code, _, _ = run(
            capsys, ["extract", "--model", str(model), "--out", str(extracted)]
        )
        assert code == 0
        assert trained.read_bytes() == extracted.read_bytes()


class TestAttend:
    def test_rows_sum_to_one(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["attend", "--table", table_file, "--tokens", "horse cow horses",
             "--format", "tsv"],
        )
        rows = out.splitlines()[2:]
        assert len(rows) == 3
        for row in rows:
            weights = [float(x) for x in row.split("\t")[1:]]
            assert abs(sum(weights) - 1.0) < 1e-12

    @pytest.mark.parametrize("flags, tsv, pretty", [
        ([], [
            "horse\t0.37966226330701114\t0.26659447568179984\t0.3537432610111891",
            "cow\t0.3333333333333333\t0.3333333333333333\t0.3333333333333333",
            "horses\t0.3705570177519849\t0.27926596700502815\t0.3501770152429869",
        ], ["horse   0.38  0.27   0.35", "cow     0.33  0.33   0.33", "horses  0.37  0.28   0.35"]),
        (["--no-scale"], [
            "horse\t0.3981893410449361\t0.24151404371452387\t0.36029661524054013",
            "cow\t0.3333333333333333\t0.3333333333333333\t0.3333333333333333",
            "horses\t0.38558878980872086\t0.2584678953354082\t0.3559433148558709",
        ], ["horse   0.40  0.24   0.36", "cow     0.33  0.33   0.33", "horses  0.39  0.26   0.36"]),
        (["--positional"], [
            "horse\t0.332369388380096\t0.4353722658744548\t0.2322583457454491",
            "cow\t0.30840921380321534\t0.43921142716033557\t0.25237935903644904",
            "horses\t0.15838965814415396\t0.24296445484403364\t0.5986458870118124",
        ], ["horse   0.33  0.44   0.23", "cow     0.31  0.44   0.25", "horses  0.16  0.24   0.60"]),
    ], ids=["scaled", "no-scale", "positional"])
    def test_frozen_output(self, capsys, table_file, flags, tsv, pretty):
        argv = ["attend", "--table", table_file, "--tokens", "horse cow horses", *flags]
        _, out, _ = run(capsys, argv + ["--format", "tsv"])
        assert out.splitlines() == ["# seed=42", "token\thorse\tcow\thorses", *tsv]
        _, out, _ = run(capsys, argv)
        assert out.splitlines() == ["# seed=42", "       horse   cow horses", *pretty]

    def test_weights_come_from_the_shipped_kernel(self, capsys, table_file, monkeypatch):
        shipped = attention._weights
        monkeypatch.setattr(attention, "_weights", lambda q, k, scale: 1.5 * shipped(q, k, scale))
        _, out, _ = run(
            capsys,
            ["attend", "--table", table_file, "--tokens", "horse cow", "--format", "tsv"],
        )
        for row in out.splitlines()[2:]:
            assert sum(float(x) for x in row.split("\t")[1:]) == pytest.approx(1.5)

    def test_unknown_token_is_domain_error(self, capsys, table_file):
        code, _, err = run(
            capsys, ["attend", "--table", table_file, "--tokens", "horse zebra"]
        )
        assert code == 1
        assert err.startswith("OutOfVocabularyError")

    def test_window_cap_is_domain_error(self, capsys, table_file):
        code, _, err = run(
            capsys,
            ["attend", "--table", table_file, "--tokens", "horse cow horses",
             "--window", "2"],
        )
        assert code == 1
        assert err.startswith("ContextWindowExceededError")


class TestContextualize:
    def test_seeded_params_round_trip(self, capsys, table_file, tmp_path):
        params = str(tmp_path / "p.att")
        argv = ["contextualize", "--table", table_file, "--tokens", "horse cow",
                "--heads", "2", "--layers", "2", "--format", "tsv"]
        _, seeded, _ = run(capsys, argv + ["--seed", "5", "--save-params", params])
        _, loaded, _ = run(capsys, argv + ["--params", params])
        first = [float(x) for x in seeded.splitlines()[1].split("\t")[1].split()]
        second = [float(x) for x in loaded.splitlines()[1].split("\t")[1].split()]
        # parameters persist as f32, so reloaded outputs agree to f32 precision
        assert first == pytest.approx(second, abs=1e-6)

    def test_params_file_sets_heads_and_layers(self, capsys, table_file, tmp_path):
        params = str(tmp_path / "p.att")
        argv = ["contextualize", "--table", table_file, "--tokens", "horse cow",
                "--format", "tsv"]
        _, seeded, _ = run(capsys, argv + ["--heads", "2", "--layers", "2",
                                           "--save-params", params])
        code, loaded, _ = run(capsys, argv + ["--params", params])
        assert code == 0
        first = [float(x) for x in seeded.splitlines()[1].split("\t")[1].split()]
        second = [float(x) for x in loaded.splitlines()[1].split("\t")[1].split()]
        assert first == pytest.approx(second, abs=1e-6)

    @pytest.mark.parametrize("flag, value, error", [
        ("--heads", "1", "HeadCountError"),
        ("--layers", "1", "DimensionError"),
    ])
    def test_flag_disagreeing_with_params_file(self, capsys, table_file, tmp_path,
                                               flag, value, error):
        params = str(tmp_path / "p.att")
        argv = ["contextualize", "--table", table_file, "--tokens", "horse cow"]
        run(capsys, argv + ["--heads", "2", "--layers", "2", "--save-params", params])
        code, _, err = run(capsys, argv + ["--params", params, flag, value])
        assert code == 1
        assert err.startswith(error)

    def test_bad_head_count_is_domain_error(self, capsys, table_file):
        code, _, err = run(
            capsys,
            ["contextualize", "--table", table_file, "--tokens", "horse",
             "--heads", "3"],
        )
        assert code == 1
        assert err.startswith("HeadCountError")

    def test_params_missing_a_projection_is_parse_error(self, capsys, table_file, tmp_path):
        params = tmp_path / "p.att"
        eye = Matrix.identity(2)
        params.write_bytes(
            attention.save_named_matrices({"layer0.head0.Wq": eye, "layer0.Wo": eye})
        )
        code, _, err = run(
            capsys,
            ["contextualize", "--table", table_file, "--tokens", "horse",
             "--heads", "1", "--params", str(params)],
        )
        assert code == 1
        assert err.startswith("ParseError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, tsv", [
        ([], ["horse\t0.28542839929212405 -0.06811266168474493",
              "cow\t0.28595914652588417 -0.06835790633895564",
              "horses\t0.28553430148250236 -0.06816159636477234"]),
        (["--no-scale"], ["horse\t0.28639926568747087 -0.06856127409055025",
                          "cow\t0.28715830849792096 -0.06891200826256122",
                          "horses\t0.28655062185780866 -0.06863121188635216"]),
        (["--positional"], ["horse\t0.6345653886918639 -0.1641872082282057",
                            "cow\t0.6419849323794808 -0.16689526651882028",
                            "horses\t0.6274804342711834 -0.16130753592301386"]),
    ], ids=["scaled", "no-scale", "positional"])
    def test_frozen_output(self, capsys, table_file, flags, tsv):
        argv = ["contextualize", "--table", table_file, "--tokens", "horse cow horses", *flags]
        _, out, _ = run(capsys, argv + ["--format", "tsv"])
        assert out.splitlines() == ["# seed=42", *tsv]

    def test_output_dimension_matches_table(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["contextualize", "--table", table_file, "--tokens", "horse cow",
             "--heads", "2", "--format", "tsv"],
        )
        for line in out.splitlines()[1:]:
            assert len(line.split("\t")[1].split()) == 2


class TestSenseSubcommands:
    def test_centroid_reports_distances(self, capsys, senses_file, table_file):
        _, out, _ = run(
            capsys, ["centroid", "--senses", senses_file, "--format", "tsv"]
        )
        lines = out.splitlines()
        assert any(l.startswith("centroid\tmoney\t") for l in lines)
        assert any(l.startswith("centroid\triver\t") for l in lines)
        dist = [l for l in lines if l.startswith("distance\t")]
        assert len(dist) == 1
        assert 0.0 < float(dist[0].split("\t")[3]) < 2.0

    def test_centroid_with_token_table_reports_betweenness(
        self, capsys, senses_file, tmp_path
    ):
        bank = tmp_path / "bank.vec"
        bank.write_text("1 2\nbank 0.5 0.5\n", encoding="utf-8")
        _, out, _ = run(
            capsys,
            ["centroid", "--senses", senses_file, "--table", str(bank),
             "--format", "tsv"],
        )
        assert "betweenness\tmoney\triver\ttrue" in out.splitlines()

    def test_centroid_multi_word_file_needs_word(self, capsys, tmp_path):
        path = tmp_path / "multi.tsv"
        path.write_text(
            "bank\triver\t1 0\nrock\tstone\t0 1\n", encoding="utf-8"
        )
        code, _, err = run(capsys, ["centroid", "--senses", str(path)])
        assert code == 1
        assert "--word" in err

    def test_shift_inline_context(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["shift", "--table", table_file, "--word", "horse",
             "--ctx", "1 0", "--format", "tsv"],
        )
        assert out.splitlines()[1] == "shift\t0.0"

    def test_shift_from_second_table(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["shift", "--table", table_file, "--word", "horse",
             "--ctx-table", table_file, "--ctx-word", "cow", "--format", "tsv"],
        )
        value = float(out.splitlines()[1].split("\t")[1])
        assert value == pytest.approx(1 - 0.5 / (0.5 ** 2 + 0.5 ** 2) ** 0.5)

    @pytest.mark.parametrize("argv", [
        ["shift", "--word", "w", "--ctx", "1e200 2", "--table"],
        ["shift", "--word", "w", "--ctx", "-1e200 1", "--metric", "euclidean", "--table"],
        ["centroid", "--senses"],
    ])
    def test_float64_overflow_is_domain_error(self, capsys, tmp_path, argv):
        path = tmp_path / "big"
        path.write_text("1 2\nw 1e200 1\n" if argv[0] == "shift" else
                        "w\ta\t1e200 1\nw\tb\t1e200 2\n", encoding="utf-8")
        code, out, err = run(capsys, argv + [str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("ValueError: ") and "too large" in err

    def test_shift_without_context_is_domain_error(self, capsys, table_file):
        code, _, err = run(capsys, ["shift", "--table", table_file, "--word", "horse"])
        assert code == 1
        assert "ctx" in err

    def test_separate_reports_purity_and_betweenness(
        self, capsys, senses_file, tmp_path
    ):
        bank = tmp_path / "bank.vec"
        bank.write_text("1 2\nbank 0.5 0.5\n", encoding="utf-8")
        _, out, _ = run(
            capsys,
            ["separate", "--senses", senses_file, "--word", "bank",
             "--table", str(bank), "--format", "tsv"],
        )
        lines = out.splitlines()
        assert "purity\t1.0" in lines
        assert "betweenness\ttrue" in lines
        assignments = [l for l in lines if l.startswith("assignment\t")]
        assert len(assignments) == 4

    def test_separate_unknown_word_is_domain_error(self, capsys, senses_file, table_file):
        code, _, _ = run(
            capsys,
            ["separate", "--senses", senses_file, "--word", "rock",
             "--table", table_file],
        )
        assert code == 1

    def test_separate_zero_norm_occurrence_is_domain_error(self, capsys, tmp_path):
        senses = tmp_path / "zero.tsv"
        senses.write_text(SENSES_TSV + "bank\tmoney\t0 0\n", encoding="utf-8")
        bank = tmp_path / "bank.vec"
        bank.write_text("1 2\nbank 0.5 0.5\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["separate", "--senses", str(senses), "--word", "bank",
             "--table", str(bank)],
        )
        assert code == 1
        assert err.startswith("ZeroVectorError: ")
        assert "Traceback" not in err
        assert out == ""


class TestProbes:
    def test_train_then_eval(self, capsys, tmp_path):
        data = tmp_path / "probe.tsv"
        data.write_text(PROBE_TSV, encoding="utf-8")
        model = str(tmp_path / "model.prb")
        code, out, _ = run(
            capsys,
            ["probe-train", "--data", str(data), "--out", model,
             "--epochs", "300", "--format", "tsv"],
        )
        assert code == 0
        assert "classes\tFOOD,ORG" in out
        code, out, _ = run(
            capsys,
            ["probe-eval", "--model", model, "--data", str(data),
             "--format", "tsv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert "prediction\tbrand\tFOOD,ORG\ttrue" in lines
        assert "prediction\trock\t\tfalse" in lines
        assert lines[-1] == "accuracy\t1.0"

    def test_single_class_data_is_domain_error(self, capsys, tmp_path):
        data = tmp_path / "one.tsv"
        data.write_text("a\tFOOD\t1 0\nb\tFOOD\t0.9 0\n", encoding="utf-8")
        code, _, err = run(capsys, ["probe-train", "--data", str(data)])
        assert code == 1
        assert err.startswith("DegenerateClassError")

    def test_unequal_vector_lengths_are_parse_error(self, capsys, tmp_path):
        data = tmp_path / "ragged.tsv"
        data.write_text("a\tX\t1 0\nb\tY\t1\n", encoding="utf-8")
        code, _, err = run(capsys, ["probe-train", "--data", str(data)])
        assert code == 1
        assert err.startswith("ParseError: line 2: ")
        assert "Traceback" not in err

    def test_eval_scores_each_row_once(self, capsys, tmp_path, monkeypatch):
        x = np.random.default_rng(61).normal(size=(60, 4))
        x[1::2, 0] += 2.0
        data = tmp_path / "probe.tsv"
        data.write_text("".join(f"t{i}\t{'AB'[i % 2]}\t{' '.join(map(repr, row))}\n"
                                for i, row in enumerate(x.tolist())), encoding="utf-8")
        model = str(tmp_path / "model.prb")
        assert run(capsys, ["probe-train", "--data", str(data), "--out", model])[0] == 0
        rows = []
        kernel = sense_geometry._scores
        monkeypatch.setattr(sense_geometry, "_scores",
                            lambda m, x: rows.append(len(x)) or kernel(m, x))
        code, out, _ = run(capsys, ["probe-eval", "--model", model, "--data", str(data),
                                    "--format", "tsv"])
        assert code == 0 and len(out.splitlines()) == 62
        assert sum(rows) == 60

    # sha256 of the PRB1 file and of stdout for seed 7 on PROBE_TSV, taken
    # when probes were scored one Vector at a time: a change to how they are
    # stored or scored keeps every byte
    PINNED = {
        "prb": "6a5faf1b1e2f31868013377c6580a069d32039113e9dff2fc498908a75e79657",
        ("tsv", "probe-train"): "3b371f52bfcfc7c35236fe44bef1a293670b82c8e0deab6f66df0b0bf0c506b4",
        ("tsv", "probe-eval"): "a804818d5d7bfdfedf077f69e3a0f7119b7e02be0bd4bce1a56603da584c3836",
        ("pretty", "probe-train"):
            "7383b7f354c516c1edfc8996db2515df567110e54187a3d2e9a182592c4de80f",
        ("pretty", "probe-eval"):
            "56ee36c9a8071c921d25f1349906c1ce2afb2a07c0b46a5ba6557cd96443550b",
    }

    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    def test_train_and_eval_bytes_are_pinned(self, capsys, tmp_path, fmt):
        data = tmp_path / "probe.tsv"
        data.write_text(PROBE_TSV, encoding="utf-8")
        model = tmp_path / "model.prb"
        for argv in (["probe-train", "--out", str(model), "--seed", "7"],
                     ["probe-eval", "--model", str(model)]):
            code, out, err = run(capsys, argv + ["--data", str(data), "--format", fmt])
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[fmt, argv[0]], out
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.PINNED["prb"]

    def test_class_name_that_breaks_the_tsv_is_parse_error(self, capsys, tmp_path):
        data = tmp_path / "probe.tsv"
        data.write_text("t1\ta\t1\n", encoding="utf-8")
        for name in (b"a,b", b"x\ty", b""):
            model = tmp_path / "model.prb"
            model.write_bytes(
                b"PRB1" + struct.pack("<2Q", 2, 1)
                + struct.pack("<I", 1) + b"a" + struct.pack("<2d", 0.0, 1.0)
                + struct.pack("<I", len(name)) + name + struct.pack("<2d", 0.0, 1.0)
            )
            with pytest.raises(ParseError, match="class name"):
                sense_geometry.load_probe_model(model.read_bytes())
            code, out, err = run(capsys, ["probe-eval", "--model", str(model),
                                          "--data", str(data), "--format", "tsv"])
            assert (code, out) == (1, "") and err.startswith("ParseError: ")


@pytest.mark.parametrize("subcommand, data, rate", [
    ("train", "toy.txt", "inf"),
    ("probe-train", "probe.tsv", "nan"),
])
def test_non_finite_learning_rate_fails_before_any_output(tmp_path, subcommand, data, rate):
    (tmp_path / "toy.txt").write_text("the river bank flooded today\n", encoding="utf-8")
    (tmp_path / "probe.tsv").write_text(PROBE_TSV, encoding="utf-8")
    flag = "--corpus" if subcommand == "train" else "--data"
    argv = [subcommand, flag, str(tmp_path / data), "--lr", rate]
    if subcommand == "train":
        argv += ["--dim", "4"]
    result = subprocess.run(
        [sys.executable, "-m", "embgeom", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert result.stdout == ""
    # one error line: no RuntimeWarning, no traceback
    assert result.stderr == "ValueError: learning rate must be positive and finite\n"


class TestSelfcheck:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["selfcheck"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, ["selfcheck", "--format", "tsv"])
        assert code == 0
        checks = [l for l in out.splitlines() if l.startswith("check\t")]
        assert len(checks) == 7
        assert all(l.split("\t")[2] == "pass" for l in checks)

    def test_row_sum_check_runs_the_shipped_head(self, monkeypatch):
        assert selfcheck._check_attention_row_sums(random.Random(0)).passed
        shipped = attention.head_forward
        monkeypatch.setattr(
            attention, "head_forward",
            lambda seq, params, scale_scores=True: Matrix(
                1.5 * shipped(seq, params, scale_scores=scale_scores).array
            ),
        )
        assert not selfcheck._check_attention_row_sums(random.Random(0)).passed

    def test_softmax_check_runs_the_shipped_kernel(self, monkeypatch):
        assert selfcheck._check_softmax_normalization(random.Random(0)).passed
        shipped = attention._weights
        monkeypatch.setattr(attention, "_weights", lambda q, k, scale: 1.5 * shipped(q, k, scale))
        assert not selfcheck._check_softmax_normalization(random.Random(0)).passed

    def test_gradient_check_runs_the_shipped_step(self, monkeypatch):
        assert selfcheck._check_gradients(random.Random(0)).passed
        shipped = trainer._sgd_step_arrays
        monkeypatch.setattr(
            trainer, "_sgd_step_arrays",
            lambda w_in, w_out, target, ctx, inv, lr: shipped(w_in, w_out, target, ctx, inv, 1.5 * lr),
        )
        assert not selfcheck._check_gradients(random.Random(0)).passed


class TestNeighborsOutput:
    def test_text_table_and_its_emb1_import_print_the_same_bytes(self, capsys, tmp_path):
        # f32-exact values: the text table keeps float64 rows, the EMB1
        # table float32 ones; the TSV is the same, from run to run.
        rng = np.random.default_rng(31)
        V, D = 300, 24
        rows = rng.normal(size=(V, D)).astype(np.float32).astype(np.float64)
        rows[17] = rows[4]  # an exact tie
        vocab = [f"##w{i}" if i % 5 == 0 else f"w{i}" for i in range(V)]
        txt, emb = tmp_path / "t.vec", tmp_path / "t.emb"
        txt.write_bytes(embed_store.save_embeddings_text(embed_store.EmbeddingTable(vocab, rows)))
        run(capsys, ["import", "--input", str(txt), "--output", str(emb), "--to", "binary"])
        for word in ("w4", "w1", "w299"):
            for extra in ([], ["--filter", "subwords"], ["--k", str(V)]):
                outs = set()
                for table in (txt, emb, txt, emb):
                    code, out, _ = run(capsys, [
                        "neighbors", "--table", str(table), "--word", word,
                        "--format", "tsv", *extra,
                    ])
                    assert code == 0
                    outs.add(out)
                assert len(outs) == 1


def test_lowercase_folds_text_and_emb1_tables_alike(capsys, tmp_path):
    txt, emb, out = tmp_path / "t.vec", tmp_path / "t.emb", tmp_path / "out.vec"
    txt.write_text("3 2\nApple 1 0\npear 0.5 0.5\nKiwi 0 1\n", encoding="utf-8")
    run(capsys, ["import", "--input", str(txt), "--output", str(emb)])
    printed, imported = set(), set()
    for table in (txt, emb):
        got = run(capsys, ["neighbors", "--lowercase", "--word", "apple", "--table", str(table)])
        printed.add(got)
        assert run(capsys, ["import", "--lowercase", "--to", "text", "--input", str(table),
                            "--output", str(out)])[0] == 0
        imported.add(out.read_text(encoding="utf-8"))
    assert len(printed) == len(imported) == 1 and printed.pop()[0] == 0
    assert imported.pop() == "3 2\napple 1 0\npear 0.5 0.5\nkiwi 0 1\n"
    emb.write_bytes(embed_store.save_embeddings_binary(
        embed_store.EmbeddingTable(["Apple", "apple"], [[1.0], [2.0]])))
    code, _, err = run(capsys, ["neighbors", "--lowercase", "--word", "apple", "--table", str(emb)])
    assert code == 1 and err.startswith("ParseError: ") and "duplicate" in err


# Each subcommand that takes --table, with the flags that change how it
# reads the table; {T} is the table, {S} a sense TSV, {O} an output file.
TABLE_COMMANDS = {
    "neighbors": ["neighbors", "--table", "{T}", "--word", "bank", "--k", "12"],
    "neighbors-filter": ["neighbors", "--table", "{T}", "--word", "bank", "--k", "12",
                         "--filter", "subwords,specials,nonalpha"],
    "neighbors-lowercase": ["neighbors", "--table", "{T}", "--word", "apple", "--lowercase"],
    "contextualize": ["contextualize", "--table", "{T}", "--tokens", "the bank of river",
                      "--heads", "2"],
    "contextualize-positional": ["contextualize", "--table", "{T}", "--tokens",
                                 "the bank of river", "--heads", "2", "--positional"],
    "attend": ["attend", "--table", "{T}", "--tokens", "the bank of the river"],
    "shift-ctx": ["shift", "--table", "{T}", "--word", "bank",
                  "--ctx", "0.5 -1 2 0.25 1e-3 -0.75 3 1"],
    "shift-ctx-table": ["shift", "--table", "{T}", "--word", "bank",
                        "--ctx-table", "{T}", "--ctx-word", "river"],
    "centroid": ["centroid", "--senses", "{S}", "--table", "{T}"],
    "separate": ["separate", "--senses", "{S}", "--word", "bank", "--table", "{T}"],
    "import-text": ["import", "--input", "{T}", "--output", "{O}", "--to", "text"],
}


@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
def test_one_table_two_forms_print_the_same_bytes(capsys, tmp_path, command, fmt):
    # f32-exact values: the text form keeps float64 rows, the EMB1 form
    # float32 ones, and every subcommand must not tell them apart.
    rng = np.random.default_rng(21)
    words = ["the", "bank", "of", "river", "Apple", "money", "##s", "[CLS]", "x1", "loan"]
    vocab = words + [f"w{i}" if i % 3 else f"##w{i}" for i in range(40)]
    rows = rng.normal(size=(len(vocab), 8)).astype(np.float32).astype(np.float64)
    table = embed_store.EmbeddingTable(vocab, rows)
    txt, emb, out = tmp_path / "t.vec", tmp_path / "t.emb", tmp_path / "out.vec"
    txt.write_bytes(embed_store.save_embeddings_text(table))
    emb.write_bytes(embed_store.save_embeddings_binary(table))
    senses = tmp_path / "senses.tsv"
    occ = rng.normal(size=(12, 8)) + np.repeat([[2.0] * 8, [-2.0] * 8], 6, axis=0)
    senses.write_text("".join(
        f"bank\t{'river' if i < 6 else 'money'}\t{' '.join(map(repr, r))}\n"
        for i, r in enumerate(occ.tolist())), encoding="utf-8")
    printed = []
    for form in (txt, emb):
        argv = [a.format(T=form, S=senses, O=out) for a in TABLE_COMMANDS[command]]
        code, stdout, err = run(capsys, argv + ["--format", fmt])
        assert (code, err) == (0, "")
        printed.append((stdout, out.read_bytes() if command == "import-text" else None))
    assert printed[0] == printed[1]


# Values that float() reads and the text table's decimal grammar does not;
# "0\r" ends its line with \r\n.
NOT_DECIMAL = ["1_0", "1e1_0", "\u0661", "\uff11", "1\v", "\xa01", "0\r", "nan", "inf",
               "-inf", "1e999"]


@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_every_reader_of_values_keeps_the_text_table_grammar(capsys, tmp_path, value):
    """The text table, the sense and probe TSVs and shift --ctx."""
    with pytest.raises(ParseError, match="line 3: "):
        embed_store.load_embeddings_text(f"2 2\na 1 0\nb 1 {value}\n")
    for loader in (sense_geometry.load_sense_tsv, sense_geometry.load_probe_tsv):
        with pytest.raises(ParseError,
                           match=r"line 2: (not a decimal float|value out of range): "):
            loader(f"w\tx\t1 0\nw\ty\t1 {value}\n".encode())
    table = tmp_path / "t.vec"
    table.write_text("1 2\nw 1 1\n", encoding="utf-8")
    shift = ["shift", "--table", str(table), "--word", "w", "--format", "tsv", "--ctx"]
    code, out, err = run(capsys, shift + [f"1 {value}"])
    if value.split() == [value]:
        assert (code, out) == (1, "")
        assert err.startswith(("ValueError: not a decimal float: ",
                               "ValueError: value out of range: "))
    else:  # --ctx splits on any whitespace: the field left is sound
        assert (code, out, err) == run(capsys, shift + [f"1 {value.strip()}"])


def test_nan_threshold_is_a_domain_error(capsys, tmp_path):
    data = tmp_path / "probe.tsv"
    data.write_text(PROBE_TSV, encoding="utf-8")
    model = str(tmp_path / "model.prb")
    assert run(capsys, ["probe-train", "--data", str(data), "--out", model])[0] == 0
    code, out, err = run(capsys, ["probe-eval", "--model", model, "--data", str(data),
                                  "--threshold", "nan"])
    assert (code, out) == (1, "")
    assert err.startswith("ValueError: ") and "threshold" in err


def test_module_entry_point(table_file):
    result = subprocess.run(
        [sys.executable, "-m", "embgeom", "neighbors", "--table", table_file,
         "--word", "horse", "--k", "1", "--filter", "subwords"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "Neighbour  Similarity"
    assert result.stdout.splitlines()[2] == "horses 0.99"


def test_cli_import_leaves_the_worker_pool_unloaded():
    # The text loader imports its process pool only when it forks workers;
    # every CLI start and every one-chunk load would pay for it otherwise.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, embgeom.cli; "
         "embgeom.cli.embed_store.load_embeddings_text(b'2 1\\na 1\\nb 2\\n'); "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
