"""End-to-end tests for the command-line interface."""

import subprocess
import sys

import pytest

from embgeom import attention, cli, embed_store, trainer
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
        assert out.count("PASS") == 6

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, ["selfcheck", "--format", "tsv"])
        assert code == 0
        checks = [l for l in out.splitlines() if l.startswith("check\t")]
        assert len(checks) == 6
        assert all(l.split("\t")[2] == "pass" for l in checks)


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
