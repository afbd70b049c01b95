"""End-to-end tests for the command-line interface."""

import hashlib
import os
import random
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings

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

    def test_prefix_rule_without_a_prefix_is_usage_error(self, capsys, table_file):
        code, out, err = run(
            capsys,
            ["neighbors", "--table", table_file, "--word", "horse",
             "--filter", "drop-prefix:"],
        )
        assert (code, out) == (2, "")
        assert "drop-prefix rule needs a prefix" in err


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

    def test_empty_filter_entries_are_skipped(self, capsys, table_file):
        argv = ["neighbors", "--table", table_file, "--word", "horse"]
        code, out, _ = run(capsys, argv + ["--filter", "subwords,,specials"])
        assert code == 0
        assert out == run(capsys, argv + ["--filter", "subwords,specials"])[1]

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

    @staticmethod
    def unaligned_model(path):
        """A TLM1 file whose weights start 6 bytes past an 8-byte boundary."""
        rng = np.random.default_rng(30)
        model = trainer.ToyLM(vocab=("a", "b"), W_in=Matrix(rng.normal(size=(2, 3))),
                              W_out=Matrix(rng.normal(size=(2, 3))))
        blob = trainer.save_model(model)
        assert (len(blob) - 2 * 6 * 8) % 8 == 6  # header 20 bytes, names 2 x 5
        path.write_bytes(blob)
        return model

    def test_model_weights_are_aligned_views_of_the_one_read(self, tmp_path):
        path = tmp_path / "m.tlm"
        model = self.unaligned_model(path)
        raw = cli._read(str(path))
        got = trainer.load_model(raw)
        for want, w in ((model.W_in, got.W_in), (model.W_out, got.W_out)):
            arr = w.array
            assert arr.flags.aligned and not arr.flags.writeable
            assert np.shares_memory(arr, np.frombuffer(raw, np.uint8))
            assert np.array_equal(arr, want.array)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_extract_reads_a_model_from_a_pipe(self, capsys, tmp_path):
        path = tmp_path / "m.tlm"
        self.unaligned_model(path)
        fifo = tmp_path / "m.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            piped = run(capsys, ["extract", "--model", str(fifo), "--out", str(tmp_path / "p")])
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        from_file = run(capsys, ["extract", "--model", str(path), "--out", str(tmp_path / "f")])
        assert piped[0] == from_file[0] == 0
        assert (tmp_path / "p").read_bytes() == (tmp_path / "f").read_bytes()


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

    @pytest.mark.parametrize("flags, error", [
        (["--tokens", "horse zz"], "OutOfVocabularyError"),
        (["--tokens", "horse cow horses", "--window", "2"], "ContextWindowExceededError"),
        (["--tokens", "horse cow", "--params", "{P}", "--layers", "1"], "DimensionError"),
    ], ids=["oov", "window", "layers-vs-params"])
    def test_failing_run_writes_no_params_file(self, capsys, table_file, tmp_path,
                                               flags, error):
        params, saved = tmp_path / "p.att", tmp_path / "saved.att"
        argv = ["contextualize", "--table", table_file]
        run(capsys, argv + ["--tokens", "horse", "--heads", "2", "--layers", "2",
                            "--save-params", str(params)])
        flags = [str(params) if f == "{P}" else f for f in flags]
        code, _, err = run(capsys, argv + flags + ["--save-params", str(saved)])
        assert code == 1 and err.startswith(error)
        assert not saved.exists()

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

    def test_pretty_entries_of_a_1e100_table_in_exponent_form(self, capsys, tmp_path):
        # fixed-point form would print each entry as a 100-digit integer
        table = tmp_path / "big.vec"
        table.write_text("2 3\na 1e100 -1e100 2e100\nb 1e100 1e100 1e100\n", encoding="utf-8")
        argv = ["contextualize", "--table", str(table), "--tokens", "a b", "--no-scale"]
        _, tsv, _ = run(capsys, argv + ["--format", "tsv"])
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        for line, want in zip(out.splitlines()[1:], tsv.splitlines()[1:], strict=True):
            token, fields = want.split("\t")
            values = [float(x) for x in fields.split()]
            assert min(map(abs, values)) >= 1e16
            assert line == f"{token}: [{' '.join(f'{x:.2e}' for x in values)}]"


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

    def test_centroid_word_picks_its_inventory_from_a_multi_word_file(self, capsys, tmp_path):
        path = tmp_path / "multi.tsv"
        path.write_text(
            "bank\triver\t1 0\nbat\tanimal\t2 4\nbank\tmoney\t0 1\n"
            "bat\tanimal\t4 2\nbat\tclub\t0 1\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, ["centroid", "--senses", str(path), "--word", "bat",
                                    "--format", "tsv"])
        assert code == 0
        assert out.splitlines()[1:] == [
            "centroid\tanimal\t3.0 3.0",
            "centroid\tclub\t0.0 1.0",
            "distance\tanimal\tclub\t0.2928932188134524",
        ]

    def test_shift_inline_context(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["shift", "--table", table_file, "--word", "horse",
             "--ctx", "1 0", "--format", "tsv"],
        )
        assert out.splitlines()[1] == "shift\t0.0"

    def test_shift_context_of_another_dim_names_both_dims(self, capsys, tmp_path):
        table = tmp_path / "d4.vec"
        table.write_text("1 4\nw 1 2 3 4\n", encoding="utf-8")
        code, out, err = run(capsys, ["shift", "--table", str(table), "--word", "w",
                                      "--ctx", "1 2"])
        assert (code, out) == (1, "")
        assert err == "DimensionError: context dim 2 does not match token dim 4\n"

    def test_shift_from_second_table(self, capsys, table_file):
        _, out, _ = run(
            capsys,
            ["shift", "--table", table_file, "--word", "horse",
             "--ctx-table", table_file, "--ctx-word", "cow", "--format", "tsv"],
        )
        value = float(out.splitlines()[1].split("\t")[1])
        assert value == pytest.approx(1 - 0.5 / (0.5 ** 2 + 0.5 ** 2) ** 0.5)

    @pytest.mark.parametrize("argv, last_line", [
        (["shift", "--word", "w", "--ctx", "1e200 2", "--table"], "shift\t0.0"),
        (["shift", "--word", "w", "--ctx", "-1e200 1", "--metric", "euclidean", "--table"],
         "shift\t2e+200"),
        (["centroid", "--senses"], "distance\ta\tb\t0.0"),
    ], ids=["argv0", "argv1", "argv2"])
    def test_float64_overflow_is_domain_error(self, capsys, tmp_path, argv, last_line):
        # rows whose squares overflow are scaled first, as neighbors scales
        # them, so these runs succeed
        path = tmp_path / "big"
        path.write_text("1 2\nw 1e200 1\n" if argv[0] == "shift" else
                        "w\ta\t1e200 1\nw\tb\t1e200 2\n", encoding="utf-8")
        code, out, err = run(capsys, argv + [str(path), "--format", "tsv"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == last_line

    def test_pretty_euclidean_distances_of_a_1e200_table(self, capsys, tmp_path):
        # fixed-point form would print 6.08e200 as a 201-digit integer
        table, senses = tmp_path / "t.vec", tmp_path / "s.tsv"
        table.write_text("1 2\nbank 0 1e200\n", encoding="utf-8")
        senses.write_text("bank\triver\t3e200 0\nbank\triver\t3e200 1e200\n"
                          "bank\tmoney\t-3e200 0\nbank\tmoney\t-3e200 -1e200\n",
                          encoding="utf-8")
        T, S = str(table), str(senses)
        for argv, want in [
            (["shift", "--table", T, "--word", "bank", "--ctx", "2e200 0"],
             ["Contextual shift of 'bank': 2.2361e+200"]),
            (["shift", "--table", T, "--word", "bank", "--ctx", "1e-200 1e200"],
             ["Contextual shift of 'bank': 0.0000"]),
            (["centroid", "--senses", S, "--table", T],
             ["Senses of 'bank': money, river", "distance(money, river) = 6.08e+200",
              "token -> money: 3.35e+200", "token -> river: 3.04e+200",
              "between money and river: yes"]),
            (["separate", "--senses", S, "--word", "bank", "--table", T],
             ["Separated 4 occurrences of 'bank'", "inter-centroid distance = 6.08e+200",
              "token -> cluster-0: 3.04e+200", "token -> cluster-1: 3.35e+200",
              "token between clusters: yes", "purity against gold senses = 1.00"]),
        ]:
            code, out, err = run(capsys, argv + ["--metric", "euclidean"])
            assert (code, err) == (0, "")
            assert out.splitlines()[1:] == want

    @pytest.mark.parametrize("value, digits, shown", [
        (0.123456, 2, "0.12"), (0.123456, 4, "0.1235"), (9999999999999998.0, 2,
         "9999999999999998.00"), (1e16, 2, "1.00e+16"), (2e200, 4, "2.0000e+200"),
        (1e-170, 2, "0.00"),
    ])
    def test_pretty_distances_switch_to_exponent_form_at_1e16(self, value, digits, shown):
        assert cli._pretty(value, digits) == shown

    def test_a_warning_is_one_stderr_line(self, tmp_path):
        # four identical occurrences split into identical centroids; run in a
        # process of its own, as pytest would otherwise record the warning
        senses, table = tmp_path / "same.tsv", tmp_path / "t.vec"
        senses.write_text("x\ta\t1 2\n" * 2 + "x\tb\t1 2\n" * 2, encoding="utf-8")
        table.write_text("1 2\nx 1 2\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "embgeom", "separate", "--senses", str(senses),
             "--word", "x", "--table", str(table)], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "# seed=42", "Separated 4 occurrences of 'x'", "inter-centroid distance = 0.00",
            "token -> cluster-0: 0.00", "token -> cluster-1: 0.00",
            "token between clusters: yes", "purity against gold senses = 0.50"]
        assert result.stderr == ("DegenerateClustersWarning: clustering produced "
                                 "(near-)identical centroids\n")

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


# One failing run per subcommand but selfcheck.
FAILING_RUNS = {
    "import": ["--input", "{tmp}/missing.vec", "--output", "{tmp}/x.emb"],
    "neighbors": ["--table", "{table}", "--word", "zebra"],
    "train": ["--corpus", "{tmp}/empty.txt", "--dim", "4"],
    "extract": ["--model", "{table}", "--out", "{tmp}/x.vec"],
    "attend": ["--table", "{table}", "--tokens", "horse zebra"],
    "contextualize": ["--table", "{table}", "--tokens", "horse cow", "--heads", "3"],
    "centroid": ["--senses", "{senses}", "--word", "zebra"],
    "shift": ["--table", "{table}", "--word", "horse"],
    "separate": ["--senses", "{senses}", "--word", "bank", "--table", "{table}"],
    "probe-train": ["--data", "{tmp}/empty.txt"],
    "probe-eval": ["--model", "{table}", "--data", "{senses}"],
}


def test_failing_runs_cover_every_subcommand_but_selfcheck():
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert set(FAILING_RUNS) == set(sub.choices) - {"selfcheck"}


@pytest.mark.parametrize("subcommand", sorted(FAILING_RUNS))
def test_a_failing_run_prints_one_error_line_and_no_output(capsys, tmp_path, table_file,
                                                          senses_file, subcommand):
    (tmp_path / "empty.txt").write_bytes(b"")
    paths = {"{tmp}": str(tmp_path), "{table}": table_file, "{senses}": senses_file}
    argv = [subcommand]
    for arg in FAILING_RUNS[subcommand]:
        for key, path in paths.items():
            arg = arg.replace(key, path)
        argv.append(arg)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_an_allocation_failure_prints_one_error_line(capsys, monkeypatch, table_file):
    # Stands in for a draw too large to allocate; no test asks for a real one.
    def no_memory(config, seed):
        raise MemoryError("Unable to allocate 7.28 EiB for an array with shape "
                          "(1000000000000000000,) and data type float64")

    monkeypatch.setattr(attention, "random_stack_params", no_memory)
    code, out, err = run(capsys, ["contextualize", "--table", table_file,
                                  "--tokens", "horse cow"])
    assert (code, out) == (1, "")
    assert err == ("MemoryError: Unable to allocate 7.28 EiB for an array with shape "
                   "(1000000000000000000,) and data type float64\n")


def test_a_draw_numpy_cannot_size_is_named(capsys, table_file):
    layers = 10**18
    code, out, err = run(capsys, ["contextualize", "--table", table_file,
                                  "--tokens", "horse cow", "--layers", str(layers)])
    assert (code, out) == (1, "")
    assert err == (f"ValueError: {layers} layers at d = 2 need {layers * 16} weights, "
                   "more than numpy can allocate\n")


# The edge-argument sweep. Each entry is (expected exit, argv); "{name}"
# fields name the files _sweep_files writes. No case asks for a large
# allocation: a huge --dim would draw the whole V x dim table first.
def _sweep():
    huge = str(10**18)
    table, pair = ["--table", "{table}"], ["--tokens", "horse cow"]
    cases = {}
    for n, code in (("0", 1), ("-1", 1), (huge, 0)):
        cases[f"neighbors-k={n}"] = (code, ["neighbors", *table, "--word", "horse", "--k", n])
        cases[f"train-window={n}"] = (code, ["train", "--corpus", "{corpus}", "--dim", "4",
                                             "--window", n])
        cases[f"attend-window={n}"] = (code, ["attend", *table, *pair, "--window", n])
        for flag in ("--heads", "--layers", "--window"):
            # 10**18 heads do not divide d; 10**18 layers overflow the draw's size
            huge_code = 0 if flag == "--window" else 1
            cases[f"contextualize{flag}={n}"] = (
                huge_code if n == huge else code, ["contextualize", *table, *pair, flag, n])
    for lr in ("nan", "inf", "5", "1e200"):  # 5 and 1e200 make the trainer diverge
        cases[f"train-lr={lr}"] = (1, ["train", "--corpus", "{corpus}", "--dim", "4", "--lr", lr])
        cases[f"probe-train-lr={lr}"] = (1 if lr in ("nan", "inf") else 0,
                                         ["probe-train", "--data", "{probe}", "--lr", lr])
    cases["attend-tokens="] = (1, ["attend", *table, "--tokens", ""])
    cases["contextualize-tokens="] = (1, ["contextualize", *table, "--tokens", ""])
    cases["shift-ctx="] = (1, ["shift", *table, "--word", "horse", "--ctx", ""])
    for kind in ("magic", "dir", "missing"):
        f = "{%s}" % kind
        cases[f"import-{kind}"] = (1, ["import", "--input", f, "--output", "{tmp}/x.emb"])
        cases[f"neighbors-{kind}"] = (1, ["neighbors", "--table", f, "--word", "horse"])
        cases[f"train-{kind}"] = (1, ["train", "--corpus", f, "--dim", "4"])
        cases[f"extract-{kind}"] = (1, ["extract", "--model", f, "--out", "{tmp}/x.vec"])
        cases[f"attend-{kind}"] = (1, ["attend", "--table", f, *pair])
        cases[f"contextualize-{kind}"] = (1, ["contextualize", *table, *pair, "--params", f])
        cases[f"centroid-{kind}"] = (1, ["centroid", "--senses", f])
        cases[f"shift-{kind}"] = (1, ["shift", "--table", f, "--word", "horse", "--ctx", "1 0"])
        cases[f"separate-{kind}"] = (1, ["separate", "--senses", f, "--word", "bank", *table])
        cases[f"probe-train-{kind}"] = (1, ["probe-train", "--data", f])
        cases[f"probe-eval-{kind}"] = (1, ["probe-eval", "--model", f, "--data", "{probe}"])
    # the +-1e200 table: neighbors and the sense geometry rescale its rows,
    # EMB1 holds no such float32 value, and the rest leave float64
    big, x = ["--table", "{big}"], ["--tokens", "x y z"]
    cases["import-big"] = (1, ["import", "--input", "{big}", "--output", "{tmp}/x.emb"])
    cases["import-huge-dim"] = (1, ["import", "--input", "{huge_dim}", "--output", "{tmp}/x.emb"])
    cases["neighbors-big"] = (0, ["neighbors", *big, "--word", "x"])
    cases["attend-big"] = (1, ["attend", *big, *x])
    cases["attend-big-positional"] = (1, ["attend", *big, *x, "--positional"])
    cases["contextualize-big"] = (1, ["contextualize", *big, *x])
    cases["shift-big"] = (0, ["shift", *big, "--word", "x", "--ctx", "1 2 3 4"])
    cases["centroid-big"] = (0, ["centroid", "--senses", "{big_senses}", *big])
    cases["separate-big"] = (0, ["separate", "--senses", "{big_senses}", "--word", "x", *big])
    cases["probe-train-big"] = (1, ["probe-train", "--data", "{big_probe}"])
    cases["selfcheck-seed=huge"] = (0, ["selfcheck", "--seed", huge])
    return cases


SWEEP = _sweep()
# numpy's warnings reach the real stderr only outside pytest, which raises
# them in-process; this case checks the stderr a user sees.
IN_A_SUBPROCESS = {"attend-big"}
# What a case's stderr line must name.
NAMED_IN_STDERR = {"import-big": "row 'x'", "import-huge-dim": "ParseError: line 2: "}

BIG_ROWS = ("1e200 -1e200 2e200 3e200", "-2e200 1e200 1e200 -1e200",
            "3e200 2e200 -1e200 1e200")


def _sweep_files(tmp_path):
    """Write the sweep's inputs; returns the format fields of its argv."""
    rng = random.Random(0)
    words = "abcdefghij"
    texts = {
        "table": MINI_TABLE,
        "big": "3 4\n" + "".join(f"{t} {row}\n" for t, row in zip("xyz", BIG_ROWS)),
        # 30 sentences over 10 words: --lr 5 diverges at --dim 4
        "corpus": "".join(" ".join(rng.choice(words) for _ in range(6)) + "\n"
                          for _ in range(30)),
        "probe": PROBE_TSV,
        "big_senses": "".join(f"x\t{s}\t{row}\n" for s, row in
                              zip("aabb", (*BIG_ROWS, "2e200 1e200 1e200 -1e200"))),
        "big_probe": "p\tA\t1e200 1\nq\tB\t-1e200 1\n",
        # a dimension numpy cannot allocate
        "huge_dim": f"1 {2**60}\nw 1\n",
    }
    fields = {"tmp": str(tmp_path), "dir": str(tmp_path), "missing": str(tmp_path / "missing")}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        fields[name] = str(tmp_path / name)
    # no container's magic, and not UTF-8 either
    (tmp_path / "magic").write_bytes(b"EMB0\xff\xfe 1 2\n")
    fields["magic"] = str(tmp_path / "magic")
    return fields


def test_sweep_covers_every_subcommand():
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert {argv[0] for _, argv in SWEEP.values()} == set(sub.choices)


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_every_edge_run_keeps_the_exit_contract(capsys, tmp_path, case):
    expected, template = SWEEP[case]
    argv = [arg.format(**_sweep_files(tmp_path)) for arg in template]
    if case in IN_A_SUBPROCESS:
        result = subprocess.run([sys.executable, "-m", "embgeom", *argv],
                                capture_output=True, text=True)
        code, out, err = result.returncode, result.stdout, result.stderr
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        err += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code == expected, err
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 1:  # one named line, and nothing on stdout: not even the seed
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
    assert NAMED_IN_STDERR.get(case, "") in err, err


@pytest.mark.parametrize("window", ["0", "-5"])
def test_attend_and_contextualize_reject_a_window_alike(capsys, table_file, window):
    errors = set()
    for subcommand in ("attend", "contextualize"):
        code, out, err = run(capsys, [subcommand, "--table", table_file,
                                      "--tokens", "horse cow", "--window", window])
        assert (code, out) == (1, "")
        errors.add(err)
    assert errors == {"ValueError: context window must be positive\n"}


def _zero_weights(q, k, scale_scores):
    return np.zeros((len(q), len(k)))


def _one_column_more(shipped):
    def wider(*args, **kwargs):
        out = shipped(*args, **kwargs).array
        return Matrix(np.column_stack([out, out[:, :1]]))
    return wider


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
        assert selfcheck._check_attention_row_sums(random.Random(0))[0]
        shipped = attention.head_forward
        monkeypatch.setattr(
            attention, "head_forward",
            lambda seq, params, scale_scores=True: Matrix(
                1.5 * shipped(seq, params, scale_scores=scale_scores).array
            ),
        )
        assert not selfcheck._check_attention_row_sums(random.Random(0))[0]

    def test_softmax_check_runs_the_shipped_kernel(self, monkeypatch):
        assert selfcheck._check_softmax_normalization(random.Random(0))[0]
        shipped = attention._weights
        monkeypatch.setattr(attention, "_weights", lambda q, k, scale: 1.5 * shipped(q, k, scale))
        assert not selfcheck._check_softmax_normalization(random.Random(0))[0]

    def test_gradient_check_runs_the_shipped_step(self, monkeypatch):
        assert selfcheck._check_gradients(random.Random(0))[0]
        shipped = trainer._sgd_step_arrays
        monkeypatch.setattr(
            trainer, "_sgd_step_arrays",
            lambda w_in, w_out, target, ctx, lr: shipped(w_in, w_out, target, ctx, 1.5 * lr),
        )
        assert not selfcheck._check_gradients(random.Random(0))[0]

    @pytest.mark.parametrize("fmt", ["pretty", "tsv"])
    def test_a_check_that_raises_fails_under_its_own_name(self, capsys, monkeypatch, fmt):
        _, shipped, _ = run(capsys, ["selfcheck", "--format", fmt])

        def broken(*args):
            raise RuntimeError("step broke")

        monkeypatch.setattr(trainer, "_sgd_step_arrays", broken)
        code, out, err = run(capsys, ["selfcheck", "--format", fmt])
        assert (code, err) == (1, "")
        want = shipped.splitlines()  # the seed line, then one line per check
        if fmt == "tsv":
            want[5] = "check\tgradient check\tfail\traised RuntimeError: step broke"
        else:
            want[5] = "FAIL  gradient check - raised RuntimeError: step broke"
            want[-1] = "6/7 checks passed"
        assert out.splitlines() == want

    # One case per failure branch: the kernel a check runs, how it is broken
    # (a function of the shipped kernel), the check, and its detail as a
    # pattern.
    BROKEN = {
        "zero-weights": (attention, "_weights", lambda f: _zero_weights,
                         "softmax normalization", "non-positive probability"),
        "zero-head-weights": (attention, "_weights", lambda f: _zero_weights,
                              "attention row sums", "non-positive attention weight"),
        "row-index-added": (
            attention, "stack_forward",
            lambda f: lambda seq, *a: Matrix(f(seq, *a).array + np.arange(len(seq))[:, None]),
            "permutation equivariance", r"max deviation = [1-5]\.00e\+00",
        ),
        "wide-head": (attention, "head_forward", _one_column_more,
                      "concat dimensionality", "head output is not d/n at d=8, n=1"),
        "wide-layer": (attention, "multihead_forward", _one_column_more,
                       "concat dimensionality", "layer output is not d at d=8, n=1"),
        "sum-not-mean": (sense_geometry, "_mean", lambda f: lambda x: x.sum(axis=0),
                         "centroid identity", "mean of copies is not the copy"),
        # right for copies and for opposite pairs, but the first and last
        # rows weigh in
        "order-weighted-mean": (
            sense_geometry, "_mean", lambda f: lambda x: f(x) * (1.0 + x[0, 0] - x[-1, 0]),
            "centroid identity", "centroid is order-sensitive",
        ),
        "row-wise-max": (sense_geometry, "_mean", lambda f: lambda x: x.max(axis=0),
                         "centroid identity", "opposite pairs do not cancel"),
        "reversed-neighbours": (
            embed_store, "nearest_neighbors", lambda f: lambda *a, **k: f(*a, **k)[::-1],
            "neighbour ranking", "top 10 of 't0' differs from the float64 ranking",
        ),
    }

    @pytest.mark.parametrize("case", BROKEN)
    def test_each_failure_branch_names_its_fault(self, monkeypatch, case):
        module, name, broken, check, detail = self.BROKEN[case]
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        result = {r.name: r for r in selfcheck.run_all()}[check]
        assert not result.passed
        assert re.fullmatch(detail, result.detail), result.detail


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


def test_lowercase_folds_the_query_word(capsys, tmp_path):
    txt, emb = tmp_path / "t.vec", tmp_path / "t.emb"
    txt.write_text("3 2\nHorse 1 0\ncow 0.5 0.5\nKiwi 0 1\n", encoding="utf-8")
    run(capsys, ["import", "--input", str(txt), "--output", str(emb)])
    for table in (txt, emb):
        argv = ["neighbors", "--table", str(table), "--format", "tsv", "--word"]
        folded = [run(capsys, argv + [word, "--lowercase"]) for word in ("Horse", "horse")]
        assert folded[0] == folded[1] and folded[0][0] == 0
        assert "cow\t" in folded[0][1]
        # without --lowercase the vocabulary and the query keep their case
        assert run(capsys, argv + ["Horse"])[0] == 0
        code, _, err = run(capsys, argv + ["horse"])
        assert code == 1 and err.startswith("OutOfVocabularyError")


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


def test_nan_probe_score_fails_the_eval(capsys, tmp_path):
    # one example's FOOD score is inf - inf: no prediction for it can be printed
    data = tmp_path / "probe.tsv"
    data.write_text("fine\tORG\t0 1\nhuge\tORG\t1e10 1e10\n", encoding="utf-8")
    model = tmp_path / "model.prb"
    model.write_bytes(sense_geometry.save_probe_model(sense_geometry.ProbeModel(
        classes=("FOOD", "ORG"), weights=((1e300, -1e300), (1e300, 0.0)), biases=(0.0, 0.0))))
    code, out, err = run(capsys, ["probe-eval", "--model", str(model), "--data", str(data),
                                  "--threshold", "0", "--format", "tsv"])
    assert (code, out) == (1, "")
    assert err.startswith("ValueError: ") and "'FOOD' is NaN" in err


def test_module_entry_point(table_file):
    result = subprocess.run(
        [sys.executable, "-m", "embgeom", "neighbors", "--table", table_file,
         "--word", "horse", "--k", "1", "--filter", "subwords"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "Neighbour  Similarity"
    assert result.stdout.splitlines()[2] == "horses 0.99"


STDOUT_FAILURES = {
    "broken-pipe": "BrokenPipeError: [Errno 32] Broken pipe\n",
    "full": "OSError: [Errno 28] No space left on device\n",
    "closed": "OSError: stdout is closed\n",
    "ascii": "UnicodeEncodeError: 'ascii' codec can't encode character '\\xe9'",
}


@pytest.mark.parametrize("case", sorted(STDOUT_FAILURES))
def test_a_stdout_that_fails_gives_one_error_line(tmp_path, case):
    table = tmp_path / "t.vec"
    table.write_text("2 2\ncaf\u00e9 1 0\nb 0.9 0.1\n", encoding="utf-8")
    argv = [sys.executable, "-m", "embgeom", "neighbors", "--table", str(table),
            "--word", "b", "--k", "1"]
    # stdout buffered, as a shell starts it: with PYTHONUNBUFFERED a failed
    # write leaves nothing for the flush at exit to fail on again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    stdout = subprocess.DEVNULL
    if case == "broken-pipe":  # a pipe whose reader has gone before the run
        reader, stdout = os.pipe()
        os.close(reader)
    elif case == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        stdout = open("/dev/full", "wb")
    elif case == "closed":
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
    else:
        env["PYTHONIOENCODING"] = "ascii"
    try:
        result = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True,
                                env=env)
    finally:
        if case == "broken-pipe":
            os.close(stdout)
        elif case == "full":
            stdout.close()
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(STDOUT_FAILURES[case]), result.stderr
    assert result.stderr.count("\n") == 1, result.stderr


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


def test_runs_without_a_large_draw_leave_numpy_random_unloaded(tmp_path, table_file,
                                                              corpus_file):
    # Importing numpy.random costs a process about 6 MB and 13 ms: a bare CLI
    # start, a neighbour query and a table import draw nothing, and a small
    # stack or model is drawn without it.
    emb = tmp_path / "mini.emb"
    runs = [
        ["neighbors", "--table", table_file, "--word", "horse"],
        ["import", "--input", table_file, "--output", str(emb)],
        ["contextualize", "--table", table_file, "--tokens", "horse cow", "--layers", "3"],
        ["train", "--corpus", corpus_file, "--dim", "4", "--epochs", "1"],
    ]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, embgeom.cli as cli; loaded = ['numpy.random' in sys.modules]\n"
         f"for argv in {runs!r}:\n"
         "    assert cli.main(argv) == 0\n"
         "    loaded.append('numpy.random' in sys.modules)\n"
         "print(loaded, file=sys.stderr)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "[False, False, False, False, False]\n"
    assert emb.read_bytes().startswith(b"EMB1")


def _pinned_table_text(V=6, d=64):
    # exact decimals of small dyadic rationals, the same bytes on every platform
    rows = (" ".join(repr(((7 * i + 3 * j) % 17 - 8) / 16) for j in range(d)) for i in range(V))
    return f"{V} {d}\n" + "".join(f"tok{i} {row}\n" for i, row in enumerate(rows))


class TestSeededBytesArePinned:
    # sha256 of each seeded output, taken when every weight was drawn by one
    # rng.random() call per entry in bulk: a change to how the stack or the
    # trainer draws its weights keeps every byte. The d = 256 stack (262,144
    # weights) takes the large-draw path, the rest the small one.
    PINNED = {
        "contextualize-256": "ccb9eea29d42583314ee42c28c6b3b6f2f6cee9cc6640afa899b32099b6da190",
        "att1-256": "0f734fc3b6d7621e16350813a1af5990a2192038217b150050546ba5de8be9ac",
        "attend": "68e81cb3ab9594c93307904ae5b734c15afca1a3cef4f83287c31eefd83dc11a",
        "contextualize": "2917e1cb12d517a3c0966a6406a239c597624552be7def6c01eb25538b0c629f",
        "att1": "77f41f2a454d96748eb681108870dbd075f20728810bc057e2526b1358dccd2e",
        "train": "e007c88fad78532fe79c9fba2a48456061dbb4a43d75897e1935063242d11dd1",
        "train.out": "996bcc11caa20d1a3a650df65bc5615b0a2d1aef27508fcc4083dfa2b4223b33",
        "train.model-out": "b1daa00811e0060af311446e65c7c503d9bbd18ade791d4cdd4c3ce9975db843",
        # selfcheck prints the softmax and gradient errors, so a rounding
        # change in the shared softmax kernel or the uniform draw shows here
        "selfcheck": "ac7d35b73d4c5a0bb15fef5e89c7441c5929c5707618eace5cb4e4889aebeb2b",
        "contextualize-positional":
            "0e71dcd5c338e3cbd63188e5f8841499f2f054d776286ea86d5cca9cdb2b1196",
    }

    def test_draws_keep_every_byte(self, capsys, tmp_path, corpus_file):
        table, wide = tmp_path / "pinned.vec", tmp_path / "wide.vec"
        table.write_text(_pinned_table_text(), encoding="utf-8")
        wide.write_text(_pinned_table_text(d=256), encoding="utf-8")
        tokens = "tok0 tok3 tok1 tok5 tok3"
        att1, att1_256, vec, tlm = (
            tmp_path / name for name in ("p.att", "w.att", "t.vec", "t.tlm"))
        runs = {
            "contextualize-256": ["contextualize", "--table", str(wide), "--tokens", tokens,
                                  "--heads", "8", "--save-params", str(att1_256)],
            "attend": ["attend", "--table", str(table), "--tokens", tokens, "--positional"],
            "contextualize": ["contextualize", "--table", str(table), "--tokens", tokens,
                              "--heads", "4", "--layers", "2", "--save-params", str(att1)],
            "contextualize-positional": ["contextualize", "--table", str(table), "--tokens",
                                         tokens, "--positional", "--heads", "4", "--layers", "2"],
            "train": ["train", "--corpus", corpus_file, "--dim", "8", "--epochs", "3",
                      "--out", str(vec), "--model-out", str(tlm)],
            "selfcheck": ["selfcheck"],
        }
        got = {}
        for name, argv in runs.items():
            code, out, err = run(capsys, argv + ["--seed", "23", "--format", "tsv"])
            assert (code, err) == (0, "")
            got[name] = out.encode()
        got.update({"att1": att1.read_bytes(), "att1-256": att1_256.read_bytes(),
                    "train.out": vec.read_bytes(),
                    "train.model-out": tlm.read_bytes()})
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}
        assert digests == self.PINNED
