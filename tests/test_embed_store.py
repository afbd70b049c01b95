"""Tests for embedding table storage and nearest-neighbour search."""

import io
import mmap
import multiprocessing
import os
import random
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from embgeom import cli, container, embed_store
from embgeom.embed_store import (
    EmbeddingTable,
    load_embeddings_binary,
    load_embeddings_text,
    nearest_neighbors,
    save_embeddings_binary,
    save_embeddings_text,
    token_filter,
)
from embgeom.errors import (
    DimensionError,
    EmptyInputError,
    OutOfVocabularyError,
    ParseError,
    ZeroVectorError,
)
from embgeom.linalg import Matrix, Vector
from embgeom.selfcheck import _planted_table, _ranked_by_brute_force

MINIMAL = b"2 2\na 1 0\nb 0 1\n"

# The text loader's production chunk size, and one of a few bytes that puts
# every row in a chunk of its own.
CHUNK_SIZES = {"production": embed_store._CHUNK_BYTES, "few-bytes": 3}

# One fault each, on a row past the first, so at a few bytes per chunk it
# lands past a chunk boundary: (input, lowercase, the ParseError's message).
MALFORMED = {
    "extra-rows": (
        b"2 2\na 1 0\nb 0 1\nc 1 1\n", False, "line 4: expected 2 embedding rows, found more"
    ),
    "missing-rows": (
        b"3 2\na 1 0\nb 0 1\n", False, "line 4: expected 3 embedding rows, found 2"
    ),
    "wrong-field-count": (
        b"2 2\na 1 0\nb 0 1 2\n", False, "line 3: row 'b' needs 2 single-spaced values"
    ),
    "double-space": (
        b"2 2\na 1 0\nb 1  0\n", False, "line 3: row 'b' needs 2 single-spaced values"
    ),
    "lone-trailing-space": (b"2 1\na 1\nb \n", False, "line 3: row 'b' needs 1 single"),
    "trailing-space": (
        b"2 2\na 1 0\nb 1 0 \n", False, "line 3: row 'b' needs 2 single-spaced values"
    ),
    "empty-token": (b"2 1\na 1\n 1\n", False, "line 3: row must be '<token> <x1> ...'"),
    "duplicate": (b"2 1\na 1\na 2\n", False, "line 3: duplicate token 'a'"),
    "duplicate-lowercase": (
        b"2 1\nApple 1\napple 2\n", True, "line 3: duplicate token 'apple'"
    ),
    "nan": (b"3 1\na 1\nb nan\nc 1\n", False, "line 3: not a decimal float: 'nan'"),
    "inf": (b"3 1\na 1\nb -inf\nc 1\n", False, "line 3: not a decimal float: '-inf'"),
    "overflow": (b"2 1\na 1\nb 1e999\n", False, "line 3: value out of range: '1e999'"),
    "underscore": (b"2 1\na 1\nb 1_0\n", False, "line 3: not a decimal float: '1_0'"),
    "hex": (b"2 1\na 1\nb 0x3\n", False, "line 3: not a decimal float: '0x3'"),
    "carriage-return": (
        b"2 2\na 1 0\r\nb 0 1\r\n", False, "line 2: tab or carriage return"
    ),
    "tab": (b"2 2\na 1 0\nb\t0 1\n", False, "line 3: tab or carriage return"),
    "whitespace-in-token": (
        b"2 1\na 1\nb\x0cc 1\n", False, "line 3: invalid token: 'b\\x0cc'"
    ),
    "form-feed-in-value": (
        b"2 1\na 1\nb \x0c1\n", False, "line 3: not a decimal float: '\\x0c1'"
    ),
    "whitespace-in-value": (
        b"2 1\na 1\nb 1\xc2\xa0\n", False, "line 3: not a decimal float: '1\\xa0'"
    ),
    "invalid-utf8": (b"2 1\na 1\n\xff 1\n", False, "line 3: not valid UTF-8"),
    "lone-surrogate": ("2 1\na 1\n\ud800 1\n", False, "line 3: not valid UTF-8"),
    # a D numpy cannot allocate: the table is sized from the input, not the header
    **{f"D-{name}": (b"1 %d\nw 1\n" % d, False, f"line 2: row 'w' needs {d} single-spaced")
       for name, d in (("2pow60", 2**60), ("2pow63", 2**63), ("2pow64-less-1", 2**64 - 1))},
}


def make_table(tokens, rows):
    return EmbeddingTable(tokens, rows)


def use_cpus(monkeypatch, n):
    """Make the text loader see ``n`` usable CPUs: 1 parses inline, 2 forks
    two workers whenever the input has two chunks or more."""
    monkeypatch.setattr(embed_store, "_usable_cpus", lambda: n)


class TestEmbeddingTable:
    def test_construction(self):
        t = make_table(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        assert t.V == 2 and t.D == 2
        assert t.vocab == ("a", "b")
        assert len(t) == 2
        assert "a" in t and "c" not in t
        assert repr(t) == "EmbeddingTable(V=2, D=2)"
        assert (t == 3) is False

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(EmptyInputError):
            make_table([], [[1.0]])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_table(["a", "a"], [[1.0], [2.0]])

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError):
            make_table(["a b"], [[1.0]])
        with pytest.raises(ValueError):
            make_table([""], [[1.0]])

    def test_first_invalid_token_is_named(self):
        for bad in ("b c", "b\u2028c", "", 7, None):
            with pytest.raises(ValueError, match=re.escape(f"invalid token: {bad!r}")):
                embed_store.token_index(["a", bad, "x y"])
        assert embed_store.token_index(("a", "\u00e9t\u00e9", "##s")) == {
            "a": 0, "\u00e9t\u00e9": 1, "##s": 2
        }

    def test_space_pattern_matches_isspace_on_every_code_point(self):
        # token_index searches the joined vocabulary for \s instead of
        # asking str.isspace of every character
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        found = embed_store._SPACE_RE.findall(every)
        assert found == [c for c in every if c.isspace()]
        assert len(found) > 20  # Unicode spaces, not just ASCII ones

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_table(["a"], [[np.nan]])

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [3.0]],
        [[1.0], [2.0, 3.0]],
        (Vector([1.0, 2.0]), Vector([3.0])),
        [[1.0, 2.0, 3.0]],
        np.ones(2),
        np.ones((2, 1, 1)),
    ], ids=["short-row", "long-row", "vectors", "one-row-for-two", "1-d", "3-d"])
    def test_ragged_or_misshapen_rows_are_dimension_errors(self, rows):
        # the rows go through linalg's one 2-D validator, as every matrix does
        with pytest.raises(DimensionError):
            make_table(["a", "b"], rows)

    def test_accepts_linalg_matrix(self):
        t = make_table(["a", "b"], Matrix([[1, 2], [3, 4]]))
        assert t.lookup("b") == Vector([3.0, 4.0])

    def test_caller_writes_do_not_reach_the_table(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        t = make_table(["a", "b", "c"], rows)
        before = [nearest_neighbors(t, w, k=2) for w in t.vocab]
        rows[0] = [0.0, 5.0]
        assert t.lookup("a") == Vector([1.0, 0.0])
        assert [nearest_neighbors(t, w, k=2) for w in t.vocab] == before
        assert [s for _, s in before[0]] == pytest.approx([2 ** -0.5, 0.0])

    def test_rows_are_read_only(self):
        tables = [
            make_table(["a"], [[1.0, 2.0]]),
            make_table(["a"], np.array([[1.0, 2.0]])),
            make_table(["a"], Matrix([[1.0, 2.0]])),
            load_embeddings_text(MINIMAL),
            load_embeddings_binary(save_embeddings_binary(load_embeddings_text(MINIMAL))),
        ]
        for t in tables:
            assert not t._array.flags.writeable

    def test_matrix_rows_are_shared(self):
        # a Matrix's array is its own read-only copy: no second copy
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert make_table(["a", "b"], m)._array is m.array


class TestLookup:
    def test_minimal_table(self):
        t = load_embeddings_text(MINIMAL)
        assert t.lookup("a") == Vector([1.0, 0.0])

    def test_unknown_token(self):
        t = load_embeddings_text(MINIMAL)
        with pytest.raises(OutOfVocabularyError, match="zebra"):
            t.lookup("zebra")

    def test_lookup_survives_round_trip(self):
        rng = np.random.default_rng(10)
        t = make_table(["x", "y", "z"], rng.normal(size=(3, 4)))
        back = load_embeddings_text(save_embeddings_text(t))
        for tok in t.vocab:
            assert back.lookup(tok) == t.lookup(tok)


class TestTextFormat:
    def test_minimal_file(self):
        t = load_embeddings_text(MINIMAL)
        assert t.V == 2 and t.D == 2
        assert t.vocab == ("a", "b")

    def test_accepts_file_object(self):
        t = load_embeddings_text(io.BytesIO(MINIMAL))
        assert t.V == 2

    def test_literal_values(self):
        t = load_embeddings_text(b"1 3\nx 0.5 -0.5 2.0\n")
        assert t.lookup("x") == Vector([0.5, -0.5, 2.0])

    def test_scientific_notation(self):
        t = load_embeddings_text(b"1 2\nx 1e-3 -2.5E+2\n")
        assert t.lookup("x") == Vector([0.001, -250.0])

    def test_no_trailing_newline_accepted(self):
        t = load_embeddings_text(b"1 1\nx 3.0")
        assert t.lookup("x") == Vector([3.0])

    def test_round_trip_exact(self):
        t = load_embeddings_text(MINIMAL)
        assert load_embeddings_text(save_embeddings_text(t)) == t

    def test_round_trip_random_values(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(1000, 8)) * rng.choice(
            [1e-6, 1.0, 1e6], size=(1000, 1)
        )
        t = make_table([f"t{i}" for i in range(1000)], rows)
        back = load_embeddings_text(save_embeddings_text(t))
        err = np.max(np.abs(back._array - t._array))
        assert err <= 1e-8

    def test_extra_rows_rejected(self):
        data = b"2 2\na 1 0\nb 0 1\nc 1 1\n"
        with pytest.raises(ParseError, match="line 4"):
            load_embeddings_text(data)

    def test_missing_rows_rejected(self):
        with pytest.raises(ParseError, match="expected 3"):
            load_embeddings_text(b"3 2\na 1 0\nb 0 1\n")

    def test_bad_header(self):
        for header in (b"2", b"2 2 2", b"-1 2", b"2 x", b"2  2", b"0 2", b"2 0"):
            with pytest.raises(ParseError, match="line 1"):
                load_embeddings_text(header + b"\na 1 0\nb 0 1\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings_text(b"2 2\na 1 0\nb 0 1 2\n")

    def test_double_space_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(b"1 2\na 1  0\n")

    def test_trailing_space_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(b"1 2\na 1 0 \n")

    def test_duplicate_token_line_numbered(self):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings_text(b"2 1\na 1\na 2\n")

    def test_non_finite_value_line_numbered(self):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings_text(b"2 1\na 1\nb nan\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(b"2 1\na inf\nb 1\n")

    def test_malformed_float_line_numbered(self):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings_text(b"2 1\na 1\nb 1_0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(b"2 1\na 0x3\nb 1\n")

    def test_carriage_return_rejected(self):
        with pytest.raises(ParseError):
            load_embeddings_text(b"2 2\r\na 1 0\r\nb 0 1\r\n")

    def test_whitespace_inside_token_rejected(self):
        for sep in (b"\x0c", b"\x0b", b"\x1c", "\u2028".encode("utf-8")):
            with pytest.raises(ParseError, match="invalid token"):
                load_embeddings_text(b"1 1\na" + sep + b"b 1\n")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_embeddings_text(b"1 1\n\xff 1\n")

    def test_lowercase_flag(self):
        t = load_embeddings_text(b"2 1\nApple 1\nBanana 2\n", lowercase=True)
        assert t.vocab == ("apple", "banana")
        with pytest.raises(ParseError, match="duplicate"):
            load_embeddings_text(b"2 1\nApple 1\napple 2\n", lowercase=True)

    def test_unicode_tokens(self):
        t = load_embeddings_text("2 1\ncafé 1\n日本 2\n".encode("utf-8"))
        assert t.lookup("日本") == Vector([2.0])

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES.values(), ids=CHUNK_SIZES)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_fault_past_chunk_boundary(self, monkeypatch, case, chunk_bytes):
        data, lowercase, message = MALFORMED[case]
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", chunk_bytes)
        with pytest.raises(ParseError) as exc:
            load_embeddings_text(data, lowercase=lowercase)
        assert str(exc.value).startswith(message)

    def test_mutants_load_alike_at_every_chunk_size(self, monkeypatch):
        # Whatever the chunk size, a mutated file loads to the same table or
        # fails with the same ParseError, which names its first faulty line.
        def outcome(data):
            try:
                t = load_embeddings_text(data)
            except ParseError as exc:
                return str(exc)
            return t.vocab, t._array.tobytes()

        blob = "3 2\nriver 1 -0.5\n日本 0.25 3\n##s 0 1.5\n".encode("utf-8")
        rng = random.Random(25)
        for _ in range(300):
            bad = blob
            for _ in range(2):
                i = rng.randrange(len(bad))
                junk = bytes(rng.choice(b" \n\t\x0c\xa0\xff1.e-x") for _ in range(2))
                bad = bad[:i] + junk[: rng.randint(0, 2)] + bad[i + rng.randint(0, 2) :]
            seen = set()
            for size in CHUNK_SIZES.values():
                monkeypatch.setattr(embed_store, "_CHUNK_BYTES", size)
                seen.add(repr(outcome(bad)))
            assert len(seen) == 1, bad

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES.values(), ids=CHUNK_SIZES)
    def test_no_final_newline_past_chunk_boundary(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", chunk_bytes)
        t = load_embeddings_text("3 2\na 1 0\n日本 0 1\nc 3.0 -2".encode("utf-8"))
        assert t.vocab == ("a", "日本", "c")
        assert t.lookup("c") == Vector([3.0, -2.0])

    @pytest.mark.parametrize(
        "chunk_bytes", [*CHUNK_SIZES.values(), 4096], ids=[*CHUNK_SIZES, "4-kib"]
    )
    def test_chunked_parse_equals_loadtxt(self, monkeypatch, chunk_bytes):
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(300, 12)) * rng.choice(
            [1e-300, 1e-6, 1.0, 1e6, 1e300], size=(300, 1)
        )
        vocab = [f"t{i}" for i in range(299)] + ["日本"]
        t = make_table(vocab, rows)
        blob = save_embeddings_text(t)
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", chunk_bytes)
        back = load_embeddings_text(blob)
        values = [line.partition(" ")[2] for line in blob.decode().split("\n")[1:-1]]
        assert back == make_table(vocab, np.loadtxt(values, ndmin=2))
        assert back == t  # f64 text round trips are exact


class TestTextWorkers:
    """The worker path against the inline one, forced either way."""

    BLOB = "4 2\nRiver 1 -0.5\n日本 0.25 3e-300\n##s 0 1.5\nBANK -2.5 1e300".encode()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert embed_store._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert embed_store._usable_cpus() == 1

    def load_both(self, monkeypatch, data, **kwargs):
        tables = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            tables.append(load_embeddings_text(data, **kwargs))
        return tables

    @pytest.mark.parametrize(
        "chunk_bytes", [3, 4096, embed_store._CHUNK_BYTES],
        ids=["few-bytes", "4-kib", "production"],
    )
    def test_workers_load_what_inline_loads(self, monkeypatch, chunk_bytes):
        # lowercase, a CJK token and no final newline
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", chunk_bytes)
        inline, forked = self.load_both(monkeypatch, self.BLOB, lowercase=True)
        assert forked.vocab == inline.vocab == ("river", "日本", "##s", "bank")
        assert np.array_equal(forked._array, inline._array)
        # one chunk parses inline; more fill a table in shared memory
        assert isinstance(forked._array.base, mmap.mmap) == (chunk_bytes == 3)

    def test_workers_load_a_large_table_as_inline(self, monkeypatch):
        rng = np.random.default_rng(26)
        rows = rng.normal(size=(300, 12)) * rng.choice([1e-6, 1.0, 1e6], size=(300, 1))
        t = make_table([f"t{i}" for i in range(299)] + ["日本"], rows)
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 4096)
        inline, forked = self.load_both(monkeypatch, save_embeddings_text(t))
        assert isinstance(forked._array.base, mmap.mmap)
        assert forked == inline == t

    @pytest.mark.parametrize("case", MALFORMED)
    def test_workers_word_faults_as_inline(self, monkeypatch, case):
        data, lowercase, message = MALFORMED[case]
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ParseError) as exc:
            load_embeddings_text(data, lowercase=lowercase)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "data, message",
        [
            # a value fault in chunk 1 before a layout fault in chunk 3
            (b"4 2\na 1 0\nb 1_0 0\nc 0 1\nd 1  0\n", "line 3: not a decimal float: '1_0'"),
            # a value fault in an early chunk before a late duplicate
            (b"4 1\na 1\nb nan\nc 1\na 2\n", "line 3: not a decimal float: 'nan'"),
            # two value faults: the earlier one wins
            (b"4 1\na 1\nb 2\nc 1e999\nd 0x1\n", "line 4: value out of range: '1e999'"),
        ],
        ids=["value-before-double-space", "nan-before-duplicate", "two-value-faults"],
    )
    def test_earliest_fault_wins_across_workers(self, monkeypatch, data, message):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ParseError) as exc:
            load_embeddings_text(data)
        assert str(exc.value).startswith(message)

    def test_mutants_load_alike_inline_and_forked(self, monkeypatch):
        def outcome(data):
            try:
                t = load_embeddings_text(data)
            except ParseError as exc:
                return str(exc)
            return t.vocab, t._array.tobytes()

        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        rng = random.Random(27)
        for _ in range(40):
            bad = self.BLOB
            for _ in range(2):
                i = rng.randrange(len(bad))
                junk = bytes(rng.choice(b" \n\x0c\xff1.e-x") for _ in range(2))
                bad = bad[:i] + junk[: rng.randint(0, 2)] + bad[i + rng.randint(0, 2) :]
            seen = set()
            for cpus in (1, 2):
                use_cpus(monkeypatch, cpus)
                seen.add(repr(outcome(bad)))
            assert len(seen) == 1, bad

    def scans(self, monkeypatch):
        """The chunks ``_scan_rows`` is called on, as a list that grows."""
        calls, shipped = [], embed_store._scan_rows
        monkeypatch.setattr(embed_store, "_scan_rows",
                            lambda chunk, *args: calls.append(chunk) or shipped(chunk, *args))
        return calls

    def test_a_failed_inline_parse_stops_the_scan(self, monkeypatch):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        use_cpus(monkeypatch, 1)
        calls = self.scans(monkeypatch)
        with pytest.raises(ParseError, match=r"^line 2: not a decimal float: 'nan'"):
            load_embeddings_text(b"3 1\na nan\nb 1\nc 2\n")
        assert calls == [b"a nan\n"]

    def test_a_failed_forked_parse_stops_the_scan(self, monkeypatch):
        # no more than two runs per usable CPU are handed out ahead of the one awaited
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        use_cpus(monkeypatch, 2)
        calls = self.scans(monkeypatch)
        data = b"10 1\na nan\n" + b"".join(b"t%d %d\n" % (i, i) for i in range(9))
        with pytest.raises(ParseError, match=r"^line 2: not a decimal float: 'nan'"):
            load_embeddings_text(data)
        assert calls == [b"a nan\n", b"t0 0\n", b"t1 1\n", b"t2 2\n"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_values_that_fail_to_parse_for_no_named_reason(self, monkeypatch, cpus):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        monkeypatch.setattr(embed_store, "_parse_values", lambda *args: False)
        use_cpus(monkeypatch, cpus)
        with pytest.raises(ParseError) as exc:
            load_embeddings_text(self.BLOB)
        assert str(exc.value) == "line 2: values do not parse"

    def test_no_worker_outlives_a_load(self, monkeypatch):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        use_cpus(monkeypatch, 2)
        load_embeddings_text(self.BLOB)
        assert multiprocessing.active_children() == []
        with pytest.raises(ParseError):
            load_embeddings_text(b"3 1\na 1\nb 2\nc nan\n")
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_is_an_error_not_a_hang(self, monkeypatch):
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        monkeypatch.setattr(embed_store, "_parse_values", lambda *args: os._exit(1))
        use_cpus(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            load_embeddings_text(self.BLOB)
        assert multiprocessing.active_children() == []


class TestTextLoadMemory:
    def test_peak_below_input_size(self, monkeypatch):
        # About 15.5 MB of %.17g text for a 6 MB table; numpy registers its
        # buffers with tracemalloc, so the peak counts the table too.
        rng = np.random.default_rng(24)
        t = make_table([f"t{i}" for i in range(1000)], rng.normal(size=(1000, 768)))
        raw = save_embeddings_text(t)
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            back = load_embeddings_text(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == t
        assert peak < len(raw)

    def test_inline_peak_below_input_size(self, monkeypatch):
        # The forked workers and their shared table are out of tracemalloc's
        # sight; inline, it sees every buffer the loader makes.
        rng = np.random.default_rng(24)
        t = make_table([f"t{i}" for i in range(1000)], rng.normal(size=(1000, 768)))
        raw = save_embeddings_text(t)
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 1 << 20)
        use_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            back = load_embeddings_text(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not isinstance(back._array.base, mmap.mmap)
        assert back == t
        assert peak < len(raw)


class TestFiniteCheck:
    """Each load checks its values for finiteness once; the constructor too."""

    @pytest.fixture
    def isfinite_calls(self, monkeypatch):
        calls = []
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            calls.append(1)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        return calls

    def test_binary_load(self, isfinite_calls):
        blob = save_embeddings_binary(make_table(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]))
        isfinite_calls.clear()
        load_embeddings_binary(blob)
        assert len(isfinite_calls) == 1

    def test_text_load(self, isfinite_calls):
        load_embeddings_text(MINIMAL)
        assert len(isfinite_calls) == 1

    def test_constructor(self, isfinite_calls):
        make_table(["a"], [[1.0, 2.0]])
        assert len(isfinite_calls) == 1


class TestBinaryFormat:
    def test_round_trip_vocab_exact(self):
        rng = np.random.default_rng(12)
        t = make_table(["alpha", "βeta", "##sub"], rng.normal(size=(3, 5)))
        back = load_embeddings_binary(save_embeddings_binary(t))
        assert back.vocab == t.vocab

    def test_round_trip_float32_precision(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(-1.0, 1.0, size=(50, 7))
        t = make_table([f"t{i}" for i in range(50)], rows)
        back = load_embeddings_binary(save_embeddings_binary(t))
        assert np.max(np.abs(back._array - t._array)) <= 1e-6

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_embeddings_binary(b"NOPE" + b"\x00" * 32)

    def test_truncated(self):
        blob = save_embeddings_binary(make_table(["a"], [[1.0, 2.0]]))
        with pytest.raises(ParseError):
            load_embeddings_binary(blob[:-3])

    def test_accepts_file_object(self):
        blob = save_embeddings_binary(make_table(["a"], [[1.0]]))
        t = load_embeddings_binary(io.BytesIO(blob))
        assert t.lookup("a") == Vector([1.0])

    def test_rows_stay_float32_and_read_as_float64(self):
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(6, 5)).astype(np.float32).astype(np.float64)
        wide = make_table([f"t{i}" for i in range(6)], rows)
        blob = save_embeddings_binary(wide)
        t = load_embeddings_binary(blob)
        assert t._array.dtype == np.float32
        for i, tok in enumerate(t.vocab):
            assert t.lookup(tok) == Vector(rows[i].tolist())
        assert t == wide
        assert save_embeddings_binary(t) == blob
        assert save_embeddings_text(t) == save_embeddings_text(wide)


def emb1_sources(blob, tmp_path):
    """``blob`` as bytes, as an in-memory file and as a real file."""
    path = tmp_path / "table.emb"
    path.write_bytes(blob)
    yield "bytes", blob
    yield "BytesIO", io.BytesIO(blob)
    with open(path, "rb") as fh:
        yield "file", fh


class TestAlignedPayload:
    """Wherever the names leave the payload, the rows load aligned."""

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_every_payload_offset_loads_aligned(self, tmp_path, monkeypatch, offset):
        rows = np.random.default_rng(26).normal(size=(3, 5)).astype(np.float32)
        # EMB1 header 20 bytes, then (4 + len) per name
        vocab = ["a" * (1 + (offset + 1) % 4), "b", "c"]
        blob = save_embeddings_binary(make_table(vocab, rows))
        start = 20 + sum(4 + len(t) for t in vocab)
        assert start % 4 == offset and len(blob) == start + rows.nbytes
        blob_at = np.frombuffer(blob, np.uint8).ctypes.data
        reads, read = [], container.read

        def spy(source):
            reads.append(read(source))
            return reads[-1]

        monkeypatch.setattr(container, "read", spy)
        for kind, source in emb1_sources(blob, tmp_path):
            t = load_embeddings_binary(source)
            arr = t._array
            assert arr.dtype == np.float32 and arr.flags.aligned, kind
            assert arr.ctypes.data % 4 == 0 and not arr.flags.writeable
            assert np.array_equal(arr, rows)
            assert save_embeddings_binary(t) == blob
            # bytes keep the zero-copy view where the payload is aligned
            in_blob = blob_at <= arr.ctypes.data < blob_at + len(blob)
            assert in_blob == (kind == "bytes" and (blob_at + start) % 4 == 0)
            if kind != "bytes":  # a file's rows are a view of its one read, ending aligned
                assert (arr.ctypes.data + arr.nbytes) % 64 == 0, kind
                assert np.shares_memory(arr, np.frombuffer(reads[-1], np.uint8)), kind
        assert len(reads) == 3


@pytest.mark.parametrize("save, load", [
    (save_embeddings_text, load_embeddings_text),
    (save_embeddings_binary, load_embeddings_binary),
], ids=["text", "emb1"])
def test_table_from_a_bytearray_keeps_its_rows_when_the_caller_writes(save, load):
    rows = [[0.5, -1.25], [2.0, 0.0]]
    blob = bytearray(save(make_table(["a", "b"], rows)))
    t = load(blob)
    blob[-12:] = b"\0" * 12  # bytes of the rows, in either form
    assert t == make_table(["a", "b"], rows)


def brute_force(table_rows, vocab, token, k, filter=None):
    keep = None if filter is None else np.array([filter(t) for t in vocab])
    return _ranked_by_brute_force(vocab, table_rows, vocab.index(token), k, keep)


def assert_ranked_like(got, want):
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, s), (_, w) in zip(got, want):
        assert abs(s - w) <= 1e-12


class TestNeighbourScreen:
    """The float32 screen and its cut leave the exact float64 ranking."""

    @pytest.fixture
    def rescored(self, monkeypatch):
        """The number of rows each query scores again in float64 and sorts."""
        counts = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            counts.append(len(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        return counts

    @pytest.mark.parametrize("f32", [False, True], ids=["float64", "emb1-float32"])
    def test_cut_prunes_and_keeps_the_exact_ranking(self, rescored, f32):
        V, D, k = 4096, 768, 10
        nrng = np.random.default_rng(22)
        vocab, rows = _planted_table(nrng, V, D, k)
        t = make_table(vocab, rows)
        if f32:
            t = load_embeddings_binary(save_embeddings_binary(t))
            rows = rows.astype(np.float32)
        drop = token_filter(["drop-prefix:##"])
        queries = [vocab[0]] + [vocab[i] for i in nrng.integers(1, V, size=3)]
        for token in queries:
            for f in (None, drop):
                rescored.clear()
                got = nearest_neighbors(t, token, k, filter=f)
                assert_ranked_like(got, brute_force(rows, vocab, token, k, f))
                assert k <= rescored[0] <= 64  # of 4096 rows
                # k at or past the live candidates: every one is scored
                got = nearest_neighbors(t, token, V, filter=f)
                assert_ranked_like(got, brute_force(rows, vocab, token, V, f))
                assert len(got) == rescored[-1]

    def test_planted_ties_sit_inside_the_cut(self):
        # The planted cosines lie closer together than the screen can tell
        # apart, and the k-th place is an exact tie broken by vocabulary order.
        V, D, k = 4096, 768, 10
        vocab, rows = _planted_table(np.random.default_rng(22), V, D, k)
        want = brute_force(rows, vocab, vocab[0], k + 1)
        sims = [s for _, s in want]
        assert sims[0] - sims[k - 2] < 2 * embed_store._screen_error(D)
        assert sims[k - 1] == sims[k]
        assert vocab.index(want[k - 1][0]) < vocab.index(want[k][0])

    def test_extreme_magnitudes_in_a_float64_table(self):
        rng = np.random.default_rng(23)
        V, D = 300, 16
        base = rng.normal(size=(V, D))
        base[7] = 0.0
        base[250, ::2] *= 1e-40  # unit-row entries far below float32's range
        rows = base.copy()
        rows[:100] *= 1e300
        rows[100:200] *= 1e-300
        rows[260] *= 1e-310  # float64 subnormals only
        vocab = [f"t{i}" for i in range(V)]
        t = load_embeddings_text(save_embeddings_text(make_table(vocab, rows)))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for token in ("t3", "t150", "t250", "t260"):
                for f in (None, token_filter(["drop-prefix:t1"])):
                    got = nearest_neighbors(t, token, 20, filter=f)
                    assert_ranked_like(got, brute_force(base, vocab, token, 20, f))
                    assert "t7" not in [t for t, _ in got]
            with pytest.raises(ZeroVectorError):
                nearest_neighbors(t, "t7", 5)
        unit, _, scale, norms, _ = t._query_state()
        assert np.isfinite(unit).all() and np.isfinite(norms).all()

    def test_subnormal_row_in_an_emb1_table(self):
        rng = np.random.default_rng(24)
        V, D = 200, 12
        rows = rng.normal(size=(V, D)).astype(np.float32)
        rows[3] = (rng.normal(size=D) * 1e-40).astype(np.float32)  # float32 subnormals
        rows[9] = 0.0
        assert 0 < np.abs(rows[3]).max() < np.finfo(np.float32).tiny
        vocab = [f"t{i}" for i in range(V)]
        t = load_embeddings_binary(save_embeddings_binary(make_table(vocab, rows)))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for token in ("t3", "t4"):
                got = nearest_neighbors(t, token, V)
                assert_ranked_like(got, brute_force(rows, vocab, token, V))
                assert "t9" not in [t for t, _ in got]
            with pytest.raises(ZeroVectorError):
                nearest_neighbors(t, "t9", 5)

    # How each kind changes rows 0-39 of a normal table, and whether the
    # table still screens its stored rows.
    F32_EXTREMES = {
        "near-float32-max": (lambda r: r / np.abs(r).max(1, keepdims=True) * 3e38, False),
        "tiny-norms": (lambda r: r * 1e-30, False),
        "subnormal": (lambda r: r * 1e-40, False),
        "zero": (lambda r: r * 0.0, True),
        # in range, but every second entry is subnormal: products and sums
        # fall below float32's normal range
        "subnormal-entries": (lambda r: r * np.resize([1.0, 1e-40], r.shape[1]), True),
        "norms-at-the-range-ends": (
            lambda r: r / np.linalg.norm(r, axis=1, keepdims=True)
            * np.resize([2.0**-59, 2.0**59], (len(r), 1)),
            True,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(F32_EXTREMES))
    def test_stored_rows_at_float32_extremes(self, kind):
        V, D = 1100, 64  # past _UNIT_ROWS_UP_TO entries: stored rows, when in range
        assert V * D > embed_store._UNIT_ROWS_UP_TO
        rng = np.random.default_rng(27)
        rows = rng.normal(size=(V, D))
        change, stored = self.F32_EXTREMES[kind]
        rows[:40] = change(rows[:40])
        rows = rows.astype(np.float32)
        assert np.isfinite(rows).all()
        vocab = [f"##t{i}" if i % 3 == 0 else f"t{i}" for i in range(V)]
        t = load_embeddings_binary(save_embeddings_binary(make_table(vocab, rows)))
        drop = token_filter(["drop-prefix:##"])
        live = [vocab[i] for i in (1, 2, 5, 40, 41, 700) if rows[i].any()]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for token in live:
                for f in (None, drop):
                    for k in (10, V):
                        got = nearest_neighbors(t, token, k, filter=f)
                        assert_ranked_like(got, brute_force(rows, vocab, token, k, f))
        assert (t._query_state()[1] is not None) == stored

    def test_text_and_emb1_tables_answer_alike(self):
        # f32-exact values: the text table stores float64, its EMB1 import
        # float32; every query answers bit for bit the same.
        V, D, k = 1200, 48, 10
        vocab, rows = _planted_table(np.random.default_rng(25), V, D, k)
        rows = rows.astype(np.float32).astype(np.float64)
        text = load_embeddings_text(save_embeddings_text(make_table(vocab, rows)))
        emb1 = load_embeddings_binary(save_embeddings_binary(text))
        assert text._array.dtype == np.float64 and emb1._array.dtype == np.float32
        drop = token_filter(["drop-prefix:##"])
        for token in vocab[:40]:
            for f in (None, drop):
                assert nearest_neighbors(text, token, k, f) == nearest_neighbors(emb1, token, k, f)
        assert np.array_equal(text._query_state()[3], emb1._query_state()[3])

    def test_query_state_waits_for_the_first_query(self):
        t = load_embeddings_binary(save_embeddings_binary(load_embeddings_text(MINIMAL)))
        assert t._screen is None and not t._candidate_bias
        nearest_neighbors(t, "a", 1)
        assert t._screen is not None
        assert not t._query_state()[0].flags.writeable


class TestNearestNeighbors:
    def test_returns_a_tuple_of_neighbors_most_similar_first(self):
        t = make_table(["q", "far", "near", "zero"],
                       [[1.0, 0.0], [-1.0, 0.2], [1.0, 0.1], [0.0, 0.0]])
        out = nearest_neighbors(t, "q", k=5)
        assert type(out) is tuple
        assert all(type(n) is embed_store.Neighbor for n in out)
        assert [n.token for n in out] == ["near", "far"]  # the zero row has no direction
        assert out[0].similarity == pytest.approx(1 / np.sqrt(1.01), abs=1e-15)
        assert out == tuple(nearest_neighbors(t, "q", k=5))
        assert nearest_neighbors(t, "q", k=1, filter=lambda tok: tok == "q") == ()

    def test_orthonormal_all_zero_similarity(self):
        t = make_table(["a", "b", "c"], np.eye(3))
        out = nearest_neighbors(t, "a", k=2)
        assert [t for t, _ in out] == ["b", "c"]
        assert all(abs(s) < 1e-12 for _, s in out)

    def test_query_excluded_and_sorted_descending(self):
        rng = np.random.default_rng(14)
        t = make_table([f"t{i}" for i in range(30)], rng.normal(size=(30, 6)))
        out = nearest_neighbors(t, "t7", k=30)
        assert "t7" not in [t for t, _ in out]
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)
        assert all(-1.0 <= s <= 1.0 for s in sims)

    def test_duplicate_row_ranks_first_with_similarity_one(self):
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(10, 4))
        rows[4] = rows[0]
        t = make_table([f"t{i}" for i in range(10)], rows)
        out = nearest_neighbors(t, "t0", k=3)
        assert out[0].token == "t4"
        assert out[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(16)
        rows = rng.normal(size=(20, 5))
        t1 = make_table([f"t{i}" for i in range(20)], rows)
        t2 = make_table([f"t{i}" for i in range(20)], rows * 37.5)
        a = nearest_neighbors(t1, "t3", k=19)
        b = nearest_neighbors(t2, "t3", k=19)
        assert [t for t, _ in a] == [t for t, _ in b]
        for (_, s1), (_, s2) in zip(a, b):
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_ties_break_by_vocab_order(self):
        # c and b have identical rows; b precedes c in the vocabulary.
        t = make_table(
            ["q", "c", "b", "a"],
            [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
        )
        out = nearest_neighbors(t, "q", k=3)
        assert [t for t, _ in out] == ["c", "b", "a"]

    def test_k_larger_than_vocab_returns_all(self):
        t = make_table(["a", "b"], [[1.0, 0.0], [1.0, 1.0]])
        out = nearest_neighbors(t, "a", k=99)
        assert len(out) == 1

    def test_unknown_query(self):
        t = load_embeddings_text(MINIMAL)
        with pytest.raises(OutOfVocabularyError):
            nearest_neighbors(t, "zebra", k=1)

    def test_zero_norm_query_rejected(self):
        t = make_table(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            nearest_neighbors(t, "a", k=1)

    def test_zero_norm_candidates_skipped(self):
        t = make_table(["a", "b", "z"], [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        out = nearest_neighbors(t, "a", k=5)
        assert [t for t, _ in out] == ["b"]

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            V, D = int(rng.integers(5, 40)), int(rng.integers(2, 9))
            rows = rng.normal(size=(V, D))
            vocab = [f"t{i}" for i in range(V)]
            t = make_table(vocab, rows)
            qi = int(rng.integers(0, V))
            normed = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            sims = normed @ normed[qi]
            sims[qi] = -np.inf
            order = np.argsort(-sims, kind="stable")[: V - 1]
            expected = [vocab[i] for i in order]
            got = nearest_neighbors(t, vocab[qi], k=V - 1)
            assert [t for t, _ in got] == expected
            for (_, s), i in zip(got, order):
                assert s == pytest.approx(float(sims[i]), abs=1e-9)

    def test_filter_applied_before_ranking(self):
        t = make_table(
            ["q", "##ing", "[CLS]", "word"],
            [[1.0, 0.0], [1.0, 0.1], [1.0, 0.2], [0.0, 1.0]],
        )
        f = token_filter(["drop-prefix:##", "drop-bracketed"])
        out = nearest_neighbors(t, "q", k=3, filter=f)
        assert [t for t, _ in out] == ["word"]

    def test_filter_reapplied_per_rules_and_per_call(self):
        t = make_table(
            ["q", "##ing", "[CLS]", "word"],
            [[1.0, 0.0], [1.0, 0.1], [1.0, 0.2], [0.0, 1.0]],
        )
        # the same table queried under different rule sets, and again
        for rules, expected in (
            (["drop-prefix:##"], ["[CLS]", "word"]),
            (["drop-bracketed"], ["##ing", "word"]),
            (["drop-prefix:##"], ["[CLS]", "word"]),
        ):
            out = nearest_neighbors(t, "q", k=3, filter=token_filter(rules))
            assert [tok for tok, _ in out] == expected
        # a plain callable is asked again on every query
        dropped = {"##ing"}
        keep = lambda tok: tok not in dropped
        assert [tok for tok, _ in nearest_neighbors(t, "q", k=3, filter=keep)] == ["[CLS]", "word"]
        dropped.add("word")
        assert [tok for tok, _ in nearest_neighbors(t, "q", k=3, filter=keep)] == ["[CLS]"]


def split_screen(monkeypatch, cpus):
    """Split every screen and every norms pass of more than one entry into
    ``cpus`` row blocks, as ``cpus`` usable CPUs would a large table's; ``cpus=None`` keeps every table whole, as a small one is.
    Each block of the norms pass holds at most 64 rows."""
    use_cpus(monkeypatch, cpus or 1)
    monkeypatch.setattr(embed_store, "_SPLIT_ENTRIES", 1 if cpus else 1 << 62)
    monkeypatch.setattr(embed_store, "_BLOCK_ROWS", 64)


def _split_cases():
    """(table maker, queries, filters, ks) for each kind of screen the
    TestNeighbourScreen and TestNearestNeighbors cases query: stored and
    unit rows, planted ties, float32 extremes and subnormal rows."""
    drop = token_filter(["drop-prefix:##"])
    planted = _planted_table(np.random.default_rng(22), 1024, 96, 10)
    vocab = planted[0]
    queries = [vocab[0], vocab[5], vocab[700]]
    cases = {
        "planted-unit-rows": (lambda: make_table(*planted), queries, (None, drop), (10, 1024)),
        "planted-stored-rows": (
            lambda: load_embeddings_binary(save_embeddings_binary(make_table(*planted))),
            queries, (None, drop), (10, 1024),
        ),
    }
    rng = np.random.default_rng(27)
    base = rng.normal(size=(1100, 64))
    names = [f"##t{i}" if i % 3 == 0 else f"t{i}" for i in range(1100)]
    for kind, (change, _) in TestNeighbourScreen.F32_EXTREMES.items():
        rows = base.copy()
        rows[:40] = change(rows[:40])
        rows = rows.astype(np.float32)
        live = [names[i] for i in (1, 2, 5, 40, 700) if rows[i].any()]
        cases[f"f32-{kind}"] = (
            lambda rows=rows: load_embeddings_binary(save_embeddings_binary(make_table(names, rows))),
            live, (None, drop), (10, 1100),
        )
    sub = rng.normal(size=(200, 12)).astype(np.float32)
    sub[3] = (rng.normal(size=12) * 1e-40).astype(np.float32)
    sub[9] = 0.0
    small = [f"t{i}" for i in range(200)]
    cases["f32-subnormal-row"] = (
        lambda: load_embeddings_binary(save_embeddings_binary(make_table(small, sub))),
        ["t3", "t4"], (None,), (5, 200),
    )
    wide = rng.normal(size=(300, 16))
    wide[7] = 0.0
    wide[:100] *= 1e300
    wide[100:200] *= 1e-300
    wide[260] *= 1e-310
    tokens = [f"t{i}" for i in range(300)]
    cases["f64-extreme-magnitudes"] = (
        lambda: make_table(tokens, wide), ["t3", "t150", "t260"],
        (None, token_filter(["drop-prefix:t1"])), (20, 300),
    )
    ties = ["q", "c", "b", "a"], [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
    cases["tiny-ties"] = (lambda: make_table(*ties), ["q", "c"], (None,), (1, 3))
    return cases


SPLIT_CASES = _split_cases()


class TestSplitScreen:
    """A screen and a norms pass split into row blocks on several threads
    leave every neighbour list, and the table's query state, bit for bit."""

    @staticmethod
    def answers(case):
        make, queries, filters, ks = SPLIT_CASES[case]
        t = make()
        lists = [[(n.token, n.similarity.hex()) for n in nearest_neighbors(t, q, k, f)]
                 for q in queries for f in filters for k in ks]
        screen, weight, scale, norms, eps = t._query_state()
        state = [a.tobytes() for a in (screen, weight, scale, norms) if a is not None]
        return lists, state, eps

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_every_list_is_identical_at_one_and_two_cpus(self, monkeypatch, case):
        blocks = []
        in_threads = embed_store._in_threads

        def counted(work, edges):
            blocks.append(len(edges) - 1)
            return in_threads(work, edges)

        monkeypatch.setattr(embed_store, "_in_threads", counted)
        got = {}
        for cpus in (None, 1, 2):
            split_screen(monkeypatch, cpus)
            blocks.clear()
            got[cpus] = self.answers(case)
            assert set(blocks) == {cpus or 1}
        assert got[1] == got[None] and got[2] == got[None]

    @pytest.mark.parametrize("case", ["planted-unit-rows", "planted-stored-rows"])
    def test_more_blocks_than_cpus_under_a_short_switch_interval(self, monkeypatch, case):
        # eight threads on this machine's CPUs, switching every few
        # microseconds, each writing its own rows of one screen
        split_screen(monkeypatch, None)
        want = self.answers(case)
        split_screen(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = [self.answers(case) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 3

    def test_no_thread_outlives_a_query(self, monkeypatch):
        split_screen(monkeypatch, 2)
        make, (query, *_), _, _ = SPLIT_CASES["planted-stored-rows"]
        t = make()
        before = threading.active_count()
        nearest_neighbors(t, query, 10)  # builds the query state too
        assert threading.active_count() == before
        nearest_neighbors(t, query, 10)
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["caller", "thread"])
    @pytest.mark.parametrize("case", ["planted-unit-rows", "planted-stored-rows"])
    def test_a_block_that_raises_makes_the_query_raise(self, monkeypatch, case, where):
        split_screen(monkeypatch, 2)
        make, (query, *_), _, _ = SPLIT_CASES[case]
        t = make()
        want = nearest_neighbors(t, query, 10)
        caller, matmul = threading.get_ident(), np.matmul

        class BlockError(Exception):
            pass

        def failing(a, b, out):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise BlockError(where)
            return matmul(a, b, out=out)

        before = threading.active_count()
        monkeypatch.setattr(np, "matmul", failing)
        with pytest.raises(BlockError, match=where):
            nearest_neighbors(t, query, 10)
        assert threading.active_count() == before
        monkeypatch.setattr(np, "matmul", matmul)
        assert nearest_neighbors(t, query, 10) == want

    @pytest.mark.parametrize("case", ["planted-unit-rows", "planted-stored-rows"])
    def test_the_callers_error_state_reaches_every_block(self, monkeypatch, case):
        split_screen(monkeypatch, 2)
        make, (query, *_), _, _ = SPLIT_CASES[case]
        t = make()
        t._query_state()
        seen, matmul = [], np.matmul

        def spy(a, b, out):
            seen.append((threading.get_ident(), np.geterr()))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        with np.errstate(over="raise", divide="ignore", invalid="warn", under="print"):
            nearest_neighbors(t, query, 10)
            want = np.geterr()
        if case == "planted-stored-rows":
            want["under"] = "ignore"  # the stored-row screen's own setting
        assert len({ident for ident, _ in seen}) == 2
        assert [err for _, err in seen] == [want, want]

    def test_a_forked_load_after_a_split_query_loads_as_inline(self, monkeypatch):
        split_screen(monkeypatch, 2)
        make, (query, *_), _, _ = SPLIT_CASES["planted-stored-rows"]
        nearest_neighbors(make(), query, 10)
        monkeypatch.setattr(embed_store, "_CHUNK_BYTES", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forked = load_embeddings_text(TestTextWorkers.BLOB)
        assert isinstance(forked._array.base, mmap.mmap)
        assert multiprocessing.active_children() == []
        use_cpus(monkeypatch, 1)
        assert forked == load_embeddings_text(TestTextWorkers.BLOB)

    def test_neighbors_prints_the_same_bytes_at_one_and_two_cpus(self, monkeypatch, capsys,
                                                                  tmp_path):
        make, queries, _, _ = SPLIT_CASES["planted-stored-rows"]
        path = tmp_path / "t.emb"
        path.write_bytes(save_embeddings_binary(make()))
        printed = set()
        for cpus in (None, 1, 2):
            split_screen(monkeypatch, cpus)
            for word in queries:
                for extra in ([], ["--filter", "subwords"]):
                    argv = ["neighbors", "--table", str(path), "--word", word, "--k", "10",
                            "--format", "tsv"]
                    assert cli.main(argv + extra) == 0
                    printed.add((word, tuple(extra), capsys.readouterr().out))
        assert len(printed) == 2 * len(queries)

    def test_only_screens_past_the_threshold_split(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(embed_store, "_SPLIT_ENTRIES", 5000)
        seen = []
        monkeypatch.setattr(embed_store, "_in_threads", lambda work, edges: seen.append(edges))
        screen, q = np.ones((3000, 4), dtype=np.float32), np.ones(4, dtype=np.float32)
        filled = []
        for rows in (1250, 3000):
            out = np.zeros(rows, dtype=np.float32)
            embed_store._screen_into(screen[:rows], q, out)
            filled.append(bool((out == 4.0).all()))
        # 12000 entries: three blocks of rows; 5000 entries: one np.matmul here
        assert seen == [[0, 1000, 2000, 3000]]
        assert filled == [True, False]


class TestTokenFilter:
    def test_drop_prefix(self):
        f = token_filter(["drop-prefix:##"])
        assert not f("##ing")
        assert f("ing")

    def test_empty_rules_keep_everything(self):
        f = token_filter([])
        for tok in ("##ing", "[CLS]", "123", "word"):
            assert f(tok)

    def test_drop_bracketed(self):
        f = token_filter(["drop-bracketed"])
        assert not f("[CLS]")
        assert not f("[SEP]")
        assert f("clause")

    def test_drop_non_alphabetic(self):
        f = token_filter(["drop-non-alphabetic"])
        assert not f("123")
        assert not f("it's")
        assert f("word")
        assert f("café")

    def test_rules_compose(self):
        f = token_filter(["drop-prefix:##", "drop-bracketed"])
        assert not f("##s")
        assert not f("[MASK]")
        assert f("horse")
        assert repr(f) == "TokenFilter(rules=['drop-prefix:##', 'drop-bracketed'])"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            token_filter(["drop-everything"])
