"""Byte layouts of the binary containers, and fuzzing of every loader.

The layout tests pin each container to a blob assembled by hand, so a
change to how the savers or loaders are built cannot move a byte. The fuzz
tests mutate valid inputs of all eight loaders and require that every
rejection is a ParseError.
"""

import io
import math
import random
import re
import struct

import pytest

from embgeom import cli
from embgeom.attention import (
    AttentionHeadParams,
    AttentionLayerParams,
    load_attention_params,
    load_named_matrices,
    save_attention_params,
    save_named_matrices,
)
from embgeom.embed_store import (
    EmbeddingTable,
    load_embeddings_binary,
    load_embeddings_text,
    save_embeddings_binary,
    save_embeddings_text,
)
from embgeom.errors import ParseError
from embgeom.linalg import Matrix, Vector
from embgeom.sense_geometry import (
    ProbeExample,
    ProbeModel,
    SenseInventory,
    load_probe_model,
    load_probe_tsv,
    load_sense_tsv,
    save_probe_model,
    save_probe_tsv,
    save_sense_tsv,
)
from embgeom.trainer import ToyLM, load_model, save_model

F32_ONE = b"\x00\x00\x80\x3f"
F32_TWO = b"\x00\x00\x00\x40"
F32_HALF = b"\x00\x00\x00\x3f"
F32_MINUS_ONE = b"\x00\x00\x80\xbf"
F32_MINUS_TWO = b"\x00\x00\x00\xc0"
F32_ZERO = b"\x00\x00\x00\x00"
F64_ONE = b"\x00\x00\x00\x00\x00\x00\xf0\x3f"
F64_TWO = b"\x00\x00\x00\x00\x00\x00\x00\x40"
F64_HALF = b"\x00\x00\x00\x00\x00\x00\xe0\x3f"
F64_MINUS_ONE = b"\x00\x00\x00\x00\x00\x00\xf0\xbf"


def u64(n):
    return n.to_bytes(8, "little")


def u32(n):
    return n.to_bytes(4, "little")


class TestLayouts:
    def test_emb1(self):
        table = EmbeddingTable(["a", "bc"], [[1.0, -2.0], [0.5, 0.0]])
        blob = (
            b"EMB1" + u64(2) + u64(2)
            + u32(1) + b"a" + u32(2) + b"bc"
            + F32_ONE + F32_MINUS_TWO + F32_HALF + F32_ZERO
        )
        assert save_embeddings_binary(table) == blob
        assert load_embeddings_binary(blob) == table

    def test_att1(self):
        params = (
            AttentionLayerParams(
                heads=(
                    AttentionHeadParams(
                        Wq=Matrix([[0.5]]), Wk=Matrix([[1.0]]), Wv=Matrix([[2.0]])
                    ),
                ),
                Wo=Matrix([[-1.0]]),
            ),
        )
        blob = (
            b"ATT1" + u64(4)
            + u32(15) + b"layer0.head0.Wq" + u64(1) + u64(1) + F32_HALF
            + u32(15) + b"layer0.head0.Wk" + u64(1) + u64(1) + F32_ONE
            + u32(15) + b"layer0.head0.Wv" + u64(1) + u64(1) + F32_TWO
            + u32(9) + b"layer0.Wo" + u64(1) + u64(1) + F32_MINUS_ONE
        )
        assert save_attention_params(params) == blob
        assert load_attention_params(blob) == params

    def test_att1_named_matrix_shape(self):
        named = {"m": Matrix([[1.0, 2.0]])}
        blob = b"ATT1" + u64(1) + u32(1) + b"m" + u64(1) + u64(2) + F32_ONE + F32_TWO
        assert save_named_matrices(named) == blob
        assert load_named_matrices(blob) == named

    def test_tlm1(self):
        model = ToyLM(
            vocab=("a", "b"),
            W_in=Matrix([[1.0], [2.0]]),
            W_out=Matrix([[0.5], [-1.0]]),
        )
        blob = (
            b"TLM1" + u64(2) + u64(1)
            + u32(1) + b"a" + u32(1) + b"b"
            + F64_ONE + F64_TWO
            + F64_HALF + F64_MINUS_ONE
        )
        assert save_model(model) == blob
        assert load_model(blob) == model

    def test_prb1(self):
        model = ProbeModel(
            classes=("x", "yz"),
            weights=(Vector([1.0, 2.0]), Vector([-1.0, 0.5])),
            biases=(0.5, 1.0),
        )
        blob = (
            b"PRB1" + u64(2) + u64(2)
            + u32(1) + b"x" + F64_HALF + F64_ONE + F64_TWO
            + u32(2) + b"yz" + F64_ONE + F64_MINUS_ONE + F64_HALF
        )
        assert save_probe_model(model) == blob
        assert load_probe_model(blob) == model


def _valid_inputs():
    table = EmbeddingTable(
        ["river", "bank", "##s"], [[1.0, -0.5, 2.0], [0.25, 3.0, -1.0], [0.0, 1.5, 0.5]]
    )
    stack = (
        AttentionLayerParams(
            heads=tuple(
                AttentionHeadParams(
                    Wq=Matrix([[0.5, -1.0]]),
                    Wk=Matrix([[1.0, -0.5]]),
                    Wv=Matrix([[1.5, -2.0]]),
                )
                for _ in range(2)
            ),
            Wo=Matrix([[0.5, 1.0], [-1.0, 2.0]]),
        ),
    )
    model = ToyLM(
        vocab=("the", "bank", "river"),
        W_in=Matrix([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]),
        W_out=Matrix([[0.7, 0.8], [-0.9, 1.0], [1.1, -1.2]]),
    )
    named = {"a": Matrix([[1.0, 2.0]]), "b": Matrix([[3.0], [4.0]])}
    probe = ProbeModel(
        classes=("FOOD", "ORG"),
        weights=(Vector([1.0, -2.0]), Vector([0.5, 3.0])),
        biases=(-0.5, 0.25),
    )
    inventory = SenseInventory(
        word="bank", senses={"river": [[1.0, 0.0]], "money": [[0.0, 1.0], [0.5, 0.5]]}
    )
    examples = [
        ProbeExample("apple", frozenset({"FOOD"}), Vector([1.0, 0.0])),
        ProbeExample("brand", frozenset({"FOOD", "ORG"}), Vector([0.8, 0.8])),
        ProbeExample("rock", frozenset(), Vector([-1.0, -1.0])),
    ]
    # (loader, valid blob, float width in bytes, or None for text formats)
    binary = {
        "emb1": (load_embeddings_binary, save_embeddings_binary(table), 4),
        "named_matrices": (load_named_matrices, save_named_matrices(named), 4),
        "attention_params": (load_attention_params, save_attention_params(stack), 4),
        "tlm1": (load_model, save_model(model), 8),
        "prb1": (load_probe_model, save_probe_model(probe), 8),
    }
    # each binary container again from an in-memory file: the Reader's file path
    files = {
        f"{name}_file_object": (lambda blob, load=load: load(io.BytesIO(blob)), blob, width)
        for name, (load, blob, width) in binary.items()
    }
    return {
        **binary,
        **files,
        "text_table": (load_embeddings_text, save_embeddings_text(table), None),
        "sense_tsv": (load_sense_tsv, save_sense_tsv([inventory]), None),
        "probe_tsv": (load_probe_tsv, save_probe_tsv(examples), None),
    }


VALID = _valid_inputs()
CASES_PER_FORMAT = 400
NUMBER = re.compile(rb"(?<=[ \t])-?[0-9][0-9.eE+-]*")
NON_FINITE_TEXT = (b"nan", b"inf", b"-inf", b"1e999", b"NaN")
NON_FINITE_WORDS = {
    4: [struct.pack("<f", x) for x in (math.nan, math.inf, -math.inf)],
    8: [struct.pack("<d", x) for x in (math.nan, math.inf, -math.inf)],
}


def _mutate(blob, width, rng):
    kind = rng.randrange(4)
    if kind == 0:  # flip bits of one byte
        i = rng.randrange(len(blob))
        return blob[:i] + bytes([blob[i] ^ rng.randrange(1, 256)]) + blob[i + 1 :]
    if kind == 1:  # truncate
        return blob[: rng.randrange(len(blob))]
    if kind == 2:  # insert random bytes
        i = rng.randrange(len(blob) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        return blob[:i] + junk + blob[i:]
    if width is None:  # replace one number with a non-finite spelling
        m = rng.choice(list(NUMBER.finditer(blob)))
        return blob[: m.start()] + rng.choice(NON_FINITE_TEXT) + blob[m.end() :]
    # overwrite one float, counted back from the end of the last payload
    i = len(blob) - width * rng.randint(1, len(blob) // width)
    return blob[:i] + rng.choice(NON_FINITE_WORDS[width]) + blob[i + width :]


@pytest.mark.parametrize("fmt", sorted(VALID))
def test_fuzz_loader_fails_only_with_parse_error(fmt):
    load, blob, width = VALID[fmt]
    load(blob)
    rng = random.Random(f"fuzz-{fmt}")
    for case in range(CASES_PER_FORMAT):
        bad = _mutate(blob, width, rng)
        try:
            load(bad)
        except ParseError:
            pass
        except Exception as exc:
            raise AssertionError(
                f"{fmt} case {case}: {type(exc).__name__}: {exc} on {bad!r}"
            ) from exc


def test_f32_savers_refuse_values_beyond_float32():
    # such a value would be written as inf, which the loaders reject
    with pytest.raises(ValueError, match="float32"):
        save_embeddings_binary(EmbeddingTable(["a"], [[1e39]]))
    with pytest.raises(ValueError, match="float32"):
        save_named_matrices({"m": Matrix([[-1e39]])})


def _emb1(V=2, D=2, names=(b"ab", b"c"), values=(1.0, 2.0, 3.0, 4.0), magic=b"EMB1"):
    return (
        magic + u64(V) + u64(D) + b"".join(u32(len(n)) + n for n in names)
        + struct.pack(f"<{len(values)}f", *values)
    )


GOOD_EMB1 = _emb1()  # header 0-19, names 20-30, payload 31-46

# One fault each: (blob, the loader's ParseError message)
MALFORMED_EMB1 = {
    "bad-magic": (_emb1(magic=b"EMB2"), "bad magic: b'EMB2', expected b'EMB1'"),
    "empty": (b"", "bad magic: b'', expected b'EMB1'"),
    "zero-V": (_emb1(V=0, names=(), values=()), "V and D must be at least 1, got (0, 2)"),
    "zero-D": (_emb1(D=0, values=()), "V and D must be at least 1, got (2, 0)"),
    "short-header": (GOOD_EMB1[:12], "truncated V and D"),
    "short-name-length": (GOOD_EMB1[:28], "truncated vocabulary"),
    "short-name": (GOOD_EMB1[:25], "truncated vocabulary"),
    "short-payload": (GOOD_EMB1[:-3], "truncated matrix data"),
    "payload-past-the-end": (_emb1(D=2**40), "truncated matrix data"),
    "non-utf8-name": (
        _emb1(names=(b"a\xff", b"c")),
        "vocabulary is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte",
    ),
    "nan": (_emb1(values=(1.0, math.nan, 3.0, 4.0)), "non-finite value in matrix data"),
    "inf": (_emb1(values=(1.0, 2.0, 3.0, -math.inf)), "non-finite value in matrix data"),
    "trailing-bytes": (GOOD_EMB1 + b"xyz", "3 trailing bytes"),
}


class TestMalformedEmb1:
    """Bytes, an in-memory file and a real file fail alike, and so does the CLI."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_EMB1))
    def test_every_source_raises_the_same_parse_error(self, tmp_path, case):
        blob, message = MALFORMED_EMB1[case]
        path = tmp_path / "bad.emb"
        path.write_bytes(blob)
        with open(path, "rb") as fh:
            for source in (blob, io.BytesIO(blob), fh):
                with pytest.raises(ParseError) as info:
                    load_embeddings_binary(source)
                assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(MALFORMED_EMB1))
    def test_neighbors_exits_one_naming_the_fault(self, tmp_path, capsys, case):
        blob, message = MALFORMED_EMB1[case]
        if not blob.startswith(b"EMB1"):  # the CLI reads any other file as text
            with pytest.raises(ParseError) as info:
                load_embeddings_text(blob)
            message = str(info.value)
        path = tmp_path / "bad.emb"
        path.write_bytes(blob)
        code = cli.main(["neighbors", "--table", str(path), "--word", "ab"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"ParseError: {message}\n")
