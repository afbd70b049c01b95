"""The binary layout shared by the EMB1, ATT1, TLM1 and PRB1 containers.

A container is a 4-byte magic, little-endian u64 header fields, then UTF-8
names, each behind its little-endian u32 byte length, and little-endian f32
or f64 payloads, with nothing after the last field. Each format module
picks its fields and their order; this module encodes and checks them, and
every decoding failure it reports is a :class:`~embgeom.errors.ParseError`.
It also reads the sources every loader takes, binary and UTF-8 text alike.
"""

import struct

import numpy as np

from .errors import EmbgeomError, ParseError

EMB1 = b"EMB1"
ATT1 = b"ATT1"
TLM1 = b"TLM1"
PRB1 = b"PRB1"

_U32 = struct.Struct("<I")


def read_bytes(source):
    """The content of ``source``: bytes-like, or a binary file object."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    return source.read()


def read_text(source):
    """The content of ``source`` as text: a str, bytes-like, or a file object.

    Bytes must be valid UTF-8; anything else is a ParseError.
    """
    raw = source if isinstance(source, str) else read_bytes(source)
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None


def build(constructor, *args, line=None, **kwargs):
    """Call a domain constructor on decoded fields; a rejection becomes ParseError.

    ``line`` is the 1-based input line the fields came from, if any.
    """
    try:
        return constructor(*args, **kwargs)
    except (ValueError, EmbgeomError) as exc:
        raise ParseError(str(exc), line=line) from None


class Reader:
    """A cursor over one container's bytes, starting after its magic."""

    def __init__(self, source, magic):
        self.raw = read_bytes(source)
        if self.raw[:4] != magic:
            raise ParseError(f"bad magic: {self.raw[:4]!r}, expected {magic!r}")
        self.pos = 4

    def _take(self, n, what):
        start = self.pos
        if n > len(self.raw) - start:
            raise ParseError(f"truncated {what}")
        self.pos += n
        return start

    def u64s(self, n, what, minimum=1):
        """``n`` u64 fields, none of them below ``minimum``."""
        values = struct.unpack_from(f"<{n}Q", self.raw, self._take(8 * n, what))
        if min(values) < minimum:
            raise ParseError(f"{what} must be at least {minimum}, got {values}")
        return values

    def names(self, count, what):
        """``count`` u32-length-prefixed UTF-8 strings.

        One local loop, not a call per name: an EMB1 vocabulary of 30k
        names is read on every table load.
        """
        raw, pos, end = self.raw, self.pos, len(self.raw)
        unpack = _U32.unpack_from
        out = []
        for _ in range(count):
            if pos + 4 > end:
                raise ParseError(f"truncated {what}")
            (n,) = unpack(raw, pos)
            pos += 4
            if pos + n > end:
                raise ParseError(f"truncated {what}")
            try:
                out.append(raw[pos : pos + n].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{what} is not UTF-8: {exc}") from None
            pos += n
        self.pos = pos
        return out

    def floats(self, count, dtype, what):
        """``count`` finite ``dtype`` floats (``"<f4"`` or ``"<f8"``) as an array."""
        start = self._take(count * np.dtype(dtype).itemsize, what)
        arr = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        if not np.isfinite(arr).all():
            raise ParseError(f"non-finite value in {what}")
        return arr

    def end(self):
        if self.pos != len(self.raw):
            raise ParseError(f"{len(self.raw) - self.pos} trailing bytes")


def u64s(*values):
    return struct.pack(f"<{len(values)}Q", *values)


def names(strings):
    """Each string as UTF-8 behind its u32 byte length."""
    parts = []
    for s in strings:
        b = s.encode("utf-8")
        parts += (_U32.pack(len(b)), b)
    return b"".join(parts)


def floats(values, dtype):
    """An array-like of finite reals packed as ``dtype``; it must fit there."""
    with np.errstate(over="ignore"):
        arr = np.asarray(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"a value does not fit in {np.dtype(dtype).name}")
    return arr.tobytes()
