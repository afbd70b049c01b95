"""The binary layout shared by the EMB1, ATT1, TLM1 and PRB1 containers.

A container is a 4-byte magic, little-endian u64 header fields, then UTF-8
names, each behind its little-endian u32 byte length, and little-endian f32
or f64 payloads, with nothing after the last field. Each format module
picks its fields and their order; this module encodes and checks them, and
every decoding failure it reports is a :class:`~embgeom.errors.ParseError`.
Its :func:`read` is the package's one reader: every loader's source, binary
or UTF-8 text, becomes one read-only buffer there. It also reads and writes decimals.
"""

import math
import re
import struct

import numpy as np

from .errors import EmbgeomError, ParseError

EMB1 = b"EMB1"
ATT1 = b"ATT1"
TLM1 = b"TLM1"
PRB1 = b"PRB1"

_U32 = struct.Struct("<I")

# Fixed or scientific decimal notation; deliberately narrower than float()
# (no nan/inf, no underscores, no hex, no whitespace, ASCII digits only).
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)


def read(source):
    """The content of ``source`` as one read-only memoryview.

    ``source`` is a str, taken as UTF-8 (a lone surrogate then fails every
    UTF-8 check), a bytes-like object, or a binary file object. A read-only
    memoryview is returned as it is, and mutable input is copied, so no
    caller can change what a loader parses. A seekable file that can
    ``readinto`` is read from its position in one loop into a fresh array,
    placed so that the file's last byte ends on a 64-byte boundary; any
    other file is read whole.
    """
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, memoryview) and source.readonly:
        return source
    if not hasattr(source, "read"):
        return memoryview(bytes(source))
    if not (source.seekable() and hasattr(source, "readinto")):
        return read(source.read())
    here = source.tell()
    size = source.seek(0, 2) - here
    source.seek(here)
    buf = np.empty(size + 64, np.uint8)
    start = -(buf.ctypes.data + size) % 64
    view = memoryview(buf)[start : start + size]
    got = 0
    while got < size and (n := source.readinto(view[got:])):
        got += n
    return view[:got].toreadonly()


def read_text(source):
    """The content of ``source``, as :func:`read` takes it, as text.

    It must be valid UTF-8; anything else is a ParseError.
    """
    try:
        return str(read(source), "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None


def decimal(field):
    """``field`` as a finite float, read with the text table's decimal grammar;
    anything else is a ValueError naming the field."""
    if not _FLOAT_RE.match(field):
        raise ValueError(f"not a decimal float: {field!r}")
    x = float(field)
    if not math.isfinite(x):
        raise ValueError(f"value out of range: {field!r}")
    return x


def _decimals(values):
    """Floats as single-spaced ``%.17g`` decimals, which :func:`decimal` reads back exactly."""
    return " ".join(f"{x:.17g}" for x in values)


def build(constructor, *args, line=None, **kwargs):
    """Call a domain constructor on decoded fields; a rejection becomes ParseError.

    ``line`` is the 1-based input line the fields came from, if any.
    """
    try:
        return constructor(*args, **kwargs)
    except (ValueError, EmbgeomError) as exc:
        raise ParseError(str(exc), line=line) from None


class Reader:
    """A cursor over one container, starting after its magic.

    Every field is parsed from the one buffer :func:`read` returns for
    ``source``. A payload is a zero-copy view of it when it sits at an
    aligned offset and an aligned copy when not; numpy runs no BLAS kernel
    on an unaligned array. A file's buffer ends on a 64-byte boundary, so a
    payload that ends the file, such as EMB1's rows, is always a view.
    Either way :meth:`floats` returns an aligned, read-only array.
    """

    def __init__(self, source, magic):
        self.raw, self.pos = read(source), 4
        got = bytes(self.raw[:4])
        if got != magic:
            raise ParseError(f"bad magic: {got!r}, expected {magic!r}")

    def _take(self, n, what):
        start = self.pos
        if start + n > len(self.raw):
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
                out.append(str(raw[pos : pos + n], "utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{what} is not UTF-8: {exc}") from None
            pos += n
        self.pos = pos
        return out

    def floats(self, count, dtype, what):
        """``count`` finite ``dtype`` floats (``"<f4"`` or ``"<f8"``) as an
        aligned, read-only array."""
        start = self._take(count * np.dtype(dtype).itemsize, what)
        arr = np.frombuffer(self.raw, dtype, count, start)
        if not arr.flags.aligned:
            arr = arr.copy()
        if not np.isfinite(arr).all():
            raise ParseError(f"non-finite value in {what}")
        arr.flags.writeable = False
        return arr

    def end(self):
        if extra := len(self.raw) - self.pos:
            raise ParseError(f"{extra} trailing bytes")


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
