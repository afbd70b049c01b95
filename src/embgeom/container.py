"""The binary layout shared by the EMB1, ATT1, TLM1 and PRB1 containers.

A container is a 4-byte magic, little-endian u64 header fields, then UTF-8
names, each behind its little-endian u32 byte length, and little-endian f32
or f64 payloads, with nothing after the last field. Each format module
picks its fields and their order; this module encodes and checks them, and
every decoding failure it reports is a :class:`~embgeom.errors.ParseError`.
It also reads every loader's sources, binary or UTF-8 text, and text decimals.
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

# Bytes read at a time ahead of the header and name fields of a file source.
_READ_AHEAD = 1 << 16

# Fixed or scientific decimal notation; deliberately narrower than float()
# (no nan/inf, no underscores, no hex, no whitespace, ASCII digits only).
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)


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


def decimal(field):
    """``field`` as a finite float, read with the text table's decimal grammar;
    anything else is a ValueError naming the field."""
    if not _FLOAT_RE.match(field):
        raise ValueError(f"not a decimal float: {field!r}")
    x = float(field)
    if not math.isfinite(x):
        raise ValueError(f"value out of range: {field!r}")
    return x


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

    ``source`` is bytes-like or a binary file object. A seekable file that
    can ``readinto`` is read in pieces: the header and names as the fields
    need them, each float payload with ``readinto`` straight into a fresh
    array. Any other file is read whole first. A payload read from bytes is
    a zero-copy view when it sits at an aligned offset and an aligned copy
    when not; numpy runs no BLAS kernel on an unaligned array. Either way
    :meth:`floats` returns an aligned, read-only array.
    """

    def __init__(self, source, magic):
        self.raw, self.pos, self._file = b"", 0, None
        if _seekable_file(source):
            self._file = source
        else:
            self.raw = read_bytes(source)
        self._fill(4)
        got = self.raw[:4]
        if got != magic:
            raise ParseError(f"bad magic: {got!r}, expected {magic!r}")
        self.pos = 4

    def _fill(self, n):
        """Whether ``n`` bytes follow the cursor, reading ahead from a file
        source until they do or it ends."""
        short = n - (len(self.raw) - self.pos)
        if short > 0 and self._file is not None:
            parts = [self.raw[self.pos :]]
            while short > 0 and (part := self._file.read(max(short, _READ_AHEAD))):
                parts.append(part)
                short -= len(part)
            self.raw, self.pos = b"".join(parts), 0
        return short <= 0

    def _take(self, n, what):
        if not self._fill(n):
            raise ParseError(f"truncated {what}")
        start = self.pos
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
                raw, pos, end = self._refill(pos, 4, what)
            (n,) = unpack(raw, pos)
            if pos + 4 + n > end:
                raw, pos, end = self._refill(pos, 4 + n, what)
            pos += 4
            try:
                out.append(raw[pos : pos + n].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{what} is not UTF-8: {exc}") from None
            pos += n
        self.pos = pos
        return out

    def _refill(self, pos, n, what):
        """:meth:`names`' cursor moved to ``pos`` with ``n`` bytes after it."""
        self.pos = pos
        if not self._fill(n):
            raise ParseError(f"truncated {what}")
        return self.raw, self.pos, len(self.raw)

    def floats(self, count, dtype, what):
        """``count`` finite ``dtype`` floats (``"<f4"`` or ``"<f8"``) as an
        aligned, read-only array."""
        size = count * np.dtype(dtype).itemsize
        if self._file is None:
            start = self._take(size, what)
            arr = np.frombuffer(self.raw, dtype, count, start)
            if not arr.flags.aligned:
                arr = arr.copy()
        else:
            arr = self._read_into(count, dtype, size, what)
        if not np.isfinite(arr).all():
            raise ParseError(f"non-finite value in {what}")
        arr.flags.writeable = False
        return arr

    def _read_into(self, count, dtype, size, what):
        """A fresh array of ``size`` bytes filled from the bytes read ahead,
        then from the file itself."""
        ahead = len(self.raw) - self.pos
        here = self._file.tell()
        if size > ahead + self._file.seek(0, 2) - here:  # before allocating
            raise ParseError(f"truncated {what}")
        self._file.seek(here)
        arr = np.empty(count, dtype)
        view = memoryview(arr).cast("B")
        got = min(ahead, size)
        view[:got] = self.raw[self.pos : self.pos + got]
        self.pos += got
        while got < size:
            n = self._file.readinto(view[got:])
            if not n:
                raise ParseError(f"truncated {what}")
            got += n
        return arr

    def end(self):
        extra = len(self.raw) - self.pos
        if self._file is not None:
            extra += len(self._file.read())
        if extra:
            raise ParseError(f"{extra} trailing bytes")


def _seekable_file(source):
    """Whether ``source`` is a file object :class:`Reader` can read in pieces."""
    try:
        return source.seekable() and hasattr(source, "readinto")
    except (AttributeError, ValueError):  # bytes or another non-file, or a closed file
        return False


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
