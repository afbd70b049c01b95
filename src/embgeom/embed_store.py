"""Embedding tables: load, persist, look up, and scan for nearest neighbours.

Tables are immutable after construction. Storage and the exhaustive
similarity scan sit on numpy so that a 30k x 768 table loads and scans in
seconds; the public surface speaks :class:`~embgeom.linalg.Vector` and
:class:`~embgeom.linalg.Matrix` like the rest of the package. The text
loader streams runs of whole lines (about 16 MB) into a preallocated
table, so beyond its input it holds the table and one run.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import container
from .errors import (
    DimensionError,
    EmptyInputError,
    OutOfVocabularyError,
    ParseError,
    ZeroVectorError,
)
from .linalg import Matrix, Vector

__all__ = [
    "EmbeddingTable",
    "Neighbor",
    "NeighborList",
    "TokenFilter",
    "token_filter",
    "load_embeddings_text",
    "save_embeddings_text",
    "load_embeddings_binary",
    "save_embeddings_binary",
    "nearest_neighbors",
]

# Fixed or scientific decimal notation; deliberately narrower than float()
# (no nan/inf, no underscores, no hex, ASCII digits only).
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)

# The size of the runs of whole lines the text loader checks and parses.
_CHUNK_BYTES = 16 << 20


def token_index(vocab):
    """Map each token to its position; reject empty, spaced or repeated tokens."""
    for t in vocab:
        if not isinstance(t, str) or not t or any(map(str.isspace, t)):
            raise ValueError(f"invalid token: {t!r}")
    index = {t: i for i, t in enumerate(vocab)}
    if len(index) != len(vocab):
        seen = set()
        dup = next(t for t in vocab if t in seen or seen.add(t))
        raise ValueError(f"duplicate token: {dup!r}")
    return index


class EmbeddingTable:
    """A vocabulary paired with one embedding row per token.

    Parameters
    ----------
    vocab : sequence of str
        Unique tokens, no internal whitespace, insertion order preserved.
    rows : Matrix, numpy array, or nested sequence
        V x D real matrix; row i embeds vocab[i]. The table keeps a
        read-only float64 copy, so later writes to ``rows`` do not reach
        it; a Matrix's array is read-only already and is shared.
    """

    __slots__ = ("_vocab", "_index", "_array", "_norms", "_filter_masks")

    def __init__(self, vocab, rows):
        # a copy the caller cannot write; a Matrix's array is one already
        arr = rows.array if isinstance(rows, Matrix) else np.array(rows, dtype=np.float64)
        self._adopt(vocab, arr)

    @classmethod
    def _take(cls, vocab, arr):
        """A table over ``arr`` itself, for a float64 array nothing else holds.

        The loaders hand over the array they just filled: no table-sized
        copy. ``arr`` becomes read-only.
        """
        table = cls.__new__(cls)
        table._adopt(vocab, arr)
        return table

    def _adopt(self, vocab, arr):
        vocab = tuple(vocab)
        if not vocab:
            raise EmptyInputError("a table needs at least one token")
        index = token_index(vocab)
        if arr.ndim != 2 or arr.shape[0] != len(vocab) or arr.shape[1] < 1:
            raise DimensionError(
                f"need a {len(vocab)} x D matrix, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("embedding rows must be finite")
        arr.flags.writeable = False

        self._vocab = vocab
        self._index = index
        self._array = arr
        self._norms = None
        self._filter_masks = {}

    @property
    def vocab(self):
        return self._vocab

    @property
    def V(self):
        return len(self._vocab)

    @property
    def D(self):
        return int(self._array.shape[1])

    def __contains__(self, token):
        return token in self._index

    def __len__(self):
        return len(self._vocab)

    def index_of(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise OutOfVocabularyError(token) from None

    def lookup(self, token):
        """Return the embedding row for ``token`` as a Vector."""
        return Vector(self._array[self.index_of(token)].tolist())

    def _row_norms(self):
        if self._norms is None:
            self._norms = np.linalg.norm(self._array, axis=1)
        return self._norms

    def _keep_mask(self, filter):
        """Boolean mask of the tokens ``filter`` keeps.

        A TokenFilter's mask is built once per rule tuple and cached; any
        other callable is asked about every token on every call.
        """
        if type(filter) is not TokenFilter:
            return np.fromiter(map(filter, self._vocab), dtype=bool, count=self.V)
        mask = self._filter_masks.get(filter.rules)
        if mask is None:
            mask = np.fromiter(map(filter, self._vocab), dtype=bool, count=self.V)
            mask.flags.writeable = False
            self._filter_masks[filter.rules] = mask
        return mask

    def __eq__(self, other):
        if isinstance(other, EmbeddingTable):
            return self._vocab == other._vocab and np.array_equal(
                self._array, other._array
            )
        return NotImplemented

    def __repr__(self):
        return f"EmbeddingTable(V={self.V}, D={self.D})"


class Neighbor(NamedTuple):
    token: str
    similarity: float


@dataclass(frozen=True)
class NeighborList:
    """Ranked nearest neighbours of one query token.

    ``entries`` is a list of (token, similarity) pairs sorted by descending
    similarity; the query itself never appears.
    """

    query: str
    entries: tuple

    def tokens(self):
        return [t for t, _ in self.entries]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


class TokenFilter:
    """Predicate over tokens built from a list of drop rules.

    Supported rules:

    - ``drop-prefix:<p>``: drop tokens starting with the literal prefix
      (for example subword continuation markers such as ``##``).
    - ``drop-bracketed``: drop ``[...]`` special markers like ``[CLS]``.
    - ``drop-non-alphabetic``: keep only purely alphabetic tokens.

    An empty rule list keeps everything.
    """

    def __init__(self, rules=()):
        self.rules = tuple(rules)
        prefixes = []
        self._bracketed = False
        self._alpha_only = False
        for rule in self.rules:
            if rule.startswith("drop-prefix:"):
                prefix = rule[len("drop-prefix:") :]
                if not prefix:
                    raise ValueError("drop-prefix rule needs a prefix")
                prefixes.append(prefix)
            elif rule == "drop-bracketed":
                self._bracketed = True
            elif rule == "drop-non-alphabetic":
                self._alpha_only = True
            else:
                raise ValueError(f"unknown filter rule: {rule!r}")
        self._prefixes = tuple(prefixes)

    def __call__(self, token):
        """True when the token survives every enabled rule."""
        for p in self._prefixes:
            if token.startswith(p):
                return False
        if self._bracketed and token.startswith("[") and token.endswith("]"):
            return False
        if self._alpha_only and not token.isalpha():
            return False
        return True

    def __repr__(self):
        return f"TokenFilter(rules={list(self.rules)!r})"


def token_filter(rules=()):
    """Build a TokenFilter from rule strings; see :class:`TokenFilter`."""
    return TokenFilter(rules)


def load_embeddings_text(source, lowercase=False):
    """Parse the text embedding format into an EmbeddingTable.

    Line 1 is ``<V> <D>``; then exactly V lines of ``<token> <x1> ... <xD>``
    with single-space separation and ``\\n`` line endings. ``lowercase``
    folds tokens at ingest (later duplicates of a folded token are rejected).
    Rows stream through in runs of whole lines into a preallocated table.

    Raises ParseError naming the first faulty line on any malformation.
    """
    raw = source if isinstance(source, str) else container.read_bytes(source)
    if isinstance(raw, str):  # lone surrogates then fail the UTF-8 checks
        raw = raw.encode("utf-8", "surrogatepass")
    end = raw.find(b"\n") if b"\n" in raw else len(raw)
    first = container.read_text(raw[:end])
    header = first.split(" ")
    if len(header) != 2 or not all(f.isascii() and f.isdigit() for f in header):
        raise ParseError(f"header must be '<V> <D>', got {first!r}", line=1)
    V, D = (container.build(int, f, line=1) for f in header)
    if V < 1 or D < 1:
        raise ParseError(f"V and D must be positive, got {V} {D}", line=1)

    # A row takes at least 2D + 1 bytes: a header cannot make the table large.
    arr = np.empty((min(V, (len(raw) - end) // (2 * D + 1)), D))
    vocab, pos = {}, end + 1  # token -> row
    while pos < len(raw):
        stop = raw.find(b"\n", pos + _CHUNK_BYTES - 1) + 1 or len(raw)
        # The final row may lack its newline.
        chunk = raw[pos:stop] if raw[stop - 1] == 10 else raw[pos:] + b"\n"
        _parse_rows(chunk, arr, V, D, vocab, lowercase)
        pos = stop
    if (n := len(vocab)) < V:
        raise ParseError(f"expected {V} embedding rows, found {n}", line=n + 2)
    return container.build(EmbeddingTable._take, vocab, arr)


def _parse_rows(chunk, arr, V, D, vocab, lowercase):
    """Parse whole ``\\n``-ended rows into ``arr`` after those in ``vocab``.

    Array scans, the token loop and ``np.loadtxt`` find the first faulty row;
    ``_row_fault`` reads it field by field to word the ParseError.
    """
    buf = np.frombuffer(chunk, dtype=np.uint8)
    low = np.flatnonzero(buf <= 32)  # spaces, newlines and control bytes
    kind = buf[low]
    nl = low[kind == 10]
    sp = low[kind == 32]
    starts = np.concatenate(([0], nl[:-1] + 1))
    # Each line's first space; for a line without one, a later position.
    first = np.append(sp, len(chunk))[np.searchsorted(sp, starts)]
    bad = np.diff(np.searchsorted(sp, nl), prepend=0) != D  # spaces per line
    bad |= buf[nl - 1] == 32  # np.loadtxt would skip the blank line "<token> "
    # Control and non-ASCII bytes may sit in a token, never in a value.
    odd = low[(kind != 10) & (kind != 32)]
    if not chunk.isascii():
        odd = np.concatenate((odd, np.flatnonzero(buf > 127)))
    odd_line = np.searchsorted(nl, odd)
    bad[odd_line[odd > first[odd_line]]] = True
    line, room = len(vocab) + 2, V - len(vocab)
    bad[room:] = True  # rows past V

    stop = int(np.argmax(bad)) if bad.any() else len(nl)
    s, f, e = starts.tolist(), first.tolist(), nl.tolist()
    for i in range(stop):
        try:
            token = chunk[s[i] : f[i]].decode()
        except UnicodeDecodeError:
            token = ""
        token = token.lower() if lowercase else token
        if token.split() != [token] or token in vocab:
            stop = i  # _row_fault words the fault
            break
        vocab[token] = line - 2 + i
    if stop:
        rests = [chunk[a + 1 : b].decode() for a, b in zip(f[:stop], e)]
        try:
            vals = np.loadtxt(rests, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            vals = None
        if vals is None or not np.isfinite(vals).all():
            for i in range(stop):
                if fault := _row_fault(chunk[s[i] : e[i]], D, line + i, (), lowercase):
                    raise fault
    if stop == room < len(nl):
        raise ParseError(f"expected {V} embedding rows, found more", line=V + 2)
    if stop < len(nl):
        raise _row_fault(chunk[s[stop] : e[stop]], D, line + stop, vocab, lowercase)
    arr[line - 2 : line - 2 + stop] = vals


def _row_fault(row, D, line, vocab, lowercase):
    """The ParseError for one row read field by field; None if it is sound."""
    if b"\t" in row or b"\r" in row:
        return ParseError("tab or carriage return is not a valid separator", line=line)
    try:
        token, sep, rest = row.decode().partition(" ")
    except UnicodeDecodeError as exc:
        return ParseError(f"not valid UTF-8: {exc.reason}", line=line)
    if not sep or not token:
        return ParseError("row must be '<token> <x1> ...'", line=line)
    token = token.lower() if lowercase else token
    if token.split() != [token]:
        return ParseError(f"invalid token: {token!r}", line=line)
    if token in vocab:
        return ParseError(f"duplicate token {token!r}", line=line)
    fields = rest.split(" ")
    if len(fields) != D or "" in fields:
        return ParseError(f"row {token!r} needs {D} single-spaced values", line=line)
    for field in fields:
        if not _FLOAT_RE.match(field):
            return ParseError(f"not a decimal float: {field!r}", line=line)
        if not math.isfinite(float(field)):
            return ParseError(f"value out of range: {field!r}", line=line)


def save_embeddings_text(table):
    """Serialize a table to the text format as bytes.

    Floats are written with 17 significant digits, enough for the
    load(save(t)) round-trip to be exact, well inside the 1e-8 contract.
    """
    out = [f"{table.V} {table.D}"]
    arr = table._array
    for i, token in enumerate(table.vocab):
        row = " ".join(f"{x:.17g}" for x in arr[i])
        out.append(f"{token} {row}")
    out.append("")
    return "\n".join(out).encode("utf-8")


def load_embeddings_binary(source):
    """Parse the EMB1 binary embedding format into an EmbeddingTable."""
    r = container.Reader(source, container.EMB1)
    V, D = r.u64s(2, "V and D")
    vocab = r.names(V, "vocabulary")
    arr = r.floats(V * D, "<f4", "matrix data").astype(np.float64).reshape(V, D)
    r.end()
    return container.build(EmbeddingTable._take, vocab, arr)


def save_embeddings_binary(table):
    """Serialize a table to the EMB1 binary format as bytes.

    Matrix entries are stored as little-endian float32; vocabulary entries
    are UTF-8 with a little-endian u32 byte-length prefix.
    """
    head = container.EMB1 + container.u64s(table.V, table.D)
    return head + container.names(table.vocab) + container.floats(table._array, "<f4")


def nearest_neighbors(table, token, k, filter=None):
    """Top-k vocabulary tokens by cosine similarity to ``token``'s row.

    The query token is always excluded. ``filter``, when given, is applied
    to candidates before ranking. Ties break by vocabulary insertion order.
    Candidate rows with zero norm have no direction and are skipped; a
    zero-norm query raises ZeroVectorError.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    qi = table.index_of(token)
    arr = table._array
    norms = table._row_norms()
    qnorm = norms[qi]
    if qnorm == 0.0:
        raise ZeroVectorError(f"query token {token!r} has a zero-norm row")

    keep = norms > 0.0
    if filter is not None:
        keep &= table._keep_mask(filter)
    keep[qi] = False

    (cand,) = np.nonzero(keep)
    if cand.size == 0:
        return NeighborList(query=token, entries=())

    # One mat-vec over the whole table; gathering rows of ``arr`` would copy
    # the candidates on every query.
    sims = (arr @ arr[qi])[cand] / (norms[cand] * qnorm)
    np.clip(sims, -1.0, 1.0, out=sims)
    # Stable sort on descending similarity: equal scores keep vocab order.
    order = np.argsort(-sims, kind="stable")[:k]
    entries = tuple(
        Neighbor(table.vocab[int(cand[j])], float(sims[j])) for j in order
    )
    return NeighborList(query=token, entries=entries)
