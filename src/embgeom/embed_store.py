"""Embedding tables: load, persist, look up, and scan for nearest neighbours.

Tables are immutable after construction. Storage and the exhaustive
similarity scan sit on numpy so that a 30k x 768 table loads and scans in
seconds; the public surface speaks :class:`~embgeom.linalg.Vector` and
:class:`~embgeom.linalg.Matrix` like the rest of the package. EMB1 tables
keep their float32 rows, which float32 holds exactly. The text loader makes
one ordered pass over runs of whole lines (about 16 MB), holding the table
and one run beyond its input. It checks each run's layout and tokens, and
its values are parsed into a preallocated table inline or, with several
runs and usable CPUs, by forked workers into shared anonymous memory. One
loop takes the parses back in file order: the first faulty line is named,
and a failed parse stops the pass within two runs per usable CPU.

A neighbour query screens every row in float32, cuts the rows whose
screened cosine cannot reach the top ``k``, and ranks the rest exactly in
float64 (see :func:`nearest_neighbors`). A screen of more than
``_SPLIT_ENTRIES`` entries, such as a BERT-sized table's, is computed in
contiguous row blocks, one per usable CPU at most, on short-lived threads
that are joined before the query returns. This module is the package's
only user of threads and only starter of processes, so no thread is alive
when the text loader forks its workers.
"""

import collections
import contextvars
import os
import re
import threading
from typing import NamedTuple

import numpy as np

from . import container, linalg
from .errors import (
    DimensionError,
    EmptyInputError,
    OutOfVocabularyError,
    ParseError,
    ZeroVectorError,
)
from .linalg import Matrix

__all__ = [
    "EmbeddingTable",
    "Neighbor",
    "TokenFilter",
    "token_filter",
    "load_embeddings_text",
    "save_embeddings_text",
    "load_embeddings_binary",
    "save_embeddings_binary",
    "nearest_neighbors",
]

# The size of the runs of whole lines the text loader checks and parses.
_CHUNK_BYTES = 16 << 20

# Whitespace in a token: \s matches exactly the characters str.isspace() does.
_SPACE_RE = re.compile(r"\s")
_NEWLINE = re.compile(b"\n")

# Rows widened to float64 at a time while a table's query state is built.
_BLOCK_ROWS = 1024

# A float32 table of more entries than this screens its stored rows when
# every nonzero row's norm lies in the range below (see _screen_error), and
# unit rows otherwise. A smaller table's unit rows take at most 256 KiB and
# 0.3 ms to build, and save each query about 5 us of a 50 us query (194 x 32):
# the query row's rounding, the weighting and the error-state switch.
_UNIT_ROWS_UP_TO = 1 << 16
_STORED_NORMS = (2.0**-60, 2.0**60)

# A table of more entries than this has its norms pass and its screen split
# into contiguous row blocks, one per started _SPLIT_ENTRIES entries and at
# most one per usable CPU (see _row_norms and _screen_into). With one BLAS
# thread on a 2-vCPU VM, a screen in two blocks broke even at about 2**21.6
# entries (4096 x 768, 0.47 ms either way), took 0.67 ms to 0.53 ms at 2**22
# and 7.2 ms to 4.3 ms at 30522 x 768; starting and joining a thread costs
# about 0.1 ms. A BLAS left to run one thread per CPU spreads each block
# again, two threads to a CPU: there the p90 of 100 queries at 30522 x 768
# went from 3.4-4.3 ms unsplit to 4.1-12 ms split (p50 3.2-4.0 ms either way).
_SPLIT_ENTRIES = 1 << 22


def token_index(vocab):
    """Map each token to its position; reject empty, spaced or repeated tokens."""
    try:
        joined = "".join(vocab)  # one search for whitespace, not one per token
    except TypeError:  # a token that is not a str
        joined = None
    if joined is None or not all(vocab) or _SPACE_RE.search(joined):
        bad = next(t for t in vocab if not isinstance(t, str) or not t or _SPACE_RE.search(t))
        raise ValueError(f"invalid token: {bad!r}")
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
        V x D finite real matrix; row i embeds vocab[i]. The table keeps
        the read-only float64 array of ``Matrix(rows)``, so later writes to
        ``rows`` do not reach it; a Matrix is shared.

    The loaders hand their array over without a copy: float64 from text,
    float32 from EMB1. The state neighbour queries need is built on the
    first query and kept.
    """

    __slots__ = ("_vocab", "_index", "_array", "_screen", "_candidate_bias")

    def __init__(self, vocab, rows):
        self._adopt(vocab, Matrix(rows).array)

    @classmethod
    def _take(cls, vocab, arr):
        """A table over ``arr`` itself, for a finite float array nothing else
        writes.

        The loaders hand over the array they just filled and checked: no
        table-sized copy, no second finiteness pass. ``arr`` becomes
        read-only.
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
        arr.flags.writeable = False

        self._vocab = vocab
        self._index = index
        self._array = arr
        self._screen = None
        self._candidate_bias = {}

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

    def gather(self, tokens):
        """The rows of ``tokens``, in order, as one float64 Matrix."""
        rows = self._array[[self.index_of(t) for t in tokens]]
        return Matrix._take(rows.astype(np.float64, copy=False))

    def lookup(self, token):
        """Return the embedding row for ``token`` as a Vector."""
        return self.gather((token,)).row(0)

    def _query_state(self):
        """The rows the screen multiplies and their float32 weight per row
        (None for unit rows), each row's power-of-two scale (None when every
        scale is 1) and the float64 norm of its scaled row, and the screen's
        error bound.

        Built on the first query. A float32 table of more than
        ``_UNIT_ROWS_UP_TO`` entries whose nonzero rows all have norms in
        ``_STORED_NORMS`` screens its stored rows themselves, each weighted by
        1/norm in float32 (0 for a zero row): no V x D copy is made. Any other
        table screens read-only float32 unit rows, a zero row keeping a zero
        unit row; see :func:`_row_norms` for the norms and scales.
        """
        if self._screen is None:
            arr = self._array
            big32 = arr.dtype == np.float32 and arr.size > _UNIT_ROWS_UP_TO
            scale, norms, unit = _row_norms(arr, unit_rows=not big32)
            nonzero = norms[norms > 0.0]
            lo, hi = _STORED_NORMS
            if big32 and (not nonzero.size or lo <= nonzero.min() and nonzero.max() <= hi):
                screen = arr
                weight = (1.0 / np.where(norms > 0.0, norms, np.inf)).astype(np.float32)
                weight.flags.writeable = False
            else:
                if unit is None:
                    scale, norms, unit = _row_norms(arr, unit_rows=True)
                screen, weight = unit, None
            self._screen = screen, weight, scale, norms, _screen_error(arr.shape[1])
        return self._screen

    def _candidates(self, filter):
        """A read-only float32 row of 0 for each row a query may return and
        -inf for the others (zero rows and the rows ``filter`` drops), and
        the number of 0s.

        Cached per TokenFilter rule tuple, no filter counting as no rules;
        any other callable is asked about every token on every call.
        """
        cached = filter is None or type(filter) is TokenFilter
        key = filter.rules if cached and filter is not None else ()
        if cached and key in self._candidate_bias:
            return self._candidate_bias[key]
        dead = self._query_state()[3] == 0.0
        if filter is not None:
            dead |= ~np.fromiter(map(filter, self._vocab), dtype=bool, count=self.V)
        bias = np.where(dead, np.float32(-np.inf), np.float32(0.0))
        bias.flags.writeable = False
        got = bias, self.V - int(np.count_nonzero(dead))
        if cached:
            self._candidate_bias[key] = got
        return got

    def __eq__(self, other):
        if isinstance(other, EmbeddingTable):
            return self._vocab == other._vocab and np.array_equal(
                self._array, other._array
            )
        return NotImplemented

    def __repr__(self):
        return f"EmbeddingTable(V={self.V}, D={self.D})"


class Neighbor(NamedTuple):
    """One ranked neighbour: a token and its cosine similarity to the query."""

    token: str
    similarity: float


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
        if token.startswith(self._prefixes):
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

    ``source`` is anything :func:`container.read` takes. Line 1 is
    ``<V> <D>``; then exactly V lines of ``<token> <x1> ... <xD>``
    with single-space separation and ``\\n`` line endings. ``lowercase``
    folds tokens at ingest (later duplicates of a folded token are rejected).
    One ordered pass checks runs of whole lines and parses their values into
    a preallocated table, inline or, past one run, on forked workers.

    Raises ParseError naming the first faulty line on any malformation.
    """
    raw = container.read(source)
    end = m.start() if (m := _NEWLINE.search(raw)) else len(raw)
    first = container.read_text(raw[:end])
    header = first.split(" ")
    if len(header) != 2 or not all(f.isascii() and f.isdigit() for f in header):
        raise ParseError(f"header must be '<V> <D>', got {first!r}", line=1)
    V, D = (container.build(int, f, line=1) for f in header)
    if V < 1 or D < 1:
        raise ParseError(f"V and D must be positive, got {V} {D}", line=1)

    cuts = [end + 1]  # runs of whole lines, each from one cut to the next
    while cuts[-1] < len(raw):
        m = _NEWLINE.search(raw, cuts[-1] + _CHUNK_BYTES - 1)
        cuts.append(m.end() if m else len(raw))
    # A row takes at least 2D + 1 bytes: a header cannot make the table large,
    # nor wide, as a table of no rows needs no columns.
    rows = min(V, (len(raw) - end) // (2 * D + 1))
    arr, pool = _table_and_pool(raw, (rows, D if rows else 0), len(cuts) - 1)
    vocab, fault = {}, None  # token -> row; the fault that stopped the scan

    def scan():  # each run's sound rows as (start, end, first row), in file order
        nonlocal fault
        for pos, stop in zip(cuts, cuts[1:]):
            # The final row may lack its newline.
            chunk = bytes(raw[pos:stop]) if raw[stop - 1] == 10 else bytes(raw[pos:]) + b"\n"
            n, e, fault = _scan_rows(chunk, V, D, vocab, lowercase)
            if n:
                yield pos, pos + e, len(vocab) - n
            if fault is not None:
                return

    try:
        if pool is None:  # lazy: a failed parse stops the scan
            parsed = map(lambda job: (*job, _parse_values(raw, arr, *job)), scan())
        else:
            parsed = _lazy_map(pool, _parse_inherited, scan(), 2 * _usable_cpus())
        # A value fault precedes the row that stopped the scan: the first faulty line wins.
        for a, b, row, ok in parsed:
            if not ok:
                raise _value_fault(bytes(raw[a:b]), D, row + 2, lowercase)
        if fault is not None:
            raise fault
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if (n := len(vocab)) < V:
        raise ParseError(f"expected {V} embedding rows, found {n}", line=n + 2)
    return container.build(EmbeddingTable._take, vocab, arr)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _table_and_pool(raw, shape, chunks):
    """The table to fill, and the worker pool to fill it or None to parse inline.

    One worker per usable CPU, at most one per chunk. The workers are forked,
    so they inherit ``raw`` and the table, which sits in shared anonymous
    memory, instead of receiving copies.
    """
    workers = min(_usable_cpus(), chunks)
    if workers > 1:
        import mmap
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            size = max(8 * shape[0] * shape[1], 1)  # mmap refuses a length of 0
            arr = np.ndarray(shape, buffer=mmap.mmap(-1, size))
            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_inherit,
                initargs=(raw, arr),
            )
            return arr, pool
    return np.empty(shape), None


_inherited = None  # (raw, table) in a worker


def _inherit(raw, arr):
    global _inherited
    _inherited = raw, arr


def _parse_inherited(job):
    """``job`` and whether its values parsed, in a worker (see _parse_values)."""
    return *job, _parse_values(*_inherited, *job)


def _lazy_map(pool, fn, jobs, ahead):
    """``pool.map(fn, jobs)``, drawing a job only while fewer than ``ahead`` are
    unanswered (``pool.map`` draws every job before it yields the first)."""
    futures = collections.deque()
    for job in jobs:
        futures.append(pool.submit(fn, job))
        if len(futures) == ahead:
            yield futures.popleft().result()
    yield from (future.result() for future in futures)


def _scan_rows(chunk, V, D, vocab, lowercase):
    """Check whole ``\\n``-ended rows in order, adding their tokens to ``vocab``.

    Array scans and the token loop find the leading rows whose layout and
    token are sound; ``_parse_values`` parses their values. Returns the
    number of those rows, the offset of the newline ending the last of
    them, and the ParseError of the row after them (None if there is none).
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
    if stop == room < len(nl):
        fault = ParseError(f"expected {V} embedding rows, found more", line=V + 2)
    elif stop < len(nl):
        fault = _row_fault(chunk[s[stop] : e[stop]], D, line + stop, vocab, lowercase)
    else:
        fault = None
    return stop, e[stop - 1] if stop else 0, fault


def _parse_values(raw, arr, a, b, row):
    """Parse the values of the rows ``raw[a:b]`` into ``arr`` from ``row`` on.

    The rows passed ``_scan_rows`` and are joined by ``\\n``. Returns
    whether every value parsed and is finite; if not, nothing is written.
    """
    rests = [r.partition(b" ")[2].decode() for r in bytes(raw[a:b]).split(b"\n")]
    try:
        vals = np.loadtxt(rests, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return False
    if not np.isfinite(vals).all():
        return False
    arr[row : row + len(vals)] = vals
    return True


def _value_fault(rows, D, line, lowercase):
    """The ParseError of the first of ``rows`` whose values are faulty."""
    for i, row in enumerate(rows.split(b"\n"), line):
        if fault := _row_fault(row, D, i, (), lowercase):
            return fault
    return ParseError("values do not parse", line=line)


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
    try:
        for field in fields:
            container.decimal(field)
    except ValueError as exc:
        return ParseError(str(exc), line=line)


def save_embeddings_text(table):
    """Serialize a table to the text format as bytes.

    Floats are written with 17 significant digits, enough for the
    load(save(t)) round-trip to be exact, well inside the 1e-8 contract.
    """
    rows = (f"{t} {container._decimals(x.tolist())}\n" for t, x in zip(table.vocab, table._array))
    return f"{table.V} {table.D}\n{''.join(rows)}".encode("utf-8")


def load_embeddings_binary(source, lowercase=False):
    """Parse the EMB1 binary embedding format into an EmbeddingTable.

    ``source`` is anything :func:`container.read` takes; it is read once,
    and the table's array is an aligned view of that read where the
    payload allows it (see :class:`container.Reader`).
    ``lowercase`` folds the vocabulary as :func:`load_embeddings_text` does;
    two tokens that fold alike are a ParseError.
    """
    r = container.Reader(source, container.EMB1)
    V, D = r.u64s(2, "V and D")
    vocab = r.names(V, "vocabulary")
    if lowercase:
        vocab = [t.lower() for t in vocab]
    # float32 holds these values exactly: the table keeps the aligned array.
    arr = r.floats(V * D, "<f4", "matrix data").reshape(V, D)
    r.end()
    return container.build(EmbeddingTable._take, vocab, arr)


def save_embeddings_binary(table):
    """Serialize a table to the EMB1 binary format as bytes.

    Matrix entries are stored as little-endian float32; vocabulary entries
    are UTF-8 with a little-endian u32 byte-length prefix. A table with a
    value beyond float32 is a ValueError naming the first such row.
    """
    try:
        rows = container.floats(table._array, "<f4")
    except ValueError as exc:
        with np.errstate(over="ignore"):
            fits = np.isfinite(table._array.astype(np.float32)).all(axis=1)
        raise ValueError(f"row {table.vocab[fits.argmin()]!r}: {exc}") from None
    head = container.EMB1 + container.u64s(table.V, table.D)
    return head + container.names(table.vocab) + rows


def _row_norms(arr, unit_rows):
    """Each row's power-of-two scale (None when every scale is 1) and the
    float64 norm of its scaled row, and with ``unit_rows`` the read-only
    float32 unit rows (else None).

    The rows are widened to float64 in blocks of ``_BLOCK_ROWS``, so the
    norms are the same bits whether they are stored as float32 or float64,
    and whether a large table's blocks are spread over several CPUs (as
    :func:`_in_threads` runs them) or not. The scales are
    :func:`linalg._row_scales`' rule, under which every float32 row keeps
    scale 1. A zero row has norm 0 and a zero unit row.
    """
    V, D = arr.shape
    unit = np.empty((V, D), dtype=np.float32) if unit_rows else None
    scale, norms = np.ones(V), np.empty(V)

    def fill(start, stop):
        buf = np.empty((min(stop - start, _BLOCK_ROWS), D))
        for a in range(start, stop, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, stop)
            rows = buf[: b - a]
            np.copyto(rows, arr[a:b])
            ss = np.einsum("ij,ij->i", rows, rows)
            s = linalg._row_scales(rows, ss)
            if s is not None:
                odd = np.flatnonzero(s != 1.0)
                rows[odd] *= s[odd, None]
                ss[odd] = np.einsum("ij,ij->i", rows[odd], rows[odd])
                scale[a:b] = s
            norms[a:b] = n = np.sqrt(ss)
            if unit is not None:
                rows *= (1.0 / np.where(n > 0.0, n, 1.0))[:, None]
                # Each entry to a multiple of 2**-63, so a product of two
                # nonzero ones stays a normal float32.
                rows += 2.0**-10
                rows -= 2.0**-10
                unit[a:b] = rows

    # whole blocks of _BLOCK_ROWS to each thread
    runs, blocks = -(-V // _BLOCK_ROWS), _blocks(arr.size)
    edges = [min(V, _BLOCK_ROWS * (runs * i // blocks)) for i in range(blocks + 1)]
    with np.errstate(under="ignore"):  # squares far below the row's largest
        _in_threads(fill, edges)
    if unit is not None:
        unit.flags.writeable = False
    return (None if (scale == 1.0).all() else scale), norms, unit


def _blocks(entries):
    """The number of row blocks to split work on ``entries`` entries into:
    one per started ``_SPLIT_ENTRIES`` entries, at most one per usable CPU."""
    return min(_usable_cpus(), -(-entries // _SPLIT_ENTRIES))


def _screen_into(screen, q, out):
    """Write ``screen @ q`` into ``out``, one float32 mat-vec per row block.

    A screen of more than ``_SPLIT_ENTRIES`` entries is split into
    contiguous blocks, one per usable CPU at most (see :func:`_in_threads`);
    a smaller screen is one block, a single ``np.matmul``. A block may round
    its sums in another order than the whole screen would, which
    ``_screen_error`` allows for.
    """
    if screen.size <= _SPLIT_ENTRIES:
        np.matmul(screen, q, out=out)  # a small table's whole query is 30 us
        return
    V, blocks = len(screen), _blocks(screen.size)
    edges = [V * i // blocks for i in range(blocks + 1)]
    _in_threads(lambda a, b: np.matmul(screen[a:b], q, out=out[a:b]), edges)


def _in_threads(work, edges):
    """Run ``work(a, b)`` for each block ``edges[i]:edges[i + 1]``.

    This thread runs the first block; a short-lived thread runs each other
    one, in a copy of this thread's context, so under the same numpy error
    state. Every started thread is joined before this returns, and the
    first exception any block raised is raised here.
    """
    errors = []

    def run(a, b):
        try:
            work(a, b)
        except BaseException as exc:  # raised in the caller, not lost in the thread
            errors.append(exc)

    started = []
    try:
        for a, b in zip(edges[1:-1], edges[2:]):
            t = threading.Thread(target=contextvars.copy_context().run, args=(run, a, b))
            t.start()
            started.append(t)
        work(edges[0], edges[1])
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]


def _screen_error(D):
    """The bound eps on |screened - ranked cosine| of one row, at dimension D.

    With u = 2**-24, a float32 dot product of length D errs by at most
    gamma_D = D*u / (1 - D*u) times the dot of the two rows' absolute values
    (Higham 2002, section 3.1), so by gamma_D times the product of their
    norms. The float64 score the ranking uses lies within (2D + 7) * 2**-53
    of the exact cosine.

    Unit rows: each stored unit-row entry is within a relative 1.01u of the
    exact unit vector's, or within 2**-63 of it, and their dot adds gamma_D.
    While D*u <= 1/4 the sum stays below (D + 4)u / (1 - D*u).

    Stored float32 rows: the screen is fl(fl(x . q) * w), x a stored row of
    norm n, q the float32 unit query row and w the float32 1/n. Rounding q
    costs u (by Cauchy-Schwarz), the dot gamma_D, and w and the product u
    each on a value within 1 + gamma_D + u of the cosine: together
    gamma_D + 3u + 3u*gamma_D, and (D + 4)u / (1 - D*u) exceeds that by
    u / (1 - D*u). That margin covers what is left while D*u <= 1/4: the
    ranking's error, the float64 norms' (about D * 2**-53 each), entries of
    q that round below float32's normal range (by at most 2**-150 each), and
    products and sums below that range, rounded or flushed to zero, which
    move the dot by less than D * 2**-125, at most D * 2**-65 of n for
    n >= 2**-60. With n <= 2**60 no product or sum overflows and w is a
    normal float32; a table with a row outside that range
    (``_STORED_NORMS``) screens unit rows.

    Higham's bound holds for a dot product summed in any order. So a screen
    computed in row blocks, or by a BLAS that orders its sums otherwise, may
    differ in its last bits and keep other rows past the cut, but every row
    of the top ``k`` still survives it, and the ranked result is the same.

    Past D*u = 1/4, 2D covers any difference, so no row is cut.
    """
    u = 2.0**-24
    return (D + 4) * u / (1 - D * u) if D * u <= 0.25 else 2.0 * D


def nearest_neighbors(table, token, k, filter=None):
    """Top-k vocabulary tokens by cosine similarity to ``token``'s row.

    Returns a tuple of :class:`Neighbor` (token, similarity) pairs, most
    similar first. The query token is always excluded. ``filter``, when
    given, is applied to candidates before ranking. Ties break by vocabulary
    insertion order. Candidate rows with zero norm have no direction and are
    skipped; a zero-norm query raises ZeroVectorError.

    One float32 mat-vec screens every candidate: over the stored rows of a
    float32 table, each product then weighted by its row's float32 1/norm,
    or over cached unit rows (see ``EmbeddingTable._query_state``); a large
    screen is computed in row blocks on several CPUs (``_screen_into``). A
    screened cosine is within eps (``_screen_error``) of the ranked one,
    so each row of the top k screens at least sigma_k - 2 eps, sigma_k
    being the k-th highest screened cosine. Only those rows are scored
    again in float64, each from its own exact row and norm, then clipped
    to [-1, 1] and sorted: the result is that of scoring every row so.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    qi = table.index_of(token)
    screen, weight, scale, norms, eps = table._query_state()
    if norms[qi] == 0.0:
        raise ZeroVectorError(f"query token {token!r} has a zero-norm row")
    bias, live = table._candidates(filter)
    live -= bias[qi] == 0.0  # the query is never its own neighbour
    if live == 0:
        return ()

    # The query row over its norm: rounded to float32 it is the unit query
    # row a stored-row screen multiplies; the exact ranking uses it as it is.
    arr = table._array
    q = (arr[qi] if scale is None else arr[qi] * scale[qi]) / norms[qi]
    screened = np.empty(len(screen), dtype=np.float32)
    if weight is None:
        _screen_into(screen, screen[qi], screened)
    else:
        with np.errstate(under="ignore"):  # products below float32's normal range
            _screen_into(screen, q.astype(np.float32), screened)
            screened *= weight
    screened += bias
    screened[qi] = -np.inf
    m = min(k, live)
    # The comparison rounds the cut to float32: by at most 2**-24.
    cut = float(np.partition(screened, -m)[-m]) - 2.0 * eps - 2.0**-24
    (cand,) = (screened >= cut).nonzero()

    # Scaling by a power of two is exact, and add.reduce sums each row on its
    # own: a row's score does not depend on which other rows survived.
    rows = arr[cand] if scale is None else arr[cand] * scale[cand, None]
    sims = np.add.reduce(rows * q, axis=1)
    sims /= norms[cand]
    np.minimum(sims, 1.0, out=sims)  # clip to [-1, 1]
    np.maximum(sims, -1.0, out=sims)
    # Stable sort on descending similarity: equal scores keep vocab order.
    order = np.argsort(-sims, kind="stable")[:k].tolist()
    vocab, c, s = table.vocab, cand.tolist(), sims.tolist()
    return tuple(Neighbor(vocab[c[j]], s[j]) for j in order)
