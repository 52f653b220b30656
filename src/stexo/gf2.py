"""Dense exact linear algebra over GF(2) with bit-packed rows.

Rows are stored little-endian in uint64 words, so one elimination step is a
vectorized XOR over a whole block of rows.  rank_and_echelon does one Python
step per pivot.  On entering a word it copies that word of its live rows,
the only rows nonzero there and so the only ones a step in it can hit or
pivot on, into a strip kept in step with the rows.  It XORs only the words
from the pivot's own word on, as the row is zero left of it.  It crosses
columns that no free row has by one OR over the strip, and past the strip's
word by ORs over windows of words that double in width.  Coboundary
matrices with thousands of rows reduce in a fraction of a second, exactly.

Vectors are plain numpy uint8 arrays of 0/1 entries.  Bit j of word w of a row
holds column 64*w + j.

The elimination carries no row transform.  It pivots on the leftmost
available column and, in it, on the lowest-numbered vector that is not yet a
pivot, and logs each step as the indices of the vectors it is added to.  It
returns the span as a Subspace, the pivot rows in step order its basis,
which replays the log into its transform T (relations: only the additions
to free vectors) the first time it is read.  T keeps one row per spanning
vector, and under that pivot rule every row is canonical: a dependent
vector's row is its relation, e_j plus its unique expression in the earlier
independent vectors, and a pivot vector's row is its basis row's unique
combination of independent vectors.  So one reduction of a matrix's columns
gives its image, and its kernel and solutions as gathers of T's rows.

Every matrix product here is xor_combine's grouped reduction: F2Matrix.matmul
checks the shapes and runs it on the left factor's bits, a block of rows at
a time, against the right factor's packed rows.

Subspace is the one reduced basis: membership, residuals modulo the span,
coefficients over spanning vectors, cohomology coordinates and coboundary
tests all reduce vectors against it in one path, the same for one vector as
for a batch: the batch is converted, checked, read mod 2 and packed once,
and the basis rows its pivot bits pick are XORed into the packed rows in
place by one grouped reduction (as in xor_combine).  Against a zero subspace
the packed rows are the residual and nothing is combined.  Membership and
residuals read the basis alone; only spans asked for relations or
combinations pay for a replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ModelMismatchError

_WORD = 64
# bit j of a word, for j < _WORD
_BIT = tuple(np.uint64(1) << np.uint64(j) for j in range(_WORD))
# the words in the first window of _next_column, over all rows
_SCAN_WORDS = 1024
# the most bits F2Matrix.matmul unpacks at once
_UNPACK_BITS = 1 << 22


def _nwords(cols: int) -> int:
    return (cols + _WORD - 1) // _WORD


def _padded(bits: np.ndarray) -> np.ndarray:
    """The entries mod 2 of a (rows, cols) uint8 array, zero-padded on the
    right to whole words."""
    rows, cols = bits.shape
    out = np.zeros((rows, _nwords(cols) * _WORD), dtype=np.uint8)
    np.bitwise_and(bits, 1, out=out[:, :cols])
    return out


def _pack_padded(padded: np.ndarray) -> np.ndarray:
    """Rows of whole words of 0/1 entries as packed little-endian words."""
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into a (rows, nwords) uint64 array."""
    return _pack_padded(_padded(np.asarray(bits, dtype=np.uint8)))


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of pack_rows; returns a (rows, cols) uint8 array."""
    rows = words.shape[0]
    if cols == 0 or rows == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    raw = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(raw[:, :cols])


def _lowest_bit(word: int) -> int:
    return (word & -word).bit_length() - 1


def _next_column(words: np.ndarray, w: int, rows: np.ndarray) -> int:
    """The leftmost column from word w on with a bit set in some row that the
    mask rows picks, for such rows zero in every word before w; past the last
    column when there is none.  The words are ORed over the rows in windows
    that double in width; the first is _SCAN_WORDS words in all, and at least
    one word wide.  So a run of k empty words costs about log2(k) ORs and
    reads under twice its words or the first window: a tall matrix crosses a
    short run one word at a time, and a few rows cross a wide matrix in one
    OR."""
    width = max(1, _SCAN_WORDS // len(rows))
    while w < words.shape[1]:
        acc = np.bitwise_or.reduce(
            words[:, w : w + width], axis=0, where=rows[:, None], initial=0
        )
        nz = np.flatnonzero(acc)
        if nz.size:
            return _WORD * (w + int(nz[0])) + _lowest_bit(int(acc[nz[0]]))
        w += width
        width *= 2
    return _WORD * words.shape[1]


class F2Matrix:
    """A rows x cols matrix over GF(2) with bit-packed rows."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        if words is None:
            words = np.zeros((self.rows, _nwords(self.cols)), dtype=np.uint64)
        self.words = words

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        i = np.arange(n)
        return cls.from_entries(n, n, i, i)

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "F2Matrix":
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        rows, cols = bits.shape
        return cls(rows, cols, pack_rows(bits))

    @classmethod
    def from_entries(cls, rows: int, cols: int, r, c) -> "F2Matrix":
        """Matrix whose (i, j) entry is the parity of how often (i, j) is listed."""
        m = cls(rows, cols)
        c = np.asarray(c, dtype=np.int64)
        bits = np.left_shift(np.uint64(1), (c & 63).astype(np.uint64))
        np.bitwise_xor.at(m.words, (np.asarray(r, dtype=np.int64), c >> 6), bits)
        return m

    # -- access ------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.cols)

    def is_zero(self) -> bool:
        return not self.words.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    # -- arithmetic --------------------------------------------------------

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product over GF(2).  The left factor is unpacked
        _UNPACK_BITS at a time, so the product holds a block of its bits,
        not all of them."""
        if self.cols != other.rows:
            raise ModelMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = F2Matrix(self.rows, other.cols)
        block = max(1, _UNPACK_BITS // max(self.cols, 1))
        for start in range(0, self.rows, block):
            bits = unpack_rows(self.words[start : start + block], self.cols)
            _xor_into(out.words[start : start + block], bits, other.words)
        return out


def _replay(n: int, hits, ends, pivot_rows, free_only=False) -> np.ndarray:
    """T's words for an echelon run on n rows, replayed from its log: from the
    identity, step k adds row pivot_rows[k], as it then stands, to its hit
    rows hits[ends[k]:ends[k + 1]], one gather and XOR.  free_only skips the
    hits on rows that were already pivot rows (back-substitution): dependent
    rows, and pivot rows up to their own steps, only ever receive pivot rows
    as those stood at their own steps, so they come out the same."""
    rows = hits.astype(np.intp)
    if free_only:
        r = len(pivot_rows)
        steps = np.repeat(np.arange(r), np.diff(ends))
        pivot_step = np.full(n, r)
        pivot_step[list(pivot_rows)] = np.arange(r)
        keep = pivot_step[rows] > steps
        rows, ends = rows[keep], np.searchsorted(steps[keep], np.arange(r + 1))
    T = F2Matrix.identity(n).words
    bounds = ends.tolist()
    for p, a, b in zip(pivot_rows, bounds, bounds[1:]):
        if b > a:
            T[rows[a:b]] ^= T[p]
    return T


def rank_and_echelon(m: F2Matrix) -> Subspace:
    """The span of the rows of m, reduced to row echelon form, with a log of
    its row operations: the basis is the pivot rows in step order.

    Pivoting is deterministic: the leftmost available column, and in it the
    lowest-numbered row that is not yet a pivot row.  No row moves, so a
    free row only ever receives pivot rows of lower number: a row left zero
    is dependent, its additions expressing it in the earlier independent
    rows, and the pivot rows (pivot_rows[k] for echelon row k) are exactly
    the rows outside the span of the earlier ones.  At the end a pivot row
    holds its echelon row and every free row is zero.

    Free rows are zero left of column c, so one step reads only the word
    column w of c, and only its live rows, those nonzero in word w when the
    sweep enters it: a step adds the live pivot row only to rows with bit
    c, so the rest stay zero there.  Their words w are copied into a strip,
    XORed as the rows are, and each step's mask, candidates and hits run
    over them alone.  The pivot row clears bit c from the other rows by XOR
    on words w: (it is zero left of its word), and the step appends those
    rows to the log (a buffer of the smallest unsigned type that holds the
    row count, doubled when full and trimmed at the end) and its end offset.
    An empty column is crossed by one OR of the strip over the free live
    rows: it jumps to the lowest bit set there.  When they are zero in the
    rest of the word, _next_column finds the leftmost bit set in the free
    rows in the later words, in windows of words that double in width: a
    tall matrix crosses a short run one word at a time, and a run of k words
    costs log2(k) ORs.
    """
    R = m.words.copy()
    free = np.ones(m.rows, dtype=bool)
    hits_log = np.empty(m.rows, dtype=np.min_scalar_type(m.rows))
    ends = np.zeros(min(m.rows, m.cols) + 1, dtype=np.intp)
    pivots, pivot_rows = [], []
    c, w, used = 0, -1, 0
    while c < m.cols and len(pivots) < m.rows:
        if c >> 6 != w:
            w = c >> 6
            live = R[:, w].nonzero()[0]
            if not live.size:
                c = _next_column(R, w + 1, free)
                continue
            # the live rows' word w and free flags, and the step's buffers
            strip, live_free = R[live, w], free[live]
            masked = np.empty(live.size, dtype=np.uint64)
            hits, candidates = np.empty((2, live.size), dtype=bool)
        np.bitwise_and(strip, _BIT[c & 63], out=masked)
        np.not_equal(masked, 0, out=hits)
        np.logical_and(hits, live_free, out=candidates)
        i = int(candidates.argmax())
        if not candidates[i]:
            # free rows are zero up to column c: the next bit set in them in
            # this word, or in the words after it
            rest = int(np.bitwise_or.reduce(strip, where=live_free, initial=0))
            c = _WORD * w + _lowest_bit(rest) if rest else _next_column(R, w + 1, free)
            continue
        p = int(live[i])
        hits[i] = False
        hit = hits.nonzero()[0]
        if hit.size:
            rows = live[hit]
            R[rows, w:] ^= R[p, w:]
            strip[hit] ^= strip[i]
            if used + hit.size > hits_log.size:
                hits_log = np.resize(hits_log, 2 * (used + hit.size))
            hits_log[used : used + hit.size] = rows
            used += hit.size
        free[p] = live_free[i] = False
        pivots.append(c)
        pivot_rows.append(p)
        ends[len(pivots)] = used
        c += 1
    r = len(pivots)
    basis = F2Matrix(r, m.cols, R[pivot_rows])
    del R  # so that trimming the log to its hits never holds R beside it
    log = (m.rows, hits_log[:used].copy(), ends[: r + 1].copy())
    return Subspace(m.cols, basis, tuple(pivots), tuple(pivot_rows), log)


def rank(m: F2Matrix) -> int:
    return rank_and_echelon(m).dim


def _xor_into(out: np.ndarray, coeffs: np.ndarray, rows: np.ndarray) -> None:
    # out[b] ^= the rows that coeffs[b] picks, one reduceat over the picks
    # grouped by b (np.nonzero lists them row by row)
    b, j = coeffs.nonzero()
    if b.size:
        starts = np.empty(b.size, dtype=bool)
        starts[0] = True
        np.not_equal(b[1:], b[:-1], out=starts[1:])
        starts = starts.nonzero()[0]
        out[b[starts]] ^= np.bitwise_xor.reduceat(rows.take(j, axis=0), starts, axis=0)


def xor_combine(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coeffs * rows over GF(2): row b XORs the rows that the 0/1 row coeffs[b]
    picks.  rows may be 0/1 vectors or packed words."""
    out = np.zeros((len(coeffs), rows.shape[1]), dtype=rows.dtype)
    _xor_into(out, np.asarray(coeffs), rows)
    return out


def _batch(vectors, n: int) -> np.ndarray:
    rows = np.asarray(vectors, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ModelMismatchError("vector length does not match ambient dim")
    return rows


@dataclass
class Subspace:
    """A subspace of GF(2)^n held as a reduced row echelon basis of the
    vectors that span it, with the row transform T of that reduction, built
    from the reduction's log the first time it is read.

    Basis row k was reduced from spanning vector pivot_rows[k]; these are
    the independent vectors, those outside the span of the earlier ones.
    _log is (n, hits, ends): the n spanning vectors, and the vectors that
    step k adds pivot_rows[k] to, hits[ends[k]:ends[k + 1]] (in the smallest
    unsigned type that holds the count n).

    Row i of T says which spanning vectors sum to what vector i was reduced
    to: a dependent vector's relation, or for pivot_rows[k] basis row k's
    unique combination of independent vectors.  The basis coefficients of a
    vector are its bits at the pivots, and it is a member exactly when that
    combination of basis rows rebuilds it.  So membership and residuals read
    the basis alone; relations and combination gather rows of T.
    """

    ambient_dim: int
    matrix: F2Matrix
    pivots: tuple[int, ...]
    pivot_rows: tuple[int, ...]
    _log: tuple = field(repr=False)

    def __post_init__(self):
        # the pivots as a read-only index array, for _reduce
        self._pivot_index = np.array(self.pivots, dtype=np.intp)
        self._pivot_index.setflags(write=False)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of the rows of an F2Matrix, of a 2-D 0/1 array, or of a nonempty
        list of vectors."""
        if isinstance(vectors, F2Matrix):
            if vectors.cols != ambient_dim:
                raise ModelMismatchError("vector length does not match ambient dim")
            m = vectors
        else:
            m = F2Matrix.from_dense(_batch(vectors, ambient_dim))
        return rank_and_echelon(m)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, np.zeros((0, ambient_dim), dtype=np.uint8))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def transform(self) -> F2Matrix:
        """T, one row per spanning vector and invertible: by the pivot rule,
        row pivot_rows[k] combines independent vectors into basis row k and
        a dependent vector's row is its relation.  The log is then dropped."""
        n, hits, ends = self._log
        self._log = None
        return F2Matrix(n, n, _replay(n, hits, ends, self.pivot_rows))

    def _reduce(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """(basis coefficients, packed residual) of each row of a batch.

        The residual is the row plus the basis rows its pivot bits pick: zero
        at every pivot, zero exactly for members, and linear in the row, so
        it is the row's representative modulo the subspace.  A zero subspace
        has no pivots, so the packed rows are their own residual.
        """
        rows = _padded(_batch(np.atleast_2d(vectors), self.ambient_dim))
        coeffs = rows.take(self._pivot_index, axis=1)
        residual = _pack_padded(rows)
        if self.dim:
            _xor_into(residual, coeffs, self.matrix.words)
        return coeffs, residual

    def _rows(self, vectors) -> np.ndarray:
        """The rows of a batch read mod 2: their residuals when dim is 0."""
        return _batch(np.atleast_2d(vectors), self.ambient_dim) & 1

    def contains(self, vectors):
        """Membership of one vector, or of each row of a batch."""
        residual = self._reduce(vectors)[1] if self.dim else self._rows(vectors)
        if np.ndim(vectors) == 1:
            return not residual.any()
        return ~residual.any(axis=1)

    def residual(self, vectors) -> np.ndarray:
        """The representative modulo the subspace of one vector, or of each
        row of a batch, as 0/1 entries."""
        if self.dim:
            out = unpack_rows(self._reduce(vectors)[1], self.ambient_dim)
        else:
            out = self._rows(vectors)
        return out[0] if np.ndim(vectors) == 1 else out

    @cached_property
    def relations(self) -> F2Matrix:
        """The relations among the spanning vectors, one row per vector j that
        depends on vectors 0..j-1, in increasing j: e_j plus its unique
        expression in the earlier independent vectors, T's row of j.
        Spanning vectors taken as the columns of a matrix, these rows are a
        basis of its kernel that is the identity on its free columns.  Before
        T is built, a replay of the hits on free rows, which keeps the log."""
        built = "transform" in vars(self)
        T = self.transform.words if built else _replay(*self._log, self.pivot_rows, free_only=True)
        dependent = np.delete(np.arange(len(T)), self.pivot_rows)
        return F2Matrix(len(dependent), len(T), T[dependent])

    def combination(self, vectors) -> np.ndarray:
        """The coefficients over the spanning vectors that rebuild one vector,
        or each row of a batch, zero on every dependent vector: the unique
        such, and the solution with zero free variables when the spanning
        vectors are a matrix's columns.  Raises when a vector lies outside
        the span."""
        coeffs, residual = self._reduce(vectors)
        if residual.any():
            raise ModelMismatchError("vector is not in the span")
        combiner = self.transform.words[list(self.pivot_rows)]
        out = unpack_rows(xor_combine(coeffs, combiner), self.transform.cols)
        return out[0] if np.ndim(vectors) == 1 else out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of GF(2)^{self.ambient_dim})"
