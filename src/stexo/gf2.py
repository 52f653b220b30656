"""Dense exact linear algebra over GF(2) with bit-packed rows.

Rows are stored little-endian in uint64 words, so one elimination step is a
vectorized XOR over a whole block of rows.  rank_and_echelon does one Python
step per pivot: it reads the pivot column's word of every row as one strip,
and XORs only the words from the pivot's own word on, since the pivot row is
zero left of it.  Coboundary matrices with thousands of rows reduce in a fraction
of a second this way, and every result is exact.

Vectors are plain numpy uint8 arrays of 0/1 entries.  Bit j of word w of a row
holds column 64*w + j.

The elimination carries no row transform.  Each pivot step logs, as one
packed bit row, the rows that had the pivot bit, so the log is never larger
than the transform; a Subspace builds its transform from that log the
first time it is read and then drops the log.

Every matrix product here is xor_combine: F2Matrix.matmul checks the shapes
and hands it the left factor's bits and the right factor's packed rows.

Subspace is the one reduced basis: membership, residuals modulo the span,
coefficients over spanning vectors, cohomology coordinates and coboundary
tests all reduce vectors against it in one path, the same for one vector as
for a batch: the batch is converted, checked, read mod 2 and packed once,
and the basis rows its pivot bits pick are XORed into the packed rows in
place by one grouped reduction (as in xor_combine).  Against a zero subspace
the packed rows are the residual and nothing is combined.  Membership and
residuals read the basis alone.  The transform holds the relations among
the spanning vectors, so one reduction of a matrix's columns gives its
image, kernel and solutions, and only spans asked for relations or
combinations pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ModelMismatchError

_WORD = 64


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


def _leftmost_column(words: np.ndarray, c: int) -> int:
    """The leftmost column with a bit set in some row, for rows that are zero
    in every column before c; past the last column when there is none."""
    w = c >> 6
    acc = np.bitwise_or.reduce(words[:, w:], axis=0)
    nz = np.flatnonzero(acc)
    if nz.size == 0:
        return _WORD * words.shape[1]
    word = int(acc[nz[0]])
    return _WORD * (w + int(nz[0])) + (word & -word).bit_length() - 1


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
        """Matrix product over GF(2)."""
        if self.cols != other.rows:
            raise ModelMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return F2Matrix(self.rows, other.cols, xor_combine(self.to_dense(), other.words))


# the most log bits _replay unpacks at once
_REPLAY_BITS = 1 << 22


def _replay(n: int, log: np.ndarray) -> F2Matrix:
    """The row transform of an echelon run on n rows, from its log: the
    swaps and additions of every pivot step applied to the identity.

    The log rows are unpacked a block at a time, and each row's pivot row
    (its first bit at or past the step) is found for the whole block at
    once.  Row i of the transform is kept at T[pos[i]], so a swap exchanges
    two entries of pos and moves no row; one step is then one gather and
    one XOR.
    """
    T = F2Matrix.identity(n).words
    pos = np.arange(n)
    block = max(1, _REPLAY_BITS // max(n, 1))
    for start in range(0, len(log), block):
        bits = np.unpackbits(
            log[start : start + block].view(np.uint8), axis=1, count=n, bitorder="little"
        )
        k, j = bits.nonzero()
        steps = np.arange(len(bits))
        # every log row holds its pivot row, so no row of the block is empty
        first = np.searchsorted(k, steps)
        pivot = np.minimum.reduceat(np.where(j >= k + start, j, n), first)
        added = j != pivot[k]
        bounds = np.searchsorted(k[added], np.append(steps, len(bits))).tolist()
        j = j[added]
        for step, p in enumerate(pivot.tolist()):
            r = start + step
            if p != r:
                pos[r], pos[p] = pos[p], pos[r]
            a, b = bounds[step], bounds[step + 1]
            if b > a:
                T[pos[j[a:b]]] ^= T[pos[r]]
    return F2Matrix(n, n, T[pos])


@dataclass
class EchelonResult:
    """The reduced row echelon form of a matrix, its rank and pivots, and the
    log of the reduction's row operations, from which Subspace builds the
    row transform."""

    rank: int
    echelon: "F2Matrix"
    pivots: tuple[int, ...]
    _log: tuple = field(repr=False, compare=False)


def rank_and_echelon(m: F2Matrix) -> EchelonResult:
    """Reduced row echelon form, with a log of its row operations.

    Pivoting is deterministic: leftmost available column, lowest row index.
    The transform that Subspace replays from the log satisfies
    T * m = echelon.

    Rows r: below the pivots found so far are zero left of column c, so one
    step reads only the word column of c: the first row with bit c set is the
    pivot, and it clears that bit from the other rows by XOR on words w: (the
    pivot row is zero left of its word).  Those rows, pivot included, are
    the step's log row.  An empty column jumps to the next bit set in rows
    r: of the same word, or past the word to the leftmost column of any
    later word.
    """
    R = m.words.copy()
    # one log row per pivot, and there are at most min(rows, cols) pivots
    log = np.zeros((min(m.rows, m.cols), _nwords(m.rows)), dtype=np.uint64)
    log_bytes = log.view(np.uint8)
    nbytes = (m.rows + 7) // 8
    pivots = []
    r = 0
    c = 0
    while c < m.cols and r < m.rows:
        w = c >> 6
        strip = R[:, w]
        hits = (strip & (np.uint64(1) << np.uint64(c & 63))) != 0
        p = r + int(np.argmax(hits[r:]))
        if not hits[p]:
            # rows r: are zero up to column c: skip the empty run in one pass
            rest = int(np.bitwise_or.reduce(strip[r:]))
            if rest:
                c = _WORD * w + (rest & -rest).bit_length() - 1
            else:
                c = _leftmost_column(R[r:], _WORD * (w + 1))
            continue
        log_bytes[r, :nbytes] = np.packbits(hits, bitorder="little")
        if p != r:
            R[[r, p]] = R[[p, r]]
        hits[p] = False
        rows = np.flatnonzero(hits)
        if rows.size:
            R[rows, w:] ^= R[r, w:]
        pivots.append(c)
        r += 1
        c += 1
    ech = F2Matrix(m.rows, m.cols, R)
    return EchelonResult(len(pivots), ech, tuple(pivots), (m.rows, log[:r]))


def rank(m: F2Matrix) -> int:
    return rank_and_echelon(m).rank


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

    _log is (n, log): the n spanning vectors, and per pivot step k one
    packed row of n bits, the rows with the pivot column's bit set just
    before step k.  The first of them at or past k is the row swapped into
    place k, and the others are the rows the pivot row is added to.  So the
    log has at most as many words as T, and a span pays for T only when
    someone asks for it.

    Rows of T up to dim say which spanning vectors sum to each basis row; the
    rows past dim span the relations among the spanning vectors.  The basis
    coefficients of a vector are its bits at the pivots, and it is a member
    exactly when that combination of basis rows rebuilds it.  So membership
    and residuals read the basis alone and never build T; relations and
    combination build it once.
    """

    ambient_dim: int
    matrix: F2Matrix
    pivots: tuple[int, ...]
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
        res = rank_and_echelon(m)
        r = res.rank
        basis = F2Matrix(r, ambient_dim, res.echelon.words[:r].copy())
        return cls(ambient_dim, basis, res.pivots, res._log)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, np.zeros((0, ambient_dim), dtype=np.uint8))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def transform(self) -> F2Matrix:
        """T with T * (the spanning vectors) = the echelon form; invertible.
        The log is dropped once T is built."""
        t = _replay(*self._log)
        self._log = None
        return t

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
    def _relations(self) -> tuple[F2Matrix, np.ndarray]:
        # the transform rows past dim in reduced echelon form with pivots
        # taken from the right, and those pivots: the dependent vectors
        n = self.transform.cols
        flipped = unpack_rows(self.transform.words[self.dim :], n)[:, ::-1]
        res = rank_and_echelon(F2Matrix.from_dense(flipped))
        rows = F2Matrix.from_dense(res.echelon.to_dense()[::-1, ::-1])
        return rows, n - 1 - np.array(res.pivots[::-1], dtype=np.intp)

    @property
    def relations(self) -> F2Matrix:
        """The relations among the spanning vectors, one row per vector j that
        depends on vectors 0..j-1, in increasing j: e_j plus its unique
        expression in the earlier independent vectors.  Spanning vectors
        taken as the columns of a matrix, these rows are a basis of its
        kernel that is the identity on its free columns."""
        return self._relations[0]

    @cached_property
    def _combiner(self) -> np.ndarray:
        # the transform rows of the basis, cleared at the dependent vectors
        rows, dependent = self._relations
        head = self.transform.words[: self.dim]
        return head ^ xor_combine(unpack_rows(head, rows.cols)[:, dependent], rows.words)

    def combination(self, vectors) -> np.ndarray:
        """The coefficients over the spanning vectors that rebuild one vector,
        or each row of a batch, zero on every dependent vector: the unique
        such, and the solution with zero free variables when the spanning
        vectors are a matrix's columns.  Raises when a vector lies outside
        the span."""
        coeffs, residual = self._reduce(vectors)
        if residual.any():
            raise ModelMismatchError("vector is not in the span")
        out = unpack_rows(xor_combine(coeffs, self._combiner), self.transform.cols)
        return out[0] if np.ndim(vectors) == 1 else out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of GF(2)^{self.ambient_dim})"
