"""Dense exact linear algebra over GF(2) with bit-packed rows.

Rows are stored little-endian in uint64 words, so one elimination step is a
vectorized XOR over a whole block of rows.  Coboundary matrices with tens of
thousands of rows reduce in seconds this way, and every result is exact.

Vectors are plain numpy uint8 arrays of 0/1 entries.  Bit j of word w of a row
holds column 64*w + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatchError

_WORD = 64


def _nwords(cols: int) -> int:
    return (cols + _WORD - 1) // _WORD


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into a (rows, nwords) uint64 array."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8) & 1
    rows, cols = bits.shape
    nw = _nwords(cols)
    if nw == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    padded = np.zeros((rows, nw * _WORD), dtype=np.uint8)
    padded[:, :cols] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of pack_rows; returns a (rows, cols) uint8 array."""
    rows = words.shape[0]
    if cols == 0 or rows == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    raw = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(raw[:, :cols])


def _column_bits(words: np.ndarray, c: int) -> np.ndarray:
    return ((words[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(np.uint8)


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
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        m = cls(n, n)
        for i in range(n):
            m.words[i, i >> 6] |= np.uint64(1) << np.uint64(i & 63)
        return m

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

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        bit = np.uint64(1) << np.uint64(j & 63)
        if value & 1:
            self.words[i, j >> 6] |= bit
        else:
            self.words[i, j >> 6] &= ~bit

    def column(self, c: int) -> np.ndarray:
        return _column_bits(self.words, c)

    def row_dense(self, i: int) -> np.ndarray:
        return unpack_rows(self.words[i : i + 1], self.cols)[0]

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

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_dense(self.to_dense().T)

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product over GF(2)."""
        if self.cols != other.rows:
            raise ModelMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = np.zeros((self.rows, other.words.shape[1]), dtype=np.uint64)
        for j in range(self.cols):
            mask = self.column(j).astype(bool)
            if mask.any():
                out[mask] ^= other.words[j]
        return F2Matrix(self.rows, other.cols, out)

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        """Matrix times column vector; v has length cols, result length rows."""
        v = np.asarray(v, dtype=np.uint8)
        if v.shape != (self.cols,):
            raise ModelMismatchError(
                f"vector of length {v.shape} against {self.rows}x{self.cols}"
            )
        if self.rows == 0 or self.cols == 0:
            return np.zeros(self.rows, dtype=np.uint8)
        pv = pack_rows(v[None, :])[0]
        ands = self.words & pv
        return (np.bitwise_count(ands).sum(axis=1) & 1).astype(np.uint8)

    def stack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise ModelMismatchError("column mismatch in stack")
        return F2Matrix(
            self.rows + other.rows, self.cols, np.vstack([self.words, other.words])
        )


@dataclass
class EchelonResult:
    rank: int
    echelon: "F2Matrix"
    transform: "F2Matrix | None"
    pivots: tuple[int, ...]


def rank_and_echelon(m: F2Matrix, want_transform: bool = True) -> EchelonResult:
    """Reduced row echelon form with an invertible row transform.

    Pivoting is deterministic: leftmost available column, lowest row index.
    The returned transform T satisfies T * m = echelon and is invertible.
    """
    R = m.words.copy()
    T = F2Matrix.identity(m.rows).words if want_transform else None
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        col = _column_bits(R, c)
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
            col[[r, p]] = col[[p, r]]
            if T is not None:
                T[[r, p]] = T[[p, r]]
        mask = col.astype(bool)
        mask[r] = False
        if mask.any():
            R[mask] ^= R[r]
            if T is not None:
                T[mask] ^= T[r]
        pivots.append(c)
        r += 1
    ech = F2Matrix(m.rows, m.cols, R)
    trans = F2Matrix(m.rows, m.rows, T) if T is not None else None
    return EchelonResult(len(pivots), ech, trans, tuple(pivots))


def rank(m: F2Matrix) -> int:
    return rank_and_echelon(m, want_transform=False).rank


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """Basis of the right kernel, one vector per row, deterministic order."""
    res = rank_and_echelon(m, want_transform=False)
    piv = set(res.pivots)
    free = [c for c in range(m.cols) if c not in piv]
    ech = res.echelon
    out = np.zeros((len(free), m.cols), dtype=np.uint8)
    for k, f in enumerate(free):
        out[k, f] = 1
        colbits = ech.column(f)
        for i, p in enumerate(res.pivots):
            if colbits[i]:
                out[k, p] = 1
    return F2Matrix.from_dense(out) if free else F2Matrix(0, m.cols)


class Subspace:
    """A subspace of GF(2)^n held as a reduced row echelon basis."""

    __slots__ = ("ambient_dim", "matrix", "pivots")

    def __init__(self, ambient_dim: int, matrix: F2Matrix, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.matrix = matrix
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of the given 0/1 vectors (any iterable of length-n arrays)."""
        rows = [np.asarray(v, dtype=np.uint8) for v in vectors]
        for v in rows:
            if v.shape != (ambient_dim,):
                raise ModelMismatchError("vector length does not match ambient dim")
        if not rows:
            return cls(ambient_dim, F2Matrix(0, ambient_dim), ())
        m = F2Matrix.from_dense(np.array(rows, dtype=np.uint8))
        res = rank_and_echelon(m, want_transform=False)
        keep = res.echelon.words[: res.rank]
        return cls(ambient_dim, F2Matrix(res.rank, ambient_dim, keep.copy()), res.pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, F2Matrix(0, ambient_dim), ())

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def basis_dense(self) -> np.ndarray:
        return self.matrix.to_dense()

    def contains(self, v: np.ndarray) -> bool:
        """Membership test; for coset questions translate v first."""
        v = np.asarray(v, dtype=np.uint8) & 1
        if v.shape != (self.ambient_dim,):
            raise ModelMismatchError("vector length does not match ambient dim")
        if self.ambient_dim == 0:
            return True
        rem = pack_rows(v[None, :])[0].copy()
        for i, p in enumerate(self.pivots):
            if (rem[p >> 6] >> np.uint64(p & 63)) & np.uint64(1):
                rem ^= self.matrix.words[i]
        return not rem.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of GF(2)^{self.ambient_dim})"


@dataclass
class AffineSolution:
    particular: np.ndarray
    kernel: Subspace


def _augmented_echelon(m: F2Matrix, rhs: np.ndarray) -> EchelonResult:
    """Echelon form of [m | rhs]; m x = rhs is inconsistent exactly when the
    last column is a pivot."""
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    if rhs.shape != (m.rows,):
        raise ModelMismatchError(f"rhs length {rhs.shape} against {m.rows} rows")
    aug = np.zeros((m.rows, _nwords(m.cols + 1)), dtype=np.uint64)
    aug[:, : m.words.shape[1]] = m.words
    c = m.cols
    aug[rhs.astype(bool), c >> 6] |= np.uint64(1) << np.uint64(c & 63)
    return rank_and_echelon(F2Matrix(m.rows, m.cols + 1, aug), want_transform=False)


def is_solvable(m: F2Matrix, rhs: np.ndarray) -> bool:
    """Whether m x = rhs has a solution: one echelon pass, no kernel basis."""
    return m.cols not in _augmented_echelon(m, rhs).pivots


def solve_affine(m: F2Matrix, rhs: np.ndarray) -> AffineSolution | None:
    """Solve m x = rhs over GF(2); None when inconsistent.

    Returns one particular solution plus the kernel of m, so the full solution
    set is particular + kernel.
    """
    res = _augmented_echelon(m, rhs)
    if m.cols in res.pivots:
        return None
    particular = np.zeros(m.cols, dtype=np.uint8)
    last_col = res.echelon.column(m.cols)
    for i, p in enumerate(res.pivots):
        if last_col[i]:
            particular[p] = 1
    ker = kernel_basis(m)
    if ker.rows:
        kernel = Subspace.from_vectors(m.cols, ker.to_dense())
    else:
        kernel = Subspace.zero(m.cols)
    return AffineSolution(particular, kernel)


class CosetReducer:
    """Reduce vectors against a fixed subspace while tracking extension coords.

    Built from a base subspace B and an ordered list of extension vectors
    e_1, ..., e_k whose classes are independent mod B.  coords(v) returns the
    unique c with v = sum c_i e_i (mod B), or raises if v is not in the span.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.nw = _nwords(ambient_dim)
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []
        self._coeffs: list[np.ndarray] = []
        self.n_ext = 0

    def _reduce(self, packed, coeff):
        for row, p, cf in zip(self._rows, self._pivots, self._coeffs):
            if (packed[p >> 6] >> np.uint64(p & 63)) & np.uint64(1):
                packed ^= row
                if cf.size:
                    coeff = coeff ^ cf if coeff.size else cf.copy()
        return packed, coeff

    def _first_bit(self, packed):
        for w in range(self.nw):
            x = int(packed[w])
            if x:
                return w * _WORD + (x & -x).bit_length() - 1
        return None

    def add_base(self, v: np.ndarray) -> bool:
        """Insert a base vector; returns True if it enlarged the span."""
        packed = pack_rows(np.asarray(v, dtype=np.uint8)[None, :])[0].copy()
        coeff = np.zeros(self.n_ext, dtype=np.uint8)
        packed, coeff = self._reduce(packed, coeff)
        p = self._first_bit(packed)
        if p is None:
            return False
        self._rows.append(packed)
        self._pivots.append(p)
        self._coeffs.append(coeff)
        return True

    def add_extension(self, v: np.ndarray) -> bool:
        """Insert an extension vector; returns True if independent mod the span."""
        packed = pack_rows(np.asarray(v, dtype=np.uint8)[None, :])[0].copy()
        coeff = np.zeros(self.n_ext, dtype=np.uint8)
        packed, coeff = self._reduce(packed, coeff)
        p = self._first_bit(packed)
        if p is None:
            return False
        idx = self.n_ext
        self.n_ext += 1
        for i in range(len(self._coeffs)):
            old = self._coeffs[i]
            grown = np.zeros(self.n_ext, dtype=np.uint8)
            grown[: old.size] = old
            self._coeffs[i] = grown
        grown = np.zeros(self.n_ext, dtype=np.uint8)
        grown[: coeff.size] = coeff
        grown[idx] = 1
        self._rows.append(packed)
        self._pivots.append(p)
        self._coeffs.append(grown)
        return True

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Extension coordinates of v mod the base; raises when out of span."""
        packed = pack_rows(np.asarray(v, dtype=np.uint8)[None, :])[0].copy()
        coeff = np.zeros(self.n_ext, dtype=np.uint8)
        packed, coeff = self._reduce(packed, coeff)
        if packed.any():
            raise ModelMismatchError("vector is not in the tracked span")
        out = np.zeros(self.n_ext, dtype=np.uint8)
        out[: coeff.size] = coeff
        return out
