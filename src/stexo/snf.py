"""Exact integer linear algebra: Smith normal form and homology of a chain pair.

Every matrix here is a numpy array: int64 where a bound proves the values
fit, Python-int object arrays where they need not.  The bound is carried as
a Python int beside each int64 array and advanced by scalar arithmetic at
every update, so no update has to rescan an array to stay inside int64; it
is recomputed from the array only when it would run out.

A boundary comes to the integer layer only as a FaceTable, the signed face
table it is read off; FaceTable.from_dense turns a hand-written matrix into
one.  The check boundary_out @ boundary_in = 0 reads the two tables alone:
each face of a face is gathered from the lower table and the signed terms
are summed per entry, exactly (_composite_entries).  Homology invariants
come from invariant factors alone, and FaceTable.invariant_factors is where
they are computed: the table is scattered into one dense int64 array, which
the elimination reduces in place: +-1 pivots, each updating only the rows
of its column at the nonzero columns of its row, on a live block that drops
the zero rows and columns once that halves it, stopping before an update
that could leave int64; the block that is left goes to the Smith loop
(_smith), which runs on int64 until a bound runs out and on object arrays
from then on, so it cannot overflow.  That loop builds no transform of its
own and carries no U: it applies its operations to the three arrays its
caller hands it on the U_inv, V and V_inv sides, zero-width from
invariant_factors, and on the generator route (_transform_route), which
runs only when cycle generators are asked for, just the products that route
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError

# An elimination update sets y <- y - f * x.  While |y| + |f| |x| stays at
# most 2**62, the result and every intermediate fit in int64 with room to spare.
_INT64_SAFE = 1 << 62


@dataclass
class SNFResult:
    """The invariant factors of a matrix and the three arrays _smith was
    handed, transformed.

    diag lists the nonzero invariant factors d_1 | d_2 | ... only.  U_inv, V
    and V_inv are of one dtype: int64 when the reduction stayed inside its
    int64 bound, else object arrays of Python ints.  Handed identities they
    are the transforms with A = U_inv D V_inv and V V_inv = I.
    """

    diag: list[int]
    U_inv: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray


def _smith(m, Ui, V, Vi) -> SNFResult:
    """The Smith form of the 2-D array m by repeated pivoting on the first
    entry of least absolute value in the remaining block, in row-major order
    (_first_least), each operation also applied to the three arrays handed
    in: a row operation inverted on the columns of Ui, a column operation to
    the columns of V and inverted on the rows of Vi.  With T_U m T_V = D for
    the loop's row and column operations, the result holds Ui T_U^-1, V T_V
    and T_V^-1 Vi; an array with no rows (Ui, V) or columns (Vi) costs
    nothing, and diag is the same.

    Each step updates whole rows and columns of m, and of V only the entries
    that change.  The four arrays start on int64 when every entry fits under
    _INT64_SAFE, else on Python-int object arrays; an array already of that
    dtype is reduced in place.  On int64 each has a bound on |entry| that
    every update advances by scalar arithmetic; when an update could take a
    bound past _INT64_SAFE even once recomputed from its array, all four
    move to object arrays and the loop goes on there.
    """
    # bounds on |entry| of m, U_inv, V and V_inv while they are int64
    bounds = [_abs_max(x) for x in (m, Ui, V, Vi)]
    dtype = np.int64 if max(bounds) <= _INT64_SAFE else object
    m, Ui, V, Vi = (x.astype(dtype, copy=False) for x in (m, Ui, V, Vi))
    bounds = bounds if dtype is np.int64 else None

    t = 0
    limit = min(m.shape)
    while t < limit:
        found = _first_least(m[t:, t:])
        if found is None:
            break
        pi, pj = t + found[0], t + found[1]
        # a row swap or negation is its own inverse; on U_inv we track the
        # transpose action on columns (likewise V_inv on rows)
        if pi != t:
            m[[t, pi]] = m[[pi, t]]
            Ui[:, [t, pi]] = Ui[:, [pi, t]]
        if pj != t:
            m[:, [t, pj]] = m[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
            Vi[[t, pj]] = Vi[[pj, t]]
        if m[t, t] < 0:
            m[t] = -m[t]
            Ui[:, t] = -Ui[:, t]
        p = m[t, t]

        # row i -= q_i row t clears column t below the pivot, leaving
        # remainders in [0, p); column j -= q_j column t then clears row t
        rows = t + 1 + np.flatnonzero(m[t + 1 :, t])
        cols = t + 1 + np.flatnonzero(m[t, t + 1 :])
        qr, qc = m[rows, t] // p, m[t, cols] // p
        if bounds and (rows.size or cols.size):
            ar, ac = _abs_max(qr), _abs_max(qc)
            growth = (
                (1, ar * _abs_max(m[t]) + ac * int(p)),
                (1 + rows.size * ar, 0),
                (1, ac * _abs_max(V[:, t])),
                (1 + cols.size * ac, 0),
            )
            bounds, (m, Ui, V, Vi) = _grow(bounds, (m, Ui, V, Vi), growth)
            qr, qc = qr.astype(m.dtype, copy=False), qc.astype(m.dtype, copy=False)
        # a row clear inverts to column t += q_i column i on U_inv
        m[rows] -= np.outer(qr, m[t])
        Ui[:, t] += Ui[:, rows].dot(qr)
        # a column clear changes V only in the rows where column t is
        # nonzero, and inverts to row t += q_j row j on V_inv
        m[:, cols] -= np.outer(m[:, t], qc)
        nzv = np.flatnonzero(V[:, t])
        V[np.ix_(nzv, cols)] -= np.outer(V[nzv, t], qc)
        Vi[t] += qc.dot(Vi[cols])
        if m[t + 1 :, t].any() or m[t, t + 1 :].any():
            continue

        # divisibility sweep: pivot must divide everything below-right; the
        # first offending row is added to the pivot row (a unit divides all)
        if p != 1:
            offenders = np.flatnonzero((m[t + 1 :, t + 1 :] % p != 0).any(axis=1))
            if offenders.size:
                o = t + 1 + int(offenders[0])
                if bounds:
                    growth = ((1, _abs_max(m[o])), (1, _abs_max(Ui[:, t])), (1, 0), (1, 0))
                    bounds, (m, Ui, V, Vi) = _grow(bounds, (m, Ui, V, Vi), growth)
                m[t] += m[o]
                Ui[:, o] -= Ui[:, t]
                continue
        t += 1

    diag = [int(m[i, i]) for i in range(limit) if m[i, i]]
    for k in range(len(diag) - 1):
        if diag[k + 1] % diag[k]:
            raise InternalInvariantError("invariant factors fail divisibility")
    return SNFResult(diag, Ui, V, Vi)


def _first_least(block: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first entry of least absolute value in row-major
    order, or None when block is zero.

    Rows are read in chunks of 1, 2, 4, ... rows, and the search stops at the
    first chunk holding a +-1, which no later entry can beat; so a block whose
    first rows hold a unit is not copied whole.
    """
    width = block.shape[1]
    best = least = None
    start, size = 0, 1
    while start < block.shape[0] and least != 1:
        chunk = block[start : start + size]
        nz = np.flatnonzero(chunk)
        if nz.size:
            values = np.abs(chunk.flat[nz])
            k = int(np.argmin(values))  # the first of equal values
            if least is None or values[k] < least:
                best, least = start * width + int(nz[k]), values[k]
        start, size = start + size, 2 * size
    return None if best is None else divmod(best, width)


def _abs_max(m: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _room(bound: int, m: np.ndarray, mult: int, add: int) -> int | None:
    """The bound on |entry| of m after an update that takes a bound b to
    b * mult + add; past _INT64_SAFE, b is first recomputed from m.  None
    when the update might still leave int64."""
    grown = bound * mult + add
    if grown > _INT64_SAFE:
        grown = _abs_max(m) * mult + add
    return grown if grown <= _INT64_SAFE else None


def _grow(bounds: list, arrays: tuple, growth: tuple) -> tuple[list | None, tuple]:
    """_room for each array and its (mult, add): the new bounds and the
    arrays, or, when one array has no room, None and the arrays as
    Python-int object arrays."""
    grown = [_room(b, m, *g) for b, m, g in zip(bounds, arrays, growth)]
    if None in grown:
        return None, tuple(x.astype(object) for x in arrays)
    return grown, arrays


def _unit_pivots(m: np.ndarray):
    """Split +-1 pivots off m; returns (count, block, rows, cols): how many
    were split off, and the residual as its live block, which it equals at
    np.ix_(rows, cols) and is zero elsewhere.  m is overwritten.

    A pivot at (i, j) subtracts f_r times row i from each row r with a
    nonzero in column j, f_r = m[r, j] * pivot.  That clears column j, and,
    as f_i = 1, zeroes row i too, which stands for the column operations
    that would clear the row: they touch nothing else once the column is
    clear.  Both are unimodular, so each pivot leaves an invariant factor 1
    and the Smith form of what remains.  The update reads and writes only
    those rows at row i's nonzero columns, so a pivot costs that block, not
    the width of m; a row that column j meets alone is simply zeroed, and
    a zero row or column is never written again.  So a scan first drops the
    zero rows and columns, copying the live block, once that halves the
    block at least; a copy of more would hold twice the memory to save
    little.  Candidates are taken in Markowitz order (fewest other nonzeros
    in row times column) from a scan of that block, skipped when an earlier
    pivot of the scan used their row or column (read from two lists) or
    otherwise changed them, and the block is scanned again until no unit is
    left.  A bound on max |m|,
    advanced by each update and recomputed from the block (which holds
    every nonzero) before it runs out, stops the elimination before an
    update that could leave int64.
    """
    rows, cols = np.arange(m.shape[0]), np.arange(m.shape[1])
    count = 0
    bound = _abs_max(m)
    while True:
        nz = m != 0
        per_row, per_col = nz.sum(1), nz.sum(0)
        live_rows, live_cols = np.flatnonzero(per_row), np.flatnonzero(per_col)
        if 2 * live_rows.size * live_cols.size <= m.size:
            m = m[np.ix_(live_rows, live_cols)]
            rows, cols = rows[live_rows], cols[live_cols]
            per_row, per_col = per_row[live_rows], per_col[live_cols]
        cand = np.argwhere((m == 1) | (m == -1))
        if not len(cand):
            return count, m, rows, cols
        cost = (per_row[cand[:, 0]] - 1) * (per_col[cand[:, 1]] - 1)
        row_used, col_used = [False] * m.shape[0], [False] * m.shape[1]
        for i, j in cand[np.argsort(cost, kind="stable")].tolist():
            if row_used[i] or col_used[j]:
                continue
            pivot = m.item(i, j)
            if pivot != 1 and pivot != -1:
                continue
            column = m.T[j]
            rows_j = column.nonzero()[0]
            if rows_j.size > 1:
                row = m[i]
                cols_i = row.nonzero()[0]
                f, x = column.take(rows_j) * pivot, row.take(cols_i)
                bound = _room(bound, m, 1, int(abs(f).max()) * int(abs(x).max()))
                if bound is None:
                    return count, m, rows, cols
                m[rows_j[:, None], cols_i] -= f[:, None] * x
            else:  # on row i alone the update only zeroes it
                m[i] = 0
            row_used[i] = col_used[j] = True
            count += 1


@dataclass
class AbelianGroupInvariants:
    """Isomorphism type of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


@dataclass(frozen=True, eq=False)
class FaceTable:
    """An integer matrix stored by columns the way a boundary C_k -> C_{k-1}
    is read off a face table: column c of faces holds the rows of column
    c's entries and the same column of signs their values.  A slot with no
    entry holds the row count, rows, and sign 0; two slots of a column may
    hold the same row, and their values then add up.

    SimplicialModel.signed_faces(k) is face_index(k) with sign (-1)^i on a
    plain face d_i and 0 on a degenerate one, and CoverPair.twisted_faces(k)
    flips those signs by the sheets; a hand-written matrix is converted by
    from_dense.  dense() scatters the table into a new int64 array.
    """

    faces: np.ndarray  # (slots, columns): a row index, or rows on an empty slot
    signs: np.ndarray  # (slots, columns), int64: the entry, or 0 on an empty slot
    rows: int

    @property
    def shape(self) -> tuple:
        return (self.rows, self.faces.shape[1])

    @classmethod
    def zero(cls, rows: int, cols: int) -> FaceTable:
        """The zero rows x cols matrix: no slots."""
        empty = np.zeros((0, cols), dtype=np.int64)
        return cls(empty, empty, rows)

    @classmethod
    def from_dense(cls, m: np.ndarray) -> FaceTable:
        """The table of a 2-D int64 array: as many slots as the fullest column
        has nonzeros, filled from the top in row order."""
        rows, cols = m.shape
        c, r = np.nonzero(m.T)  # by column, then row
        counts = np.bincount(c, minlength=cols)
        slot = np.arange(c.size) - (np.cumsum(counts) - counts)[c]
        height = int(counts.max()) if cols else 0
        faces = np.full((height, cols), rows, dtype=np.int64)
        signs = np.zeros((height, cols), dtype=np.int64)
        faces[slot, c], signs[slot, c] = r, m[r, c]
        return cls(faces, signs, rows)

    def dense(self) -> np.ndarray:
        """The matrix as a new int64 array, by one scatter of the table; the
        empty slots land on a row past the last, which is cut off."""
        out = np.zeros((self.rows + 1, self.faces.shape[1]), dtype=np.int64)
        np.add.at(out, (self.faces, np.arange(self.faces.shape[1])), self.signs)
        return out[: self.rows]

    def invariant_factors(self) -> list[int]:
        """The nonzero invariant factors d_1 | d_2 | ... of the matrix.

        Unit pivots are eliminated on the dense array in place first, and
        the exact Smith form reduces only the nonzero block that is left,
        handed three zero-width arrays, so it carries no transform.
        """
        m = self.dense()
        if m.size == 0:
            return []
        units, block, _, _ = _unit_pivots(m)
        core = block[np.ix_(block.any(axis=1), block.any(axis=0))]  # the nonzero block
        no_u, no_v = (np.zeros((0, n), np.int64) for n in core.shape)
        return [1] * units + _smith(core, no_u, no_v, no_v.T).diag


class HomologyResult:
    """Invariants of ker(boundary_out) / im(boundary_in), generators on demand;
    the boundaries are kept as face tables."""

    def __init__(self, invariants, boundary_out: FaceTable, boundary_in: FaceTable):
        self.invariants = invariants
        self._boundaries = (boundary_out, boundary_in)

    def generator_chains(self) -> np.ndarray:
        """Cycle representatives as chains, one row per generator.

        Torsion generators come first, then free ones; with none the shape is
        (0, cells).  Runs the transform route (_transform_route) on the dense
        boundaries, which must find the same invariants.  The chains are
        int64, or Python ints where the route left int64.
        """
        inv, chains = _transform_route(*(b.dense() for b in self._boundaries))
        if inv != self.invariants:
            raise InternalInvariantError(
                f"generator route finds {inv}, invariant factors give {self.invariants}"
            )
        return chains


def _exact_dtype(bound: int):
    """int64 for a bound below 2**63 on every partial sum, so int64
    arithmetic is exact, else object."""
    return np.int64 if bound < 1 << 63 else object


# _composite_entries sums over blocks of columns with at most this many
# (row, column) bins and terms per column slot pair: 2**14 float64 values
# stay below the size at which each allocation maps fresh pages, which
# cost the 243 x 729 check of the Z/4 bar model half its time.
_COMPOSITE_BLOCK = 1 << 14


def _composite_entries(lower: FaceTable, upper: FaceTable):
    """The nonzero entries of lower @ upper as (rows, cols, values), exact.

    Entry (r, c) sums, over each slot of column c of upper and each slot of
    lower's column at that slot's face, the product of the two signs: the
    faces of the faces, gathered from lower's table by upper's.  Each entry
    is a sum of at most slots(lower) * slots(upper) terms, so that count
    times the largest |sign| of each table (at least 1) bounds every
    factor, term and partial sum.  Below 2**53 the terms are
    summed per entry by bincount on float64; past it by np.add.at on int64
    or on Python ints (_exact_dtype); a block of columns at a time.  An
    upper slot with no entry gathers the last column of lower (take clips),
    and its sign 0 zeroes those terms; lower's empty slots sum into a row
    past the last, with sign 0 too.
    """
    (s_lo, inner), (s_hi, n_cols) = lower.faces.shape, upper.faces.shape
    height = lower.rows + 1
    bound = s_lo * s_hi * max(_abs_max(lower.signs), 1) * max(_abs_max(upper.signs), 1)
    dtype = np.float64 if bound < 1 << 53 else _exact_dtype(bound)
    lo_signs = lower.signs.astype(dtype)
    step = max(1, _COMPOSITE_BLOCK // max(height, s_lo * s_hi))
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for a in range(0, n_cols if inner else 0, step):  # no chains between: no terms
        faces = upper.faces[:, a : a + step]
        width = faces.shape[1]
        key = (np.arange(width) * height + lower.faces.take(faces, 1, mode="clip")).ravel()
        terms = lo_signs.take(faces, 1, mode="clip") * upper.signs[:, a : a + step].astype(dtype)
        if dtype is np.float64:
            sums = np.bincount(key, terms.ravel(), width * height).astype(np.int64)
        else:
            sums = np.zeros(width * height, dtype=dtype)
            np.add.at(sums, key, terms.ravel())
        hit = np.flatnonzero(sums)
        keys.append(hit + a * height)
        values.append(sums[hit])
    cols, rows = np.divmod(np.concatenate(keys), height)
    return rows, cols, np.concatenate(values)


def _check_faces_of_faces(lower: FaceTable, upper: FaceTable) -> None:
    """Raise unless lower @ upper = 0, computed exactly from the tables."""
    if _composite_entries(lower, upper)[2].size:
        raise InternalInvariantError("boundary composite is nonzero")


def homology_from_factors(
    boundary_out: FaceTable, boundary_in: FaceTable, factors_out: list, factors_in: list
) -> HomologyResult:
    """The homology of a chain pair of face tables, given the invariant
    factors of both boundaries, so that a run of degrees reduces each
    boundary once.

    Once boundary_out @ boundary_in = 0 is checked, the image lies in the
    kernel, a direct summand of Z^n, so the free rank is
    n - rank boundary_out - rank boundary_in and the torsion is the
    invariant factors of boundary_in above 1.
    """
    _check_faces_of_faces(boundary_out, boundary_in)
    free = boundary_out.shape[1] - len(factors_out) - len(factors_in)
    torsion = tuple(d for d in factors_in if d > 1)
    return HomologyResult(AbelianGroupInvariants(free, torsion), boundary_out, boundary_in)


def _transform_route(boundary_out: np.ndarray, boundary_in: np.ndarray):
    """Invariants and generator chains from two Smith forms, each carrying
    only the products that are read; both arrays are overwritten.

    Returns (invariants, chains): the rows of chains are cycles of
    boundary_out whose classes generate the homology, torsion first, then
    free.
    """
    n_p = boundary_out.shape[1]
    # Column operations reduce boundary_out; the columns of V past the rank
    # span its kernel.  A cycle x = V y has y = V_inv x, so V_inv boundary_in,
    # which comes out of the loop on the V_inv side, holds the image in
    # kernel coordinates in its rows r:.  Nonzero rows :r would mean
    # boundary_in is not a cycle.
    no_u = np.zeros((0, len(boundary_out)), np.int64)
    first = _smith(boundary_out, no_u, np.eye(n_p, dtype=np.int64), boundary_in)
    r = len(first.diag)
    coords = first.V_inv
    if coords[:r].any():
        raise InternalInvariantError("image chain does not lie in the cycle lattice")

    # quotient Z^k / im(coords[r:]): the columns of U_inv are the basis of Z^k
    # adapted to the quotient, so the kernel columns, carried on the U_inv
    # side, come out as the generator cycles; torsion ones are those with
    # d > 1, free ones after.
    k = n_p - r
    no_v = np.zeros((0, boundary_in.shape[1]), np.int64)
    second = _smith(coords[r:], first.V[:, r:], no_v, no_v.T)
    diag = second.diag
    order = [i for i, d in enumerate(diag) if d > 1] + list(range(len(diag), k))
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupInvariants(k - len(diag), torsion), second.U_inv[:, order].T
