"""Exact integer linear algebra: Smith normal form and homology of a chain pair.

Homology invariants come from invariant factors alone.  invariant_factors
eliminates +-1 pivots on an int64 numpy array, with every update checked to
stay inside int64, and hands the block that is left to smith_normal_form,
which runs over Python ints and cannot overflow.  Cycle generators, which
need the transforms, are computed only when asked for.

smith_normal_form takes a matrix as a list of row lists and returns the
invariant factors together with the full transform data U, V (and their
inverses) such that U * A * V = D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ModelMismatchError

# An elimination update sets y <- y - f * x.  While |y| + |f| |x| stays at
# most 2**62, the result and every intermediate fit in int64 with room to spare.
_INT64_SAFE = 1 << 62


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ModelMismatchError("integer matrix shape mismatch in product")
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


@dataclass
class SNFResult:
    """U A V = D with all four transforms unimodular.

    diag lists the nonzero invariant factors d_1 | d_2 | ... only.
    """

    diag: list[int]
    U: list[list[int]]
    U_inv: list[list[int]]
    V: list[list[int]]
    V_inv: list[list[int]]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, src, dst, k):
    """row[dst] += k * row[src]"""
    rs, rd = m[src], m[dst]
    for c in range(len(rd)):
        rd[c] += k * rs[c]


def _add_col(m, src, dst, k):
    for row in m:
        row[dst] += k * row[src]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _negate_col(m, j):
    for row in m:
        row[j] = -row[j]


def smith_normal_form(a: list[list[int]]) -> SNFResult:
    """Smith normal form by repeated pivoting on the smallest nonzero entry.

    Row operations applied to A are mirrored on U and inverted on U_inv
    (likewise columns on V / V_inv), so U A_orig V = D holds exactly and
    U U_inv = I, V V_inv = I.
    """
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if m else 0
    U, Ui = identity(nr), identity(nr)
    V, Vi = identity(nc), identity(nc)

    def row_op(src, dst, k):
        _add_row(m, src, dst, k)
        _add_row(U, src, dst, k)
        # (dst += k src) inverts to (dst -= k src); on the inverse we track
        # the transpose action on columns.
        _add_col(Ui, dst, src, -k)

    def col_op(src, dst, k):
        _add_col(m, src, dst, k)
        _add_col(V, src, dst, k)
        _add_row(Vi, dst, src, -k)

    def row_swap(i, j):
        _swap_rows(m, i, j)
        _swap_rows(U, i, j)
        _swap_cols(Ui, i, j)

    def col_swap(i, j):
        _swap_cols(m, i, j)
        _swap_cols(V, i, j)
        _swap_rows(Vi, i, j)

    def row_negate(i):
        _negate_row(m, i)
        _negate_row(U, i)
        _negate_col(Ui, i)

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if abs(v) == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if m[t][t] < 0:
            row_negate(t)

        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_op(t, i, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_op(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue

        # divisibility sweep: pivot must divide everything below-right
        offender = None
        for i in range(t + 1, nr):
            row = m[i]
            for j in range(t + 1, nc):
                if row[j] % m[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(offender, t, 1)
            continue
        t += 1

    diag = [m[i][i] for i in range(limit) if m[i][i]]
    for k in range(len(diag) - 1):
        if diag[k + 1] % diag[k]:
            raise InternalInvariantError("invariant factors fail divisibility")
    return SNFResult(diag, U, Ui, V, Vi)


def _abs_max(m: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _eliminate_units(m: np.ndarray) -> int:
    """Split +-1 pivots off m in place; returns how many were split off.

    A pivot clears its column by row operations, then its row and column are
    zeroed: the column operations that would clear the row touch nothing
    else once the column is clear.  Both are unimodular, so each pivot leaves
    an invariant factor 1 and the Smith form of what remains.  Candidates are
    taken in Markowitz order (fewest other nonzeros in row times column) from
    a scan of the whole matrix, skipped when an earlier pivot changed them,
    and the matrix is scanned again until no unit is left.  Stops early,
    before the update, when an update could leave int64.
    """
    count = 0
    while True:
        cand = np.argwhere(np.abs(m) == 1)
        if not len(cand):
            return count
        nz = m != 0
        cost = (nz.sum(1)[cand[:, 0]] - 1) * (nz.sum(0)[cand[:, 1]] - 1)
        for i, j in cand[np.argsort(cost, kind="stable")]:
            pivot = m[i, j]
            if pivot != 1 and pivot != -1:
                continue
            rows = np.flatnonzero(m[:, j])
            rows = rows[rows != i]
            if rows.size:
                f = m[rows, j] * pivot
                sub = m[rows]
                if _abs_max(sub) + _abs_max(f) * _abs_max(m[i]) > _INT64_SAFE:
                    return count
                sub -= np.outer(f, m[i])
                m[rows] = sub
            m[i] = 0
            m[:, j] = 0
            count += 1


def invariant_factors(a) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Equal to smith_normal_form(a).diag, without the transforms: unit pivots
    are eliminated on int64 first and the exact Smith form reduces only the
    nonzero block that is left.
    """
    m = np.array(a, dtype=np.int64)
    if m.size == 0:
        return []
    units = _eliminate_units(m)
    core = m[np.flatnonzero(m.any(axis=1))][:, np.flatnonzero(m.any(axis=0))]
    return [1] * units + smith_normal_form(core.tolist()).diag


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

    def mod2_rank(self) -> int:
        return self.free_rank + sum(1 for t in self.torsion if t % 2 == 0)


class HomologyResult:
    """Invariants of ker(boundary_out) / im(boundary_in), generators on demand."""

    def __init__(self, invariants, boundary_out, boundary_in):
        self.invariants = invariants
        self._boundaries = (boundary_out, boundary_in)

    def generator_chains(self) -> list[list[int]]:
        """Cycle representatives as chains, one list per generator.

        Torsion generators come first, then free ones.  Runs the exact
        transform route, which must find the same invariants.
        """
        bout, bin_ = self._boundaries
        n = bout.shape[1]
        inv, kernel, coords = _transform_route(bout.tolist(), bin_.tolist(), n)
        if inv != self.invariants:
            raise InternalInvariantError(
                f"generator route finds {inv}, invariant factors give {self.invariants}"
            )
        out = []
        for gen in coords:
            chain = [0] * n
            for kcol, c in enumerate(gen):
                if c:
                    for r in range(n):
                        chain[r] += c * kernel[r][kcol]
            out.append(chain)
        return out


def _matrix(b, empty_shape: tuple) -> np.ndarray:
    """b as a 2-D int64 array; an empty list takes the given empty shape."""
    m = np.asarray(b, dtype=np.int64)
    return m.reshape(empty_shape) if m.ndim != 2 and m.size == 0 else m


def _check_composite(boundary_out: np.ndarray, boundary_in: np.ndarray) -> None:
    """Raise unless boundary_out @ boundary_in = 0, computed exactly.

    An entry of the product is a sum of n terms, each at most
    max|boundary_out| * max|boundary_in|; below 2**63 that bound keeps the
    int64 product exact, above it the product runs on Python ints.
    """
    n = boundary_out.shape[1]
    bound = n * _abs_max(boundary_out) * _abs_max(boundary_in)
    dtype = np.int64 if bound < 1 << 63 else object
    prod = np.asarray(boundary_out, dtype) @ np.asarray(boundary_in, dtype)
    if prod.any():
        raise InternalInvariantError("boundary composite is nonzero")


def homology_from_boundaries(
    boundary_out, boundary_in, n_chains: int
) -> HomologyResult:
    """Homology ker(boundary_out) / im(boundary_in) of a chain pair.

    boundary_out maps degree-p chains down, boundary_in maps degree-(p+1)
    chains onto the image being divided out.  Shapes: boundary_out is
    (cells_{p-1} x n_chains), boundary_in is (n_chains x cells_{p+1}); an
    empty list stands for (0 x n_chains), respectively (n_chains x 0).

    Once boundary_out @ boundary_in = 0 is checked, the image lies in the
    kernel, a direct summand of Z^n, so the free rank is
    n - rank boundary_out - rank boundary_in and the torsion is the invariant
    factors of boundary_in above 1.
    """
    bout = _matrix(boundary_out, (0, n_chains))
    bin_ = _matrix(boundary_in, (n_chains, 0))
    if bout.shape[1] != n_chains:
        raise ModelMismatchError("boundary_out width disagrees with n_chains")
    if bin_.shape[0] != n_chains:
        raise ModelMismatchError("boundary_in height disagrees with n_chains")
    _check_composite(bout, bin_)
    rank_out = len(invariant_factors(bout))
    factors = invariant_factors(bin_)
    free = n_chains - rank_out - len(factors)
    return HomologyResult(
        AbelianGroupInvariants(free, tuple(d for d in factors if d > 1)), bout, bin_
    )


def _transform_route(boundary_out: list, boundary_in: list, n_chains: int):
    """Invariants, kernel basis and generator coordinates from full transforms.

    Returns (invariants, kernel_cols, gen_coords): the columns of kernel_cols
    span ker(boundary_out), and gen_coords maps homology generators (torsion
    first, then free) to kernel coordinates.
    """
    n_p = n_chains
    # kernel of boundary_out via column operations: columns of V past the rank
    if boundary_out:
        s_out = smith_normal_form(boundary_out)
        r = len(s_out.diag)
        kernel_cols = [row[r:] for row in s_out.V]
    else:
        r = 0
        kernel_cols = identity(n_p)
    k = n_p - r

    if k == 0:
        return AbelianGroupInvariants(0), [], []

    # Kernel coordinates of im(boundary_in): a cycle x = V y has y = V_inv x,
    # with y[:r] = 0, so they are rows r: of V_inv boundary_in.  Nonzero rows
    # :r would mean boundary_in is not a cycle.
    if not (boundary_in and boundary_in[0]):
        presentation = zeros(k, 0)
    elif not boundary_out:
        presentation = boundary_in
    else:
        coords = mat_mul(s_out.V_inv, boundary_in)
        if any(any(row) for row in coords[:r]):
            raise InternalInvariantError("image chain does not lie in the cycle lattice")
        presentation = coords[r:]

    # quotient Z^k / im(presentation)
    if presentation and presentation[0]:
        s_p = smith_normal_form(presentation)
        diag = s_p.diag
        torsion = tuple(d for d in diag if d > 1)
        free = k - len(diag)
        # generators: U_inv columns give the basis of Z^k adapted to the
        # quotient; torsion generators are those with d > 1, free ones after.
        order = [i for i, d in enumerate(diag) if d > 1] + list(range(len(diag), k))
        gen_coords = [[s_p.U_inv[r][i] for r in range(k)] for i in order]
    else:
        torsion = ()
        free = k
        gen_coords = [[1 if r == i else 0 for r in range(k)] for i in range(k)]

    return AbelianGroupInvariants(free, torsion), kernel_cols, gen_coords
