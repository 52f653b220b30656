"""Test-only references: small operations the package itself never calls.

The tests use them as oracles or to build inputs; each works on the public
arrays of the package objects.
"""

from itertools import repeat

import numpy as np

from stexo.errors import InternalInvariantError, ModelMismatchError
from stexo.gf2 import F2Matrix, pack_rows
from stexo.simplicial import SimplicialMap, SimplicialModel, _canonical_masks, int64_array
from stexo.snf import AbelianGroupInvariants, SNFResult


def euler_characteristic(model: SimplicialModel) -> int:
    return sum((-1) ** k * c for k, c in enumerate(model.cells))


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """outer after inner (inner.source -> outer.target)."""
    if inner.target is not outer.source:
        raise ModelMismatchError("composition: inner target is not outer source")
    words, cells = zip(
        *map(outer.push, range(len(inner.image_word)), inner.image_word, inner.image_cell)
    )
    name = f"{outer.name}*{inner.name}"
    return SimplicialMap(inner.source, outer.target, words, cells, name)


def mod2_rank(group: AbelianGroupInvariants) -> int:
    return group.free_rank + sum(1 for t in group.torsion if t % 2 == 0)


def mul_vec(m: F2Matrix, v) -> np.ndarray:
    """Matrix times column vector; v has length cols, result length rows."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (m.cols,):
        raise ModelMismatchError(f"vector of length {v.shape} against {m.rows}x{m.cols}")
    if m.rows == 0 or m.cols == 0:
        return np.zeros(m.rows, dtype=np.uint8)
    pv = pack_rows(v[None, :])[0]
    return (np.bitwise_count(m.words & pv).sum(axis=1) & 1).astype(np.uint8)


def encode_targets(dim: int, words, cells):
    """Word masks and cells of dimension-dim targets given as letter
    sequences and cells, in the (masks, ids, rejects) form check_targets
    takes: a word that is not canonical for dim, or a negative cell or one
    past int64, is a reject, stored as (0, -1) and kept by position as
    (word tuple, cell) as given.
    """
    words = list(map(tuple, words))
    masks = np.fromiter(
        map(_canonical_masks(dim).get, words, repeat(-1)), dtype=np.int64, count=len(words)
    )
    ids = int64_array(cells)
    out = np.flatnonzero((masks < 0) | (ids < 0))
    rejects = {p: (words[p], cells[p]) for p in out.tolist()}
    masks[out] = 0
    ids[out] = -1
    return masks, ids, rejects


# The Smith form on Python-int object arrays throughout: stexo.snf's, which
# runs on int64 under a carried bound, must return the same integers.
def smith_normal_form(a: list[list[int]]) -> SNFResult:
    """Smith normal form by repeated pivoting on the smallest nonzero entry.

    Row operations applied to A are mirrored on U and inverted on U_inv
    (likewise columns on V / V_inv), so U A_orig V = D holds exactly and
    U U_inv = I, V V_inv = I.  Each step updates whole rows and columns of
    Python-int object arrays.
    """
    nr = len(a)
    nc = len(a[0]) if a else 0
    m = np.array(a, dtype=object).reshape(nr, nc)
    U, Ui = np.eye(nr, dtype=object), np.eye(nr, dtype=object)
    V, Vi = np.eye(nc, dtype=object), np.eye(nc, dtype=object)

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # the first entry of least absolute value in the remaining block, in
        # row-major order (argmin keeps the first of equal values)
        block = m[t:, t:]
        nz = np.flatnonzero(block)
        if not nz.size:
            break
        i, j = divmod(int(nz[np.argmin(np.abs(block.flat[nz]))]), nc - t)
        pi, pj = t + i, t + j
        # a row swap or negation is its own inverse; on U_inv we track the
        # transpose action on columns (likewise V_inv on rows)
        if pi != t:
            m[[t, pi]] = m[[pi, t]]
            U[[t, pi]] = U[[pi, t]]
            Ui[:, [t, pi]] = Ui[:, [pi, t]]
        if pj != t:
            m[:, [t, pj]] = m[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
            Vi[[t, pj]] = Vi[[pj, t]]
        if m[t, t] < 0:
            m[t] = -m[t]
            U[t] = -U[t]
            Ui[:, t] = -Ui[:, t]
        p = m[t, t]

        # row i -= q_i row t clears column t below the pivot; it inverts to
        # column t += q_i column i on U_inv
        rows = t + 1 + np.flatnonzero(m[t + 1 :, t])
        q = m[rows, t] // p
        m[rows] -= np.outer(q, m[t])
        U[rows] -= np.outer(q, U[t])
        Ui[:, t] += Ui[:, rows].dot(q)
        # column j -= q_j column t clears row t; row t += q_j row j on V_inv
        cols = t + 1 + np.flatnonzero(m[t, t + 1 :])
        q = m[t, cols] // p
        m[:, cols] -= np.outer(m[:, t], q)
        V[:, cols] -= np.outer(V[:, t], q)
        Vi[t] += q.dot(Vi[cols])
        if m[t + 1 :, t].any() or m[t, t + 1 :].any():
            continue

        # divisibility sweep: pivot must divide everything below-right; the
        # first offending row is added to the pivot row (a unit divides all)
        if p != 1:
            offenders = np.flatnonzero((m[t + 1 :, t + 1 :] % p != 0).any(axis=1))
            if offenders.size:
                o = t + 1 + int(offenders[0])
                m[t] += m[o]
                U[t] += U[o]
                Ui[:, o] -= Ui[:, t]
                continue
        t += 1

    diag = [int(m[i, i]) for i in range(limit) if m[i, i]]
    for k in range(len(diag) - 1):
        if diag[k + 1] % diag[k]:
            raise InternalInvariantError("invariant factors fail divisibility")
    return SNFResult(diag, U, Ui, V, Vi)
