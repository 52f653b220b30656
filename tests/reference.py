"""Test-only references: small operations the package itself never calls.

The tests use them as oracles or to build inputs; each works on the public
arrays of the package objects, except transform_built, which tells whether
a span has built its transform yet.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from stexo.catalog import fixture_documents
from stexo.errors import InternalInvariantError, ModelMismatchError
from stexo.gf2 import F2Matrix, _nwords, pack_rows, rank_and_echelon
from stexo.modelfile import canonical_bytes, parse_bytes
from stexo.obstruction import NormalOneType, cover_data_from_parts
from stexo.simplicial import (
    CoverPair,
    SimplicialMap,
    SimplicialModel,
    Target,
    _canonical_masks,
    _index_groups,
    _word,
    compose_words,
    int64_array,
)
from stexo.snf import AbelianGroupInvariants, _abs_max, _room


def euler_characteristic(model: SimplicialModel) -> int:
    return sum((-1) ** k * c for k, c in enumerate(model.cells))


def face(model: SimplicialModel, n: int, target: Target, i: int) -> Target:
    """d_i of a dimension-n target, pushing d through the degeneracy word.

    The one-target reference for SimplicialModel.face_batch.
    """
    word, cell = target
    out = []
    k = i
    for pos, w in enumerate(word):
        if k == w or k == w + 1:
            return compose_words(out, word[pos + 1 :], cell)
        if k < w:
            out.append(w - 1)
        else:
            out.append(w)
            k -= 1
    b = n - len(word)
    fw = int(model.face_word[b][cell, k])
    return compose_words(out, _word(fw), int(model.face_cell[b][cell, k]))


def simplicial_violations(model: SimplicialModel) -> list[str]:
    """d_i d_j = d_{j-1} d_i for i < j on every cell, in (degree, cell, j, i)
    order, as SimplicialModel.validate words it.

    The reference for the coded check: each face column is grouped by word
    once per degree, and both sides of every identity are face walks of it.
    It assumes every face has a place on the model."""
    bad = []
    for n in range(2, model.max_degree + 1):
        fw, fc = model.face_word[n], model.face_cell[n]
        columns = [(_index_groups(w), c) for w, c in zip(fw.T, fc.T)]
        found = []
        for j in range(1, n + 1):
            for i in range(j):
                lw, lc = model._grouped_faces(n - 1, *columns[j], i)
                rw, rc = model._grouped_faces(n - 1, *columns[i], j - 1)
                for c in np.flatnonzero((lw != rw) | (lc != rc)).tolist():
                    lhs = (_word(int(lw[c])), int(lc[c]))
                    rhs = (_word(int(rw[c])), int(rc[c]))
                    found.append((c, j, i, lhs, rhs))
        found.sort(key=lambda f: f[:3])
        bad.extend(
            f"degree {n} cell {c}: d_{i} d_{j} != d_{j-1} d_{i} ({lhs} vs {rhs})"
            for c, j, i, lhs, rhs in found
        )
    return bad


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


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """Basis of the right kernel, one vector per free column in increasing
    order: e_f plus the pivot columns whose echelon rows have a 1 in column f."""
    res = rank_and_echelon(m)
    free = np.setdiff1d(np.arange(m.cols), res.pivots)
    out = np.zeros((free.size, m.cols), dtype=np.uint8)
    out[np.arange(free.size), free] = 1
    # the free-column bits of the echelon rows, read byte by byte
    ech = res.matrix.words.view(np.uint8)[:, free >> 3]
    out[:, list(res.pivots)] = ((ech >> (free & 7).astype(np.uint8)) & 1).T
    return F2Matrix.from_dense(out)


def solve_affine(m: F2Matrix, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of m x = rhs over GF(2); None when inconsistent.

    In the echelon form of [m | rhs] the system is inconsistent exactly when
    the last column is a pivot; otherwise each pivot variable of the returned
    solution is its row's last entry and each free variable is zero.  The
    full solution set is this solution plus the kernel (kernel_basis).
    """
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    if rhs.shape != (m.rows,):
        raise ModelMismatchError(f"rhs length {rhs.shape} against {m.rows} rows")
    c = m.cols
    aug = np.zeros((m.rows, _nwords(c + 1)), dtype=np.uint64)
    aug[:, : m.words.shape[1]] = m.words
    aug[rhs.astype(bool), c >> 6] |= np.uint64(1) << np.uint64(c & 63)
    res = rank_and_echelon(F2Matrix(m.rows, c + 1, aug))
    if c in res.pivots:
        return None
    x = np.zeros(c, dtype=np.uint8)
    x[list(res.pivots)] = column_bits(res.matrix.words, c)
    return x


def column_bits(words: np.ndarray, c: int) -> np.ndarray:
    """Column c of packed rows, as 0/1 entries."""
    return ((words[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(np.uint8)


def _leftmost_column(words: np.ndarray, c: int, rows: np.ndarray) -> int:
    """The leftmost column with a bit set in some row that the mask rows
    picks, for such rows zero in every column before c; past the last column
    when there is none.  The mask is read in place: no row is copied."""
    w = c >> 6
    acc = np.bitwise_or.reduce(words[:, w:], axis=0, where=rows[:, None], initial=0)
    nz = np.flatnonzero(acc)
    if nz.size == 0:
        return 64 * words.shape[1]
    word = int(acc[nz[0]])
    return 64 * (w + int(nz[0])) + (word & -word).bit_length() - 1


def dense_rref(rows) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon rows and pivot columns of a 2-D array read mod 2,
    by elimination on unpacked 0/1 entries, one column at a time."""
    a = np.array(rows, dtype=np.uint8) & 1
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        hit = np.flatnonzero(a[r:, c])
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        a[[r, p]] = a[[p, r]]
        others = np.flatnonzero(a[:, c])
        a[others[others != r]] ^= a[r]
        pivots.append(c)
    return a[: len(pivots)], pivots


def span_residual(vectors, v) -> np.ndarray:
    """v read mod 2, modulo the span of the rows of vectors: v plus the
    reduced echelon rows its pivot entries pick, zero at every pivot and zero
    exactly when v lies in the span."""
    basis, pivots = dense_rref(vectors)
    v = np.asarray(v, dtype=np.uint8) & 1
    return ((v.astype(np.int64) + v[pivots].astype(np.int64) @ basis) % 2).astype(np.uint8)


def span_combination(vectors: np.ndarray, v) -> np.ndarray | None:
    """The coefficients over the rows of a 2-D array that rebuild v read mod 2,
    zero on every row in the span of the rows before it; None when v lies
    outside the span.  In the reduced echelon form of the matrix with those
    rows as columns and v appended, v is outside exactly when its column is
    a pivot, and otherwise each pivot coefficient is its row's last entry."""
    aug = np.concatenate((vectors, np.asarray(v, dtype=np.uint8)[None]), axis=0).T
    rref, pivots = dense_rref(aug)
    k = len(vectors)
    if k in pivots:
        return None
    out = np.zeros(k, dtype=np.uint8)
    out[pivots] = rref[:, k]
    return out


def mul_vec(m: F2Matrix, v) -> np.ndarray:
    """Matrix times column vector; v has length cols, result length rows."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (m.cols,):
        raise ModelMismatchError(f"vector of length {v.shape} against {m.rows}x{m.cols}")
    if m.rows == 0 or m.cols == 0:
        return np.zeros(m.rows, dtype=np.uint8)
    pv = pack_rows(v[None, :])[0]
    return (np.bitwise_count(m.words & pv).sum(axis=1) & 1).astype(np.uint8)


def transform_rows_canonical(span) -> bool:
    """Whether T's row of each dependent spanning vector of a Subspace is its
    relations row, and T's row of each pivot vector is zero at every
    dependent vector."""
    T = span.transform.to_dense()
    dependent = np.setdiff1d(np.arange(T.shape[0]), span.pivot_rows)
    pivot_rows = T[np.array(span.pivot_rows, dtype=np.intp)]
    relations = span.relations.to_dense()
    return np.array_equal(T[dependent], relations) and not pivot_rows[:, dependent].any()


def transform_built(obj) -> bool:
    """Whether a Subspace has built its row transform, which it keeps on the
    object once read."""
    return "transform" in vars(obj)


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


def parsed_cover(name: str) -> CoverPair:
    """The pair cover_data_from_parts builds from a fixture's exported base
    and cover files, as the CLI reads them."""
    docs = fixture_documents(name)
    base = parse_bytes(canonical_bytes(docs["base"]))
    cdata = parse_bytes(canonical_bytes(docs["cover"]))
    nt = NormalOneType(base.model, base.cochains["w1"], base.cochains["w2"])
    proj = cdata.maps["projection"].from_model_to(cdata.model, base.model)
    return cover_data_from_parts(nt, cdata.model, cdata.involution, proj)


def v1_document(doc: dict) -> dict:
    """A version 2 model file, as a JSON dict, in version 1 form: each face
    block becomes rows of target objects {"cell": c, "degen": [letters]}
    (no degen for an empty word), each map degree a list of them."""

    def targets(block: dict) -> list:
        return [
            {"cell": c, "degen": list(_word(w))} if w else {"cell": c}
            for c, w in zip(block["cell"], block["word"])
        ]

    def core(obj: dict) -> dict:
        out = dict(obj)
        out["faces"] = []
        for n, block in enumerate(obj["faces"], 1):
            flat = targets(block)
            out["faces"].append([flat[k : k + n + 1] for k in range(0, len(flat), n + 1)])
        return out

    out = core(doc)
    out["format_version"] = 1
    if "maps" in doc:
        out["maps"] = {
            name: {
                "source": None if entry["source"] is None else core(entry["source"]),
                "assignment": [targets(block) for block in entry["assignment"]],
            }
            for name, entry in doc["maps"].items()
        }
    return out


# The bit-by-bit vertex map of stexo.builders before its byte tables:
# _apply_map must give the same masks.
def apply_map(masks: np.ndarray, cols) -> np.ndarray:
    """Bit t of each output mask is bit cols[t] of the input mask, and 0 where
    cols[t] is -1, moved one output bit at a time."""
    out = np.zeros_like(masks)
    for t, src in enumerate(cols):
        if src >= 0:
            out |= ((masks >> np.uint64(src)) & np.uint64(1)) << np.uint64(t)
    return out


@dataclass
class SmithForm:
    """U A V = D with all four transforms unimodular; diag lists the nonzero
    invariant factors d_1 | d_2 | ... only."""

    diag: list[int]
    U: np.ndarray
    U_inv: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray


# The Smith form on Python-int object arrays throughout: stexo.snf's, which
# runs on int64 under a carried bound, must return the same integers.
def smith_normal_form(a: list[list[int]]) -> SmithForm:
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
    return SmithForm(diag, U, Ui, V, Vi)


# The generator route with full transforms: two Smith forms of the oracle
# above and exact products on object arrays.  stexo.snf._transform_route,
# whose Smith loop carries only the products it reads, must give the same
# invariants and the same chains.
def transform_route(boundary_out: np.ndarray, boundary_in: np.ndarray):
    """(invariants, chains): the rows of chains are cycles of boundary_out
    generating ker(boundary_out) / im(boundary_in), torsion first, then free."""
    n_p = boundary_out.shape[1]
    # the kernel: columns of V past the rank
    if len(boundary_out):
        s_out = smith_normal_form(boundary_out.tolist())
        r = len(s_out.diag)
        kernel, v_inv = s_out.V[:, r:], s_out.V_inv
    else:
        r, kernel = 0, np.eye(n_p, dtype=object)
        v_inv = kernel
    # the image in kernel coordinates: rows r: of V_inv boundary_in
    coords = v_inv @ np.asarray(boundary_in, dtype=object)
    if coords[:r].any():
        raise InternalInvariantError("image chain does not lie in the cycle lattice")
    # the columns of U_inv are the basis of Z^k adapted to the quotient
    s_p = smith_normal_form(coords[r:].tolist())
    k = n_p - r
    order = [i for i, d in enumerate(s_p.diag) if d > 1] + list(range(len(s_p.diag), k))
    torsion = tuple(d for d in s_p.diag if d > 1)
    chains = s_p.U_inv[:, order].T @ kernel.T
    return AbelianGroupInvariants(k - len(s_p.diag), torsion), chains


# Unit elimination by flatnonzero, fancy-index gathers and _abs_max bounds,
# one update for every pivot: stexo.snf._unit_pivots must take the same
# pivots in the same order under the same int64 bound, leaving the same
# count and the same residual matrix (its live block, zero elsewhere).
def eliminate_units(m: np.ndarray) -> int:
    """Split +-1 pivots off m in place, in Markowitz order; returns how many."""
    count = 0
    bound = _abs_max(m)
    while True:
        cand = np.argwhere((m == 1) | (m == -1))
        if not len(cand):
            return count
        nz = m != 0
        cost = (nz.sum(1)[cand[:, 0]] - 1) * (nz.sum(0)[cand[:, 1]] - 1)
        for i, j in cand[np.argsort(cost, kind="stable")].tolist():
            pivot = m.item(i, j)
            if pivot != 1 and pivot != -1:
                continue
            cols = np.flatnonzero(m[i])
            rows = np.flatnonzero(m.T[j])
            f = m[rows, j] * pivot
            x = m[i, cols]
            if rows.size > 1:  # on row i alone the update only zeroes it
                bound = _room(bound, m, 1, _abs_max(f) * _abs_max(x))
                if bound is None:
                    return count
            m[rows[:, None], cols] -= f[:, None] * x
            count += 1


# The face readers of stexo.simplicial before its one face table per degree,
# each reading the face arrays on its own: face_index, coboundary_matrix, the
# coboundary_span rows, and signed_faces and CoverPair.twisted_faces scattered
# dense must give the same arrays.  Each takes degrees in range only.
def cofaces(model: SimplicialModel, k: int):
    """The entries of delta_k as a mask of the plain (nondegenerate) faces of
    the (k+1)-cells and the face-cell array it selects from."""
    return model.face_word[k + 1] == 0, model.face_cell[k + 1]


def coface_index(model: SimplicialModel, k: int) -> np.ndarray:
    """Per face and (k+1)-cell, the k-cell of a plain face and the count of
    k-cells for a degenerate one, one row per face; int32 while the count
    of k-cells fits."""
    plain, fc = cofaces(model, k)
    dtype = np.int32 if model.cells[k] < 1 << 31 else np.int64
    return np.ascontiguousarray(np.where(plain, fc, model.cells[k]).T, dtype=dtype)


def coboundary_matrix(model: SimplicialModel, k: int) -> F2Matrix:
    """delta: C^k -> C^{k+1} over GF(2); rows are (k+1)-cells."""
    plain, fc = cofaces(model, k)
    c, i = np.nonzero(plain)
    return F2Matrix.from_entries(model.cells[k + 1], model.cells[k], c, fc[c, i])


def coboundary_span_rows(model: SimplicialModel, k: int) -> F2Matrix:
    """The spanning rows of coboundary_span(k): delta_{k-1} transposed, no
    rows in degree 0."""
    n = model.n_cells(k)
    if k == 0:
        return F2Matrix(0, n)
    plain, fc = cofaces(model, k - 1)
    c, i = np.nonzero(plain)
    return F2Matrix.from_entries(model.cells[k - 1], n, fc[c, i], c)


def boundary_int(model: SimplicialModel, k: int) -> np.ndarray:
    """Integral boundary C_k -> C_{k-1} with signs; rows are (k-1)-cells."""
    c, i = np.nonzero(model.face_word[k] == 0)
    rows = np.zeros((model.cells[k - 1], model.cells[k]), dtype=np.int64)
    np.add.at(rows, (model.face_cell[k][c, i], c), 1 - 2 * (i & 1))
    return rows


def twisted_boundary_int(pair: CoverPair, k: int) -> np.ndarray:
    """Boundary on base chains with integer coefficients twisted by w1, read
    off the cover: the plain faces of each base cell's representative lift,
    each signed by its position and sheet and sent to its base cell."""
    reps = pair.rep_cells[k]
    b, i = np.nonzero(pair.cover.face_word[k][reps] == 0)
    fc = pair.cover.face_cell[k][reps[b], i]
    sign = (1 - 2 * (i & 1)) * (1 - 2 * pair.sheet[k - 1][fc].astype(np.int64))
    rows = np.zeros((pair.base.cells[k - 1], pair.base.cells[k]), dtype=np.int64)
    np.add.at(rows, (pair.base_index[k - 1][fc], b), sign)
    return rows
