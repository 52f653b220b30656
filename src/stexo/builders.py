"""Constructors for the finite simplicial models used by the pipeline.

All builders return models whose cells are numbered lexicographically in the
builder's own coordinates, so indices are reproducible across runs.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

import numpy as np

from .errors import ValidationError
from .gf2 import F2Matrix, kernel_basis
from .simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
    insert_degeneracy,
)


def point(up_to: int = 0) -> SimplicialModel:
    cells = [1] + [0] * up_to
    faces = [[]] + [[] for _ in range(up_to)]
    return SimplicialModel(up_to, cells, faces, name="point")


def circle(up_to: int = 1) -> SimplicialModel:
    """One vertex, one edge; higher degrees empty."""
    if up_to < 1:
        raise ValidationError("circle needs max_degree at least 1")
    cells = [1, 1] + [0] * (up_to - 1)
    faces = [[], [[((), 0), ((), 0)]]] + [[] for _ in range(up_to - 1)]
    return SimplicialModel(up_to, cells, faces, name="circle")


def _check_group_table(table) -> int:
    g = len(table)
    for row in table:
        if len(row) != g:
            raise ValidationError("group table is not square")
    for a in range(g):
        if table[0][a] != a or table[a][0] != a:
            raise ValidationError("element 0 is not an identity")
    for a in range(g):
        if not any(table[a][b] == 0 for b in range(g)):
            raise ValidationError(f"element {a} has no inverse")
    for a in range(g):
        for b in range(g):
            for c in range(g):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValidationError("group table is not associative")
    return g


def bar_b(table, up_to: int, name: str = "bar") -> SimplicialModel:
    """Classifying-space bar model of a finite group given as a Cayley table.

    n-cells are tuples of non-identity elements; a face that produces an
    identity entry is recorded as a degeneracy of the shorter tuple.
    """
    g = _check_group_table(table)
    cells = []
    index = []
    tuples = []
    for n in range(up_to + 1):
        level = list(iproduct(range(1, g), repeat=n))
        tuples.append(level)
        index.append({t: k for k, t in enumerate(level)})
        cells.append(len(level))

    def to_target(t):
        word = tuple(p for p in range(len(t) - 1, -1, -1) if t[p] == 0)
        core = tuple(x for x in t if x != 0)
        return (word, index[len(core)][core])

    faces = [[]]
    for n in range(1, up_to + 1):
        rows = []
        for t in tuples[n]:
            row = [to_target(t[1:])]
            for i in range(1, n):
                merged = t[: i - 1] + (table[t[i - 1]][t[i]],) + t[i + 1 :]
                row.append(to_target(merged))
            row.append(to_target(t[:-1]))
            rows.append(row)
        faces.append(rows)
    return SimplicialModel(up_to, cells, faces, name=name)


def bar_e_z2(up_to: int):
    """Contractible two-sheet model: alternating 0/1 strings with the flip.

    Returns (model, involution).  n-cells are the two alternating strings of
    length n+1, indexed by their first entry.
    """
    cells = [2] * (up_to + 1)
    faces = [[]]
    for n in range(1, up_to + 1):
        rows = []
        for h0 in (0, 1):
            row = [((), 1 - h0)]
            for i in range(1, n):
                row.append(((i - 1,), h0))
            row.append(((), h0))
            rows.append(row)
        faces.append(rows)
    model = SimplicialModel(up_to, cells, faces, name="two-sheet")
    perms = [np.array([1, 0], dtype=np.int64) for _ in range(up_to + 1)]
    return model, Involution(model, perms, "flip")


def bar_hom_map(
    src_model: SimplicialModel,
    src_table,
    dst_model: SimplicialModel,
    dst_table,
    images,
    name: str = "induced",
) -> SimplicialMap:
    """Map of bar models induced by a group homomorphism.

    images lists the image of every source element.  The identity must map to
    the identity and nothing else may; collapsing homomorphisms would need
    degenerate targets, which this helper does not emit.
    """
    gs = _check_group_table(src_table)
    gd = _check_group_table(dst_table)
    if len(images) != gs or images[0] != 0:
        raise ValidationError("images must list every source element, identity first")
    if any(img == 0 for img in images[1:]):
        raise ValidationError("a non-identity element maps to the identity")
    if any(not 0 <= img < gd for img in images):
        raise ValidationError("image element out of range")
    for a in range(gs):
        for b in range(gs):
            if images[src_table[a][b]] != dst_table[images[a]][images[b]]:
                raise ValidationError("images do not respect the multiplication")
    if src_model.max_degree > dst_model.max_degree:
        raise ValidationError("source model is deeper than the target model")
    for n in range(src_model.max_degree + 1):
        if src_model.cells[n] != (gs - 1) ** n or dst_model.cells[n] != (gd - 1) ** n:
            raise ValidationError("models are not bar models of these groups")
    assignment = []
    for n in range(src_model.max_degree + 1):
        level = []
        for t in iproduct(range(1, gs), repeat=n):
            idx = 0
            for x in t:
                idx = idx * (gd - 1) + (images[x] - 1)
            level.append(((), idx))
        assignment.append(level)
    return SimplicialMap(src_model, dst_model, assignment, name)


def z2_table():
    return [[0, 1], [1, 0]]


def z4_table():
    return [[(a + b) % 4 for b in range(4)] for a in range(4)]


def klein_table():
    return [[a ^ b for b in range(4)] for a in range(4)]


def dihedral8_table():
    """Order-8 dihedral group as pairs (rotation mod 4, flip), flattened.

    Element index = rotation + 4 * flip; (r1,f1)*(r2,f2) multiplies with the
    flip acting on rotations by negation.
    """

    def mul(x, y):
        r1, f1 = x % 4, x // 4
        r2, f2 = y % 4, y // 4
        r = (r1 + (r2 if f1 == 0 else -r2)) % 4
        return r + 4 * (f1 ^ f2)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


# -- Eilenberg-MacLane model in degree two ------------------------------------


def _triples(m: int):
    return list(combinations(range(m + 1), 3))


def _cocycle_masks(m: int) -> np.ndarray:
    """All GF(2) 2-cocycles on the m-simplex, as sorted uint64 bitmasks."""
    trips = _triples(m)
    tindex = {t: k for k, t in enumerate(trips)}
    quads = list(combinations(range(m + 1), 4))
    rows = [r for r in range(len(quads)) for _ in range(4)]
    cols = [tindex[face] for q in quads for face in combinations(q, 3)]
    delta = F2Matrix.from_entries(len(quads), len(trips), rows, cols)
    basis = kernel_basis(delta).to_dense()
    masks = np.zeros(1, dtype=np.uint64)
    for row in basis:
        bits = np.uint64(0)
        for t, bit in enumerate(row):
            if bit:
                bits |= np.uint64(1) << np.uint64(t)
        masks = np.concatenate([masks, masks ^ bits])
    masks.sort()
    return masks


def _vertex_map_bits(m_from: int, m_to: int, vmap) -> tuple:
    """Per output triple: source triple index, or -1 when the image collapses."""
    trips_from = _triples(m_from)
    tindex_to = {t: k for k, t in enumerate(_triples(m_to))}
    cols = []
    for t in trips_from:
        img = tuple(vmap(v) for v in t)
        if len(set(img)) < 3:
            cols.append(-1)
        else:
            cols.append(tindex_to[tuple(sorted(img))])
    return tuple(cols)


def _apply_map(masks: np.ndarray, cols) -> np.ndarray:
    out = np.zeros_like(masks)
    for t, src in enumerate(cols):
        if src >= 0:
            out |= ((masks >> np.uint64(src)) & np.uint64(1)) << np.uint64(t)
    return out


def k_z2_2(up_to: int) -> SimplicialModel:
    """Simplicial Eilenberg-MacLane model with one essential degree-2 cell.

    Degree-m cells are the GF(2) 2-cocycles on the m-simplex; faces and
    degeneracies pull back along the vertex maps.  Only nondegenerate
    cocycles are stored; cell order is by bitmask value.
    """
    if up_to < 0:
        raise ValidationError("k_z2_2 needs a nonnegative truncation")
    all_masks = [_cocycle_masks(m) for m in range(up_to + 1)]

    face_cols = {}
    degen_cols = {}
    for m in range(1, up_to + 1):
        for i in range(m + 1):
            face_cols[(m, i)] = _vertex_map_bits(
                m - 1, m, lambda v, i=i: v if v < i else v + 1
            )
        for j in range(m):
            degen_cols[(m - 1, j)] = _vertex_map_bits(
                m, m - 1, lambda v, j=j: v if v <= j else v - 1
            )

    # canonical targets per degree, built bottom-up; canon[m] maps every
    # cocycle mask to (degeneracy word, nondegenerate cell index)
    nondeg_masks: list = []
    canon: list = [{0: ((), 0)}]
    nondeg_masks.append(np.zeros(1, dtype=np.uint64))
    for m in range(1, up_to + 1):
        masks = all_masks[m]
        dj_masks = []
        repeat = np.zeros((m, masks.size), dtype=bool)
        for j in range(m):
            dj = _apply_map(masks, face_cols[(m, j)])
            dj_masks.append(dj)
            sj_dj = _apply_map(dj, degen_cols[(m - 1, j)])
            repeat[j] = sj_dj == masks
        keep = ~repeat.any(axis=0)
        nondeg_masks.append(masks[keep])
        table = {}
        cell = 0
        for k in range(masks.size):
            if keep[k]:
                table[int(masks[k])] = ((), cell)
                cell += 1
            else:
                j = int(np.max(np.nonzero(repeat[:, k])[0]))
                word, core = canon[m - 1][int(dj_masks[j][k])]
                table[int(masks[k])] = (insert_degeneracy(word, j), core)
        canon.append(table)

    cells = [int(nm.size) for nm in nondeg_masks]
    faces = [[]]
    for m in range(1, up_to + 1):
        rows = [[] for _ in range(cells[m])]
        for i in range(m + 1):
            fm = _apply_map(nondeg_masks[m], face_cols[(m, i)])
            for c in range(cells[m]):
                rows[c].append(canon[m - 1][int(fm[c])])
        faces.append(rows)
    return SimplicialModel(up_to, cells, faces, name="em-z2-deg2")


def fundamental_class_cochain(model: SimplicialModel) -> Cochain:
    """The tautological degree-2 cochain of the Eilenberg-MacLane model.

    Evaluates each degree-2 cell (a cocycle on the 2-simplex) on its unique
    nondegenerate triple (0,1,2).
    """
    if model.name != "em-z2-deg2":
        raise ValidationError("tautological cochain only defined on em-z2-deg2")
    return Cochain(model, 2, np.ones(model.n_cells(2), dtype=np.uint8))
