"""Constructors for the finite simplicial models used by the pipeline.

All builders return models whose cells are numbered lexicographically in the
builder's own coordinates, so indices are reproducible across runs.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ValidationError
from .gf2 import F2Matrix, Subspace
from .simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
)


def _empty_faces(cells) -> tuple:
    """Face arrays of the given cell counts, every entry zero."""
    arrays = [np.zeros((c, n + 1 if n else 0), dtype=np.int64) for n, c in enumerate(cells)]
    return arrays, [a.copy() for a in arrays]


def point(up_to: int = 0) -> SimplicialModel:
    cells = [1] + [0] * up_to
    return SimplicialModel(up_to, cells, *_empty_faces(cells), name="point")


def circle(up_to: int = 1) -> SimplicialModel:
    """One vertex, one edge; higher degrees empty."""
    if up_to < 1:
        raise ValidationError("circle needs max_degree at least 1")
    cells = [1, 1] + [0] * (up_to - 1)
    return SimplicialModel(up_to, cells, *_empty_faces(cells), name="circle")


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


def _bar_digits(order: int, n: int) -> np.ndarray:
    """Entries minus one of the bar n-cells of a group of the given order,
    one row per cell in lexicographic order."""
    base = order - 1
    k = np.arange(base**n, dtype=np.int64)
    return k[:, None] // base ** np.arange(n - 1, -1, -1) % base


def bar_b(table, up_to: int, name: str = "bar") -> SimplicialModel:
    """Classifying-space bar model of a finite group given as a Cayley table.

    n-cells are tuples of non-identity elements; a face that produces an
    identity entry is recorded as a degeneracy of the shorter tuple.
    """
    g = _check_group_table(table)
    mul = np.asarray(table, dtype=np.int64)
    base = g - 1
    cells = [base**n for n in range(up_to + 1)]
    face_word, face_cell = _empty_faces(cells)
    for n in range(1, up_to + 1):
        k = np.arange(cells[n], dtype=np.int64)
        digits = _bar_digits(g, n)
        fc = face_cell[n]
        fc[:, 0] = k % base ** (n - 1)  # drop the first entry
        fc[:, n] = k // base  # drop the last entry
        for i in range(1, n):
            # d_i merges entries i-1 and i; prefix and suffix keep their digits
            prefix = k // base ** (n - i + 1)
            suffix = k % base ** (n - 1 - i)
            merged = mul[digits[:, i - 1] + 1, digits[:, i] + 1]
            unit = merged == 0
            face_word[n][unit, i] = 1 << (i - 1)
            fc[:, i] = np.where(
                unit,
                prefix * base ** (n - 1 - i) + suffix,
                (prefix * base + merged - 1) * base ** (n - 1 - i) + suffix,
            )
    return SimplicialModel(up_to, cells, face_word, face_cell, name=name)


def bar_e_z2(up_to: int):
    """Contractible two-sheet model: alternating 0/1 strings with the flip.

    Returns (model, involution).  n-cells are the two alternating strings of
    length n+1, indexed by their first entry.  d_0 lands on the other string,
    d_n on the same one, and d_i in between on the same string degenerated
    by s_{i-1}.
    """
    cells = [2] * (up_to + 1)
    face_word, face_cell = _empty_faces(cells)
    for n in range(1, up_to + 1):
        face_word[n][:, 1:n] = 1 << np.arange(n - 1)
        face_cell[n][:, 1:] = [[0], [1]]
        face_cell[n][:, 0] = [1, 0]
    model = SimplicialModel(up_to, cells, face_word, face_cell, name="two-sheet")
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
    image = np.asarray(images, dtype=np.int64) - 1
    cells = []
    for n in range(src_model.max_degree + 1):
        idx = np.zeros(src_model.cells[n], dtype=np.int64)
        for digit in _bar_digits(gs, n).T:
            idx = idx * (gd - 1) + image[digit + 1]
        cells.append(idx)
    words = [np.zeros_like(c) for c in cells]
    return SimplicialMap(src_model, dst_model, words, cells, name)


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
    rows = [tindex[face] for q in quads for face in combinations(q, 3)]
    cols = [r for r in range(len(quads)) for _ in range(4)]
    columns = F2Matrix.from_entries(len(trips), len(quads), rows, cols)
    basis = Subspace.from_vectors(len(quads), columns).relations.to_dense()
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
    """Bit t of each output mask is bit cols[t] of the input mask, and 0 where
    cols[t] is -1.  Each input byte that some cols[t] reads is looked up in a
    256-entry table of the output bits it sets, and the lookups are ORed."""
    src = np.array(cols, dtype=np.int64)
    out_bits = np.flatnonzero(src >= 0).astype(np.uint64)
    src = src[src >= 0]
    byte, shift = src >> 3, (src & 7).astype(np.uint64)
    data = masks.astype("<u8").view(np.uint8).reshape(masks.size, 8)
    values = np.arange(256, dtype=np.uint64)[:, None]
    out = np.zeros(masks.size, dtype=np.uint64)
    # a set, not np.unique, which imports numpy.ma (about 1 MB) on first use
    for b in set(byte.tolist()):
        pick = byte == b
        bits = ((values >> shift[pick]) & np.uint64(1)) << out_bits[pick]
        out |= np.bitwise_or.reduce(bits, axis=1)[data[:, b]]
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

    # canonical targets per degree, built bottom-up: the cocycle all_masks[m][k]
    # is the target (canon_word[m][k], canon_cell[m][k]), its word as a mask
    nondeg_masks = [np.zeros(1, dtype=np.uint64)]
    canon_word = [np.zeros(1, dtype=np.int64)]
    canon_cell = [np.zeros(1, dtype=np.int64)]
    for m in range(1, up_to + 1):
        masks = all_masks[m]
        dj_masks = np.empty((m, masks.size), dtype=np.uint64)
        repeat = np.zeros((m, masks.size), dtype=bool)
        for j in range(m):
            dj_masks[j] = _apply_map(masks, face_cols[(m, j)])
            repeat[j] = _apply_map(dj_masks[j], degen_cols[(m - 1, j)]) == masks
        keep = ~repeat.any(axis=0)
        nondeg_masks.append(masks[keep])
        # a degenerate cocycle is s_j of d_j of itself, j its last repeat
        last = m - 1 - np.argmax(repeat[::-1], axis=0)
        pos = np.searchsorted(all_masks[m - 1], dj_masks[last, np.arange(masks.size)])
        lower = canon_word[m - 1][pos]
        # the word of s_j: letters >= j move up by one, then j is added
        word = (lower >> last << (last + 1)) | (lower & ((1 << last) - 1)) | (1 << last)
        word[keep] = 0
        cell = canon_cell[m - 1][pos]
        cell[keep] = np.arange(np.count_nonzero(keep))
        canon_word.append(word)
        canon_cell.append(cell)

    cells = [int(nm.size) for nm in nondeg_masks]
    face_word, face_cell = _empty_faces(cells)
    for m in range(1, up_to + 1):
        for i in range(m + 1):
            faces = _apply_map(nondeg_masks[m], face_cols[(m, i)])
            pos = np.searchsorted(all_masks[m - 1], faces)
            face_word[m][:, i] = canon_word[m - 1][pos]
            face_cell[m][:, i] = canon_cell[m - 1][pos]
    return SimplicialModel(up_to, cells, face_word, face_cell, name="em-z2-deg2")


def fundamental_class_cochain(model: SimplicialModel) -> Cochain:
    """The tautological degree-2 cochain of the Eilenberg-MacLane model.

    Evaluates each degree-2 cell (a cocycle on the 2-simplex) on its unique
    nondegenerate triple (0,1,2).
    """
    if model.name != "em-z2-deg2":
        raise ValidationError("tautological cochain only defined on em-z2-deg2")
    return Cochain(model, 2, np.ones(model.n_cells(2), dtype=np.uint8))
