"""Model builders against independent counting and structure oracles."""

from itertools import product as iproduct
from math import comb

import numpy as np
import pytest

from stexo.builders import (
    _apply_map,
    _cocycle_masks,
    _vertex_map_bits,
    bar_b,
    bar_e_z2,
    circle,
    dihedral8_table,
    fundamental_class_cochain,
    k_z2_2,
    klein_table,
    point,
    z2_table,
    z4_table,
)
from stexo.errors import ValidationError
from stexo.gf2 import rank
from stexo.simplicial import Cochain, SimplicialModel, coboundary, cup, sq

from reference import apply_map, solve_affine


def test_point_and_circle():
    assert point(2).cells == (1, 0, 0)
    c = circle(3)
    assert c.cells == (1, 1, 0, 0)
    assert c.validate() == []
    with pytest.raises(ValidationError):
        circle(0)


def test_group_table_rejections():
    with pytest.raises(ValidationError):
        bar_b([[0, 1], [1, 1]], 2)  # 1 has no inverse
    with pytest.raises(ValidationError):
        bar_b([[1, 0], [0, 1]], 2)  # 0 is not an identity
    # a latin square that is not associative
    broken = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        bar_b(broken, 2)


@pytest.mark.parametrize(
    "table,order,up_to",
    [
        (z2_table(), 2, 6),
        (z4_table(), 4, 4),
        (klein_table(), 4, 3),
        (dihedral8_table(), 8, 3),
    ],
)
def test_bar_counts_and_identities(table, order, up_to):
    m = bar_b(table, up_to)
    assert m.cells == tuple((order - 1) ** n for n in range(up_to + 1))
    assert m.validate() == []


def _bar_reference(table, up_to):
    """bar_b from the group tuples: per cell, the (word mask, cell) of each
    face, identity entries read as degeneracies of the shorter tuple."""
    g = len(table)
    tuples = [list(iproduct(range(1, g), repeat=n)) for n in range(up_to + 1)]
    index = [{t: k for k, t in enumerate(level)} for level in tuples]

    def target(t):
        mask = sum(1 << p for p, x in enumerate(t) if x == 0)
        core = tuple(x for x in t if x != 0)
        return (mask, index[len(core)][core])

    def row(t):
        merged = [t[: i - 1] + (table[t[i - 1]][t[i]],) + t[i + 1 :] for i in range(1, len(t))]
        return [target(f) for f in [t[1:], *merged, t[:-1]]]

    faces = [np.zeros((1, 0, 2), dtype=np.int64)] + [
        np.array([row(t) for t in tuples[n]], dtype=np.int64).reshape(-1, n + 1, 2)
        for n in range(1, up_to + 1)
    ]
    cells = [len(level) for level in tuples]
    return SimplicialModel(
        up_to, cells, [f[..., 0] for f in faces], [f[..., 1] for f in faces], name="reference"
    )


@pytest.mark.parametrize(
    "table,up_to",
    [(z2_table(), 6), (z4_table(), 4), (klein_table(), 4), (dihedral8_table(), 3)],
)
def test_bar_arrays_match_tuple_reference(table, up_to):
    m, ref = bar_b(table, up_to), _bar_reference(table, up_to)
    assert ref.validate() == []
    assert m.cells == ref.cells
    for n in range(up_to + 1):
        assert np.array_equal(m.face_word[n], ref.face_word[n]), n
        assert np.array_equal(m.face_cell[n], ref.face_cell[n]), n


def test_two_sheet_model_is_acyclic():
    em, flip = bar_e_z2(6)
    assert em.cells == (2,) * 7
    assert em.validate() == []
    assert flip.validate() == []
    # mod-2 betti: connected and no cohomology below the truncation edge
    ranks = [rank(em.coboundary_matrix(k)) for k in range(6)]
    assert em.cells[0] - ranks[0] == 1
    for k in range(1, 6):
        assert em.cells[k] - ranks[k] - ranks[k - 1] == 0


def test_em_model_counts_match_inclusion_exclusion():
    k = k_z2_2(6)
    assert k.cells == (1, 0, 1, 4, 41, 768, 27449)
    totals = [2 ** comb(m, 2) for m in range(7)]
    for m in range(7):
        nondeg = sum((-1) ** (m - j) * comb(m, j) * totals[j] for j in range(m + 1))
        assert k.cells[m] == nondeg


def test_em_model_identities_hold():
    assert k_z2_2(5).validate() == []


@pytest.mark.slow
def test_em_model_identities_hold_degree_six():
    assert k_z2_2(6).validate() == []


def test_vertex_maps_by_byte_tables_match_the_bit_loop():
    # every face and degeneracy vertex map of k_z2_2(6), on all cocycle
    # masks of its source degree and on random 64-bit masks
    rng = np.random.default_rng(33)
    maps = []
    for m in range(1, 7):
        for i in range(m + 1):
            maps.append((m, _vertex_map_bits(m - 1, m, lambda v, i=i: v if v < i else v + 1)))
        for j in range(m):
            maps.append((m - 1, _vertex_map_bits(m, m - 1, lambda v, j=j: v if v <= j else v - 1)))
    assert len(maps) == 48
    for degree, cols in maps:
        masks = np.concatenate(
            [_cocycle_masks(degree), rng.integers(0, 2**64, 300, dtype=np.uint64, endpoint=False)]
        )
        assert np.array_equal(_apply_map(masks, cols), apply_map(masks, cols))
    masks = rng.integers(0, 2**64, 500, dtype=np.uint64, endpoint=False)
    for _ in range(20):
        cols = tuple(rng.integers(-1, 64, rng.integers(0, 65)).tolist())
        assert np.array_equal(_apply_map(masks, cols), apply_map(masks, cols))
    assert _apply_map(masks[:0], maps[0][1]).shape == (0,)


def test_fundamental_class_is_closed_and_essential():
    k = k_z2_2(4)
    iota = fundamental_class_cochain(k)
    assert coboundary(iota).is_zero()
    # not a coboundary: degree-1 cells are empty, so closed nonzero = essential
    assert k.n_cells(1) == 0 and not iota.is_zero()


def test_first_square_of_fundamental_class():
    """Sq^1 of the tautological class evaluates by the frozen 3-cell formula."""
    k = k_z2_2(4)
    iota = fundamental_class_cochain(k)
    s1 = sq(iota, 1)
    assert s1.values.tolist() == [1, 0, 1, 0]
    assert coboundary(s1).is_zero()
    assert solve_affine(k.coboundary_matrix(2), s1.values) is None


def test_square_of_fundamental_class_is_cup_square():
    k = k_z2_2(4)
    iota = fundamental_class_cochain(k)
    assert sq(iota, 2) == cup(iota, iota)
    assert solve_affine(k.coboundary_matrix(3), cup(iota, iota).values) is None
