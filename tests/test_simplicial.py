"""Core checks for the decorated-face calculus, cup products, and covers."""

import dataclasses
import gc
import json
import re
import weakref
from functools import lru_cache
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stexo.simplicial as simplicial
from stexo.builders import (
    bar_b,
    bar_e_z2,
    circle,
    dihedral8_table,
    k_z2_2,
    klein_table,
    point,
    z2_table,
    z4_table,
)
from stexo.cohomology import cohomology_basis
from stexo.errors import (
    ModelMismatchError,
    TrivialCoverError,
    TruncationError,
    ValidationError,
)
from stexo.gf2 import Subspace
from stexo.modelfile import MapData, canonical_bytes, model_document, parse_document
from stexo.simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
    _groups,
    checked_images,
    coboundary,
    compose_words,
    cover_from_cocycle,
    cup,
    cup_i,
    insert_degeneracy,
    is_coboundary,
    product,
    product_involution,
    quotient_free_involution,
    relabel_model,
    sq,
    swap_factors,
)

import reference
from reference import (
    compose,
    encode_targets,
    euler_characteristic,
    face,
    kernel_basis,
    mul_vec,
    simplicial_violations,
    solve_affine,
    v1_document,
)


def triangle_arrays():
    """Face arrays of the 2-simplex: vertices 0,1,2; edges 01,02,12; one 2-cell.
    Every face is a plain cell, so every word mask is 0."""
    face_cell = [
        np.zeros((3, 0), dtype=np.int64),
        np.array([[1, 0], [2, 0], [2, 1]], dtype=np.int64),  # edges 01, 02, 12
        np.array([[2, 1, 0]], dtype=np.int64),  # d0=12, d1=02, d2=01
    ]
    return [np.zeros_like(fc) for fc in face_cell], face_cell


def triangle(face_word=None, face_cell=None):
    """The 2-simplex as a model, or a model on other face arrays of its shape."""
    if face_cell is None:
        face_word, face_cell = triangle_arrays()
    return SimplicialModel(2, [3, 3, 1], face_word, face_cell, name="triangle")


def _decode(words, cells):
    """(word, cell) tuples of a batch of targets given as word masks and cells."""
    return [
        (tuple(a for a in range(w.bit_length() - 1, -1, -1) if w >> a & 1), c)
        for w, c in zip(np.asarray(words).tolist(), np.asarray(cells).tolist())
    ]


@pytest.fixture(scope="module")
def rp6():
    return bar_b(z2_table(), 6, name="rp")


@pytest.fixture(scope="module")
def torus():
    c = circle(2)
    return c, product(c, c, 2, name="t2")


def test_insert_degeneracy_canonical_words():
    assert insert_degeneracy((), 0) == (0,)
    assert insert_degeneracy((0,), 1) == (1, 0)
    assert insert_degeneracy((1, 0), 1) == (2, 1, 0)
    assert insert_degeneracy((3, 1), 2) == (4, 2, 1)
    assert insert_degeneracy((3, 1), 0) == (4, 2, 0)


def test_triangle_validates_and_subfaces():
    t = triangle()
    assert t.validate() == []
    for n, cell, keep, want in [
        (2, 0, (0, 1), 0),
        (2, 0, (0, 2), 1),
        (2, 0, (1, 2), 2),
        (2, 0, (0,), 0),
        (1, 2, (0, 1), 2),
    ]:
        assert _decode(*t.subfaces(n, keep, [cell])) == [((), want)]


def test_validate_reports_broken_identity():
    face_word, face_cell = triangle_arrays()
    # swap the ends of edge 12 so d_i d_j identities fail
    face_cell[1][2] = [1, 2]
    bad = triangle(face_word, face_cell).validate()
    assert bad and "d_" in bad[0]


def test_validate_reports_malformed_word():
    # a model read from outside is checked by the parser before it is built
    doc = v1_document(json.loads(canonical_bytes(model_document(triangle()))))
    doc["faces"][1][0][0] = {"cell": 0, "degen": [0, 1]}
    want = (
        "document: 1 simplicial violations; first: degree 2 cell 0 face 0:"
        " degeneracy word (0, 1) is not strictly decreasing"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        parse_document(doc)


def test_faces_of_degenerate_targets(rp6):
    # d_i s_j identities, pushed through a decorated target
    for n in (2, 3, 4):
        for j in range(n):
            t = (insert_degeneracy((), j), 0)
            for i in range(n + 1):
                got = face(rp6, n, t, i)
                if i in (j, j + 1):
                    assert got == ((), 0)


def test_coboundary_squares_to_zero(rp6):
    for model in (rp6, bar_b(z4_table(), 3), circle(3)):
        for k in range(model.max_degree - 1):
            a = model.coboundary_matrix(k)
            b = model.coboundary_matrix(k + 1)
            assert b.matmul(a).is_zero()


def test_interval_model_coboundary():
    # two vertices, one edge: delta of a point indicator hits the edge once
    face_cell = [np.zeros((2, 0), dtype=np.int64), np.array([[1, 0]], dtype=np.int64)]
    face_word = [np.zeros_like(fc) for fc in face_cell]
    seg = SimplicialModel(1, [2, 1], face_word, face_cell, name="segment")
    assert seg.validate() == []
    u = Cochain.from_support(seg, 0, [0])
    assert coboundary(u).values.tolist() == [1]


def test_circle_coboundary_vanishes():
    c = circle(1)
    u = Cochain.from_support(c, 0, [0])
    assert coboundary(u).is_zero()


def test_from_support_counts_cells_mod_2_and_refuses_other_indices(rp6):
    u = Cochain.from_support(rp6, 2, [0, 0, 0])
    assert u.support() == (0,)
    assert Cochain.from_support(rp6, 2, [0, 0]).is_zero()
    assert Cochain.from_support(rp6, 2, ()).is_zero()
    for support in ([1], [-1], [0, 2**70]):
        with pytest.raises(ValidationError, match=r"out of range 0\.\.0 in degree 2"):
            Cochain.from_support(rp6, 2, support)


def test_cochain_mismatch_raises(rp6):
    c = circle(1)
    u = Cochain.from_support(c, 1, [0])
    v = Cochain.from_support(rp6, 1, [0])
    with pytest.raises(ModelMismatchError):
        _ = u + v
    with pytest.raises(ModelMismatchError):
        cup(u, v)


def test_cup_unital_and_associative(rp6):
    rng = np.random.default_rng(7)
    one = Cochain(rp6, 0, np.ones(1, dtype=np.uint8))
    for _ in range(20):
        u = Cochain(rp6, 2, rng.integers(0, 2, 1, dtype=np.uint8))
        v = Cochain(rp6, 1, rng.integers(0, 2, 1, dtype=np.uint8))
        w = Cochain(rp6, 2, rng.integers(0, 2, 1, dtype=np.uint8))
        assert cup(one, u) == u
        assert cup(u, one) == u
        assert cup(cup(u, v), w) == cup(u, cup(v, w))


def test_torus_cup_structure(torus):
    c, t2 = torus
    m = t2.model
    e = Cochain.from_support(c, 1, [0])
    e1 = t2.left.pullback(e)
    e2 = t2.right.pullback(e)
    assert coboundary(e1).is_zero() and coboundary(e2).is_zero()
    d1 = m.coboundary_matrix(1)
    assert solve_affine(d1, cup(e1, e1).values) is not None
    assert solve_affine(d1, cup(e2, e2).values) is not None
    assert solve_affine(d1, cup(e1, e2).values) is None
    anticomm = cup(e1, e2) + cup(e2, e1)
    assert solve_affine(d1, anticomm.values) is not None


@pytest.fixture(scope="module")
def bar4():
    """Bar model of the cyclic group of order four: nontrivial coboundaries."""
    return bar_b(z4_table(), 4, name="bar4")


@pytest.mark.parametrize("p,q,i", [(1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 3, 1), (2, 3, 2)])
def test_cup_i_coboundary_contract(bar4, p, q, i):
    """delta(u cup_i v) = boundary terms + cup_(i-1) symmetrization."""
    rng = np.random.default_rng(11 * p + q + i)
    for _ in range(60):
        u = Cochain(bar4, p, rng.integers(0, 2, bar4.n_cells(p), dtype=np.uint8))
        v = Cochain(bar4, q, rng.integers(0, 2, bar4.n_cells(q), dtype=np.uint8))
        lhs = coboundary(cup_i(u, v, i))
        rhs = (
            cup_i(u, v, i - 1)
            + cup_i(v, u, i - 1)
            + cup_i(coboundary(u), v, i)
            + cup_i(u, coboundary(v), i)
        )
        assert lhs == rhs


def test_cup_leibniz(bar4):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = Cochain(bar4, 1, rng.integers(0, 2, bar4.n_cells(1), dtype=np.uint8))
        v = Cochain(bar4, 2, rng.integers(0, 2, bar4.n_cells(2), dtype=np.uint8))
        assert coboundary(cup(u, v)) == cup(coboundary(u), v) + cup(u, coboundary(v))


def test_sq_rejects_open_cochain():
    t = triangle()
    u = Cochain.from_support(t, 1, [0])
    assert not coboundary(u).is_zero()
    with pytest.raises(ValidationError):
        sq(u, 1)


def test_sq_unstable_zero(rp6):
    x = Cochain.from_support(rp6, 1, [0])
    assert sq(x, 2).is_zero()
    assert sq(x, 2).degree == 3


def test_sq_zero_is_identity_on_classes(rp6):
    """Sq^0 fixes cohomology classes (not necessarily cochains)."""
    x = Cochain.from_support(rp6, 1, [0])
    xx = cup(x, x)
    for u in (x, xx):
        diff = sq(u, 0) + u
        assert solve_affine(rp6.coboundary_matrix(u.degree - 1), diff.values) is not None


# -- products -----------------------------------------------------------------


def test_product_torus_counts(torus):
    c, t2 = torus
    m = t2.model
    assert m.cells == (1, 3, 2)
    assert euler_characteristic(m) == 0
    assert m.validate() == []
    assert t2.left.validate() == []
    assert t2.right.validate() == []


def test_product_with_point_is_identity(rp6):
    pt = point(0)
    pr = product(rp6, pt, 4)
    assert pr.model.cells == rp6.cells[:5]
    for n in range(1, 5):
        assert np.array_equal(pr.model.face_word[n], rp6.face_word[n])
        assert np.array_equal(pr.model.face_cell[n], rp6.face_cell[n])


def test_four_torus_counts(torus):
    c, t2 = torus
    t4 = product(t2.model, t2.model, 4, name="t4")
    assert t4.model.cells == (1, 15, 50, 60, 24)
    assert euler_characteristic(t4.model) == 0
    assert t4.model.validate() == []


def test_swap_involution_has_diagonal_fixed_cells(torus):
    c, t2 = torus
    t4 = product(t2.model, t2.model, 4)
    sw = swap_factors(t4)
    assert any("fixed" in msg for msg in sw.validate())


# -- maps ----------------------------------------------------------------------


def _images(m):
    """The targets of a map as (word, cell) tuples, per source degree."""
    return [_decode(w, c) for w, c in zip(m.image_word, m.image_cell)]


def _broken_map(table, up_to, edit):
    """The identity of a bar model with edited targets, as the parser holds a
    map entry before it is checked against its codomain."""
    base = bar_b(table, up_to)
    assignment = _images(SimplicialMap.identity(base))
    edit(assignment)
    images = [
        encode_targets(n, [w for w, _ in block], [c for _, c in block])
        for n, block in enumerate(assignment)
    ]
    return base, MapData("broken", None, images)


def _short_degree_after_bad_word(a):
    a[1][0] = ((0, 1), 0)
    a[2] = a[2][:-1]
    a[3][0] = ((), 99)  # not reported: checking stops at the size mismatch


def _bad_word(a):
    a[2][1] = ((0, 1), 0)


def _bad_letter(a):
    a[1][2] = ((1,), 0)


def _bad_cell(a):
    a[2][4] = ((), 99)


@pytest.mark.parametrize(
    "edit,want",
    [
        (
            _short_degree_after_bad_word,
            [
                "degree 1 cell 0: degeneracy word (0, 1) is not strictly decreasing",
                "degree 2: assignment size mismatch",
            ],
        ),
        (_bad_word, ["degree 2 cell 1: degeneracy word (0, 1) is not strictly decreasing"]),
        (_bad_letter, ["degree 1 cell 2: degeneracy word (1,) out of range for dimension 1"]),
        (_bad_cell, ["degree 2 cell 4: target ((), 99) has no core cell in degree 2"]),
        (
            lambda a: (_bad_cell(a), _bad_letter(a), _bad_word(a)),
            [
                "degree 1 cell 2: degeneracy word (1,) out of range for dimension 1",
                "degree 2 cell 1: degeneracy word (0, 1) is not strictly decreasing",
                "degree 2 cell 4: target ((), 99) has no core cell in degree 2",
            ],
        ),
    ],
)
def test_map_validate_reports_malformed_targets(edit, want):
    base, data = _broken_map(z4_table(), 3, edit)
    assert checked_images(base, base, data.images)[2] == want
    with pytest.raises(ValidationError, match="^map broken: " + re.escape(want[0]) + "$"):
        data.into_parent(base)


def test_map_validate_reports_non_commuting_faces():
    base = bar_b(z2_table(), 3)
    ident = SimplicialMap.identity(base)
    words = [w.copy() for w in ident.image_word]
    words[2][0] = 0b1  # the 2-cell [1|1] sent to s_0 of the edge [1]
    m = SimplicialMap(base, base, words, ident.image_cell, "broken")
    assert m.validate() == [
        "degree 2 cell 0: face 1 does not commute",
        "degree 2 cell 0: face 2 does not commute",
        "degree 3 cell 0: face 0 does not commute",
        "degree 3 cell 0: face 3 does not commute",
    ]


def test_map_check_runs_once_and_raises_the_same_message(monkeypatch):
    base = bar_b(z2_table(), 3)
    ident = SimplicialMap.identity(base)
    words = [w.copy() for w in ident.image_word]
    words[2][0] = 0b1
    calls = []
    found = SimplicialMap._violations_found

    def spy(self):
        calls.append(self.name)
        return found(self)

    monkeypatch.setattr(SimplicialMap, "_violations_found", spy)
    m = SimplicialMap(base, base, words, ident.image_cell, "broken")
    m.validate().clear()
    for _ in range(3):
        with pytest.raises(ValidationError, match=r"^map broken: degree 2 cell 0: face 1 does not"):
            m.require_valid()
        assert len(m.validate()) == 4
    assert calls == ["broken"]


def test_frozen_keeps_a_fitting_array_and_converts_the_rest():
    a = np.arange(6, dtype=np.int64)
    assert simplicial._frozen(a) is a and not a.flags.writeable
    assert simplicial._frozen(a) is a
    for other in (a[::2], a.astype(np.int32), [0, 1]):
        out = simplicial._frozen(other)
        assert out is not other and out.dtype == np.int64 and not out.flags.writeable
        assert out.flags.c_contiguous
    assert simplicial._frozen(a, np.uint8).dtype == np.uint8


def test_compose_and_pullback_follow_the_assignment(torus):
    c, t2 = torus
    t4 = product(t2.model, t2.model, 4)
    comp = compose(t2.left, t4.right)
    outer, inner, got = _images(t2.left), _images(t4.right), _images(comp)
    for n in range(5):
        want = [compose_words(w, *outer[n - len(w)][cell]) for w, cell in inner[n]]
        assert got[n] == want
    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    pulled = comp.pullback(e)
    want = [int(not w and e.values[cell]) for w, cell in got[1]]
    assert pulled.values.tolist() == want


# -- covers and quotients ------------------------------------------------------


def test_two_sheet_quotient_matches_bar():
    em, flip = bar_e_z2(6)
    assert em.validate() == []
    assert flip.validate() == []
    pair = quotient_free_involution(em, flip)
    rp = bar_b(z2_table(), 6)
    assert pair.base.cells == rp.cells
    for n in range(rp.max_degree + 1):
        assert np.array_equal(pair.base.face_word[n], rp.face_word[n])
        assert np.array_equal(pair.base.face_cell[n], rp.face_cell[n])
    assert pair.w1.support() == (0,)
    assert pair.projection.validate() == []


def test_cover_from_cocycle_round_trip():
    rp = bar_b(z2_table(), 5, name="rp")
    w = Cochain.from_support(rp, 1, [0])
    pair = cover_from_cocycle(rp, w)
    assert pair.cover.cells == (2, 2, 2, 2, 2, 2)
    assert pair.cover.validate() == []
    assert pair.involution.validate() == []
    assert pair.projection.validate() == []
    assert pair.w1 == w
    back = quotient_free_involution(pair.cover, pair.involution)
    assert back.base.cells == rp.cells
    assert back.w1.support() == (0,)


@pytest.mark.parametrize("count", [2, 5])
def test_involution_validate_reports_wrong_permutation_count(count):
    rp = bar_b(z2_table(), 3)
    pair = cover_from_cocycle(rp, Cochain.from_support(rp, 1, [0]))
    perms = (pair.involution.perms * 2)[:count]
    inv = Involution(pair.cover, perms, "short" if count < 4 else "long")
    assert inv.validate() == [f"expected 4 permutations, got {count}"]
    with pytest.raises(ValidationError, match=f"^involution {inv.name}: expected 4"):
        inv.require_valid()


def test_involution_is_frozen_and_validated_once(monkeypatch):
    rp = bar_b(z2_table(), 3)
    inv = cover_from_cocycle(rp, Cochain.from_support(rp, 1, [0])).involution
    for perm in inv.perms:
        with pytest.raises(ValueError, match="read-only"):
            perm[0] = perm[-1]
    calls = []
    real = Involution._violations_found

    def spy(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(Involution, "_violations_found", spy)
    fresh = Involution(inv.model, inv.perms, "fresh")
    assert fresh.validate() == fresh.validate() == []
    fresh.require_valid()
    assert calls == ["fresh"]


def test_bad_involutions_report_their_messages():
    z4 = bar_b(z4_table(), 3)
    pair = cover_from_cocycle(z4, Cochain.from_support(z4, 1, [0, 2]))
    cells = pair.cover.cells
    same = Involution(pair.cover, [np.arange(c) for c in cells], "same")
    want = [f"degree {n}: fixed cell found" for n in range(4)]
    assert same.validate() == want
    assert same.validate() == want  # the cached result, not a consumed one
    with pytest.raises(ValidationError, match="^involution same: degree 0: fixed cell found$"):
        same.require_valid()
    # free and of order two in every degree, but two pairs of edges re-paired
    perms = list(pair.involution.perms)
    edges = perms[1].copy()
    a = 0
    b = next(c for c in range(cells[1]) if c not in (a, edges[a]))
    pa, pb = edges[a], edges[b]
    edges[[a, b, pa, pb]] = [b, a, pb, pa]
    perms[1] = edges
    assert np.all(edges[edges] == np.arange(cells[1]))
    assert np.all(edges != np.arange(cells[1]))
    crossed = Involution(pair.cover, perms, "crossed")
    bad = crossed.validate()
    assert bad[0].startswith("degree 1 cell ")
    assert all(re.fullmatch(r"degree [1-3] cell \d+: face \d does not commute", b) for b in bad)
    with pytest.raises(ValidationError, match=f"^involution crossed: {re.escape(bad[0])}$"):
        crossed.require_valid()


def _twin(model):
    """An equal copy of model that is not model."""
    return SimplicialModel(
        model.max_degree, model.cells, model.face_word, model.face_cell, model.name
    )


def test_covers_refuse_an_involution_on_another_model():
    rp = bar_b(z2_table(), 4, name="rp")
    w = Cochain.from_support(rp, 1, [0])
    pair = cover_from_cocycle(rp, w)
    twin = Involution(_twin(pair.cover), pair.involution.perms, "deck")
    assert twin.validate() == []
    refused = "^the involution does not act on the cover model$"
    with pytest.raises(ModelMismatchError, match=refused):
        quotient_free_involution(pair.cover, twin)
    # a memo whose deck acts on an equal copy of its cover is refused on a hit
    key = ("cover", w.values.tobytes(), "rp^w")
    rp._cache[key] = dataclasses.replace(rp._cache[key], involution=twin)
    with pytest.raises(ModelMismatchError, match=refused):
        cover_from_cocycle(rp, w)


def test_cocycle_memo_hit_shares_the_derived_lifts():
    rp = bar_b(z2_table(), 4, name="rp")
    w = Cochain.from_support(rp, 1, [0])
    first = cover_from_cocycle(rp, w)
    again = cover_from_cocycle(rp, Cochain(rp, 1, w.values.copy()))
    for a, b in (
        (first.sheet, again.sheet),
        (first.rep_cells, again.rep_cells),
        (first.base_index, again.base_index),
        (first.involution.image_word, again.projection.image_word),
    ):
        assert len(a) == len(b) == rp.max_degree + 1
        assert all(x is y for x, y in zip(a, b))


def test_trivial_cover_is_reported():
    rp = bar_b(z2_table(), 3)
    zero = Cochain.zero(rp, 1)
    with pytest.raises(TrivialCoverError):
        cover_from_cocycle(rp, zero)
    pair = cover_from_cocycle(rp, zero, allow_trivial=True)
    # the disjoint double: quotient must flag the null-cohomologous cocycle
    with pytest.raises(TrivialCoverError):
        quotient_free_involution(pair.cover, pair.involution)


def test_cover_rejects_non_cocycle(torus):
    c, t2 = torus
    m = t2.model
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = Cochain(m, 1, rng.integers(0, 2, m.n_cells(1), dtype=np.uint8))
        if not coboundary(w).is_zero():
            with pytest.raises(ValidationError):
                cover_from_cocycle(m, w)
            return
    raise AssertionError("no non-cocycle found on the torus")


def test_cover_model_is_memoized_on_the_base():
    rp = bar_b(z2_table(), 4, name="rp")
    w = Cochain.from_support(rp, 1, [0])
    first = cover_from_cocycle(rp, w)
    again = cover_from_cocycle(rp, Cochain(rp, 1, w.values.copy()))
    assert again.cover is first.cover
    assert again is not first and again.projection is not first.projection
    assert again.projection.target is rp
    named = cover_from_cocycle(rp, w, name="other")
    assert named.cover is not first.cover and named.cover.name == "other"
    c = circle(3)
    t2 = product(c, c, 3, name="t2")
    torus = t2.model
    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    a, b = t2.left.pullback(e), t2.right.pullback(e)
    cover_a = cover_from_cocycle(torus, a)
    assert cover_from_cocycle(torus, b).cover is not cover_a.cover
    assert cover_from_cocycle(torus, a + b).cover is not cover_a.cover
    assert cover_from_cocycle(torus, a).cover is cover_a.cover


def test_cover_checks_run_on_a_memo_hit():
    rp = bar_b(z2_table(), 4, name="rp")
    zero = Cochain.zero(rp, 1)
    trivial = cover_from_cocycle(rp, zero, allow_trivial=True)
    assert cover_from_cocycle(rp, zero, allow_trivial=True).cover is trivial.cover
    with pytest.raises(TrivialCoverError):
        cover_from_cocycle(rp, zero)
    # plant a cover under the key of a non-cocycle: the check still refuses it
    z4 = bar_b(z4_table(), 3, name="z4")
    w = Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8))  # g mod 2
    pair = cover_from_cocycle(z4, w)
    parts = z4._cache[("cover", w.values.tobytes(), "z4^w")]
    assert parts.cover is pair.cover
    bad = Cochain.from_support(z4, 1, [0])
    assert not coboundary(bad).is_zero()
    z4._cache[("cover", bad.values.tobytes(), "z4^w")] = parts
    with pytest.raises(ValidationError):
        cover_from_cocycle(z4, bad)
    # a second call shares the cached parts but builds its own projection and
    # pair, with its own cache and this call's w
    pair._cache["seen"] = True
    w_again = Cochain(z4, 1, w.values)
    again = cover_from_cocycle(z4, w_again)
    assert again.involution is pair.involution and again.cover is pair.cover
    assert again is not pair and again.projection is not pair.projection
    assert again.w1 is w_again and again._cache == {}
    assert again.projection.source is pair.cover and again.projection.target is z4
    # the cached parts equal a fresh build on an equal base, and the parts
    # of the quotient by the deck involution
    z4b = bar_b(z4_table(), 3, name="z4")
    fresh = cover_from_cocycle(z4b, Cochain(z4b, 1, w.values))
    quot = quotient_free_involution(pair.cover, pair.involution)
    for other in (fresh, quot):
        for a, b in (
            (other.involution.perms, pair.involution.perms),
            (other.sheet, pair.sheet),
            (other.rep_cells, pair.rep_cells),
            (other.base_index, pair.base_index),
            (other.projection.image_word, pair.projection.image_word),
            (other.projection.image_cell, pair.projection.image_cell),
        ):
            assert len(a) == len(b) and all(map(np.array_equal, a, b))
    assert all(map(np.array_equal, fresh.cover.face_word, pair.cover.face_word))
    assert all(map(np.array_equal, fresh.cover.face_cell, pair.cover.face_cell))
    assert not any(s.flags.writeable for s in pair.sheet + pair.base_index)
    # the cache refers to nothing that refers back to the base: a dropped
    # base frees by reference counting, the shared parts with it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        base = bar_b(z4_table(), 3, name="z4")
        cocycle = Cochain(base, 1, w.values)
        first = cover_from_cocycle(base, cocycle)
        first.involution.require_valid()
        assert cover_from_cocycle(base, cocycle).involution is first.involution
        refs = weakref.ref(base), weakref.ref(first.cover), weakref.ref(first.involution)
        del base, cocycle, first
        assert [r() for r in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_dropped_base_frees_its_cover_without_the_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rp = bar_b(z2_table(), 5, name="rp")
        w = Cochain.from_support(rp, 1, [0])
        pair = cover_from_cocycle(rp, w)
        cohomology_basis(pair.cover, 2)
        pair.cover.coboundary_span(4)
        assert cover_from_cocycle(rp, w).cover is pair.cover
        refs = weakref.ref(rp), weakref.ref(pair.cover)
        del rp, w, pair
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_descend_invariant_round_trips():
    em, flip = bar_e_z2(4)
    pair = quotient_free_involution(em, flip)
    rng = np.random.default_rng(2)
    for deg in (1, 2, 3):
        vals = rng.integers(0, 2, pair.base.n_cells(deg), dtype=np.uint8)
        down = Cochain(pair.base, deg, vals)
        up = pair.projection.pullback(down)
        assert pair.descend_invariant(up) == down
    skew = Cochain.from_support(em, 1, [0])
    if not np.array_equal(skew.values[flip.perms[1]], skew.values):
        with pytest.raises(ValidationError):
            pair.descend_invariant(skew)


def test_product_involution_free_on_cover(torus):
    c, t2 = torus
    t4 = product(t2.model, t2.model, 3, name="t4")
    em3, flip3 = bar_e_z2(3)
    C = product(t4.model, em3, 3)
    T = product_involution(C, swap_factors(t4), flip3)
    assert T.validate() == []


def test_relabel_preserves_structure(rp6):
    c = circle(2)
    t2 = product(c, c, 2).model
    rng = np.random.default_rng(9)
    out, perms = relabel_model(t2, rng)
    assert out.cells == t2.cells
    assert out.validate() == []
    assert euler_characteristic(out) == euler_characteristic(t2)


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=30, deadline=None)
def test_insert_degeneracy_matches_word_set_semantics(a, data):
    """The word-as-set rule: letters >= a shift, a joins the set."""
    word = data.draw(
        st.lists(st.integers(min_value=0, max_value=6), max_size=4, unique=True)
    )
    word = tuple(sorted(word, reverse=True))
    got = set(insert_degeneracy(word, a))
    want = {w + 1 for w in word if w >= a} | {a} | {w for w in word if w < a}
    assert got == want


# -- the batch face kernel against the scalar reference ------------------------


def _catalog_models():
    from stexo.catalog import REGISTRY, get_fixture

    models = []
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.nt is not None:
            models.append(fx.nt.base)
        if fx.cover is not None:
            models.append(fx.cover.cover)
        if fx.stress_model is not None:
            models.append(fx.stress_model)
    return models


def _all_targets(model, n):
    """Every dimension-n target: each canonical word of n - m letters on each m-cell."""
    return [
        (word, c)
        for m in range(min(n, model.max_degree) + 1)
        for word in combinations(range(n - 1, -1, -1), n - m)
        for c in range(model.cells[m])
    ]


def _masks_of(targets):
    words = np.array([sum(1 << a for a in w) for w, _ in targets], dtype=np.int64)
    cells = np.array([c for _, c in targets], dtype=np.int64)
    return words, cells


def test_face_batch_matches_scalar_face_on_catalog_models():
    rng = np.random.default_rng(13)
    for model in _catalog_models():
        for m in (model, relabel_model(model, rng)[0]):
            for n in range(1, m.max_degree + 1):
                targets = _all_targets(m, n)
                words, cells = _masks_of(targets)
                for i in range(n + 1):
                    got_w, got_c = m.face_batch(n, words, cells, i)
                    want_w, want_c = _masks_of([face(m, n, t, i) for t in targets])
                    assert np.array_equal(got_w, want_w), (m.name, n, i)
                    assert np.array_equal(got_c, want_c), (m.name, n, i)


def _reference_validate(max_degree, cells, faces):
    """Model validation on (word, cell) face lists through a scalar face walk."""

    def check(target, dim):
        word, cell = target
        if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
            return f"degeneracy word {word} is not strictly decreasing"
        if word and (word[0] > dim - 1 or word[-1] < 0):
            return f"degeneracy word {word} out of range for dimension {dim}"
        core = dim - len(word)
        if core < 0 or core > max_degree or not 0 <= cell < cells[core]:
            return f"target {target} has no core cell in degree {core}"
        return None

    def face(n, target, i):
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
        fw, fc = faces[n - len(word)][cell][k]
        return compose_words(out, fw, fc)

    bad = []
    for n in range(1, max_degree + 1):
        for c in range(cells[n]):
            for i, t in enumerate(faces[n][c]):
                msg = check(t, n - 1)
                if msg:
                    bad.append(f"degree {n} cell {c} face {i}: {msg}")
    if bad:
        return bad
    for n in range(2, max_degree + 1):
        for c in range(cells[n]):
            for j in range(1, n + 1):
                dj = faces[n][c][j]
                for i in range(j):
                    lhs = face(n - 1, dj, i)
                    rhs = face(n - 1, faces[n][c][i], j - 1)
                    if lhs != rhs:
                        bad.append(
                            f"degree {n} cell {c}: d_{i} d_{j} != d_{j-1} d_{i}"
                            f" ({lhs} vs {rhs})"
                        )
    return bad


def _face_tuples(model):
    """The face tables of a model as (word, cell) lists, faces[0] empty."""
    return [[]] + [
        [_decode(w, c) for w, c in zip(model.face_word[n], model.face_cell[n])]
        for n in range(1, model.max_degree + 1)
    ]


def _broken(edit):
    """The D8 bar model to depth 5 with its face tuples edited, and its model
    document, in version 1 form, with the same edits."""
    d8 = bar_b(dihedral8_table(), 5, name="bar-d8")
    faces = _face_tuples(d8)
    edit(faces)
    doc = v1_document(json.loads(canonical_bytes(model_document(d8))))
    doc["faces"] = [
        [[{"cell": c, "degen": list(w)} for w, c in row] for row in block] for block in faces[1:]
    ]
    return d8, faces, doc


def _swap_faces(faces):
    faces[3][5][0], faces[3][5][1] = faces[3][5][1], faces[3][5][0]


def _non_decreasing_word(faces):
    faces[2][0][0] = ((0, 1), 0)


def _letter_out_of_range(faces):
    faces[3][1][2] = ((5,), 0)


def _cell_out_of_range(faces):
    faces[2][3][1] = ((), 999)


def _all_malformed(faces):
    # a short row never reaches a model: the parser stops at it ("expected 5
    # targets"), which tests/test_modelfile.py pins
    for edit in (_non_decreasing_word, _letter_out_of_range, _cell_out_of_range):
        edit(faces)


@pytest.mark.parametrize(
    "edit",
    [
        _swap_faces,
        _non_decreasing_word,
        _letter_out_of_range,
        _cell_out_of_range,
        _all_malformed,
    ],
)
def test_validate_matches_scalar_reference_on_broken_models(edit):
    d8, faces, doc = _broken(edit)
    want = _reference_validate(d8.max_degree, d8.cells, faces)
    assert want
    msg = f"document: {len(want)} simplicial violations; first: {want[0]}"
    with pytest.raises(ValidationError, match=f"^{re.escape(msg)}$"):
        parse_document(doc)


def test_validate_lists_every_identity_violation_of_the_reference():
    d8 = bar_b(dihedral8_table(), 5, name="bar-d8")
    face_word = [a.copy() for a in d8.face_word]
    face_cell = [a.copy() for a in d8.face_cell]
    for a in (face_word[3], face_cell[3]):
        a[5, [0, 1]] = a[5, [1, 0]]
    model = SimplicialModel(d8.max_degree, d8.cells, face_word, face_cell, name="broken")
    want = _reference_validate(d8.max_degree, d8.cells, _face_tuples(model))
    assert len(want) > 1
    assert model.validate() == want
    assert model.validate() == want  # cached, not recomputed differently


def _oracle_models():
    """The catalog models, their relabelings (seed 29), the depth-5 bar
    models of Z/4 and D8 and k_z2_2(5)."""
    rng = np.random.default_rng(29)
    models = _catalog_models()
    models += [relabel_model(m, rng)[0] for m in models]
    return models + [bar_b(z4_table(), 5), bar_b(dihedral8_table(), 5), k_z2_2(5)]


def _edited(model, n, edit):
    """model with edit(face_word[n], face_cell[n]) applied to copies."""
    face_word, face_cell = list(model.face_word), list(model.face_cell)
    face_word[n], face_cell[n] = face_word[n].copy(), face_cell[n].copy()
    edit(face_word[n], face_cell[n])
    return SimplicialModel(model.max_degree, model.cells, face_word, face_cell, model.name)


def _corruptions(model, rng):
    """Models that each break one face of one cell in one degree >= 1 with a
    target that has a place on the model: two faces swapped, a plain face
    made a degenerate target, a face moved to another cell of its core
    degree."""
    for n in range(1, model.max_degree + 1):
        count = model.cells[n]
        if count == 0:
            continue
        c = int(rng.integers(count))
        a, b = rng.choice(n + 1, 2, replace=False)

        def swap(fw, fc, c=c, a=a, b=b):
            fw[c, [a, b]] = fw[c, [b, a]]
            fc[c, [a, b]] = fc[c, [b, a]]

        yield _edited(model, n, swap)
        plain = np.argwhere(model.face_word[n] == 0)
        cores = [m for m in range(n - 1) if model.cells[m]]
        if plain.size and cores:
            pc, pi = plain[rng.integers(len(plain))]
            m = int(rng.choice(cores))
            letters = rng.choice(n - 1, n - 1 - m, replace=False)
            mask = int(sum(1 << int(x) for x in letters))
            cell = int(rng.integers(model.cells[m]))

            def degenerate(fw, fc, pc=pc, pi=pi, mask=mask, cell=cell):
                fw[pc, pi], fc[pc, pi] = mask, cell

            yield _edited(model, n, degenerate)
        core = n - 1 - np.bitwise_count(model.face_word[n])
        counts = np.array(model.cells)[core]
        movable = np.argwhere(counts > 1)
        if movable.size:
            mc, mi = movable[rng.integers(len(movable))]
            shift = int(rng.integers(1, counts[mc, mi]))

            def move(fw, fc, mc=mc, mi=mi, shift=shift, size=int(counts[mc, mi])):
                fc[mc, mi] = (fc[mc, mi] + shift) % size

            yield _edited(model, n, move)


def test_validate_equals_the_grouped_oracle_on_valid_and_corrupted_models():
    rng = np.random.default_rng(11)
    broken = 0
    for model in _oracle_models():
        assert model.validate() == simplicial_violations(model) == [], model.name
        for bad in _corruptions(model, rng):
            want = simplicial_violations(bad)
            assert bad.validate() == want, bad.name
            broken += bool(want)
    assert broken > 100


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("past", [0, 7, -1])
def test_validate_refuses_a_face_cell_past_its_core_count(n, past):
    # cells[n - 1] would be the code of the first target of the next word's
    # run; the faces are checked against the counts before any code is made
    d8 = bar_b(dihedral8_table(), 5, name="bar-d8")
    c, i = map(int, np.argwhere(d8.face_word[n] == 0)[0])
    cell = d8.cells[n - 1] + past if past >= 0 else past

    def stray(fw, fc):
        fc[c, i] = cell

    model = _edited(d8, n, stray)
    want = [f"degree {n} cell {c} face {i}: target ((), {cell}) has no core cell in degree {n - 1}"]
    assert model.validate() == want
    assert _reference_validate(d8.max_degree, d8.cells, _face_tuples(model)) == want
    refused = f"^bar-d8: 1 violations; first: {re.escape(want[0])}$"
    with pytest.raises(ValidationError, match=refused):
        model.require_valid()


def test_validate_refuses_a_word_that_is_not_canonical():
    d8 = bar_b(dihedral8_table(), 5, name="bar-d8")

    def wide(fw, fc):
        fw[0, 1] = 1 << 4

    want = ["degree 5 cell 0 face 1: degeneracy word (4,) out of range for dimension 4"]
    assert _edited(d8, 5, wide).validate() == want


# -- the coboundary test against the affine solver -----------------------------


def test_is_coboundary_matches_solve_affine_on_catalog_bases():
    from stexo.catalog import REGISTRY, get_fixture
    from stexo.cohomology import cohomology_basis

    rng = np.random.default_rng(29)
    seen = set()
    for fx in map(get_fixture, REGISTRY):
        model = fx.nt.base if fx.nt is not None else fx.stress_model
        for k in range(1, min(3, model.max_degree - 1) + 1):
            reps = cohomology_basis(model, k).reps
            for _ in range(4):
                v = Cochain(model, k - 1, rng.integers(0, 2, model.n_cells(k - 1)))
                u = Cochain(model, k, rng.integers(0, 2, model.n_cells(k)))
                closed = coboundary(v)
                if reps:
                    closed = closed + reps[int(rng.integers(len(reps)))]
                for w in (u, coboundary(v), closed):
                    want = solve_affine(model.coboundary_matrix(k - 1), w.values) is not None
                    assert is_coboundary(w) == want, (model.name, k)
                    seen.add(want)
    assert seen == {True, False}


# -- coboundaries from the face arrays against the matrix ------------------------


@lru_cache(maxsize=None)
def _coboundary_models():
    """Builder models with degenerate faces (bar models, products, K(Z/2,2))
    and with empty degrees (point, circle, torus, K(Z/2,2) in degree 1)."""
    c = circle(2)
    return (
        bar_b(z2_table(), 4, name="rp4"),
        bar_b(z4_table(), 3, name="z4"),
        bar_e_z2(3)[0],
        point(3),
        circle(4),
        product(c, c, 4, name="torus").model,
        k_z2_2(4),
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_coboundary_matches_matrix_on_builder_models(seed):
    """Every degree of every model, so K(Z/2,2) in degree 1 (no edges, a
    2-cell with only degenerate faces) is always among the cases; each
    gather once whole and once a face row at a time."""
    rng = np.random.default_rng(seed)
    for model in _coboundary_models():
        for k in range(model.max_degree + 1):
            u = Cochain(model, k, rng.integers(0, 2, model.n_cells(k)))
            if k == model.max_degree:
                with pytest.raises(TruncationError):
                    coboundary(u)
                continue
            want = mul_vec(model.coboundary_matrix(k), u.values)
            assert np.array_equal(coboundary(u).values, want), (model.name, k)
            with mock.patch.object(simplicial, "_WHOLE_GATHER", 0):
                assert np.array_equal(coboundary(u).values, want), (model.name, k)
            # the cached face table is int32 while the k-cells fit
            assert model.face_index(k + 1).dtype == np.int32


# -- B^k packed from the face arrays against the dense transpose -------------


def _dense_transpose_span(model, k):
    """coboundary_span(k) by the route it replaced: delta_{k-1} unpacked,
    transposed and packed again."""
    n = model.n_cells(k)
    if k == 0:
        return Subspace.from_vectors(n, np.zeros((0, n), dtype=np.uint8))
    vectors = model.coboundary_matrix(k - 1).to_dense().T
    return Subspace.from_vectors(n, vectors)


def test_coboundary_span_matches_dense_transpose_route():
    """Every degree of the builder models, and degrees 0..4 of every catalog
    base and cover (degree 5 of the big covers would unpack hundreds of MB)."""
    cases = [(m, m.max_degree) for m in _coboundary_models()]
    cases += [(m, min(4, m.max_degree)) for m in _catalog_models()]
    for model, top in cases:
        for k in range(top + 1):
            got, want = model.coboundary_span(k), _dense_transpose_span(model, k)
            assert got.pivots == want.pivots, (model.name, k)
            assert np.array_equal(got.matrix.words, want.matrix.words), (model.name, k)
            if k:
                cocycles = kernel_basis(model.coboundary_matrix(k - 1))
                assert got.relations == cocycles, (model.name, k)


# -- the face table against the readers it replaced ----------------------------

# the most entries of a dense boundary the oracle test builds
_DENSE_ENTRIES = 1 << 22


def _face_table_cases():
    """(models, pairs): the builder models and each catalog base and cover
    with a relabeling of each; the fixtures' own cover pairs, the quotient
    of each cover by a copy of its involution, the pairs built from the
    exported files, and two builder pairs."""
    from stexo.catalog import REGISTRY, get_fixture

    rng = np.random.default_rng(29)
    models = list(_coboundary_models())
    models += [bar_b(klein_table(), 4, name="v4"), bar_b(dihedral8_table(), 3, name="d8")]
    models += [m for model in _catalog_models() for m in (model, relabel_model(model, rng)[0])]
    two_sheet, flip = bar_e_z2(4)
    z4 = bar_b(z4_table(), 4, name="z4")
    pairs = [
        quotient_free_involution(two_sheet, flip),
        cover_from_cocycle(z4, Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8))),
    ]
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.cover is None:
            continue
        cover = fx.cover.cover
        twin = Involution(cover, fx.cover.involution.perms)
        pairs += [
            fx.cover,
            quotient_free_involution(cover, twin, allow_trivial=True),
            reference.parsed_cover(name),
        ]
    return models, pairs


def test_face_table_matches_the_readers_it_replaced():
    """Every degree 1..max_degree: the face table and delta_{k-1} equal those
    of the old readers; so do the reduction of B^k (pivots, basis and row
    transform, which pin its spanning rows) and the integral and twisted
    boundaries wherever the dense matrix has at most _DENSE_ENTRIES
    entries."""
    models, pairs = _face_table_cases()
    checked = 0
    for model in models:
        for k in range(1, model.max_degree + 1):
            got = model.face_index(k)
            want = reference.coface_index(model, k - 1)
            assert got.dtype == want.dtype and np.array_equal(got, want), (model.name, k)
            assert not got.flags.writeable
            got = model.coboundary_matrix(k - 1)
            assert got == reference.coboundary_matrix(model, k - 1), (model.name, k)
            if model.cells[k - 1] * model.cells[k] > _DENSE_ENTRIES:
                continue
            span = model.coboundary_span(k)
            want = Subspace.from_vectors(model.cells[k], reference.coboundary_span_rows(model, k))
            assert span.pivots == want.pivots, (model.name, k)
            assert span.matrix == want.matrix, (model.name, k)
            assert span.transform == want.transform, (model.name, k)
            got = model.signed_faces(k).dense()
            assert np.array_equal(got, reference.boundary_int(model, k)), (model.name, k)
            checked += 1
    for pair in pairs:
        base = pair.base
        for k in range(1, base.max_degree + 1):
            if base.cells[k - 1] * base.cells[k] <= _DENSE_ENTRIES:
                got = pair.twisted_faces(k).dense()
                want = reference.twisted_boundary_int(pair, k)
                assert np.array_equal(got, want), (base.name, k)
                checked += 1
    assert checked == 226


def test_one_truncation_message_for_every_chain_level_matrix():
    """face_index alone checks the degree, so every reader refuses a degree
    with no faces in its words."""
    z4 = bar_b(z4_table(), 3, name="z4")
    pair = cover_from_cocycle(z4, Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8)))
    top = Cochain(z4, 3, np.ones(z4.cells[3], dtype=np.uint8))
    for degree, call in (
        (0, lambda: z4.face_index(0)),
        (4, lambda: z4.face_index(4)),
        (4, lambda: coboundary(top)),
        (0, lambda: z4.signed_faces(0).dense()),
        (4, lambda: pair.twisted_faces(4).dense()),
        (-1, lambda: z4.coboundary_matrix(-2)),
        (4, lambda: z4.coboundary_span(4)),
    ):
        want = f"^z4: no faces stored in degree {degree}$"
        with pytest.raises(TruncationError, match=want):
            call()


# -- grouping by key --------------------------------------------------------


@given(
    st.sampled_from([(0,), (1,), (17,), (0, 3), (4, 0), (3, 5), (6, 7)]),
    st.integers(0, 70),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_groups_match_unique_grouping(shape, top, seed):
    """_groups against the np.unique grouping it replaced, on 1-D and 2-D
    keys, empty keys included: the same values in the same order, each with
    the selector of exactly its entries."""
    keys = np.random.default_rng(seed).integers(0, top + 1, size=shape, dtype=np.int64)
    groups = _groups(keys)
    assert [v for v, _ in groups] == np.unique(keys).tolist()
    for v, sel in groups:
        picked = np.zeros(keys.shape, dtype=bool)
        picked[sel] = True
        assert np.array_equal(picked, keys == v)
