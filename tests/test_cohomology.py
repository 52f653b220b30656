"""Cohomology bases, induced maps, and integral/twisted homology oracles."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stexo.cohomology as cohomology
import stexo.gf2 as gf2
from stexo.builders import (
    bar_b,
    bar_e_z2,
    circle,
    dihedral8_table,
    k_z2_2,
    klein_table,
    z2_table,
    z4_table,
)
from stexo.catalog import REGISTRY, get_fixture
from stexo.cohomology import (
    cohomology_basis,
    induced_matrix,
    integral_homology,
    mod2_betti,
    twisted_homology,
)
from stexo.errors import TruncationError, ValidationError
from stexo.gf2 import F2Matrix, Subspace, rank, rank_and_echelon
from stexo.james import DEFAULT_INT_SIZE_CAP, _boundary_load, d2_maps, e2_page, killers_report
from stexo.obstruction import (
    NormalOneType,
    cover_data_from_w1,
    decide,
    lift_data_solutions,
    replay_evidence,
)
from stexo.simplicial import (
    Cochain,
    CoverPair,
    coboundary,
    cover_from_cocycle,
    cup,
    is_coboundary,
    product,
    quotient_free_involution,
)
from stexo.snf import AbelianGroupInvariants, FaceTable, _transform_route, homology_from_reductions

from reference import (
    coboundary_matrix,
    compose,
    kernel_basis,
    transform_built,
    transform_rows_canonical,
)


@pytest.fixture(scope="module")
def rp6():
    return bar_b(z2_table(), 6, name="rp")


@pytest.fixture(scope="module")
def torus3():
    c = circle(3)
    return product(c, c, 3, name="t2")


@pytest.fixture(scope="module")
def em_k():
    return k_z2_2(6)


def test_projective_space_betti(rp6):
    assert [mod2_betti(rp6, k) for k in range(6)] == [1, 1, 1, 1, 1, 1]


def test_torus_betti(torus3):
    assert [mod2_betti(torus3.model, k) for k in range(3)] == [1, 2, 1]


def test_four_torus_kunneth(torus3):
    t4 = product(torus3.model, torus3.model, 5, name="t4").model
    assert t4.cells[5] == 0
    assert [mod2_betti(t4, k) for k in range(5)] == [1, 4, 6, 4, 1]


def test_em_model_betti(em_k):
    assert [mod2_betti(em_k, k) for k in range(6)] == [1, 0, 1, 1, 1, 2]


def test_em_model_integral_homology(em_k):
    assert integral_homology(em_k, 1).invariants == AbelianGroupInvariants(0, ())
    assert integral_homology(em_k, 2).invariants == AbelianGroupInvariants(0, (2,))
    assert integral_homology(em_k, 3).invariants == AbelianGroupInvariants(0, ())
    assert integral_homology(em_k, 4).invariants == AbelianGroupInvariants(0, (4,))


def test_truncation_honesty(rp6):
    with pytest.raises(TruncationError):
        cohomology_basis(rp6, 6)
    b = cohomology_basis(rp6, 6, allow_truncated=True)
    assert b.truncated and b.dim == 1
    with pytest.raises(TruncationError):
        cohomology_basis(rp6, 7, allow_truncated=True)


def test_basis_coords_round_trip(torus3):
    m = torus3.model
    basis = cohomology_basis(m, 1)
    assert basis.dim == 2
    rng = np.random.default_rng(4)
    for _ in range(20):
        bits = rng.integers(0, 2, basis.dim, dtype=np.uint8)
        u = basis.class_from_coords(bits)
        assert np.array_equal(basis.coords(u), bits)
        # perturbing by a coboundary leaves the coordinates alone
        g = Cochain(m, 0, rng.integers(0, 2, m.n_cells(0), dtype=np.uint8))
        assert np.array_equal(basis.coords(u + coboundary(g)), bits)
        assert np.array_equal(basis.coords(u), basis.coords(u + coboundary(g)))


def test_each_call_is_a_view_of_one_cached_reduction(torus3):
    m = torus3.model
    first, again = cohomology_basis(m, 1), cohomology_basis(m, 1)
    assert first is not again
    assert first.reduction is again.reduction
    assert first == again
    assert first.reps == again.reps and first.reps[0].model is m
    assert not first.reduction.reps.flags.writeable


def _d8_pipeline() -> list:
    """Weak references to a depth-5 D8 bar model and its double cover, after
    the caches of a decision run and of the second page are filled; the
    page's twisted H_5 is refused at the top degree."""
    base = bar_b(dihedral8_table(), 5, name="bar-d8")
    x = Cochain(base, 1, np.array([g & 1 for g in range(1, 8)], dtype=np.uint8))
    y = Cochain(base, 1, np.array([g >> 2 for g in range(1, 8)], dtype=np.uint8))
    nt = NormalOneType(base, x, cup(x, x) + cup(y, y), name="d8")
    cover = cover_data_from_w1(nt)
    for k in range(1, 5):
        cohomology_basis(base, k)
    assert not is_coboundary(x)
    assert not lift_data_solutions(nt, cover).empty
    assert decide(nt, cover=cover).outcome == "NoExoticaPrimary"
    assert e2_page(nt, cover).entry(5, 0).group is None
    return [weakref.ref(base), weakref.ref(cover.cover)]


def test_dropped_models_free_without_the_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = _d8_pipeline()
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_coords_rejects_open_cochains(torus3):
    m = torus3.model
    basis = cohomology_basis(m, 1)
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = Cochain(m, 1, rng.integers(0, 2, m.n_cells(1), dtype=np.uint8))
        if not coboundary(u).is_zero():
            with pytest.raises(ValidationError):
                basis.coords(u)
            return
    raise AssertionError("all sampled cochains were closed")


def test_induced_map_of_projections(torus3):
    t4 = product(torus3.model, torus3.model, 5, name="t4")
    ml, _, _ = induced_matrix(t4.left, 1)
    mr, _, _ = induced_matrix(t4.right, 1)
    assert ml.rows == 2 and ml.cols == 4
    span = Subspace.from_vectors(4, np.vstack([ml.to_dense(), mr.to_dense()]))
    assert span.dim == 4


def test_induced_map_respects_composition(torus3):
    t2 = torus3.model
    t4 = product(t2, t2, 5, name="t4")
    c = torus3.left.target
    comp = compose(torus3.left, t4.left)  # t4 -> t2 -> circle
    m_direct, _, _ = induced_matrix(comp, 1)
    m_left, _, _ = induced_matrix(t4.left, 1)
    m_t2, _, _ = induced_matrix(torus3.left, 1)
    assert m_direct == m_t2.matmul(m_left)


def test_cup_square_class_on_torus(torus3):
    m = torus3.model
    h1 = cohomology_basis(m, 1)
    h2 = cohomology_basis(m, 2)
    assert h2.dim == 1
    e1, e2 = h1.reps
    assert not h2.coords(cup(e1, e1)).any()
    assert not h2.coords(cup(e2, e2)).any()
    assert h2.coords(cup(e1, e2)).any()


def test_twisted_homology_of_order_two(rp6):
    em, flip = bar_e_z2(6)
    pair = quotient_free_involution(em, flip)
    want_twisted = ["Z/2", "0", "Z/2", "0", "Z/2", "0"]
    got = [str(twisted_homology(pair, p)) for p in range(6)]
    assert got == want_twisted
    want_plain = ["Z", "Z/2", "0", "Z/2", "0", "Z/2"]
    got = [str(integral_homology(pair.base, p).invariants) for p in range(6)]
    assert got == want_plain
    for p in range(6):
        assert twisted_homology(pair, p, coeff="F2") == AbelianGroupInvariants(0, (2,))
    with pytest.raises(ValidationError, match="unknown coefficient system 'Z'"):
        twisted_homology(pair, 0, coeff="Z")


def test_twisted_top_degree_kernel_shortcut():
    em, flip = bar_e_z2(5)
    pair = quotient_free_involution(em, flip)
    # the twisted degree-5 boundary is injective, so no higher chains needed
    assert twisted_homology(pair, 5).is_zero
    with pytest.raises(TruncationError):
        integral_homology(pair.base, 5)


def test_disjoint_double_sees_untwisted_coefficients():
    rp3 = bar_b(z2_table(), 3)
    triv = cover_from_cocycle(rp3, Cochain.zero(rp3, 1), allow_trivial=True)
    assert str(twisted_homology(triv, 0)) == "Z"
    assert str(twisted_homology(triv, 1)) == "Z/2"


def test_homology_outside_the_stored_degrees():
    pair = get_fixture("z2-secondary").cover
    top = pair.base.max_degree
    for p in (-1, top + 1):
        for coeff in ("Z-", "F2"):
            with pytest.raises(TruncationError, match=f"no chains stored in degree {p}$"):
                twisted_homology(pair, p, coeff)
        with pytest.raises(TruncationError, match=f"no chains stored in degree {p}$"):
            integral_homology(pair.base, p)


def test_integral_truncation_guard():
    c = circle(2)
    t2 = product(c, c, 2).model
    with pytest.raises(TruncationError):
        integral_homology(t2, 2)


def test_top_degree_truncation_builds_no_boundary(monkeypatch):
    # fewer (p-1)-cells than p-cells: the top-degree answer cannot certify,
    # and that is known before any boundary matrix is built
    z4 = bar_b(z4_table(), 3)
    assert z4.cells[2:] == (9, 27)
    pair = cover_from_cocycle(z4, Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8)))

    def no_boundary(*args):
        raise AssertionError("boundary built")

    monkeypatch.setattr(type(z4), "signed_faces", no_boundary)
    monkeypatch.setattr(CoverPair, "twisted_faces", no_boundary)
    with pytest.raises(TruncationError, match="H_3 needs degree-4 chains"):
        integral_homology(z4, 3)
    with pytest.raises(TruncationError, match="twisted H_3 needs degree-4 chains"):
        twisted_homology(pair, 3)


def test_torus_integral_homology(torus3):
    m = torus3.model
    assert str(integral_homology(m, 0).invariants) == "Z"
    assert str(integral_homology(m, 1).invariants) == "Z + Z"
    assert str(integral_homology(m, 2).invariants) == "Z"


def test_bar_z4_mod2_betti():
    b = bar_b(z4_table(), 4)
    assert [mod2_betti(b, k) for k in range(4)] == [1, 1, 1, 1]


# -- coordinates of many cochains at once ---------------------------------------


def _catalog_bases():
    out = []
    for name in REGISTRY:
        fx = get_fixture(name)
        out.append(fx.nt.base if fx.nt is not None else fx.stress_model)
    return out


def _greedy_reps(model, k):
    """The closed rows kept, in order, when each raises the rank of
    [coboundary rows; rows kept so far].

    That rank is the rank of [coboundary rows; every closed row before], so
    the kept rows are where this prefix rank grows; bisection finds them with
    few rank computations.
    """
    n = model.n_cells(k)
    delta = coboundary_matrix(model, k - 1).to_dense().T if k else np.zeros((0, n), np.uint8)
    closed = kernel_basis(coboundary_matrix(model, k)).to_dense()

    def prefix_rank(i):
        return rank(F2Matrix.from_dense(np.vstack([delta, closed[:i]])))

    kept = []
    todo = [(0, prefix_rank(0), len(closed), prefix_rank(len(closed)))]
    while todo:
        lo, r_lo, hi, r_hi = todo.pop()
        if r_lo == r_hi:
            continue
        if hi - lo == 1:
            kept.append(lo)
            continue
        mid = (lo + hi) // 2
        r_mid = prefix_rank(mid)
        todo += [(lo, r_lo, mid, r_mid), (mid, r_mid, hi, r_hi)]
    return closed[sorted(kept)]


def test_coords_matrix_matches_coords_on_catalog_bases():
    rng = np.random.default_rng(23)
    shapes = set()
    for model in _catalog_bases():
        for k in range(min(4, model.max_degree - 1) + 1):
            basis = cohomology_basis(model, k)
            reps = np.array([r.values for r in basis.reps], dtype=np.uint8)
            reps = reps.reshape(basis.dim, model.n_cells(k))
            assert np.array_equal(reps, _greedy_reps(model, k)), (model.name, k)
            cochains = []
            for _ in range(3):
                u = basis.class_from_coords(rng.integers(0, 2, basis.dim))
                if k > 0:
                    v = rng.integers(0, 2, model.n_cells(k - 1))
                    u = u + coboundary(Cochain(model, k - 1, v))
                cochains.append(u)
            for batch in (cochains, []):
                m = basis.coords_matrix(batch)
                assert (m.rows, m.cols) == (len(batch), basis.dim)
                dense = m.to_dense()
                for j, u in enumerate(batch):
                    assert np.array_equal(dense[j], basis.coords(u)), (model.name, k)
                shapes.add((basis.dim == 0, len(batch) == 0))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_coordinate_matrices_are_rows():
    # row j of coords_matrix is the coordinate vector of cochain j, and row j
    # of induced_matrix that of the pullback of target representative j; one
    # more cochain than the dimension keeps the matrices off the square
    rng = np.random.default_rng(29)
    checked = set()
    for name in REGISTRY:
        fx = get_fixture(name)
        base = fx.nt.base if fx.nt is not None else fx.stress_model
        models = [base] + ([fx.cover.cover] if fx.cover is not None else [])
        maps = [("projection", fx.cover.projection)] if fx.cover is not None else []
        maps += [("section", fx.section.s)] if fx.section is not None else []
        for model in models:
            for k in range(1, min(4, model.max_degree - 1) + 1):
                basis = cohomology_basis(model, k)
                cochains = [
                    basis.class_from_coords(rng.integers(0, 2, basis.dim))
                    + coboundary(Cochain(model, k - 1, rng.integers(0, 2, model.n_cells(k - 1))))
                    for _ in range(basis.dim + 1)
                ]
                m = basis.coords_matrix(cochains)
                assert (m.rows, m.cols) == (len(cochains), basis.dim), (model.name, k)
                dense = m.to_dense()
                for j, u in enumerate(cochains):
                    assert np.array_equal(dense[j], basis.coords(u)), (model.name, k, j)
                checked.add("coords")
        for label, f in maps:
            for k in range(1, min(4, f.source.max_degree - 1, f.target.max_degree - 1) + 1):
                m, src, tgt = induced_matrix(f, k)
                assert (m.rows, m.cols) == (tgt.dim, src.dim), (name, f.name, k)
                dense = m.to_dense()
                for j, rep in enumerate(tgt.reps):
                    assert np.array_equal(dense[j], src.coords(f.pullback(rep))), (name, k, j)
                checked.add(label)
    assert checked == {"coords", "projection", "section"}


def _stacked_reduction(model, degree, certified):
    """The basis as it was built before residues: a closed row is kept when
    its column is a pivot of [delta_{k-1} | closed^T], and the span is that
    of the coboundaries followed by the representatives.  Returns the
    representatives and the span."""
    n = model.n_cells(degree)
    if certified:
        closed = kernel_basis(coboundary_matrix(model, degree)).to_dense()
    else:
        closed = np.eye(n, dtype=np.uint8)
    cob = coboundary_matrix(model, degree - 1) if degree > 0 else F2Matrix(n, 0)
    start = cob.words.shape[1] * 64
    words = np.hstack([cob.words, F2Matrix.from_dense(closed.T).words])
    stacked = F2Matrix(n, start + len(closed), words)
    pivots = np.array(rank_and_echelon(stacked).pivots, dtype=int)
    reps = closed[pivots[pivots >= start] - start]
    return reps, Subspace.from_vectors(n, np.vstack([cob.to_dense().T, reps]))


def _stacked_coords(reps, span, values):
    """Coordinates on the stacked span: the last coefficients, over the reps."""
    combo = span.combination(values)
    return combo[:, combo.shape[1] - len(reps) :]


# an identity matrix over the top degree is dense, so the uncertified top
# degree is checked where it has at most this many cells (all but bar D8 to
# depth 5, with 16807)
_TOP_CELLS = 5000


@functools.lru_cache(maxsize=None)
def _reduction_cases():
    """(model, degree, allow_truncated): bar models of Z/2, Z/4, Klein four
    and D8 to depth 5 and the catalog bases and covers, at every certified
    degree and at the top degree."""
    models = [
        bar_b(table(), depth, name=f"bar-{table.__name__}-{depth}")
        for table in (z2_table, z4_table, klein_table, dihedral8_table)
        for depth in range(1, 6)
    ]
    models += _catalog_bases()
    models += [get_fixture(name).cover.cover for name in REGISTRY if get_fixture(name).cover]
    cases = []
    for model in models:
        cases += [(model, k, False) for k in range(model.max_degree)]
        if model.cells[model.max_degree] <= _TOP_CELLS:
            cases.append((model, model.max_degree, True))
    return cases


@functools.lru_cache(maxsize=None)
def _reference(case_index):
    model, k, truncated = _reduction_cases()[case_index]
    return _stacked_reduction(model, k, not truncated)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_residue_reduction_matches_stacked_pivots(seed):
    rng = np.random.default_rng(seed)
    for i, (model, k, truncated) in enumerate(_reduction_cases()):
        basis = cohomology_basis(model, k, allow_truncated=truncated)
        reps, span = _reference(i)
        assert np.array_equal(basis.reduction.reps, reps), (model.name, k)
        # closed cochains: a random sum of reps plus a random coboundary
        n = model.n_cells(k)
        values = (rng.integers(0, 2, (4, len(reps))) @ reps & 1).reshape(4, n)
        cochains = [Cochain(model, k, v) for v in values]
        if k > 0:
            below = rng.integers(0, 2, (4, model.n_cells(k - 1)))
            cochains = [u + coboundary(Cochain(model, k - 1, v)) for u, v in zip(cochains, below)]
        want = _stacked_coords(reps, span, np.array([u.values for u in cochains]))
        assert np.array_equal(basis.coords_matrix(cochains).to_dense(), want), (model.name, k)


def test_catalog_span_transform_rows_are_relations_without_an_echelon(monkeypatch):
    # on every coboundary span of the catalog models, reading relations and
    # combinations runs no elimination: T's rows are already canonical
    calls = []
    echelon = gf2.rank_and_echelon
    monkeypatch.setattr(gf2, "rank_and_echelon", lambda m: calls.append(m) or echelon(m))
    for name in REGISTRY:
        fx = get_fixture(name)
        models = [fx.nt.base if fx.nt is not None else fx.stress_model]
        models += [fx.cover.cover] if fx.cover is not None else []
        for model in models:
            for k in range(1, model.max_degree + 1):
                span = model.coboundary_span(k)
                calls.clear()
                assert transform_rows_canonical(span), (name, model.name, k)
                assert calls == [], (name, model.name, k)


def test_representatives_are_the_pivot_vectors_of_one_residue_reduction():
    # the basis reduces the residues of every closed cochain once; its
    # representatives are the pivot vectors of that reduction, in order
    for model, k, truncated in _reduction_cases():
        if model.cells[k] > 3000:
            continue
        reduction = cohomology_basis(model, k, allow_truncated=truncated).reduction
        n = model.n_cells(k)
        if truncated:
            closed = np.eye(n, dtype=np.uint8)
        else:
            closed = kernel_basis(coboundary_matrix(model, k)).to_dense()
        residues = cohomology._residues(model, k, closed)
        kept = sorted(Subspace.from_vectors(n, residues).pivot_rows)
        assert np.array_equal(reduction.reps, closed[kept]), (model.name, k)
        assert reduction.span == Subspace.from_vectors(n, residues[kept]), (model.name, k)


def test_only_relations_and_combination_build_a_span_transform(monkeypatch):
    # residues, membership and coboundary tests read the reduced basis of
    # B^k alone; the first relations or combination build the transform of
    # that one reduction, and later ones reuse it
    builds = []
    replay = gf2._replay

    def counted(n, *log, **free_only):
        builds.append(n)
        return replay(n, *log, **free_only)

    monkeypatch.setattr(gf2, "_replay", counted)
    model = bar_b(klein_table(), 4, name="klein")
    rng = np.random.default_rng(5)
    for k in (2, 3):
        rows = rng.integers(0, 2, (4, model.n_cells(k)), dtype=np.uint8)
        lower = Cochain(model, k - 1, rng.integers(0, 2, model.n_cells(k - 1), dtype=np.uint8))
        cohomology._residues(model, k, rows)
        model.coboundary_span(k).contains(rows)
        assert is_coboundary(coboundary(lower))
        is_coboundary(Cochain(model, k, rows[0]))
        assert not transform_built(model.coboundary_span(k))
    assert builds == []
    for _ in range(2):
        assert model.coboundary_span(3).relations.rows > 0
        target = coboundary(Cochain(model, 1, rng.integers(0, 2, model.n_cells(1), dtype=np.uint8)))
        model.coboundary_span(2).combination(target.values)
    assert builds == [model.cells[2], model.cells[1]]


def test_cached_bases_hold_only_their_classes():
    # a basis span of dimension dim holds the representatives' residues and
    # no copy of the coboundaries, which only coboundary_span reduces
    checked = 0
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.nt is None:
            continue
        v = decide(fx.nt, fx.cover, fx.section, fx.lift_data)
        assert replay_evidence(v, fx.nt, fx.cover, fx.section), name
        page = e2_page(fx.nt, fx.cover)
        killers_report(fx.nt, page, d2_maps(fx.nt, page), v)
        base = fx.nt.base
        covers = [parts.cover for key, parts in base._cache.items() if key[0] == "cover"]
        models = [base] + covers
        if fx.cover is not None:
            models.append(fx.cover.cover)
        for model in models:
            for key, reduction in model._cache.items():
                if key[0] == "hbasis":
                    assert reduction.span.dim == len(reduction.reps), (name, model.name, key)
                    checked += 1
    assert checked


def test_group_homology_closed_forms():
    z4 = bar_b(z4_table(), 6, name="bar-z4")
    v4 = bar_b(klein_table(), 6, name="bar-z2xz2")
    for n in range(1, 6):
        want = (4,) if n % 2 else ()
        assert integral_homology(z4, n).invariants == AbelianGroupInvariants(0, want)
        want = (2,) * ((n + 3) // 2 if n % 2 else n // 2)
        assert integral_homology(v4, n).invariants == AbelianGroupInvariants(0, want)
    parity = Cochain(z4, 1, np.array([g % 2 for g in range(1, 4)], dtype=np.uint8))
    pair = cover_from_cocycle(z4, parity)
    got = [twisted_homology(pair, n, "Z-") for n in range(6)]
    assert got == [AbelianGroupInvariants(0, () if n % 2 else (2,)) for n in range(6)]


def _route_invariants(bout, bin_):
    return _transform_route(bout, bin_)[0]


def test_eager_invariants_match_generator_route():
    checked = 0
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.nt is None:
            continue
        pair = fx.cover or cover_data_from_w1(fx.nt)
        base = pair.base
        for p in range(base.max_degree):
            if _boundary_load(base, p) > DEFAULT_INT_SIZE_CAP:
                continue
            n = base.cells[p]
            t_out = pair.twisted_faces(p) if p else FaceTable.zero(0, n)
            t_in = pair.twisted_faces(p + 1)
            eager = homology_from_reductions(t_out, t_in, t_out.reduce(), t_in.reduce()).invariants
            assert eager == _route_invariants(t_out.dense(), t_in.dense()), (name, p)
            checked += 1
    assert checked == 26
    model = get_fixture("k2-stress").stress_model
    for p in range(1, 5):
        bout, bin_ = model.signed_faces(p).dense(), model.signed_faces(p + 1).dense()
        eager = integral_homology(model, p).invariants
        assert eager == _route_invariants(bout, bin_), p
