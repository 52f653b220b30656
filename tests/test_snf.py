import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stexo.snf as snf
from stexo.builders import bar_b, klein_table, z2_table, z4_table
from stexo.catalog import get_fixture
from stexo.cohomology import twisted_integral_homologies
from stexo.errors import InternalInvariantError
from stexo.obstruction import cover_data_from_w1
from stexo.simplicial import Cochain, cover_from_cocycle
from stexo.snf import (
    AbelianGroupInvariants,
    FaceTable,
    HomologyResult,
    homology_from_reductions,
)

import reference
from reference import mod2_rank


def _exact(m, rows, cols):
    """m as an exact (Python-int) object array of the given shape."""
    return np.array(m, dtype=object).reshape(rows, cols)


def _homology(d_out, d_in, n: int) -> HomologyResult:
    """The homology of two boundaries, each a face table or a matrix ([] for
    none: 0 x n, respectively n x 0), from their tables' invariant factors."""
    out, in_ = (
        b if isinstance(b, FaceTable) else FaceTable.from_dense(np.reshape(np.array(b, np.int64), s))
        for b, s in ((d_out, (-1, n)), (d_in, (n, -1)))
    )
    return homology_from_reductions(out, in_, out.reduce(), in_.reduce())


def smith_form(a: list[list[int]]) -> snf.SNFResult:
    """The Smith loop on a list of row lists, handed identities for U_inv, V
    and V_inv, so that it returns the transforms: on int64 when the entries
    fit it, else on Python ints."""
    nr, nc = len(a), len(a[0]) if a else 0
    try:
        m = np.array(a, dtype=np.int64).reshape(nr, nc)
    except OverflowError:
        m = np.array(a, dtype=object).reshape(nr, nc)
    V = np.eye(nc, dtype=np.int64)
    return snf._smith(m, np.eye(nr, dtype=np.int64), V, V.copy())


def check_snf(a):
    res = smith_form(a)
    nr, nc = len(a), len(a[0]) if a else 0
    Ui = _exact(res.U_inv, nr, nr)
    V, Vi = _exact(res.V, nc, nc), _exact(res.V_inv, nc, nc)
    # A = U_inv D V_inv, exactly
    d = np.zeros((nr, nc), dtype=object)
    d[range(len(res.diag)), range(len(res.diag))] = res.diag
    assert (Ui @ d @ Vi).tolist() == _exact(a, nr, nc).tolist()
    # the transforms are mutually inverse, hence unimodular; U, which the
    # loop does not carry, is the object-array oracle's
    U = _exact(reference.smith_normal_form(a).U, nr, nr)
    assert (U @ Ui).tolist() == np.eye(nr, dtype=int).tolist()
    assert (V @ Vi).tolist() == np.eye(nc, dtype=int).tolist()
    for k in range(len(res.diag) - 1):
        assert res.diag[k + 1] % res.diag[k] == 0
        assert res.diag[k] > 0
    return res


def test_snf_classic_divisibility():
    # diag(2, 3) is not in normal form; invariants are 1, 6
    res = check_snf([[2, 0], [0, 3]])
    assert res.diag == [1, 6]


def test_snf_known_small_cases():
    assert check_snf([[1]]).diag == [1]
    assert check_snf([[0]]).diag == []
    # det = 0, gcd = 1: single invariant factor
    assert check_snf([[4, 6], [6, 9]]).diag == [1]
    assert check_snf([[2, 4], [4, 8]]).diag == [2]
    assert check_snf([[-2]]).diag == [2]


def test_snf_transforms_are_pinned():
    # diag(2, 3) takes the divisibility fix-up; the second one a column swap
    res = check_snf([[2, 0], [0, 3]])
    assert res.diag == [1, 6]
    assert [np.asarray(m).tolist() for m in (res.U_inv, res.V, res.V_inv)] == [
        [[-2, 1], [3, -1]],
        [[-1, 3], [1, -2]],
        [[2, 3], [1, 1]],
    ]
    res = check_snf([[4, 6, 2], [6, 9, 3]])
    assert res.diag == [1]
    assert [np.asarray(m).tolist() for m in (res.U_inv, res.V, res.V_inv)] == [
        [[2, 1], [3, 1]],
        [[0, 0, 1], [0, 1, 0], [1, -3, -2]],
        [[2, 3, 1], [0, 1, 0], [1, 0, 0]],
    ]


def test_snf_empty_shapes():
    assert check_snf([]).diag == []
    assert check_snf([[]]).diag == []
    assert check_snf([[0, 0, 0]]).diag == []


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_snf_random_matrices(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(rows, cols)).tolist()
    res = check_snf(a)
    # product of invariants matches gcd of k x k minors for k = 1
    flat = [abs(x) for row in a for x in row if x]
    if flat:
        g = 0
        for x in flat:
            g = np.gcd(g, x)
        assert res.diag[0] == g
    else:
        assert res.diag == []


# entries weighted towards 0 and +-1, the values boundary matrices hold
_ENTRIES = st.sampled_from([0] * 8 + [1, -1] * 4 + [2, -2, 3, -4, 6, 9])


@st.composite
def _int_matrices(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    vals = draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(vals, dtype=np.int64).reshape(rows, cols)


@given(_int_matrices(), st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_smith_form(a, scale):
    # scaled by 2 or 3 no entry is a unit, so the exact Smith form does it all
    a = a * scale
    assert FaceTable.from_dense(a).reduce()[0] == smith_form(a.tolist()).diag


def test_invariant_factors_hand_off_before_int64_overflow(monkeypatch):
    # after the first pivot, clearing column 1 would put -big**2 = -2**80 in
    # the block; the elimination must stop and pass that block on exactly,
    # to a Smith reduction handed zero-width arrays, which carries no transform
    big = 1 << 40
    a = np.array([[1, 0, 0], [0, 1, big], [0, big, 0]], dtype=np.int64)
    cores = []
    smith = snf._smith

    def spy(m, *carried):
        cores.append((m.shape, [x.shape for x in carried]))
        return smith(m, *carried)

    monkeypatch.setattr(snf, "_smith", spy)
    assert FaceTable.from_dense(a).reduce()[0] == [1, 1, big * big]
    assert cores == [((2, 2), [(0, 2), (0, 2), (2, 0)])]


@st.composite
def _boundary_like(draw):
    """Up to 40 x 120, each column 2 to 6 entries of +-1 or +-2 (fewer when
    there are fewer rows), as in a boundary matrix: pivot rows with several
    nonzero columns, and columns that meet several rows."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.zeros((rows, cols), dtype=np.int64)
    for c in range(cols):
        hit = rng.choice(rows, size=min(rng.integers(2, 7), rows), replace=False)
        a[hit, c] = rng.choice([1, -1, 2, -2], size=hit.size)
    return a


@given(_boundary_like())
@settings(max_examples=60, deadline=None)
def test_invariant_factors_match_smith_form_on_boundary_like_matrices(a):
    want = reference.smith_normal_form(a.tolist()).diag
    assert FaceTable.from_dense(a).reduce()[0] == want


def _as_ints(res) -> list:
    """diag, U_inv, V and V_inv of a Smith form as Python int lists."""
    arrays = (res.U_inv, res.V, res.V_inv)
    return [res.diag, *([[int(x) for x in row] for row in np.asarray(m).tolist()] for m in arrays)]


# small entries and entries near +-2**61, where a few updates leave int64
_WIDE_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-4, 4).map(lambda d: (1 << 61) + d),
    st.integers(-4, 4).map(lambda d: -(1 << 61) + d),
)


@st.composite
def _wide_matrices(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    vals = draw(st.lists(_WIDE_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return [vals[r * cols : (r + 1) * cols] for r in range(rows)]


@given(st.one_of(_int_matrices().map(np.ndarray.tolist), _wide_matrices()))
@settings(max_examples=120, deadline=None)
def test_smith_form_equals_object_array_oracle(a):
    # the int64 loop under carried bounds, switching to Python ints where a
    # bound runs out, takes the oracle's steps: the same integers come back
    assert _as_ints(smith_form(a)) == _as_ints(reference.smith_normal_form(a))


def test_smith_form_moves_to_python_ints_partway():
    # every entry fits the int64 bound, so the loop starts on int64; the
    # divisibility fix-up's Euclid steps take d_2 to 122 bits
    a = [[(1 << 61) + 1, 0], [0, (1 << 61) - 1]]
    assert snf._abs_max(np.array(a)) <= snf._INT64_SAFE
    res = smith_form(a)
    assert res.U_inv.dtype == object and res.V.dtype == object
    assert res.diag == [1, (1 << 122) - 1]
    assert _as_ints(res) == _as_ints(reference.smith_normal_form(a))
    check_snf(a)
    # entries of 41 bits: V comes back below 2**42, but U_inv reaches 79
    # bits; without its bound the int64 loop would wrap
    a = [[1, 1, 0], [0, 0, 3], [(1 << 40) + 1, 1, 1 << 40], [0, 3, 3]]
    res = smith_form(a)
    assert res.U_inv.dtype == object and res.V.dtype == object and res.diag == [1, 1, 3]
    assert snf._abs_max(res.V) < 1 << 42 and snf._abs_max(res.U_inv) >= 1 << 78
    assert _as_ints(res) == _as_ints(reference.smith_normal_form(a))
    check_snf(a)
    # past the bound from the start, the loop runs on Python ints throughout
    big = [[1 << 63, 2], [4, 6]]
    assert _as_ints(smith_form(big)) == _as_ints(reference.smith_normal_form(big))


def test_unit_elimination_bounds_the_whole_matrix():
    # the first pivot's update touches only row 1, whose entries are small;
    # the bound also covers row 2's 2**62, so the elimination stops there
    # and the Smith form, on int64, finds the same invariants
    a = np.array([[1, 1, 0], [1, 2, 0], [0, 0, 1 << 62]], dtype=np.int64)
    want = reference.smith_normal_form(a.tolist()).diag
    assert want == [1, 1, 1 << 62]
    assert FaceTable.from_dense(a).reduce()[0] == want
    pivots, block, rows, cols = snf._unit_pivots(a.copy())
    assert len(pivots) == 0
    m = np.zeros_like(a)
    m[np.ix_(rows, cols)] = block
    assert (m == a).all()


def _same_elimination(a: np.ndarray) -> None:
    """_unit_pivots and the reference loop take the same pivot rows and
    leave the same matrix: the live block at its row and column indices,
    zero elsewhere."""
    want = a.copy()
    pivots, block, rows, cols = snf._unit_pivots(a.copy())
    assert pivots == reference.eliminate_units(want)
    m = np.zeros_like(a)
    m[np.ix_(rows, cols)] = block
    assert np.array_equal(m, want)


@st.composite
def _small_integer_matrices(draw):
    """Up to 12 x 12, sparse entries in -3..3, so that rows and columns met
    by a single unit are common."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((rows, cols)) < draw(st.floats(0.05, 0.8))
    return np.where(keep, rng.integers(-3, 4, (rows, cols)), 0)


@given(st.one_of(_small_integer_matrices(), _boundary_like(), _wide_matrices().filter(len)))
@settings(max_examples=150, deadline=None)
def test_unit_elimination_equals_reference_loop(a):
    # the same candidates in the same order under the same int64 bound,
    # also where entries near 2**61 make the bound run out
    _same_elimination(np.array(a, dtype=np.int64))


@pytest.mark.parametrize("degree", [5, 6])
@pytest.mark.parametrize("table", [z4_table, klein_table], ids=["z4", "z2xz2"])
def test_unit_elimination_equals_reference_loop_on_bar_boundaries(table, degree):
    _same_elimination(bar_b(table(), 6).signed_faces(degree).dense())


def test_abelian_invariants_str_and_ranks():
    g = AbelianGroupInvariants(2, (2, 4))
    assert str(g) == "Z + Z + Z/2 + Z/4"
    assert mod2_rank(g) == 4
    assert str(AbelianGroupInvariants(0)) == "0"
    assert AbelianGroupInvariants(0).is_zero
    assert mod2_rank(AbelianGroupInvariants(1, (3,))) == 1


def test_homology_circle_like():
    # one 0-cell, one 1-cell, boundary zero: H_0 = Z, H_1 = Z
    h0 = _homology([], [[0]], 1)
    assert h0.invariants == AbelianGroupInvariants(1)
    h1 = _homology([[0]], [], 1)
    assert h1.invariants == AbelianGroupInvariants(1)


def test_homology_torsion():
    # Z --2--> Z presents Z/2
    h = _homology([], [[2]], 1)
    assert h.invariants == AbelianGroupInvariants(0, (2,))
    gens = h.generator_chains()
    assert len(gens) == 1 and abs(gens[0][0]) == 1


def test_homology_rp2_cellular():
    # cellular chain complex of the real projective plane:
    # C2 = Z --(1+a)--> C1 = Z --0--> C0 = Z, with d2 = 2, d1 = 0
    h0 = _homology([], [[0]], 1)
    h1 = _homology([[0]], [[2]], 1)
    h2 = _homology([[2]], [], 1)
    assert h0.invariants == AbelianGroupInvariants(1)
    assert h1.invariants == AbelianGroupInvariants(0, (2,))
    assert h2.invariants == AbelianGroupInvariants(0)


def test_homology_generators_are_cycles_mod_image():
    d_out = [[1, -1, 0, 0], [0, 1, -1, 0]]
    # columns must lie in ker(d_out) = {(a,a,a,b)}
    d_in = [[3, 0], [3, 0], [3, 0], [0, 5]]
    h = _homology(d_out, d_in, 4)
    # Z/3 + Z/5 normalizes to the single invariant factor 15
    assert h.invariants == AbelianGroupInvariants(0, (15,))
    for chain in h.generator_chains():
        out = [sum(r * c for r, c in zip(row, chain)) for row in d_out]
        assert not any(out)


def test_homology_rejects_nonzero_composite():
    with pytest.raises(InternalInvariantError):
        _homology([[1, 0]], [[1], [0]], 2)
    # 2**32 * 2**32 wraps to 0 in int64; past the entry bound the check is exact
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        _homology([[1 << 32]], [[1 << 32]], 1)


def test_homology_rejects_flipped_sign_in_wide_boundary():
    # the degree-6 boundary of the bar model of Z/4 is 243 x 729; one flipped
    # sign leaves a column that is no cycle
    model = bar_b(z4_table(), 6)
    d5, d6 = model.signed_faces(5).dense(), model.signed_faces(6).dense()
    assert d6.shape == (243, 729)
    k, j = np.argwhere(d6)[0]
    assert d5[:, k].any()
    d6[k, j] = -d6[k, j]
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        _homology(d5, d6, 243)


def test_generator_route_must_agree_with_invariants():
    d_in = FaceTable.from_dense(np.array([[2]], dtype=np.int64))
    wrong = HomologyResult(AbelianGroupInvariants(1), FaceTable.zero(0, 1), *d_in.reduce()[1:])
    with pytest.raises(InternalInvariantError, match="generator route"):
        wrong.generator_chains()


@pytest.mark.parametrize(
    "chain, cycle",
    [
        ([1, 0], False),
        ([1 << 64, 1 << 64], True),
        ([(1 << 64) + 1, 1], False),
    ],
)
def test_generator_chains_are_checked_to_be_cycles(monkeypatch, chain, cycle):
    # boundary 1 is [1, -1], so H_1 = Z is generated by (1, 1); a route that
    # returns the right invariants with a chain that is not a cycle is
    # refused, exactly also on Python ints, where (2**64 + 1, 1) would pass
    # mod 2**64
    d_out, d_in = FaceTable.from_dense(np.array([[1, -1]])), FaceTable.zero(2, 0)
    res = homology_from_reductions(d_out, d_in, d_out.reduce(), d_in.reduce())
    assert res.invariants == AbelianGroupInvariants(1)
    assert np.abs(res.generator_chains()).tolist() == [[1, 1]]
    found = np.array([chain], dtype=object)
    monkeypatch.setattr(snf, "_transform_route", lambda *a: (res.invariants, found))
    if cycle:
        assert res.generator_chains().tolist() == [chain]
    else:
        with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
            res.generator_chains()


def test_face_table_keeps_python_ints_past_int64():
    # from_dense keeps an object array's entries exactly; the composite of
    # (big + 1, -(big + 1)) with (big, big) cancels, with (big, 0) it is
    # (big + 1) big, which is 0 mod 2**64
    big = 1 << 64
    lower = FaceTable.from_dense(np.array([[big + 1, -(big + 1)]], dtype=object))
    assert lower.signs.tolist() == [[big + 1, -(big + 1)]]
    cancelling = FaceTable.from_dense(np.array([[big], [big]], dtype=object))
    other = FaceTable.from_dense(np.array([[big], [0]], dtype=object))
    assert other.signs.tolist() == [[big]]
    snf._check_faces_of_faces(lower, cancelling)
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        snf._check_faces_of_faces(lower, other)
    assert snf._composite_entries(lower, other)[2].tolist() == [(big + 1) * big]


def test_homology_rejects_noncycle_image():
    # d_in column outside ker(d_out)
    with pytest.raises(InternalInvariantError):
        _homology([[1, 0]], [[1], [0]], 2)
    # the generator route finds it on its own: nonzero rows above the kernel
    with pytest.raises(InternalInvariantError, match="cycle lattice"):
        snf._transform_route(np.array([[1, 0]]), np.array([[1], [0]]))


def _chain_pairs(model, faces):
    """(p, boundary p, boundary p + 1) as face tables, for each p below the
    top degree of model; faces(k) is the table of boundary k."""
    for p in range(model.max_degree):
        yield p, faces(p) if p else FaceTable.zero(0, model.cells[0]), faces(p + 1)


def _route_cases():
    """(id, boundary out, boundary in, how the kernel columns start the
    second Smith form): the plain and twisted chain pairs of two catalog
    fixtures and the plain ones of three bar models up to degree 4 (None),
    and two hand-made pairs with an entry of boundary_out past the int64
    bound, so that the first Smith form runs on Python ints and hands its
    kernel columns on as an object array: in the first they fit the bound
    (True), in the second they do not (False)."""
    for name in ("rp-w2-zero", "z2-secondary"):
        fx = get_fixture(name)
        pair = fx.cover or cover_data_from_w1(fx.nt)
        for kind, faces in (("plain", pair.base.signed_faces), ("twisted", pair.twisted_faces)):
            for p, t_out, t_in in _chain_pairs(pair.base, faces):
                yield f"{name}-{kind}-{p}", t_out, t_in, None
    for name, table in (("z2", z2_table), ("z4", z4_table), ("z2xz2", klein_table)):
        model = bar_b(table(), 5)
        for p, t_out, t_in in _chain_pairs(model, model.signed_faces):
            yield f"bar-{name}-{p}", t_out, t_in, None
    a = (1 << 62) + 1
    hand = (
        ([[a, 0, 0], [0, (1 << 61) - 1, 0]], [[0], [0], [2]], True),
        ([[a, a + 2, 0]], [[a + 2, 0], [-a, 0], [0, 2]], False),
    )
    for k, (d_out, d_in, fits) in enumerate(hand):
        t_out, t_in = (FaceTable.from_dense(np.array(d, dtype=np.int64)) for d in (d_out, d_in))
        yield f"hand-{k}", t_out, t_in, fits


_ROUTE_CASES = list(_route_cases())


def _in_span(vectors: np.ndarray, span: np.ndarray) -> bool:
    """Whether every row of vectors is an integer combination of the rows of
    span, read off the object-array Smith form U A V = D of A = span^T:
    A x = v has an integer solution iff the first entries of U v are
    divisible by d_1, d_2, ... in turn and the rest are zero."""
    s = reference.smith_normal_form(np.asarray(span, dtype=object).T.tolist())
    w = s.U @ np.asarray(vectors, dtype=object).T
    r = len(s.diag)
    return not w[r:].any() and all(x % d == 0 for d, row in zip(s.diag, w) for x in row)


@pytest.mark.parametrize(
    "t_out, t_in, fits", [c[1:] for c in _ROUTE_CASES], ids=[c[0] for c in _ROUTE_CASES]
)
def test_generator_route_equals_full_transform_oracle(t_out, t_in, fits, monkeypatch):
    # the route runs on boundary_out at the cells K that no unit pivot of
    # boundary_in used and on its residual R, its Smith loop carrying only
    # the products it reads; the oracle's full transforms and exact products
    # on the same pair, put back on K, give the same integers
    handed = []
    smith = snf._smith

    def spy(*arrays):
        handed.append(arrays[1])  # the U_inv side
        return smith(*arrays)

    reduced_in = t_in.reduce()
    res = homology_from_reductions(t_out, t_in, t_out.reduce(), reduced_in)
    monkeypatch.setattr(snf, "_smith", spy)
    chains = res.generator_chains()
    _, kept, residual = reduced_in
    inv, found = reference.transform_route(t_out.dense()[:, kept], residual)
    want = np.zeros((len(found), t_out.shape[1]), dtype=object)
    want[:, kept] = found
    assert res.invariants == inv
    assert chains.shape == want.shape and chains.tolist() == want.tolist()
    if fits is not None:
        kernel = handed[1]
        assert kernel.dtype == object and (snf._abs_max(kernel) <= snf._INT64_SAFE) == fits
    # the oracle on the whole pair takes another route: the same invariants,
    # and each set of chains lies in the span of the other and the image
    d_in = t_in.dense()
    inv, whole = reference.transform_route(t_out.dense(), d_in)
    assert res.invariants == inv
    assert _in_span(chains, np.vstack([whole, d_in.T]))
    assert _in_span(whole, np.vstack([chains, d_in.T]))


def test_generator_route_carries_no_square_array_in_the_upper_cells(monkeypatch):
    # d4-reflection, twisted H_3: the first Smith form reduces boundary 3 at
    # the cells K that no unit pivot of boundary 4 used and carries V, of K
    # alone, and the residual of boundary 4; the second reduces the image
    # coordinates and carries the kernel columns; neither is handed a
    # transform of the 4-cells, and the first a U_inv of no rows
    fx = get_fixture("d4-reflection")
    pair = fx.cover or cover_data_from_w1(fx.nt)
    res = twisted_integral_homologies(pair, [3])[3]
    n_p, n_hi = pair.base.cells[3], pair.base.cells[4]
    kept = n_p - len(snf._unit_pivots(pair.twisted_faces(4).dense())[0])
    shapes = []
    smith = snf._smith

    def spy(m, *carried):
        shapes.append([x.shape for x in (m, *carried)])
        return smith(m, *carried)

    monkeypatch.setattr(snf, "_smith", spy)
    res.generator_chains()
    assert len(shapes) == 2
    (_, ui, v, _), (_, _, v2, vi2) = shapes
    assert ui[0] == 0
    assert v == (kept, kept) and kept < n_p
    assert v2[0] == vi2[1] == 0
    assert all(shape != (n_hi, n_hi) for call in shapes for shape in call)


@pytest.mark.parametrize("name", ["z4-semidirect", "d4-reflection"])
def test_uncapped_twisted_generators_on_the_big_bases(name, monkeypatch):
    # twisted H_1 to H_4 of the two big bases, past the report's size cap:
    # the route finds the eager invariants, every chain is an exact integer
    # cycle, and only boundary p is scattered
    fx = get_fixture(name)
    pair = fx.cover or cover_data_from_w1(fx.nt)
    base = pair.base
    results = twisted_integral_homologies(pair, range(1, 5))
    routes, scattered = [], []
    route, dense = snf._transform_route, FaceTable.dense
    monkeypatch.setattr(snf, "_transform_route", lambda *a: routes.append(route(*a)) or routes[-1])
    monkeypatch.setattr(FaceTable, "dense", lambda t: scattered.append(t.shape) or dense(t))
    for p, res in results.items():
        scattered.clear()
        chains = res.generator_chains()
        assert routes[-1][0] == res.invariants, (name, p)
        assert scattered and all(rows == base.cells[p - 1] for rows, _ in scattered)
        d = dense(pair.twisted_faces(p))
        assert snf._abs_max(chains) * int(np.abs(d).sum(axis=1).max()) < 1 << 63
        assert not (d @ chains.T.astype(np.int64)).any(), (name, p)


@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([1, 1 << 31, 1 << 40]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sparse_composite_matches_dense_product(rows, inner, cols, scale, seed):
    """_composite_entries of the tables against the exact dense product, on
    float64 and, past the bound (scales 2**31 and 2**40), on Python ints."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, (rows, inner)) * scale
    b = rng.integers(-3, 4, (inner, cols)) * scale
    a[rng.random(a.shape) < 0.5] = 0
    b[:, rng.random(cols) < 0.2] = 0
    want = _exact(a, rows, inner) @ _exact(b, inner, cols)
    r, c, v = snf._composite_entries(FaceTable.from_dense(a), FaceTable.from_dense(b))
    got = np.zeros((rows, cols), dtype=object)
    got[r, c] = v
    assert np.all(v != 0)
    assert (got == want).all()


# (a, b, past the edge): the composite's bound slots_lo slots_hi max|a|
# max|b| just under or just over 2**53 (a has one slot, b as many as its
# column has entries).  Past it the float64 terms are off, so
# _composite_entries must not take the float64 route there.
_FLOAT_EDGE = [
    ([[(1 << 27) - 1]], [[(1 << 26) - 1]], False),
    ([[(1 << 25) - 1, 1 - (1 << 25), (1 << 25) - 1]], [[1 << 26]] * 3, False),
    ([[(1 << 27) + 1]], [[(1 << 26) + 1]], True),
    ([[(1 << 26) + 1, (1 << 26) + 1, 1]], [[(1 << 26) + 1], [(1 << 26) + 1], [-1]], True),
]


@pytest.mark.parametrize("a, b, over", _FLOAT_EDGE)
def test_product_is_exact_at_the_float64_edge(a, b, over):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    lower, upper = FaceTable.from_dense(a), FaceTable.from_dense(b)
    slots = lower.faces.shape[0] * upper.faces.shape[0]
    assert (slots * snf._abs_max(a) * snf._abs_max(b) >= 1 << 53) == over
    want = (_exact(a, *a.shape) @ _exact(b, *b.shape)).tolist()
    r, c, v = snf._composite_entries(lower, upper)
    got = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    got[r, c] = v
    assert v.dtype == np.int64 and got.tolist() == want
    assert ((a.astype(np.float64) @ b.astype(np.float64)).tolist() != want) == over


def _composite(a, b):
    lower, upper = FaceTable.from_dense(np.array(a)), FaceTable.from_dense(np.array(b))
    return snf._composite_entries(lower, upper)


def test_sparse_composite_is_exact_past_int64():
    big = 1 << 40
    # each term is 2**80; they cancel exactly
    r, c, v = _composite([[big, big]], [[big], [-big]])
    assert v.size == 0
    r, c, v = _composite([[big, big]], [[big], [big]])
    assert (r.tolist(), c.tolist(), v.tolist()) == ([0], [0], [1 << 81])


def test_perturbed_bar_composite_raises():
    # the degree-5 and -6 boundaries of the bar model of Z/4 compose to zero;
    # adding one to entry (i, j) of d5 adds row j of d6 to the composite, and
    # to entry (i, j) of d6 adds column i of d5
    model = bar_b(z4_table(), 6)
    d5, d6 = model.signed_faces(5).dense(), model.signed_faces(6).dense()

    def check():
        snf._check_faces_of_faces(FaceTable.from_dense(d5), FaceTable.from_dense(d6))

    check()
    rng = np.random.default_rng(5)
    for m, live in ((d5, d6.any(axis=1)[None, :]), (d6, d5.any(axis=0)[:, None])):
        spots = np.argwhere(np.broadcast_to(live, m.shape))
        for i, j in spots[rng.choice(len(spots), 5, replace=False)].tolist():
            m[i, j] += 1
            with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
                check()
            m[i, j] -= 1


def _flip_one(table: FaceTable, lower: FaceTable) -> FaceTable:
    """table with the sign of its first plain slot whose face is no zero
    column of lower negated."""
    live = np.r_[(lower.signs != 0).any(axis=0), False]
    i, j = np.argwhere((table.signs != 0) & live[table.faces])[0]
    signs = table.signs.copy()
    signs[i, j] = -signs[i, j]
    return FaceTable(table.faces, signs, table.rows)


def test_table_composite_catches_a_flipped_sign_or_a_moved_face():
    # the degree-5 and -6 face tables of the bar model of Z/4, as the
    # homology route reads them: one flipped sign, or one face moved to
    # another 5-cell, leaves a column of d6 that is no cycle
    model = bar_b(z4_table(), 6)
    t5, t6 = model.signed_faces(5), model.signed_faces(6)
    assert _homology(t5, t6, 243).invariants == AbelianGroupInvariants(0, (4,))
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        _homology(t5, _flip_one(t6, t5), 243)
    faces = t6.faces.copy()
    faces[0, 0] = (faces[0, 0] + 1) % 243
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        _homology(t5, FaceTable(faces, t6.signs, 243), 243)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_twisted_composite_catches_a_flipped_sheet_sign(degree):
    # the twisted boundaries of the Z/4 bar model's parity cover compose to
    # zero only with their sheet signs; one sheet sign flipped back is caught
    z4 = bar_b(z4_table(), 6)
    pair = cover_from_cocycle(z4, Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8)))
    lower, upper = pair.twisted_faces(degree - 1), pair.twisted_faces(degree)
    n = z4.cells[degree - 1]
    _homology(lower, upper, n)
    plain = z4.signed_faces(degree)
    sheets = np.argwhere(upper.signs != plain.signs)
    i, j = sheets[len(sheets) // 2]
    signs = upper.signs.copy()
    signs[i, j] = plain.signs[i, j]
    with pytest.raises(InternalInvariantError, match="boundary composite is nonzero"):
        _homology(lower, FaceTable(upper.faces, signs, n), n)


def test_face_table_round_trips_a_dense_matrix():
    rng = np.random.default_rng(3)
    for rows, cols in ((0, 0), (0, 4), (5, 0), (6, 9), (30, 7)):
        a = rng.integers(-3, 4, (rows, cols)) * (rng.random((rows, cols)) < 0.4)
        t = FaceTable.from_dense(a)
        assert t.shape == a.shape and np.array_equal(t.dense(), a)
        assert t.faces.shape[0] == (max((a != 0).sum(axis=0)) if cols else 0)
