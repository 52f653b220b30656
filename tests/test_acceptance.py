"""Acceptance gate: seven criteria, one printed pass/fail line each.

Each test re-derives its facts from scratch in this process and prints a
single line to the real stdout so the outcome is visible in captured runs.
Timed criteria use wall-clock bounds; everything else is exact.
"""

import math
import time

import numpy as np

from stexo.builders import bar_b, bar_e_z2, circle, z2_table
from stexo.catalog import REGISTRY, fixture_documents, get_fixture
from stexo.cohomology import cohomology_basis, integral_homology, twisted_homology
from stexo.gf2 import Subspace
from stexo.james import d2_maps, e2_page, killers_report
from stexo.modelfile import canonical_bytes, parse_bytes, reexport
from stexo.obstruction import (
    NormalOneType,
    decide,
    primary_vanishes,
    replay_evidence,
)
from stexo.simplicial import (
    Cochain,
    coboundary,
    cup,
    cup_i,
    product,
    product_involution,
    quotient_free_involution,
    relabel_model,
    sq,
    swap_factors,
)
from stexo.snf import AbelianGroupInvariants


def _finish(capsys, criterion: int, ok: bool, detail: str):
    state = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {criterion}: {state} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _base_model(name):
    fx = get_fixture(name)
    return fx.stress_model if fx.nt is None else fx.nt.base


def _rand_cochain(model, degree, rng):
    n = model.cells[degree]
    density = min(0.5, 12.0 / max(n, 1))
    return Cochain(model, degree, (rng.random(n) < density).astype(np.uint8))


# -- 1. verdict regressions ------------------------------------------------------


def test_criterion_1_verdict_regressions(capsys):
    expected = {
        "rp-w2-zero": "NoExoticaPrimary",
        "rp-kreck": "ExoticaExistKreck",
        "z2-remark": "ExoticaExistCd3",
        "z4-semidirect": "NoExoticaSecondary",
    }
    t0 = time.perf_counter()
    got = {}
    for name in expected:
        fx = get_fixture(name)
        v = decide(fx.nt, cover=fx.cover, extra_lift_data=fx.lift_data)
        got[name] = v.outcome
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 10.0
    _finish(capsys, 1, ok, f"verdicts {got} in {elapsed:.2f}s (< 10 s)")


# -- 2. four-torus cover internals -------------------------------------------------


def test_criterion_2_cover_image_and_witness(capsys):
    c = circle(3)
    tt = product(c, c, 3, name="torus2")
    four = product(tt.model, tt.model, 5, name="torus4")
    emodel, flip = bar_e_z2(5)
    cov = product(four.model, emodel, 5, name="torus4-sheets")
    deck = product_involution(cov, swap_factors(four), flip, name="deck")
    pair = quotient_free_involution(cov.model, deck, name="swap-quotient")
    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    ta = cov.left.pullback(four.left.pullback(tt.left.pullback(e)))
    tb = cov.left.pullback(four.left.pullback(tt.right.pullback(e)))
    tc = cov.left.pullback(four.right.pullback(tt.left.pullback(e)))
    td = cov.left.pullback(four.right.pullback(tt.right.pullback(e)))

    u = cup(ta, tb)
    w2 = pair.descend_invariant(u + deck.pullback(u))
    nt = NormalOneType(pair.base, pair.w1, w2, name="swap-quotient-type")
    if not primary_vanishes(nt):
        nt = NormalOneType(
            pair.base, pair.w1, w2 + cup(pair.w1, pair.w1), name="swap-quotient-type"
        )
    assert primary_vanishes(nt)

    h2_cover = cohomology_basis(cov.model, 2)
    named = (
        cup(ta, tc),
        cup(tb, td),
        cup(ta, tb) + cup(tc, td),
        cup(ta, td) + cup(tb, tc),
    )
    named_span = Subspace.from_vectors(
        h2_cover.dim, [h2_cover.coords(x) for x in named]
    )
    h2_base = cohomology_basis(pair.base, 2)
    image_span = Subspace.from_vectors(
        h2_cover.dim,
        [h2_cover.coords(pair.projection.pullback(r)) for r in h2_base.reps],
    )
    spans_match = named_span.dim == 4 and image_span == named_span

    h4_cover = cohomology_basis(cov.model, 4)
    witness = cup(cup(ta, tb), cup(tc, td))
    witness_nonzero = bool(h4_cover.coords(witness).any())

    operator_dies = not any(
        h4_cover.coords(
            pair.projection.pullback(sq(r, 2) + cup(nt.w1, sq(r, 1)) + cup(nt.w2, r))
        ).any()
        for r in h2_base.reps
    )
    ok = spans_match and witness_nonzero and operator_dies
    _finish(
        capsys,
        2,
        ok,
        f"restriction image = named 4-dim span: {spans_match}, "
        f"top product class nonzero: {witness_nonzero}, "
        f"restricted operator image vanishes: {operator_dies}",
    )


# -- 3. Steenrod values and the cup-i contract -------------------------------------


def _cupi_combos(model, cell_cap=900):
    degrees = [
        d for d in range(model.max_degree + 1) if 0 < model.cells[d] <= cell_cap
    ]
    combos = []
    for p in degrees:
        for q in degrees:
            for i in range(0, min(p, q) + 1):
                top = p + q - i
                if top + 1 > model.max_degree:
                    continue
                if model.cells[top] > cell_cap or model.cells[top + 1] > cell_cap:
                    continue
                combos.append((p, q, i))
    return combos


def test_criterion_3_steenrod_and_cup_i(capsys):
    t0 = time.perf_counter()
    rp = bar_b(z2_table(), 7, name="projective-window")
    bases = {k: cohomology_basis(rp, k) for k in range(7)}
    values_ok = all(bases[k].dim == 1 for k in range(7))
    x = bases[1].reps[0]
    powers = [None, x]
    for k in range(2, 7):
        powers.append(cup(powers[k - 1], x))
    for k in range(1, 5):
        values_ok &= bases[k + 1].coords(sq(powers[k], 1))[0] == k % 2
        values_ok &= bases[k + 2].coords(sq(powers[k], 2))[0] == math.comb(k, 2) % 2
    twisted = sq(powers[2], 2) + cup(x, sq(powers[2], 1))
    values_ok &= np.array_equal(bases[4].coords(twisted), bases[4].coords(powers[4]))

    rng = np.random.default_rng(2026)
    trials_ok = True
    for name in REGISTRY:
        model = _base_model(name)
        combos = _cupi_combos(model)
        assert combos, f"no usable cup-i degrees on {model.name}"
        for t in range(1000):
            p, q, i = combos[rng.integers(len(combos))]
            u = _rand_cochain(model, p, rng)
            v = _rand_cochain(model, q, rng)
            lhs = coboundary(cup_i(u, v, i))
            rhs = cup_i(coboundary(u), v, i) + cup_i(u, coboundary(v), i)
            if i > 0:
                rhs = rhs + cup_i(u, v, i - 1) + cup_i(v, u, i - 1)
            if lhs != rhs:
                trials_ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = values_ok and trials_ok and elapsed < 5.0
    _finish(
        capsys,
        3,
        ok,
        f"projective squares exact: {values_ok}, 1000 cup-i trials x "
        f"{len(REGISTRY)} models: {trials_ok}, {elapsed:.2f}s (< 5 s)",
    )


# -- 4. Eilenberg-MacLane stress ---------------------------------------------------


def test_criterion_4_k_z2_2_stress(capsys):
    t0 = time.perf_counter()
    fx = get_fixture("k2-stress")
    model = fx.stress_model
    ranks = [cohomology_basis(model, k).dim for k in range(6)]
    ranks_ok = ranks == [1, 0, 1, 1, 1, 2]
    h4 = integral_homology(model, 4).invariants
    h4_ok = h4 == AbelianGroupInvariants(0, (4,))
    sq1_ok = bool(cohomology_basis(model, 3).coords(sq(fx.stress_cochain, 1)).any())
    elapsed = time.perf_counter() - t0
    ok = ranks_ok and h4_ok and sq1_ok and elapsed < 60.0
    _finish(
        capsys,
        4,
        ok,
        f"mod-2 ranks {tuple(ranks)}, integral H4 = {h4}, "
        f"Sq1 on the fundamental class nonzero: {sq1_ok}, {elapsed:.2f}s (< 60 s)",
    )


# -- 5. twisted homology -----------------------------------------------------------


def test_criterion_5_twisted_homology(capsys):
    pair = get_fixture("rp-w2-zero").cover
    h0 = twisted_homology(pair, 0, "Z-")
    h5 = twisted_homology(pair, 5, "Z-")
    ok = h0 == AbelianGroupInvariants(0, (2,)) and h5.is_zero
    _finish(capsys, 5, ok, f"H0 with sign coefficients = {h0}, H5 of the truncation = {h5}")


# -- 6. second-page diagnostic ------------------------------------------------------


def test_criterion_6_james_report(capsys):
    fx = get_fixture("rp-w2-zero")
    page = e2_page(fx.nt, fx.cover)
    diffs = d2_maps(fx.nt, page, fx.cover)
    gone = page.entry(2, 3).known_zero and page.entry(5, 0).known_zero
    iso = diffs.from_q1[4].is_iso
    kx = get_fixture("rp-kreck")
    kpage = e2_page(kx.nt, kx.cover)
    kdiffs = d2_maps(kx.nt, kpage, kx.cover)
    killers = killers_report(kx.nt, kpage, kdiffs, decide(kx.nt))
    all_vanish = all(f.status == "zero" for f in killers.flags)
    ok = gone and iso and all_vanish
    _finish(
        capsys,
        6,
        ok,
        f"(2,3) and (5,0) vanish: {gone}, d2 out of (4,1) iso: {iso}, "
        f"every differential into (0,4) vanishes on the Kreck type: {all_vanish}",
    )


# -- 7. property spot checks --------------------------------------------------------


def _push_cochain(u, model, perms):
    vals = np.zeros_like(u.values)
    vals[perms[u.degree]] = u.values
    return Cochain(model, u.degree, vals)


def test_criterion_7_property_suites(capsys):
    models = [_base_model(name) for name in REGISTRY]
    for name in ("rp-w2-zero", "z2-secondary", "z4-semidirect", "d4-reflection"):
        models.append(get_fixture(name).cover.cover)
    builders_ok = all(m.validate() == [] for m in models)

    square_ok = True
    for m in models:
        for k in range(m.max_degree - 1):
            if not m.coboundary_matrix(k + 1).matmul(m.coboundary_matrix(k)).is_zero():
                square_ok = False

    rng = np.random.default_rng(7)
    sq_ok = True
    for m in models[:7]:
        degree = next(
            (
                d
                for d in range(1, m.max_degree - 1)
                if m.cells[d]
                and m.cells[d - 1]
                and d + 2 <= m.max_degree - 1
                and m.cells[d + 2] <= 3000
            ),
            None,
        )
        if degree is None or cohomology_basis(m, degree).dim == 0:
            continue
        basis = cohomology_basis(m, degree)
        tgt1 = cohomology_basis(m, degree + 1)
        tgt2 = cohomology_basis(m, degree + 2)
        for t in range(100):
            u = basis.reps[t % basis.dim]
            u2 = u + coboundary(_rand_cochain(m, degree - 1, rng))
            sq_ok &= np.array_equal(tgt1.coords(sq(u, 1)), tgt1.coords(sq(u2, 1)))
            sq_ok &= np.array_equal(tgt2.coords(sq(u, 2)), tgt2.coords(sq(u2, 2)))

    relabel_ok = True
    for name in ("rp-w2-zero", "rp-kreck", "z2-remark"):
        nt = get_fixture(name).nt
        model, perms = relabel_model(nt.base, rng)
        nt2 = NormalOneType(
            model,
            _push_cochain(nt.w1, model, perms),
            _push_cochain(nt.w2, model, perms),
            name=nt.name + "~",
            cd_at_most_3=nt.cd_at_most_3,
            h5_zero=nt.h5_zero,
        )
        a, b = decide(nt), decide(nt2)
        relabel_ok &= (a.outcome, a.clause) == (b.outcome, b.clause)

    replay_ok = True
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.nt is None:
            continue
        v = decide(
            fx.nt, cover=fx.cover, section=fx.section, extra_lift_data=fx.lift_data
        )
        replay_ok &= replay_evidence(v, fx.nt, fx.cover, fx.section)

    bytes_ok = True
    for name in ("rp-w2-zero", "rp-kreck", "z2-remark", "z2-secondary"):
        for doc in fixture_documents(name).values():
            blob = canonical_bytes(doc)
            bytes_ok &= canonical_bytes(reexport(parse_bytes(blob))) == blob

    ok = builders_ok and square_ok and sq_ok and relabel_ok and replay_ok and bytes_ok
    _finish(
        capsys,
        7,
        ok,
        f"builder validation: {builders_ok}, coboundary squares to zero: {square_ok}, "
        f"squares settled under perturbation: {sq_ok}, relabel invariance: {relabel_ok}, "
        f"evidence replay: {replay_ok}, byte-stable round trips: {bytes_ok}",
    )
