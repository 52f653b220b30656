"""End-to-end checks of the decision pipeline on the catalog inputs."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stexo.builders import (
    bar_b,
    bar_hom_map,
    dihedral8_table,
    klein_table,
    z2_table,
    z4_table,
)
from stexo.catalog import (
    REGISTRY,
    d4_reflection,
    fixture_documents,
    get_fixture,
    rp_kreck,
    rp_w2_zero,
    z2_remark,
    z2_secondary,
    z4_semidirect,
)
import stexo.gf2 as gf2
import stexo.obstruction as obstruction
from stexo.cohomology import cohomology_basis
from stexo.errors import (
    InternalInvariantError,
    ModelMismatchError,
    TruncationError,
    ValidationError,
)
from stexo.gf2 import Subspace
from stexo.modelfile import canonical_bytes, parse_bytes
from stexo.obstruction import (
    Assertion,
    LiftDatum,
    NormalOneType,
    SectionDatum,
    Verdict,
    cover_data_from_parts,
    decide,
    h5_check,
    in_operator_image,
    kreck_witness,
    lift_data_solutions,
    nonzero_witness,
    primary_obstruction,
    primary_vanishes,
    replay_evidence,
    in_restricted_image,
    secondary_test,
    secondary_witness,
    sq2_w_images,
    validate_normal_type,
)
from stexo.simplicial import (
    Cochain,
    CoverPair,
    Involution,
    SimplicialMap,
    SimplicialModel,
    coboundary,
    cover_from_cocycle,
    cup,
    is_coboundary,
    product,
    relabel_model,
    sq,
)

from reference import mul_vec, parsed_cover, solve_affine, transform_built


# -- clause-by-clause verdicts ---------------------------------------------------


def test_decide_rp_w2_zero():
    fx = rp_w2_zero()
    v = decide(fx.nt, cover=fx.cover)
    assert v.outcome == "NoExoticaPrimary"
    assert v.clause == 2
    assert v.evidence["primary_support"]
    assert replay_evidence(v, fx.nt, fx.cover)


def test_decide_rp_kreck():
    fx = rp_kreck()
    v = decide(fx.nt, cover=fx.cover, section=fx.section)
    assert v.outcome == "ExoticaExistKreck"
    assert v.clause == 3
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)


def test_decide_z2_remark():
    fx = z2_remark()
    v = decide(fx.nt)
    assert v.outcome == "ExoticaExistCd3"
    assert v.clause == 4
    assert "plane" in v.evidence["cd_assertion_provenance"]
    assert replay_evidence(v, fx.nt)


def test_decide_z4_semidirect():
    fx = z4_semidirect()
    v = decide(fx.nt, cover=fx.cover, extra_lift_data=fx.lift_data)
    assert v.outcome == "NoExoticaSecondary"
    assert v.clause == 5
    assert v.evidence["enumeration_complete"]
    assert replay_evidence(v, fx.nt, fx.cover)


def test_decide_z4_without_distinguished_datum():
    fx = z4_semidirect()
    v = decide(fx.nt, cover=fx.cover)
    assert v.outcome == "NoExoticaSecondary"


def test_decide_z2_secondary():
    fx = z2_secondary()
    v = decide(fx.nt, cover=fx.cover, section=fx.section)
    assert v.outcome == "ExoticaExistSecondary"
    assert v.clause == 6
    assert v.evidence["h5"]["method"] == "empty-tail"
    assert v.evidence["omega_support"] == []
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)


def test_z2_secondary_needs_the_section():
    fx = z2_secondary()
    v = decide(fx.nt, cover=fx.cover)
    assert v.outcome == "Undetermined"
    assert replay_evidence(v, fx.nt, fx.cover)


def test_decide_d4_reflection():
    fx = d4_reflection()
    v = decide(fx.nt, cover=fx.cover, section=fx.section)
    assert v.outcome == "NoExoticaSecondary"
    assert v.clause == 5
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)


def test_d4_data_agree_on_nonzero():
    fx = d4_reflection()
    sols = lift_data_solutions(fx.nt, fx.cover)
    data = _every_datum(sols)
    for d in data:
        assert not in_restricted_image(fx.nt, fx.cover, secondary_witness(fx.cover, d.a))


def test_kreck_beats_cd_assertion():
    fx = rp_kreck()
    nt = NormalOneType(
        fx.nt.base,
        fx.nt.w1,
        fx.nt.w2,
        name="kreck-with-cd",
        cd_at_most_3=Assertion(True, "test ordering only"),
    )
    v = decide(nt)
    assert v.clause == 3


def test_decide_undetermined_without_assertions():
    fx = z2_remark()
    nt = NormalOneType(fx.nt.base, fx.nt.w1, fx.nt.w2, name="no-assertions")
    v = decide(nt)
    assert v.outcome == "Undetermined"
    assert v.clause == 7
    assert replay_evidence(v, nt)


def test_decide_is_deterministic():
    fx = z4_semidirect()
    a = decide(fx.nt, cover=fx.cover).to_json_dict()
    b = decide(fx.nt, cover=fx.cover).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verdicts_serialize():
    for fx in (rp_w2_zero(), rp_kreck(), z2_remark()):
        v = decide(fx.nt, cover=fx.cover, section=fx.section)
        json.dumps(v.to_json_dict())


# -- validation ------------------------------------------------------------------


def test_shallow_model_rejected():
    base = bar_b(z2_table(), 3)
    w1 = Cochain(base, 1, np.ones(1, dtype=np.uint8))
    nt = NormalOneType(base, w1, Cochain.zero(base, 2))
    reasons = validate_normal_type(nt)
    assert any("degree 4" in r for r in reasons)
    assert decide(nt).outcome == "InvalidInput"


def test_orientable_type_rejected():
    fx = z2_remark()
    nt = NormalOneType(fx.nt.base, Cochain.zero(fx.nt.base, 1), fx.nt.w2)
    v = decide(nt)
    assert v.outcome == "InvalidInput"
    assert any("[w1] = 0" in r for r in v.evidence["reasons"])


def test_open_w2_rejected():
    base = bar_b(z4_table(), 4)
    chars = Cochain(base, 1, np.array([1, 0, 1], dtype=np.uint8))
    for j in range(base.cells[2]):
        w2 = Cochain.from_support(base, 2, [j])
        if not coboundary(w2).is_zero():
            nt = NormalOneType(base, chars, w2)
            assert any("w2" in r for r in validate_normal_type(nt))
            # a lift datum checked against the open w2 is rejected, not a crash
            cover = cover_from_cocycle(base, chars)
            datum = LiftDatum(Cochain.zero(cover.cover, 2), 0, "zero")
            v = decide(nt, cover, extra_lift_data=(datum,))
            assert v.outcome == "InvalidInput"
            assert replay_evidence(v, nt, cover)
            return
    pytest.fail("no open degree-2 cochain found on the probe model")


def test_invalid_extra_lift_datum_rejected():
    fx = z4_semidirect()
    bad = LiftDatum(Cochain.zero(fx.nt.base, 2), 0, "wrong model")
    v = decide(fx.nt, cover=fx.cover, extra_lift_data=(bad,))
    assert v.outcome == "InvalidInput"


def test_open_lift_datum_rejection_replays():
    fx = rp_kreck()
    bad = LiftDatum(Cochain.from_support(fx.cover.cover, 2, [0]), 0, "open-cochain")
    v = decide(fx.nt, fx.cover, fx.section, (bad,))
    assert v.outcome == "InvalidInput"
    assert v.evidence["rejected_lift_data"] == [{"label": "open-cochain", "support": [0]}]
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)
    # the inputs themselves are valid: without the lift record nothing is rejected
    del v.evidence["rejected_lift_data"]
    assert not replay_evidence(v, fx.nt, fx.cover, fx.section)


def test_forged_cd3_verdict_does_not_replay():
    # a true cd assertion alone does not make clause 4 fire: the primary class
    # must vanish and the Kreck clause must not fire first
    cd = Assertion(True, "asserted for the test")
    forged = Verdict("ExoticaExistCd3", 4, "forged", {"cd_assertion_provenance": "test"})
    for fx in (rp_w2_zero(), rp_kreck()):
        nt = dataclasses.replace(fx.nt, cd_at_most_3=cd)
        assert decide(nt, fx.cover).outcome != "ExoticaExistCd3"
        assert not replay_evidence(forged, nt, fx.cover), fx.name
    fx = z2_remark()
    assert replay_evidence(decide(fx.nt), fx.nt)


def test_forged_undetermined_verdict_does_not_replay():
    # clause 7 is reached only when no earlier clause fires: a nonzero
    # primary class, a Kreck witness, a true cd assertion, a lift datum
    # with a nonzero witness, or (z2-secondary) a secondary test that
    # vanishes on the first datum with H_5 = 0 rules it out
    forged = Verdict("Undetermined", 7, "forged", {"caveats_reflected": []})
    fixtures = (rp_w2_zero(), rp_kreck(), z2_remark(), z4_semidirect(), d4_reflection())
    for fx in fixtures + (z2_secondary(),):
        assert decide(fx.nt, fx.cover, fx.section).outcome != "Undetermined"
        assert not replay_evidence(forged, fx.nt, fx.cover, fx.section), fx.name


def test_undetermined_replay_reruns_the_recorded_secondary_test(monkeypatch):
    # with the H_5 gate closed, z2-secondary stops at clause 7 after the
    # secondary test ran on the first lift datum, which the evidence records
    fx = z2_secondary()
    monkeypatch.setattr(obstruction, "h5_check", lambda nt: ("nonzero", {}))
    v = decide(fx.nt, fx.cover, fx.section)
    assert v.outcome == "Undetermined"
    support = list(lift_data_solutions(fx.nt, fx.cover).datum(0).a.support())
    assert v.evidence["lift_datum_support"] == support
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)
    # lift data exist, so a record without the tested datum is forged
    unrecorded = Verdict("Undetermined", 7, "forged", {"caveats_reflected": v.caveats})
    assert not replay_evidence(unrecorded, fx.nt, fx.cover, fx.section)
    monkeypatch.undo()
    # with the gate open the recorded test settles clause 6
    assert not replay_evidence(v, fx.nt, fx.cover, fx.section)


def test_replay_fails_where_an_earlier_clause_fires():
    # replay decides again, so a verdict stops replaying once an earlier
    # clause fires on the type it is replayed on
    cd = Assertion(True, "asserted for the test")
    for fx in (z4_semidirect(), d4_reflection(), z2_secondary()):
        v = decide(fx.nt, fx.cover, fx.section, fx.lift_data)
        assert v.clause in (5, 6)
        assert replay_evidence(v, fx.nt, fx.cover, fx.section), fx.name
        nt = dataclasses.replace(fx.nt, cd_at_most_3=cd)
        assert decide(nt, fx.cover, fx.section).outcome == "ExoticaExistCd3"
        assert not replay_evidence(v, nt, fx.cover, fx.section), fx.name
    # z2-secondary with w2 = w1^2 is a Kreck type
    fx = z2_secondary()
    v = decide(fx.nt, fx.cover, fx.section)
    nt = dataclasses.replace(fx.nt, w2=cup(fx.nt.w1, fx.nt.w1))
    assert decide(nt, fx.cover, fx.section).outcome == "ExoticaExistKreck"
    assert not replay_evidence(v, nt, fx.cover, fx.section)
    # z2-remark with a cover of another class is invalid input
    fx = z2_remark()
    v = decide(fx.nt)
    trivial = cover_from_cocycle(fx.nt.base, Cochain.zero(fx.nt.base, 1), allow_trivial=True)
    assert decide(fx.nt, trivial).outcome == "InvalidInput"
    assert not replay_evidence(v, fx.nt, trivial)


def test_supports_outside_the_cover_do_not_replay():
    # a clause-5 verdict of z4-semidirect cites degree-2 cells that
    # z2-secondary's cover lacks
    fx, other = z4_semidirect(), z2_secondary()
    v = decide(fx.nt, fx.cover, fx.section, fx.lift_data)
    assert v.clause == 5
    assert max(v.evidence["lift_datum_support"]) >= other.cover.cover.cells[2]
    assert not replay_evidence(v, other.nt, other.cover, other.section)
    # a negative index names no cell either, cited or rejected
    fx = rp_kreck()
    bad = LiftDatum(Cochain.from_support(fx.cover.cover, 2, [0]), 0, "open-cochain")
    v = decide(fx.nt, fx.cover, fx.section, (bad,))
    assert replay_evidence(v, fx.nt, fx.cover, fx.section)
    v.evidence["rejected_lift_data"][0]["support"] = [-1]
    assert not replay_evidence(v, fx.nt, fx.cover, fx.section)
    fx = z2_secondary()
    v = decide(fx.nt, fx.cover, fx.section, fx.lift_data)
    forged = dataclasses.replace(v, evidence={**v.evidence, "lift_datum_support": [-1]})
    assert not replay_evidence(forged, fx.nt, fx.cover, fx.section)


def test_lift_data_without_cover_rejection_replays():
    fx = z2_secondary()
    data = (
        LiftDatum(Cochain.zero(fx.cover.cover, 2), 3),
        LiftDatum(Cochain.zero(fx.nt.base, 1), 0, "on the base"),
    )
    v = decide(fx.nt, None, None, data)
    assert v.outcome == "InvalidInput"
    assert v.evidence == {
        "reasons": ["lift data supplied without cover data"],
        "rejected_lift_data": [
            {"label": 3, "support": None},
            {"label": "on the base", "support": None},
        ],
    }
    assert replay_evidence(v, fx.nt)
    # with the cover the data are checked on it, and the record differs
    assert not replay_evidence(v, fx.nt, fx.cover)


def _constant_map(source, target):
    """Every source n-cell to s_{n-1}...s_0 of the target's vertex 0."""
    words = [np.full(c, (1 << n) - 1, dtype=np.int64) for n, c in enumerate(source.cells)]
    cells = [np.zeros(c, dtype=np.int64) for c in source.cells]
    return SimplicialMap(source, target, words, cells, "constant")


def test_constant_section_rejected():
    fx = rp_kreck()
    base = fx.nt.base
    const = _constant_map(base, base)
    assert not const.validate()
    reasons = validate_normal_type(fx.nt, section=SectionDatum(const))
    assert any("generator" in r for r in reasons)
    v = decide(fx.nt, cover=fx.cover, section=SectionDatum(const))
    assert v.outcome == "InvalidInput"


# -- primary and kreck layers ------------------------------------------------------


def test_primary_is_w1_cubed_when_w2_zero():
    fx = rp_w2_zero()
    w1 = fx.nt.w1
    assert primary_obstruction(fx.nt) == cup(w1, cup(w1, w1))
    assert not primary_vanishes(fx.nt)


def test_primary_vanishes_on_torus_type():
    assert primary_vanishes(z2_remark().nt)


@settings(max_examples=25, deadline=None)
@given(
    char=st.sampled_from([(1, 0, 1), (0, 1, 1), (1, 1, 0)]),
    rho=st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
def test_kreck_class_forces_primary_zero(char, rho):
    base = bar_b(klein_table(), 4)
    w1 = Cochain(base, 1, np.array(char, dtype=np.uint8))
    shift = coboundary(Cochain(base, 1, np.array(rho, dtype=np.uint8)))
    nt = NormalOneType(base, w1, cup(w1, w1) + shift)
    assert kreck_witness(nt) is not None
    assert primary_vanishes(nt)
    assert decide(nt).outcome == "ExoticaExistKreck"


# -- lift data ---------------------------------------------------------------------


def _every_datum(sols):
    """Every lift datum, in kernel bit mask order, built through class_coords."""
    return [sols.datum(bits) for bits in range(sols.count)]


def test_lift_solutions_match_distinguished_datum():
    fx = z4_semidirect()
    sols = lift_data_solutions(fx.nt, fx.cover)
    assert not sols.empty
    assert sols.count == 16
    a = fx.lift_data[0].a
    coords = sols.basis.coords(a)
    shifted = coords ^ sols.particular
    assert sols.kernel.contains(shifted)


def test_shared_cover_caches_follow_the_type():
    fx = d4_reflection()
    w2 = cohomology_basis(fx.nt.base, 2).reps[0]
    probe = NormalOneType(fx.nt.base, fx.nt.w1, w2, name="d4-probe")
    lift_data_solutions(fx.nt, fx.cover)
    shared = lift_data_solutions(probe, fx.cover)
    fresh = lift_data_solutions(probe, dataclasses.replace(fx.cover))
    assert shared.count == fresh.count


def test_unliftable_base_class_gives_empty_solutions():
    fx = z4_semidirect()
    h2b = cohomology_basis(fx.nt.base, 2)
    empties = []
    for j, g in enumerate(h2b.reps):
        probe = NormalOneType(fx.nt.base, fx.nt.w1, g, name=f"probe-{j}")
        sols = lift_data_solutions(probe, dataclasses.replace(fx.cover))
        if sols.empty:
            empties.append(j)
            assert not primary_vanishes(probe)
    assert empties, "expected some base class outside the norm image"


def test_primary_zero_implies_liftable():
    fx = z4_semidirect()
    h2b = cohomology_basis(fx.nt.base, 2)
    for j, g in enumerate(h2b.reps):
        probe = NormalOneType(fx.nt.base, fx.nt.w1, g, name=f"probe-{j}")
        if primary_vanishes(probe):
            sols = lift_data_solutions(probe, dataclasses.replace(fx.cover))
            assert not sols.empty


def test_every_z4_lift_datum_witnesses_nonzero():
    fx = z4_semidirect()
    sols = lift_data_solutions(fx.nt, fx.cover)
    data = _every_datum(sols)
    assert len(data) == 16
    for d in data:
        A = secondary_witness(fx.cover, d.a)
        assert not in_restricted_image(fx.nt, fx.cover, A)


def _check_scan_against_enumeration(nt, cover):
    """The clause-5 scan against a test of every lift datum; returns the
    failing kernel masks in increasing order."""
    sols = lift_data_solutions(nt, cover)
    data = _every_datum(sols)
    witnesses = [secondary_witness(cover, d.a) for d in data]
    failing = [
        d.index for d, A in zip(data, witnesses) if not in_restricted_image(nt, cover, A)
    ]
    hit = nonzero_witness(nt, cover)
    assert (hit is None) == (not failing)
    if hit is not None:
        assert hit[0].index == failing[0]
        assert hit[0].a == data[failing[0]].a
        assert hit[1] == witnesses[failing[0]]
    # the witness class is affine on the solutions: second differences vanish
    units = [1 << i for i in range(sols.kernel.dim)]
    for i, bi in enumerate(units):
        for bj in units[i + 1 :]:
            term = witnesses[0] + witnesses[bi] + witnesses[bj] + witnesses[bi | bj]
            assert is_coboundary(term), (nt.name, bi, bj)
    return failing


_SCAN_GROUPS = (
    (z2_table, 6),
    (z4_table, 6),
    (klein_table, 6),
    (dihedral8_table, 5),
)


@functools.lru_cache(maxsize=None)
def _scan_base(group):
    """A bar model, its nonzero degree-1 classes and its H^2 representatives."""
    table, depth = _SCAN_GROUPS[group]
    base = bar_b(table(), depth, name=f"scan-{group}")
    h1 = cohomology_basis(base, 1)
    w1s = [
        h1.class_from_coords(np.array([(c >> j) & 1 for j in range(h1.dim)], np.uint8))
        for c in range(1, 1 << h1.dim)
    ]
    return base, w1s, cohomology_basis(base, 2).reps


_CATALOG_BASES = (rp_w2_zero, rp_kreck, z2_remark, z2_secondary, z4_semidirect, d4_reflection)


@functools.lru_cache(maxsize=None)
def _kreck_base(k):
    """The bar models of the scan groups, then the catalog bases."""
    if k < len(_SCAN_GROUPS):
        return _scan_base(k)[0]
    return _CATALOG_BASES[k - len(_SCAN_GROUPS)]().nt.base


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(0, len(_SCAN_GROUPS) + len(_CATALOG_BASES) - 1),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_kreck_solve_matches_solve_affine(k, consistent, seed):
    # with w1 = 0, kreck_witness solves delta g = w2 for w2 the coboundary
    # of a random 1-cochain or a random 2-cochain (consistent or not)
    base = _kreck_base(k)
    rng = np.random.default_rng(seed)
    if consistent:
        rhs = coboundary(Cochain(base, 1, rng.integers(0, 2, base.n_cells(1), dtype=np.uint8)))
    else:
        rhs = Cochain(base, 2, rng.integers(0, 2, base.n_cells(2), dtype=np.uint8))
    want = solve_affine(base.coboundary_matrix(1), rhs.values)
    g = kreck_witness(NormalOneType(base, Cochain.zero(base, 1), rhs))
    assert (g is None) == (want is None)
    if want is not None:
        assert np.array_equal(g.values, want)
    assert base.coboundary_span(2) is base.coboundary_span(2)


def test_each_coboundary_operator_is_reduced_once(monkeypatch):
    # H^2, a degree-3 coboundary test and the Kreck solve on a fresh copy of
    # the z4-semidirect base: delta_1 and delta_2 are each reduced once, as
    # the spanning rows of B^2 and B^3, and never as the operators themselves;
    # each span builds its transform once, and only when its relations
    # (B^3, for the H^2 cocycles) or a combination (B^2, for the solve) is
    # read, never for residues or a coboundary test
    nt = z4_semidirect().nt
    old = nt.base
    base = SimplicialModel(old.max_degree, old.cells, old.face_word, old.face_cell, old.name)
    assert base.cells[1:4] == (31, 261, 1171)
    shapes = []
    echelon = gf2.rank_and_echelon

    def counted(m):
        shapes.append((m.rows, m.cols))
        return echelon(m)

    builds = []
    replay = gf2._replay

    def replayed(n, log, pivot_rows):
        builds.append(n)
        return replay(n, log, pivot_rows)

    monkeypatch.setattr(gf2, "rank_and_echelon", counted)
    monkeypatch.setattr(gf2, "_replay", replayed)
    copy = NormalOneType(base, Cochain(base, 1, nt.w1.values), Cochain(base, 2, nt.w2.values))
    cohomology_basis(base, 2)
    assert transform_built(base.coboundary_span(3))
    assert not transform_built(base.coboundary_span(2))
    assert is_coboundary(primary_obstruction(copy))
    assert not transform_built(base.coboundary_span(2))
    # w2 differs from w1^2 in class here, so the solve stops at membership
    assert kreck_witness(copy) is None
    assert not transform_built(base.coboundary_span(2))
    edge = Cochain.from_support(base, 1, [0])
    solvable = dataclasses.replace(copy, w2=cup(copy.w1, copy.w1) + coboundary(edge))
    assert kreck_witness(solvable) is not None and kreck_witness(copy) is None
    assert transform_built(base.coboundary_span(2))
    assert (1171, 261) not in shapes and (261, 31) not in shapes
    # and every echelon is of cochain rows: none of a transposed matrix
    assert {cols for _, cols in shapes} <= {261, 1171}
    assert shapes.count((261, 1171)) == 1 and shapes.count((31, 261)) == 1
    assert builds.count(261) == 1 and builds.count(31) == 1


@settings(max_examples=60, deadline=None)
@given(
    group=st.integers(0, len(_SCAN_GROUPS) - 1),
    pick=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_clause5_scan_matches_full_enumeration(group, pick, seed):
    base, w1s, h2 = _scan_base(group)
    rng = np.random.default_rng(seed)
    w2 = coboundary(Cochain(base, 1, rng.integers(0, 2, base.n_cells(1), dtype=np.uint8)))
    for rep in h2:
        if rng.integers(2):
            w2 = w2 + rep
    nt = NormalOneType(base, w1s[pick % len(w1s)], w2, name=f"scan-{group}-{seed}")
    cover = obstruction.cover_data_from_w1(nt)
    failing = _check_scan_against_enumeration(nt, cover)
    v = decide(nt, cover)
    if v.clause == 5:
        assert v.evidence["lift_datum_index"] == failing[0]
    elif v.clause > 5 and not lift_data_solutions(nt, cover).empty:
        assert not failing


def test_clause5_scan_on_z4_kernel_of_dimension_four():
    fx = z4_semidirect()
    assert lift_data_solutions(fx.nt, fx.cover).kernel.dim == 4
    assert _check_scan_against_enumeration(fx.nt, fx.cover) == list(range(16))
    fx = z2_secondary()
    assert _check_scan_against_enumeration(fx.nt, fx.cover) == []


_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]


@settings(max_examples=100, deadline=None)
@given(
    group=st.integers(0, len(_SCAN_GROUPS) - 1),
    pick=st.integers(0, 6),
    products=st.sets(st.integers(0, len(_PAIRS) - 1), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# w1 = x or y on D8 with w2 = (x+y)^2: the types that reach clause 5
@example(group=3, pick=0, products={9}, seed=0)
@example(group=3, pick=1, products={9}, seed=1)
def test_random_verdicts_replay_only_on_their_clause(group, pick, products, seed):
    # w2 is a sum of products of characters (the zero one included) plus a
    # random coboundary; on a bar model the closed 1-cochains are the
    # characters, and the cover is built from w1
    base, w1s, _ = _scan_base(group)
    chars = [Cochain.zero(base, 1)] + w1s
    rng = np.random.default_rng(seed)
    w2 = coboundary(Cochain(base, 1, rng.integers(0, 2, base.n_cells(1), dtype=np.uint8)))
    for k in sorted(products):
        i, j = _PAIRS[k]
        if j < len(chars):
            w2 = w2 + cup(chars[i], chars[j])
    nt = NormalOneType(base, w1s[pick % len(w1s)], w2, name=f"suite-{group}-{seed}")
    cover = obstruction.cover_data_from_w1(nt)
    v = decide(nt, cover)
    assert replay_evidence(v, nt, cover)
    # clauses 2 and 3 fire before the assertion and cite nothing it changes
    cd = dataclasses.replace(nt, cd_at_most_3=Assertion(True, "suite"))
    assert replay_evidence(v, cd, cover) == (decide(cd, cover).clause == v.clause)
    # w2 + w1^2 also changes the cited primary and Kreck cochains: the verdict
    # replays only where decide gives its clause and the same evidence
    kreck = dataclasses.replace(nt, w2=w2 + cup(nt.w1, nt.w1))
    again = decide(kreck, cover)
    same = again.clause == v.clause and again.evidence == v.evidence
    assert replay_evidence(v, kreck, cover) == same


def test_scan_order_under_an_affine_predicate(monkeypatch):
    # every real type above fails at mask 0 or nowhere; an affine stand-in
    # for the restricted image test checks the d + 1 masks and their order
    fx = z4_semidirect()
    sols = lift_data_solutions(fx.nt, fx.cover)
    mask_of = {
        secondary_witness(fx.cover, d.a).values.tobytes(): d.index for d in _every_datum(sols)
    }
    assert len(mask_of) == sols.count == 16
    for shift in (0, 1):
        for functional in range(16):
            def fails(m):
                return (bin(m & functional).count("1") + shift) % 2 == 1

            monkeypatch.setattr(
                obstruction,
                "in_restricted_image",
                lambda nt, cover, A: not fails(mask_of[A.values.tobytes()]),
            )
            first = next((m for m in range(16) if fails(m)), None)
            hit = nonzero_witness(fx.nt, fx.cover)
            assert (None if hit is None else hit[0].index) == first, (shift, functional)
            v = decide(fx.nt, fx.cover)
            if first is None:
                assert v.outcome == "Undetermined"
            else:
                assert v.evidence["lift_datum_index"] == first


# -- secondary test ----------------------------------------------------------------


def test_secondary_zero_branch_on_kreck_data():
    fx = rp_kreck()
    datum = LiftDatum(Cochain.zero(fx.cover.cover, 2), 0, "zero lift")
    out = secondary_test(fx.nt, fx.cover, datum, fx.section)
    assert out.kind == "zero"
    assert out.omega is not None and out.omega.is_zero()


def test_secondary_rejects_bases_from_different_reductions(monkeypatch):
    fx = rp_kreck()
    datum = LiftDatum(Cochain.zero(fx.cover.cover, 2), 0, "zero lift")
    induced = obstruction.induced_matrix

    def section_onto_fresh_basis(f, degree):
        m, src, tgt = induced(f, degree)
        if f is fx.section.s:
            tgt = dataclasses.replace(tgt, reduction=dataclasses.replace(tgt.reduction))
        return m, src, tgt

    monkeypatch.setattr(obstruction, "induced_matrix", section_onto_fresh_basis)
    with pytest.raises(InternalInvariantError, match="H\\^4 base bases diverged"):
        secondary_test(fx.nt, fx.cover, datum, fx.section)
    monkeypatch.undo()
    assert secondary_test(fx.nt, fx.cover, datum, fx.section).kind == "zero"


def test_secondary_inconclusive_without_section():
    fx = rp_kreck()
    datum = LiftDatum(Cochain.zero(fx.cover.cover, 2), 0, "zero lift")
    out = secondary_test(fx.nt, fx.cover, datum)
    assert out.kind == "inconclusive"
    assert "section" in out.reason


def test_secondary_rejects_open_datum():
    fx = rp_kreck()
    cov = fx.cover.cover
    for j in range(cov.cells[2]):
        a = Cochain.from_support(cov, 2, [j])
        if not coboundary(a).is_zero():
            with pytest.raises(ValidationError):
                secondary_test(fx.nt, fx.cover, LiftDatum(a), fx.section)
            return
    pytest.skip("every probe cochain closed on this cover")


def test_secondary_nonzero_on_z4_datum():
    fx = z4_semidirect()
    out = secondary_test(fx.nt, fx.cover, fx.lift_data[0])
    assert out.kind == "nonzero"
    assert out.witness is not None and not out.witness.is_zero()


def test_operator_image_predicate_matches_coordinate_matrix():
    # the route before class spans: omega's coordinates in the column span of
    # the matrix of the operator H^2 -> H^4
    rng = np.random.default_rng(17)
    seen = set()
    for fx in (rp_kreck(), z2_secondary(), d4_reflection()):
        base = fx.nt.base
        h4 = cohomology_basis(base, 4)
        matrix = h4.coords_matrix(sq2_w_images(fx.nt, 2)[1])
        image = Subspace.from_vectors(h4.dim, matrix)
        for _ in range(8):
            coords = rng.integers(0, 2, h4.dim, dtype=np.uint8)
            below = Cochain(base, 3, rng.integers(0, 2, base.n_cells(3)))
            omega = h4.class_from_coords(coords) + coboundary(below)
            got = in_operator_image(fx.nt, omega)
            assert got == image.contains(coords), fx.name
            seen.add(got)
    assert seen == {True, False}


def _stacked_span(nt, cover):
    """The restricted image reduced in one piece, as it was before residues:
    the rows of delta_3 transposed and the pulled-back operator images.
    Returns the span and the pulled-back images."""
    images = [
        cover.projection.pullback(sq(x, 2) + cup(nt.w1, sq(x, 1)) + cup(nt.w2, x))
        for x in cohomology_basis(nt.base, 2).reps
    ]
    rows = [cover.cover.coboundary_matrix(3).to_dense().T]
    rows += [img.values[None] for img in images]
    return Subspace.from_vectors(cover.cover.n_cells(4), np.vstack(rows)), images


def _d8_clause5_types():
    """The two D8 types of the small-types sweep that reach the secondary
    stage: w1 = x or y and w2 the cup square of the character x + y, the one
    that vanishes on the rotations of order 4."""
    table = dihedral8_table()
    base = d4_reflection().nt.base

    def order(g):
        k, x = 1, g
        while x:
            x, k = table[x][g], k + 1
        return k

    chars = [
        Cochain(base, 1, np.array([chi(g) for g in range(1, 8)], dtype=np.uint8))
        for chi in (lambda g: g & 1, lambda g: g >> 2, lambda g: (g & 1) ^ (g >> 2))
    ]
    fours = [g - 1 for g in range(1, 8) if order(g) == 4]
    xy = next(c for c in chars if not c.values[fours].any())
    return [
        NormalOneType(base, w1, cup(xy, xy), name=f"d8-type-{k}")
        for k, w1 in enumerate(c for c in chars if c is not xy)
    ]


def test_restricted_image_predicate_matches_stacked_span():
    rng = np.random.default_rng(41)
    cases = [(fx.nt, fx.cover) for fx in (z2_secondary(), z4_semidirect(), d4_reflection())]
    for nt in _d8_clause5_types():
        cover = obstruction.cover_data_from_w1(nt)
        assert decide(nt, cover).clause >= 5
        cases.append((nt, cover))
    seen = set()
    for nt, cover in cases:
        span, images = _stacked_span(nt, cover)
        data = _every_datum(lift_data_solutions(nt, cover))
        assert data
        delta3 = cover.cover.coboundary_matrix(3)
        for d in data:
            A = secondary_witness(cover, d.a)
            # a coboundary plus a random sum of images lies in the restricted image
            shift = Cochain(cover.cover, 4, mul_vec(delta3, rng.integers(0, 2, delta3.cols)))
            for img in images:
                if rng.integers(2):
                    shift = shift + img
            assert in_restricted_image(nt, cover, shift)
            for B in (A, A + shift, shift):
                got = in_restricted_image(nt, cover, B)
                assert got == span.contains(B.values), (nt.name, d.index)
                seen.add(got)
            assert in_restricted_image(nt, cover, A + shift) == in_restricted_image(nt, cover, A)
    assert seen == {True, False}


def test_restricted_image_rejects_foreign_cochain():
    fx = d4_reflection()
    with pytest.raises(ModelMismatchError):
        in_restricted_image(fx.nt, fx.cover, Cochain.zero(fx.nt.base, 4))


# -- the degree-5 gate ---------------------------------------------------------------


def test_h5_zero_by_empty_tail():
    status, detail = h5_check(z2_remark().nt)
    assert status == "zero"
    assert detail["method"] == "empty-tail"


def test_h5_nonzero_computed_on_order_two_group():
    status, detail = h5_check(rp_w2_zero().nt)
    assert status == "nonzero"
    assert detail["method"] == "computed"
    assert "Z/2" in detail["invariants"]


def test_h5_falls_back_to_assertion_at_shallow_depth():
    base = bar_b(z2_table(), 5)
    w1 = Cochain(base, 1, np.ones(1, dtype=np.uint8))
    nt = NormalOneType(base, w1, cup(w1, w1))
    assert h5_check(nt)[0] == "unknown"
    asserted = NormalOneType(
        base, w1, cup(w1, w1), h5_zero=Assertion(True, "external computation")
    )
    status, detail = h5_check(asserted)
    assert status == "zero" and detail["method"] == "asserted"


def test_h5_computation_overrides_wrong_assertion():
    fx = rp_w2_zero()
    nt = NormalOneType(
        fx.nt.base,
        fx.nt.w1,
        fx.nt.w2,
        h5_zero=Assertion(True, "deliberately wrong"),
    )
    status, detail = h5_check(nt)
    assert status == "nonzero"
    assert "contradicts" in detail["conflict"]


# -- truncation policy ----------------------------------------------------------------


def test_operator_needs_depth_five():
    fx = z2_remark()
    # the images' classes live in degree 4, which needs degree-5 cells
    with pytest.raises(TruncationError, match="degree 4 cohomology needs cells in degree 5"):
        sq2_w_images(fx.nt, 2)


def test_decide_skips_secondary_at_depth_four():
    fx = z2_remark()
    nt = NormalOneType(fx.nt.base, fx.nt.w1, fx.nt.w2, name="shallow-cover")
    cover = cover_from_cocycle(nt.base, nt.w1)
    v = decide(nt, cover=cover)
    assert v.outcome == "Undetermined"
    assert any("max_degree < 5" in c for c in v.caveats)
    assert replay_evidence(v, nt, cover)


# -- relabeling invariance --------------------------------------------------------------


def _relabeled_type(nt, rng):
    model, perms = relabel_model(nt.base, rng)

    def push(u):
        vals = np.zeros_like(u.values)
        vals[perms[u.degree]] = u.values
        return Cochain(model, u.degree, vals)

    return (
        NormalOneType(
            model,
            push(nt.w1),
            push(nt.w2),
            name=nt.name + "-relabeled",
            cd_at_most_3=nt.cd_at_most_3,
            h5_zero=nt.h5_zero,
        ),
        perms,
    )


def test_cover_parts_reject_degenerate_projection():
    fx = rp_w2_zero()
    pair = fx.cover
    # the constant map is simplicial, so only the fiber check can catch it
    const = _constant_map(pair.cover, fx.nt.base)
    assert const.validate() == []
    with pytest.raises(ValidationError, match="^projection sends a cell to a degenerate target$"):
        cover_data_from_parts(fx.nt, pair.cover, pair.involution, const)


def test_cover_parts_reject_split_fiber():
    z4 = z4_table()
    base = bar_b(z4, 4, name="bar-z4")
    w1 = Cochain(base, 1, np.array([1, 0, 1], dtype=np.uint8))
    nt = NormalOneType(base, w1, Cochain.zero(base, 2))
    trivial = cover_from_cocycle(base, Cochain.zero(base, 1), allow_trivial=True)
    # sheet 0 maps identically, sheet 1 through the inversion of Z/4: every
    # fiber has two cells, but (x, sheet 0) and (-x, sheet 1) are no orbit
    inverse = bar_hom_map(base, z4, base, z4, [0, 3, 2, 1])
    words, cells = [], []
    for w, c in zip(inverse.image_word, inverse.image_cell):
        words.append(np.zeros(2 * w.size, dtype=np.int64))
        words[-1][1::2] = w
        cells.append(np.arange(2 * c.size, dtype=np.int64) // 2)
        cells[-1][1::2] = c
    proj = SimplicialMap(trivial.cover, base, words, cells, "split")
    assert proj.validate() == []
    with pytest.raises(
        ValidationError, match="^degree 1: fiber over cell 0 is not a single free orbit$"
    ):
        cover_data_from_parts(nt, trivial.cover, trivial.involution, proj)


def test_cover_parts_refuse_an_involution_on_another_model():
    fx = rp_kreck()
    pair = fx.cover
    cover = pair.cover
    twin_model = SimplicialModel(
        cover.max_degree, cover.cells, cover.face_word, cover.face_cell, cover.name
    )
    twin = Involution(twin_model, pair.involution.perms, "deck")
    assert twin.validate() == []
    refused = "^the involution does not act on the cover model$"
    with pytest.raises(ModelMismatchError, match=refused):
        cover_data_from_parts(fx.nt, cover, twin, pair.projection)


def _lift_arrays(pair):
    return (
        pair.sheet,
        pair.rep_cells,
        pair.base_index,
        [pair.w1.values],
        pair.projection.image_word,
        pair.projection.image_cell,
        pair.involution.perms,
    )


def test_parsed_cover_files_give_the_fixture_lifts():
    # z4-semidirect's own pair is a quotient, the other fixtures' a cocycle cover
    names = [name for name in REGISTRY if get_fixture(name).cover is not None]
    assert len(names) == 5
    for name in names:
        own, parsed = get_fixture(name).cover, parsed_cover(name)
        for a, b in zip(_lift_arrays(own), _lift_arrays(parsed)):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y), name
        for pair in (own, parsed):
            words = zip(pair.projection.image_word, pair.involution.image_word)
            assert all(x is y for x, y in words), name


def test_parsed_maps_are_face_checked_once(monkeypatch):
    # from_model_to checks the projection's faces (one push per face of each
    # degree); cover_data_from_parts, decide and replay read that answer
    # again instead, and the section map is checked once across all of them
    docs = fixture_documents("d4-reflection")
    base = parse_bytes(canonical_bytes(docs["base"]))
    cdata = parse_bytes(canonical_bytes(docs["cover"]))
    nt = NormalOneType(base.model, base.cochains["w1"], base.cochains["w2"])
    pushed, checked = [], []
    push, found = SimplicialMap.push, SimplicialMap._violations_found

    def counted_push(self, dim, words, cells):
        pushed.append(self)
        return push(self, dim, words, cells)

    def counted_check(self):
        checked.append(self)
        return found(self)

    monkeypatch.setattr(SimplicialMap, "push", counted_push)
    monkeypatch.setattr(SimplicialMap, "_violations_found", counted_check)
    proj = cdata.maps["projection"].from_model_to(cdata.model, base.model)
    faces = sum(n + 1 for n in range(1, cdata.model.max_degree + 1))
    assert sum(m is proj for m in pushed) == faces
    cover = cover_data_from_parts(nt, cdata.model, cdata.involution, proj)
    assert sum(m is proj for m in pushed) == faces
    section = SectionDatum(base.maps["section"].into_parent(base.model))
    for _ in range(2):
        verdict = decide(nt, cover, section)
        assert replay_evidence(verdict, nt, cover, section)
    assert sum(m is proj for m in pushed) == faces
    assert [id(m) for m in checked] == list(dict.fromkeys(id(m) for m in checked))
    assert sum(m is section.s for m in checked) == 1


def test_computed_cochains_are_fresh_bit_arrays(monkeypatch):
    # every cochain the unchecked constructor builds while the catalog types
    # are decided, and in cups, coboundaries, sums, pullbacks, descents,
    # class representatives and Kreck solves on each of them, holds a
    # writeable uint8 array of 0/1 entries, one per cell, that no other
    # cochain shares
    built = []
    computed = Cochain._computed.__func__

    def spy(cls, model, degree, values):
        u = computed(cls, model, degree, values)
        built.append(u)
        return u

    monkeypatch.setattr(Cochain, "_computed", classmethod(spy))
    kinds = set()
    for name in REGISTRY:
        fx = get_fixture(name)
        if fx.nt is None:
            continue
        nt = fx.nt
        decide(nt, fx.cover, fx.section, fx.lift_data)
        cover = fx.cover or obstruction.cover_data_from_w1(nt)
        pulled = cover.projection.pullback(nt.w2)
        assert cover.descend_invariant(pulled + cover.involution.pullback(pulled)).is_zero()
        assert cover.descend_invariant(pulled) == nt.w2
        assert coboundary(cup(nt.w1, nt.w2) + cup(nt.w1, sq(nt.w1, 1))).is_zero()
        h1 = cohomology_basis(nt.base, 1)
        every = h1.class_from_coords(np.ones(h1.dim, dtype=np.uint8))
        assert every == sum(h1.reps[1:], h1.reps[0])
        edge = Cochain.from_support(nt.base, 1, [0])
        square = cup(nt.w1, nt.w1) + coboundary(edge)
        assert kreck_witness(dataclasses.replace(nt, w2=square)) is not None
        kinds.add(name)
    assert len(kinds) == 6 and len(built) >= 100
    roots = set()
    for u in built:
        values = u.values
        assert type(values) is np.ndarray and values.dtype == np.uint8
        assert values.shape == (u.model.n_cells(u.degree),)
        assert values.flags.writeable and not (values >> 1).any()
        while values.base is not None:
            values = values.base
        assert id(values) not in roots
        roots.add(id(values))


def test_verdicts_survive_relabeling():
    rng = np.random.default_rng(7)
    for fx in (rp_w2_zero(), rp_kreck(), z2_remark()):
        v0 = decide(fx.nt)
        nt2, _ = _relabeled_type(fx.nt, rng)
        v1 = decide(nt2)
        assert (v0.outcome, v0.clause) == (v1.outcome, v1.clause)


def test_z4_verdict_survives_cover_relabeling():
    fx = z4_semidirect()
    rng = np.random.default_rng(3)
    pair = fx.cover
    cov2, perms = relabel_model(pair.cover, rng)
    old = [np.argsort(p) for p in perms]
    inv2 = Involution(
        cov2,
        [p[t[o]] for p, t, o in zip(perms, pair.involution.perms, old)],
        "relabeled deck",
    )
    proj2 = SimplicialMap(
        cov2,
        pair.base,
        [w[o] for w, o in zip(pair.projection.image_word, old)],
        [c[o] for c, o in zip(pair.projection.image_cell, old)],
        "relabeled projection",
    )
    sheet2 = [s[o] for s, o in zip(pair.sheet, old)]
    reps2 = [perms[n][pair.rep_cells[n]] for n in range(cov2.max_degree + 1)]
    bidx2 = [b[o] for b, o in zip(pair.base_index, old)]
    pair2 = CoverPair(
        cov2, pair.base, proj2, inv2, pair.w1, sheet2, reps2, bidx2
    )
    v = decide(fx.nt, cover=pair2)
    assert v.outcome == "NoExoticaSecondary"
    assert v.clause == 5
