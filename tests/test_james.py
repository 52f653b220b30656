"""Page, differential, and killer-flag reports across the catalog."""

import json
import re

import numpy as np
import pytest

from stexo import james
from stexo.catalog import get_fixture
from stexo.cohomology import cohomology_basis
from stexo.errors import InternalInvariantError, ValidationError
from stexo.gf2 import F2Matrix
from stexo.james import (
    SPIN_COEFFICIENTS,
    d2_maps,
    e2_page,
    killers_report,
    report_json,
)
from stexo.obstruction import decide, primary_vanishes
from stexo.simplicial import cup
from stexo.snf import AbelianGroupInvariants, FaceTable

NT_FIXTURES = (
    "rp-w2-zero",
    "rp-kreck",
    "z2-remark",
    "z2-secondary",
    "z4-semidirect",
    "d4-reflection",
)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in NT_FIXTURES:
        fx = get_fixture(name)
        verdict = decide(fx.nt, fx.cover, fx.section)
        page = e2_page(fx.nt, fx.cover)
        diffs = d2_maps(fx.nt, page)
        killers = killers_report(fx.nt, page, diffs, verdict)
        out[name] = (fx, verdict, page, diffs, killers)
    return out


def test_coefficient_table_is_pinned():
    rows = SPIN_COEFFICIENTS.rows
    assert [r.descriptor for r in rows] == ["Z", "Z/2", "Z/2", "0", "Z"]
    assert [r.twisted for r in rows] == [True, False, False, False, True]
    assert [r.generator_tag for r in rows] == [None, None, None, None, "16*signature"]
    with pytest.raises(ValidationError):
        SPIN_COEFFICIENTS.row(5)


def test_rp_page_pins(reports):
    _, _, page, _, _ = reports["rp-w2-zero"]
    assert page.entry(2, 3).known_zero
    assert page.entry(5, 0).known_zero
    e04 = page.entry(0, 4)
    assert e04.group.free_rank == 0 and e04.group.torsion == (2,)
    # twisted coefficients over the order-two group alternate: Z/2 in even
    # degrees, zero in odd ones
    for p in range(6):
        g = page.entry(p, 0).group
        assert g.torsion == ((2,) if p % 2 == 0 else ())
        assert g.free_rank == 0


def test_torus_page_matches_kunneth(reports):
    _, _, page, _, _ = reports["z2-remark"]
    assert page.entry(0, 4).group.torsion == (2,)
    assert page.entry(1, 0).group.torsion == (2,)
    assert page.entry(1, 0).group.free_rank == 0
    assert page.entry(2, 0).known_zero
    assert page.generator_count(1, 1) == 2


def test_q3_row_zero_everywhere(reports):
    for name, (_, _, page, _, _) in reports.items():
        for (p, q), e in page.entries.items():
            if q == 3:
                assert e.known_zero, (name, p)


def test_page_gaps_always_carry_caveats(reports):
    for name, (_, _, page, _, _) in reports.items():
        for e in page.entries.values():
            if not e.known:
                assert e.caveat, (name, e.p, e.q)


def test_z4_page_gap_set_is_frozen(reports):
    _, _, page, _, _ = reports["z4-semidirect"]
    gaps = sorted(k for k, e in page.entries.items() if not e.known)
    assert gaps == [(2, 0), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 0)]


def test_rp_d2_out_of_41_iso_or_zero(reports):
    _, _, _, diffs, _ = reports["rp-w2-zero"]
    assert diffs.from_q1[4].is_iso
    _, _, _, diffs_k, _ = reports["rp-kreck"]
    assert diffs_k.from_q1[4].known and diffs_k.from_q1[4].is_zero


def test_d2_out_of_21_is_multiplication_by_w2(reports):
    checked = 0
    for name, (fx, _, _, diffs, _) in reports.items():
        d = diffs.from_q1.get(2)
        if d is None or not d.known:
            continue
        h0 = cohomology_basis(fx.nt.base, 0)
        h2 = cohomology_basis(fx.nt.base, 2)
        want = np.zeros((h0.dim, h2.dim), dtype=np.uint8)
        for j, unit in enumerate(h0.reps):
            want[j] = h2.coords(cup(fx.nt.w2, unit))
        assert d.matrix == F2Matrix.from_dense(want), name
        checked += 1
    assert checked >= 5


def test_d2_composites_vanish_where_displayed(reports):
    pairs = 0
    for name, (_, _, _, diffs, _) in reports.items():
        for p, tail in diffs.from_q0.items():
            head = diffs.from_q1.get(p - 2)
            if head is None or not head.known or not tail.known:
                continue
            assert head.matrix.matmul(tail.matrix).is_zero(), (name, p)
            pairs += 1
    assert pairs >= 4


def test_d2_dims_match_page(reports):
    for name, (_, _, page, diffs, _) in reports.items():
        for d in (*diffs.from_q1.values(), *diffs.from_q0.values()):
            if not d.known:
                continue
            src = page.generator_count(*d.source)
            tgt = page.generator_count(*d.target)
            if src is not None:
                assert d.matrix.cols == src, (name, d.source)
            if tgt is not None:
                assert d.matrix.rows == tgt, (name, d.target)


def test_d3_flag_equals_primary_status(reports):
    for name, (fx, _, _, _, killers) in reports.items():
        want = "zero" if primary_vanishes(fx.nt) else "nonzero"
        assert killers.flag("d3").status == want, name


def test_killer_narratives(reports):
    assert reports["rp-w2-zero"][4].survivor == "killed by d3"
    assert reports["z4-semidirect"][4].survivor == "killed by d4"
    assert reports["d4-reflection"][4].survivor == "killed by d4"
    assert "K3 class survives" in reports["rp-kreck"][4].survivor
    assert "K3 class survives" in reports["z2-secondary"][4].survivor
    assert "undetermined" in reports["z2-remark"][4].survivor
    assert reports["z2-remark"][4].flag("d5").status == "open"


def test_kreck_all_killers_zero(reports):
    _, verdict, _, _, killers = reports["rp-kreck"]
    assert verdict.outcome == "ExoticaExistKreck"
    assert all(f.status == "zero" for f in killers.flags)
    assert killers.clause == 3


def test_report_embeds_clause(reports):
    for name, (_, verdict, _, _, killers) in reports.items():
        assert killers.clause == verdict.clause, name
        assert f"clause {verdict.clause}" in killers.text()


def test_report_is_pure(reports):
    for name in ("rp-kreck", "z4-semidirect"):
        fx, verdict, page, diffs, _ = reports[name]
        before = json.dumps(verdict.to_json_dict(), sort_keys=True)
        killers_report(fx.nt, page, diffs, verdict)
        after = json.dumps(verdict.to_json_dict(), sort_keys=True)
        assert before == after


def test_report_json_bytes_stable(reports):
    fx, verdict, _, _, _ = reports["rp-w2-zero"]
    blobs = []
    for _ in range(2):
        page = e2_page(fx.nt, fx.cover)
        diffs = d2_maps(fx.nt, page)
        killers = killers_report(fx.nt, page, diffs, verdict)
        blobs.append(report_json(page, diffs, killers).encode())
    assert blobs[0] == blobs[1]
    parsed = json.loads(blobs[0])
    assert set(parsed) == {"page", "differentials", "killers"}


def test_killers_without_verdict_stays_open(reports):
    fx, _, page, diffs, _ = reports["z4-semidirect"]
    killers = killers_report(fx.nt, page, diffs)
    assert killers.clause is None
    assert killers.flag("d4").status == "open"
    assert "no decision supplied" in killers.flag("d4").reason
    assert "undetermined" in killers.survivor


def test_no_verdict_but_dead_column_still_resolves_d4(reports):
    # the torus page has a zero-dimensional (4,1) entry, so even without a
    # verdict the degree-4 differential is known to vanish
    fx, _, page, diffs, _ = reports["z2-secondary"]
    killers = killers_report(fx.nt, page, diffs)
    assert killers.flag("d4").status == "zero"
    assert "cleared before page 4" in killers.flag("d4").reason


def test_integer_cap_caveats_follow_the_module_constant(monkeypatch):
    fx = get_fixture("rp-w2-zero")
    monkeypatch.setattr(james, "DEFAULT_INT_SIZE_CAP", 0)
    page = e2_page(fx.nt, fx.cover)
    diffs = d2_maps(fx.nt, page)
    for p in range(2, 6):
        e = page.entry(p, 0)
        assert e.group is None
        assert e.caveat == f"boundary matrices around degree {p} exceed the size cap"
        d = diffs.from_q0[p]
        assert d.matrix is None
        assert d.caveat == f"bar-z2: twisted boundary around degree {p} exceeds the size cap"
    assert all(d.known for d in diffs.from_q1.values())


def test_d2_out_of_row_zero_is_pinned(reports):
    # literal matrices, so a change of the integer generator basis that keeps
    # the maps self-consistent still shows here
    want = {
        ("rp-w2-zero", 2): [[0]],
        ("rp-w2-zero", 4): [[1]],
        ("rp-kreck", 2): [[1]],
        ("rp-kreck", 4): [[0]],
        ("d4-reflection", 2): [[0, 1]],
    }
    for (name, p), matrix in want.items():
        d = reports[name][3].from_q0[p]
        assert d.known, (name, p)
        assert d.matrix.to_dense().tolist() == matrix, (name, p)


def test_d2_reads_twisted_generators_off_the_page(monkeypatch, reports):
    # the page's homology results carry their reductions: d2_maps reduces
    # no boundary again
    calls = []
    real = FaceTable.reduce

    def spy(table):
        calls.append(table.shape)
        return real(table)

    for name in ("rp-w2-zero", "d4-reflection"):
        fx, _, _, want, _ = reports[name]
        page = e2_page(fx.nt, fx.cover)
        monkeypatch.setattr(FaceTable, "reduce", spy)
        diffs = d2_maps(fx.nt, page)
        monkeypatch.setattr(FaceTable, "reduce", real)
        assert calls == [], name
        assert any(d.known for d in diffs.from_q0.values()), name
        assert diffs.to_json_dict() == want.to_json_dict(), name


def test_every_certified_page_column_obeys_universal_coefficients(reports):
    # dim E2[p,1] = r_p + t_p + t_(p-1), checked wherever the three entries
    # certify: 25 columns over the catalog
    checked = [james._check_universal_coefficients(reports[n][2].entries) for n in NT_FIXTURES]
    assert sum(checked) == 25


def test_a_page_that_breaks_universal_coefficients_is_refused(monkeypatch, reports):
    fx = reports["rp-w2-zero"][0]
    real = james.twisted_homology

    def one_class_too_many(pair, p, coeff):
        group = real(pair, p, coeff)
        if p != 2:
            return group
        return AbelianGroupInvariants(group.free_rank, group.torsion + (2,))

    monkeypatch.setattr(james, "twisted_homology", one_class_too_many)
    want = "universal coefficients: E2[2,1] has dimension 2, but E2[2,0] and E2[1,0] give 1"
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(want)}$"):
        e2_page(fx.nt, fx.cover)
