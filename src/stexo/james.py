"""Diagnostic spectral-sequence page for the twisted spin bordism of a type.

The report layer fills in the second page E2_{p,q} = H_p(base; C_q) for
p + q <= 5, where C_q runs over the first five spin bordism coefficient
groups, rows q = 0 and q = 4 carrying the w1-twist.  The d2 differentials
out of rows q = 1 and q = 0 are linear-algebra duals of the degree-shifting
operator x -> Sq^2 x + w1 Sq^1 x + w2 x, so they come straight from the
cohomology engine.  Higher differentials are not run as maps; their status
is read off the obstruction pipeline, and the report never claims more than
the verdict it is handed.

Coordinate conventions.  Entries in the mod-2 rows are coordinatized in the
homology basis dual to the cached degree-p cohomology basis, so the
coordinates of a cycle z are the pairings <u_i, z>.  In those bases the
differential out of (p,1) is literally the transpose of the operator matrix
H^{p-2} -> H^p.  Entries in the twisted rows list generators torsion-first,
matching the order of AbelianGroupInvariants.

Everything here is read-only diagnostics: no function mutates its inputs,
and entries that the truncation or a size cap cannot certify are reported
as unknown with a caveat instead of being guessed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .cohomology import (
    cohomology_basis,
    require_certified,
    truncated_at_top,
    twisted_homology,
    twisted_integral_homologies,
)
from .errors import InternalInvariantError, TruncationError, ValidationError
from .gf2 import F2Matrix, rank, xor_combine
from .obstruction import (
    NormalOneType,
    Verdict,
    cover_data_from_w1,
    primary_obstruction,
    primary_vanishes,
    sq2_w_images,
)
from .simplicial import CoverPair
from .snf import AbelianGroupInvariants, HomologyResult

# Size caps on the matrices an entry or a d2 map reduces, read at call time;
# the twisted rows run integer Smith reduction, so their cap is much tighter
# than the bit-packed mod-2 one.
DEFAULT_INT_SIZE_CAP = 60_000
DEFAULT_F2_SIZE_CAP = 2_000_000
# The page shows every entry E2_{p,q} with p + q <= MAX_TOTAL.
MAX_TOTAL = 5


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


# -- coefficient row constants -----------------------------------------------------


@dataclass(frozen=True)
class CoefficientRow:
    """One bordism coefficient group feeding a row of the page."""

    q: int
    descriptor: str
    twisted: bool
    generator_tag: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "group": self.descriptor,
            "twisted_by_w1": self.twisted,
            "generator_tag": self.generator_tag,
        }


@dataclass(frozen=True)
class SpinCoefficientTable:
    """The first five spin bordism groups, fixed constants.

    These are pinned values, never recomputed: Z (orientation-twisted), Z/2,
    Z/2, 0, and Z (orientation-twisted) whose generator is recorded as
    sixteen times the signature.
    """

    rows: tuple

    def row(self, q: int) -> CoefficientRow:
        if not 0 <= q < len(self.rows):
            raise ValidationError(f"coefficient row {q} out of range")
        return self.rows[q]

    def to_json_dict(self) -> dict:
        return {"rows": [r.to_json_dict() for r in self.rows]}


SPIN_COEFFICIENTS = SpinCoefficientTable(
    (
        CoefficientRow(0, "Z", True),
        CoefficientRow(1, "Z/2", False),
        CoefficientRow(2, "Z/2", False),
        CoefficientRow(3, "0", False),
        CoefficientRow(4, "Z", True, "16*signature"),
    )
)


# -- the E2 page -------------------------------------------------------------------


@dataclass(frozen=True)
class E2Entry:
    """One page entry; a twisted entry keeps the homology result it was read
    from, which the d2 maps take their generators from."""

    p: int
    q: int
    group: AbelianGroupInvariants | None
    caveat: str | None = None
    result: HomologyResult | None = field(default=None, compare=False, repr=False)

    @property
    def known(self) -> bool:
        return self.group is not None

    @property
    def known_zero(self) -> bool:
        return self.group is not None and self.group.is_zero

    def to_json_dict(self) -> dict:
        g = None
        if self.group is not None:
            g = {
                "free_rank": self.group.free_rank,
                "torsion": list(self.group.torsion),
            }
        return {"p": self.p, "q": self.q, "group": g, "caveat": self.caveat}


@dataclass
class E2Page:
    """Second-page entries for p + q <= max_total, with honest gaps."""

    name: str
    max_total: int
    entries: dict
    coefficients: SpinCoefficientTable = SPIN_COEFFICIENTS
    notes: tuple = ()

    def entry(self, p: int, q: int) -> E2Entry:
        try:
            return self.entries[(p, q)]
        except KeyError:
            raise ValidationError(f"entry ({p},{q}) is outside the page") from None

    def generator_count(self, p: int, q: int) -> int | None:
        e = self.entry(p, q)
        if e.group is None:
            return None
        return e.group.free_rank + len(e.group.torsion)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_total": self.max_total,
            "coefficients": self.coefficients.to_json_dict(),
            "entries": [
                self.entries[k].to_json_dict() for k in sorted(self.entries)
            ],
            "notes": list(self.notes),
        }


def _boundary_load(model, p: int) -> int:
    """Entry-count estimate for the matrices H_p touches, the cost driver."""
    below = model.cells[p - 1] if p >= 1 else 0
    above = model.cells[p + 1] if p + 1 <= model.max_degree else 0
    return model.cells[p] * max(below, above, 1)


def _homology_entries(pair, degrees, coeff: str) -> dict:
    """p -> E2Entry(p, 0, ...) for each p of degrees: H_p of the base with
    coefficients "Z-" or "F2", or a caveat.  A truncation is reported as
    such even where the matrices exceed the cap.  The twisted degrees that
    run are computed by one call, which reduces each boundary once."""
    base = pair.base
    cap = DEFAULT_F2_SIZE_CAP if coeff == "F2" else DEFAULT_INT_SIZE_CAP
    entries, run = {}, []
    for p in degrees:
        if p > base.max_degree:
            entries[p] = E2Entry(p, 0, None, f"no degree-{p} chains at this truncation")
        elif _boundary_load(base, p) > cap and not truncated_at_top(base, p, coeff):
            kind = "coboundary" if coeff == "F2" else "boundary"
            entries[p] = E2Entry(
                p, 0, None, f"{kind} matrices around degree {p} exceed the size cap"
            )
        elif coeff == "F2":
            try:
                entries[p] = E2Entry(p, 0, twisted_homology(pair, p, coeff))
            except TruncationError as exc:
                entries[p] = E2Entry(p, 0, None, str(exc))
        else:
            run.append(p)
    for p, res in twisted_integral_homologies(pair, run).items():
        if isinstance(res, TruncationError):
            entries[p] = E2Entry(p, 0, None, str(res))
        else:
            entries[p] = E2Entry(p, 0, res.invariants, result=res)
    return entries


def e2_page(nt: NormalOneType, cover: CoverPair | None = None) -> E2Page:
    """All page entries E2_{p,q} with p + q <= MAX_TOTAL that certify.

    Twisted rows (q = 0, 4) run under DEFAULT_INT_SIZE_CAP, the mod-2 rows
    (q = 1, 2) under DEFAULT_F2_SIZE_CAP.  An entry that cannot be certified
    is reported with group None and a caveat.  Each coefficient system's
    entries are computed once, for every degree a row needs.  The page is
    checked against universal coefficients (_check_universal_coefficients).
    """
    if cover is None:
        cover = cover_data_from_w1(nt)
    rows = {q: SPIN_COEFFICIENTS.row(q) for q in range(0, min(MAX_TOTAL, 4) + 1)}
    degrees = {}  # coefficient system -> the degrees p its rows need
    for q, row in rows.items():
        if row.descriptor != "0":
            degrees.setdefault(_coefficients(row), set()).update(range(MAX_TOTAL - q + 1))
    memo = {coeff: _homology_entries(cover, sorted(ps), coeff) for coeff, ps in degrees.items()}
    entries = {}
    for q, row in rows.items():
        for p in range(0, MAX_TOTAL - q + 1):
            if row.descriptor == "0":
                entries[(p, q)] = E2Entry(p, q, AbelianGroupInvariants(0, ()))
            else:
                entries[(p, q)] = replace(memo[_coefficients(row)][p], q=q)
    _check_universal_coefficients(entries)
    notes = []
    gaps = sum(1 for e in entries.values() if e.group is None)
    if gaps:
        notes.append(f"{gaps} entries not certified at this truncation or cap")
    return E2Page(nt.name, MAX_TOTAL, entries, SPIN_COEFFICIENTS, tuple(notes))


def _even_factors(group: AbelianGroupInvariants) -> int:
    return sum(1 for t in group.torsion if t % 2 == 0)


def _check_universal_coefficients(entries: dict) -> int:
    """Raise InternalInvariantError unless dim E2[p,1] = r_p + t_p + t_(p-1)
    wherever E2[p,1], E2[p,0] and E2[p-1,0] are certified; returns how many
    degrees p it checked.  Here r_p is the free rank of the twisted H_p and
    t_p the count of its even invariant factors: H_p(base; Z/2) is
    H_p(base; Z^w1) (x) Z/2 plus Tor(H_(p-1)(base; Z^w1), Z/2), and
    H_(-1) is zero."""
    checked = 0
    for p in range(MAX_TOTAL):
        mod2, here = entries[(p, 1)].group, entries[(p, 0)].group
        below = entries[(p - 1, 0)].group if p else AbelianGroupInvariants(0, ())
        if mod2 is None or here is None or below is None:
            continue
        want = here.free_rank + _even_factors(here) + _even_factors(below)
        have = mod2.free_rank + len(mod2.torsion)
        if have != want:
            raise InternalInvariantError(
                f"universal coefficients: E2[{p},1] has dimension {have},"
                f" but E2[{p},0] and E2[{p - 1},0] give {want}"
            )
        checked += 1
    return checked


def _coefficients(row: CoefficientRow) -> str:
    return "Z-" if row.twisted else "F2"


# -- the d2 differentials ----------------------------------------------------------


@dataclass(frozen=True)
class DifferentialMatrix:
    source: tuple
    target: tuple
    matrix: F2Matrix | None
    caveat: str | None = None
    note: str = ""

    @property
    def known(self) -> bool:
        return self.matrix is not None

    @property
    def is_zero(self) -> bool:
        return self.matrix is not None and self.matrix.is_zero()

    @property
    def is_iso(self) -> bool:
        m = self.matrix
        if m is None or m.rows != m.cols:
            return False
        return rank(m) == m.rows

    @property
    def is_injective(self) -> bool:
        m = self.matrix
        return m is not None and rank(m) == m.cols

    def to_json_dict(self) -> dict:
        dense = None if self.matrix is None else self.matrix.to_dense().tolist()
        return {
            "source": list(self.source),
            "target": list(self.target),
            "matrix": dense,
            "caveat": self.caveat,
            "note": self.note,
        }


@dataclass
class DifferentialReport:
    """The d2 maps out of rows q = 1 and q = 0, keyed by source column p."""

    name: str
    from_q1: dict
    from_q0: dict
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "from_q1": {str(p): d.to_json_dict() for p, d in sorted(self.from_q1.items())},
            "from_q0": {str(p): d.to_json_dict() for p, d in sorted(self.from_q0.items())},
            "notes": list(self.notes),
        }


def _check_dim(page: E2Page, pq: tuple, want: int, what: str) -> None:
    if pq not in page.entries:
        return
    have = page.generator_count(*pq)
    if have is not None and have != want:
        raise InternalInvariantError(
            f"{what}: dimension {want} disagrees with page entry {pq} = {have}"
        )


def _operator_transpose(nt: NormalOneType, p: int):
    """The H^p basis and the transpose of the operator H^{p-2} -> H^p: row j
    holds the H^p coordinates of the image of H^{p-2} basis class j."""
    base = nt.base
    if p > base.max_degree:
        raise TruncationError(f"{base.name}: no degree-{p} cochains at this truncation")
    require_certified(base, p)  # the truncation, not the cap, is the reason here
    if max(_boundary_load(base, p), _boundary_load(base, p - 2)) > DEFAULT_F2_SIZE_CAP:
        raise TruncationError(
            f"{base.name}: cohomology around degrees {p - 2},{p} exceeds the size cap"
        )
    _, images = sq2_w_images(nt, p - 2)
    h_p = cohomology_basis(base, p)
    return h_p, h_p.coords_matrix(images)


def d2_maps(
    nt: NormalOneType, page: E2Page, cover: CoverPair | None = None
) -> DifferentialReport:
    """The d2 matrices on the displayed page, duals of the degree-2 operator.

    Out of (p,1) the map to (p-2,2) is the transpose of the operator matrix
    H^{p-2} -> H^p.  Out of (p,0) it is that transpose composed with the
    mod-2 reduction of the twisted integral generators, which come from the
    homology result the page entry (p,0) holds: exact integer cycles
    (generator_chains checks them), so mod-2 cycles, as the twisted signs
    agree with the plain ones mod 2.  cover is unused, and stays only
    because perfbench/catalog_roundtrip.py:105 passes it.  Sources that the
    truncation or the size caps cannot certify carry a caveat instead of a
    matrix.
    """
    base = nt.base
    from_q1 = {}
    from_q0 = {}
    for p in range(2, MAX_TOTAL + 1):
        in_q1 = p + 1 <= MAX_TOTAL
        try:
            h_p, mt = _operator_transpose(nt, p)
        except TruncationError as exc:
            if in_q1:
                from_q1[p] = DifferentialMatrix((p, 1), (p - 2, 2), None, str(exc))
            from_q0[p] = DifferentialMatrix((p, 0), (p - 2, 1), None, str(exc))
            continue
        if in_q1:
            _check_dim(page, (p, 1), mt.cols, f"d2 source ({p},1)")
            _check_dim(page, (p - 2, 2), mt.rows, f"d2 target ({p - 2},2)")
            from_q1[p] = DifferentialMatrix(
                (p, 1),
                (p - 2, 2),
                mt,
                note="transpose of the degree-2 operator in the dual bases",
            )
        entry = page.entry(p, 0)
        if not entry.known:
            from_q0[p] = DifferentialMatrix(
                (p, 0),
                (p - 2, 1),
                None,
                f"{base.name}: twisted boundary around degree {p} exceeds the size cap",
            )
            continue
        vecs = (entry.result.generator_chains() & 1).astype(np.uint8)
        # column g pairs the H^p representatives with generator g mod 2
        red = F2Matrix.from_dense(xor_combine(h_p.reduction.reps, vecs.T))
        mat = mt.matmul(red)
        _check_dim(page, (p, 0), mat.cols, f"d2 source ({p},0)")
        _check_dim(page, (p - 2, 1), mat.rows, f"d2 target ({p - 2},1)")
        from_q0[p] = DifferentialMatrix(
            (p, 0),
            (p - 2, 1),
            mat,
            note="operator transpose composed with mod-2 reduction of the"
            " twisted generators, torsion-first order",
        )

    gaps = sum(1 for d in (*from_q1.values(), *from_q0.values()) if d.matrix is None)
    notes = (f"{gaps} differentials not certified",) if gaps else ()
    return DifferentialReport(nt.name, from_q1, from_q0, notes)


# -- which differential can kill the fourth-row class -------------------------------


@dataclass(frozen=True)
class DifferentialFlag:
    name: str
    source: tuple
    status: str
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "source": list(self.source),
            "status": self.status,
            "reason": self.reason,
        }


@dataclass
class KillersReport:
    """Status of every differential into the (0,4) entry, verdict-bounded."""

    name: str
    clause: int | None
    flags: tuple
    survivor: str
    lines: tuple

    def flag(self, name: str) -> DifferentialFlag:
        for f in self.flags:
            if f.name == name:
                return f
        raise ValidationError(f"no differential named {name}")

    def text(self) -> str:
        return "\n".join(self.lines)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "clause": self.clause,
            "flags": [f.to_json_dict() for f in self.flags],
            "survivor": self.survivor,
            "lines": list(self.lines),
        }


def _d4_from_verdict(verdict: Verdict | None):
    if verdict is None:
        return "open", "no decision supplied; the secondary stage status is unknown"
    out = verdict.outcome
    if out == "NoExoticaSecondary":
        support = verdict.evidence.get("witness_support", [])
        return (
            "nonzero",
            "the secondary stage pinned a nonzero degree-4 obstruction"
            f" (witness supported on {_count(len(support), 'cell')})",
        )
    if out == "ExoticaExistSecondary":
        return "zero", "the secondary obstruction vanished with a section pinning the lift"
    if out == "ExoticaExistKreck":
        return "zero", "w2 = w1^2 makes every differential into the (0,4) entry vanish"
    if out == "ExoticaExistCd3":
        return (
            "zero",
            "asserted cohomological dimension at most 3: group homology above"
            " degree 3 vanishes, so the source entry dies",
        )
    if out == "NoExoticaPrimary":
        return (
            "open",
            "the degree-3 differential already resolves the question; the"
            " secondary stage did not run",
        )
    return "open", f"verdict {out} leaves the degree-4 differential undetermined"


def killers_report(
    nt: NormalOneType,
    page: E2Page,
    diffs: DifferentialReport,
    verdict: Verdict | None = None,
) -> KillersReport:
    """Which differential can hit the fourth-row class, and what is known.

    The degree-3 status is recomputed from the primary class; the degree-4
    status is read off the verdict and never claims more than it; the
    degree-5 status only reports a vanishing source.  Pure: neither the
    verdict nor the page is altered.
    """
    flags = []

    e23 = page.entry(2, 3)
    flags.append(
        DifferentialFlag(
            "d2",
            (2, 3),
            "zero",
            "the (2,3) source vanishes: the third coefficient group is zero",
        )
    )
    if not e23.known_zero:
        raise InternalInvariantError("the (2,3) entry must be the zero group")

    if primary_vanishes(nt):
        d3 = ("zero", "the degree-3 class w1^3 + w1 w2 is a coboundary")
    else:
        support = sorted(primary_obstruction(nt).support())
        d3 = (
            "nonzero",
            "transgression dual to the degree-3 class w1^3 + w1 w2,"
            f" supported on {_count(len(support), 'cell')}",
        )
    flags.append(DifferentialFlag("d3", (3, 2), d3[0], d3[1]))

    d4 = _d4_from_verdict(verdict)
    d2_41 = diffs.from_q1.get(4)
    if d4[0] == "open" and d2_41 is not None and d2_41.is_injective:
        d4 = (
            "zero",
            "the displayed d2 out of (4,1) is injective, so that column is"
            " cleared before page 4",
        )
    flags.append(DifferentialFlag("d4", (4, 1), d4[0], d4[1]))

    e50 = page.entry(5, 0)
    if e50.known_zero:
        d5 = ("zero", "the (5,0) source vanishes")
    elif e50.known:
        d5 = ("open", "the (5,0) source is nonzero and d5 is not computed as a map")
    else:
        d5 = ("open", f"the (5,0) entry is not certified: {e50.caveat}")
    flags.append(DifferentialFlag("d5", (5, 0), d5[0], d5[1]))

    nonzero = [f for f in flags if f.status == "nonzero"]
    if nonzero:
        survivor = f"killed by {nonzero[0].name}"
    elif all(f.status == "zero" for f in flags):
        survivor = "all differentials into the (0,4) entry vanish; the K3 class survives"
    else:
        open_names = ", ".join(f.name for f in flags if f.status == "open")
        survivor = f"undetermined on the displayed page ({open_names} open)"

    lines = [f"fourth-row class report for {nt.name}"]
    if verdict is not None:
        lines.append(f"decision clause {verdict.clause}: {verdict.outcome}")
    e04 = page.entry(0, 4)
    if e04.known:
        t = "Z/" + "+Z/".join(str(x) for x in e04.group.torsion) if e04.group.torsion else ""
        f = f"Z^{e04.group.free_rank}" if e04.group.free_rank else ""
        desc = "+".join(x for x in (f, t) if x) or "0"
        lines.append(f"(0,4) entry: {desc} (generator scale: 16*signature)")
    if d2_41 is not None and d2_41.known:
        if d2_41.is_zero:
            shape = "the zero map"
        elif d2_41.is_iso:
            shape = "an isomorphism"
        elif d2_41.is_injective:
            shape = "injective"
        else:
            shape = "neither zero nor injective"
        lines.append(f"displayed d2 out of (4,1) into (2,2) is {shape}")
    for fl in flags:
        lines.append(f"{fl.name} from {fl.source}: {fl.status} ({fl.reason})")
    lines.append(survivor)

    clause = None if verdict is None else verdict.clause
    return KillersReport(nt.name, clause, tuple(flags), survivor, tuple(lines))


def report_json(
    page: E2Page, diffs: DifferentialReport, killers: KillersReport
) -> str:
    """Canonical JSON for the full report: sorted keys, stable bytes."""
    payload = {
        "page": page.to_json_dict(),
        "differentials": diffs.to_json_dict(),
        "killers": killers.to_json_dict(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
