"""Decision procedure for stable exotica from a normal 1-type.

The pipeline evaluates, in a fixed order: input validation, the primary
class w1^3 + w1 w2 in degree 3, the w2 = w1^2 sufficient condition, a user
assertion of small cohomological dimension, the secondary obstruction through
double-cover lift data, and the degree-5 integral homology gate for the
converse direction.  Everything is computed exactly over GF(2) (integral
homology over Z where needed) on finite simplicial models.

The lift data form an affine space a0 + K and the class of the witness
a cup T*a is affine on it, so the secondary stage tests d + 1 data for a
kernel of dimension d (nonzero_witness) and is exact for every kernel size.
The degree-2 operator has one builder, sq2_w_images; both tests against its
image (in_restricted_image on the cover, in_operator_image on the base) are
class-span tests, residues modulo the model's cached coboundary span.

A verdict means that its clause fires and every earlier clause is silent.
decide is the one statement of that order: replay_evidence rebuilds the lift
data a verdict cites and decides again, so a replayed verdict rechecks the
whole prefix of the tower, not only its own clause.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cohomology import (
    CohomologyBasis,
    class_span,
    cohomology_basis,
    in_class_span,
    induced_matrix,
    integral_homology,
    require_certified,
)
from .errors import (
    InternalInvariantError,
    ModelMismatchError,
    TruncationError,
    ValidationError,
)
from .gf2 import Subspace, xor_combine
from .simplicial import (
    Cochain,
    CoverPair,
    Involution,
    SimplicialMap,
    SimplicialModel,
    _double_cover,
    coboundary,
    cover_from_cocycle,
    cup,
    is_coboundary,
    sq,
)

OUTCOMES = (
    "InvalidInput",
    "NoExoticaPrimary",
    "ExoticaExistKreck",
    "ExoticaExistCd3",
    "NoExoticaSecondary",
    "ExoticaExistSecondary",
    "Undetermined",
)


@dataclass(frozen=True)
class Assertion:
    """A user-supplied fact the pipeline cannot derive from the truncation."""

    value: bool
    provenance: str


@dataclass
class NormalOneType:
    base: SimplicialModel
    w1: Cochain
    w2: Cochain
    name: str = "normal-1-type"
    cd_at_most_3: Assertion | None = None
    h5_zero: Assertion | None = None


@dataclass
class LiftDatum:
    a: Cochain
    index: int = 0
    label: str = ""


@dataclass
class SectionDatum:
    s: SimplicialMap


@dataclass
class Verdict:
    """A clause's outcome; the evidence is plain JSON data (dicts, lists,
    ints, strings), so evidence records compare with ==."""

    outcome: str
    clause: int
    explanation: str
    evidence: dict
    caveats: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "clause": self.clause,
            "explanation": self.explanation,
            "evidence": self.evidence,
            "caveats": list(self.caveats),
        }


# -- double cover data ---------------------------------------------------------


def cover_data_from_w1(nt: NormalOneType) -> CoverPair:
    """Build the double cover classified by the w1 cocycle of the type."""
    return cover_from_cocycle(nt.base, nt.w1)


def cover_data_from_pair(nt: NormalOneType, pair: CoverPair) -> CoverPair:
    """The pair itself, once checked to be a double cover of the type."""
    if pair.base is not nt.base:
        raise ModelMismatchError("cover pair quotient is not the type's base model")
    if not is_coboundary(pair.w1 + nt.w1):
        raise ValidationError(
            "cover characteristic cocycle is not cohomologous to the type's w1"
        )
    return pair


def cover_data_from_parts(
    nt: NormalOneType,
    cover: SimplicialModel,
    involution: Involution,
    projection: SimplicialMap,
) -> CoverPair:
    """Assemble and machine-check user-supplied cover data.

    Checks: the involution is free and simplicial on the cover, the
    projection is a simplicial map onto the base whose fibers are exactly the
    orbits, and the descended characteristic cocycle is cohomologous to the
    type's w1.  The pair's projection is the one _double_cover derives, equal
    to the given one once these checks pass.
    """
    involution.require_valid()
    if projection.source is not cover or projection.target is not nt.base:
        raise ModelMismatchError("projection endpoints do not match the cover data")
    projection.require_valid()
    base = nt.base
    if cover.max_degree != base.max_degree:
        raise ValidationError("cover and base truncations differ")
    for n in range(cover.max_degree + 1):
        if cover.cells[n] != 2 * base.cells[n]:
            raise ValidationError(f"degree {n}: cover must have twice the cells")
        if projection.image_word[n].any():
            raise ValidationError("projection sends a cell to a degenerate target")
    pair = _double_cover(cover, base, involution, projection.image_cell)
    return cover_data_from_pair(nt, pair)


# -- validation ----------------------------------------------------------------


def validate_normal_type(
    nt: NormalOneType,
    cover: CoverPair | None = None,
    section: SectionDatum | None = None,
) -> list:
    """All input violations, as human-readable reasons; empty means valid."""
    reasons = []
    bad = nt.base.validate()
    if bad:
        reasons.append(f"base model: {bad[0]} ({len(bad)} violations)")
    if nt.base.max_degree < 4:
        reasons.append("base model must store cells up to degree 4")
        return reasons
    if nt.w1.model is not nt.base or nt.w1.degree != 1:
        reasons.append("w1 must be a degree-1 cochain on the base model")
        return reasons
    if nt.w2.model is not nt.base or nt.w2.degree != 2:
        reasons.append("w2 must be a degree-2 cochain on the base model")
        return reasons
    if not coboundary(nt.w1).is_zero():
        reasons.append("w1 is not closed")
    if not coboundary(nt.w2).is_zero():
        reasons.append("w2 is not closed")
    if reasons:
        return reasons
    if is_coboundary(nt.w1):
        reasons.append("[w1] = 0: the orientable case is out of scope")
    if cover is not None:
        if cover.base is not nt.base:
            reasons.append("cover data quotient is not the base model")
        elif not is_coboundary(cover.w1 + nt.w1):
            reasons.append("cover characteristic class differs from [w1]")
    if section is not None:
        reasons.extend(_validate_section(nt, section))
    return reasons


def _validate_section(nt: NormalOneType, section: SectionDatum) -> list:
    reasons = []
    s = section.s
    if s.target is not nt.base:
        return ["section does not land in the base model"]
    bad = s.validate()
    if bad:
        return [f"section map: {bad[0]}"]
    if s.source.max_degree < 5:
        reasons.append(
            "section source must store cells up to degree 5 for degree-4 conclusions"
        )
    try:
        h1 = cohomology_basis(s.source, 1)
    except TruncationError:
        return reasons + ["section source too shallow to certify H^1"]
    if h1.dim != 1:
        reasons.append("section source must have one-dimensional H^1")
    else:
        pulled = s.pullback(nt.w1)
        if is_coboundary(pulled):
            reasons.append("section pullback of w1 is not a generator")
    return reasons


# -- the three obstruction layers ------------------------------------------------


def primary_obstruction(nt: NormalOneType) -> Cochain:
    """The degree-3 cochain w1^3 + w1 w2 (always closed for closed inputs)."""
    c = cup(nt.w1, cup(nt.w1, nt.w1)) + cup(nt.w1, nt.w2)
    if not coboundary(c).is_zero():
        raise InternalInvariantError("primary cochain failed to be closed")
    return c


def primary_vanishes(nt: NormalOneType) -> bool:
    return is_coboundary(primary_obstruction(nt))


def kreck_witness(nt: NormalOneType):
    """A 1-cochain g with delta g = w2 + w1^2, or None when classes differ.

    g is the solution of delta_1 g = w2 + w1^2 that is zero at the free
    columns of delta_1, read off the base model's one reduction of delta_1
    (coboundary_span(2)), so types on one base share that reduction.
    """
    diff = nt.w2 + cup(nt.w1, nt.w1)
    span = nt.base.coboundary_span(2)
    if not span.contains(diff.values):
        return None
    g = Cochain._computed(nt.base, 1, span.combination(diff.values))
    if coboundary(g) != diff:
        raise InternalInvariantError("Kreck witness fails delta g = w2 + w1^2")
    return g


def sq2_w_images(nt: NormalOneType, k: int):
    """The operator from H^k to H^{k+2}: the H^k basis of the base and the
    images of its representatives under x -> Sq^2 x + w1 Sq^1 x + w2 x.

    Both squares vanish below the degrees where they act, so on H^0 this is
    multiplication by w2.  The images' classes need (k+3)-cells; the source
    basis is built first, so the lower degree is reported when both lack cells.
    """
    src = cohomology_basis(nt.base, k)
    require_certified(nt.base, k + 2)
    return src, [sq(x, 2) + cup(nt.w1, sq(x, 1)) + cup(nt.w2, x) for x in src.reps]


def in_operator_image(nt: NormalOneType, u: Cochain) -> bool:
    """Whether the class of a closed degree-4 cochain on the base lies in the
    image of the operator from H^2."""
    images = sq2_w_images(nt, 2)[1]
    return in_class_span(class_span(nt.base, 4, [x.values for x in images]), u)


# -- lift data -------------------------------------------------------------------


@dataclass
class LiftSolutions:
    """The affine space of degree-2 classes a with [a + T*a] = [p*w2]."""

    basis: CohomologyBasis
    particular: np.ndarray | None
    kernel: Subspace

    @property
    def empty(self) -> bool:
        return self.particular is None

    @property
    def count(self) -> int:
        return 0 if self.empty else 1 << self.kernel.dim

    def class_coords(self, combo_bits: int) -> np.ndarray:
        """The particular solution plus the kernel rows picked by combo_bits."""
        dim = self.kernel.dim
        raw = np.frombuffer(combo_bits.to_bytes((dim + 7) // 8, "little"), np.uint8)
        picks = np.unpackbits(raw, bitorder="little")[None, :dim]
        return self.particular ^ xor_combine(picks, self.kernel.matrix.to_dense())[0]

    def datum(self, combo_bits: int) -> LiftDatum:
        """The solution picked by combo_bits, as a lift datum indexed by them."""
        return LiftDatum(self.basis.class_from_coords(self.class_coords(combo_bits)), combo_bits)


def _type_key(name: str, nt: NormalOneType) -> tuple:
    """Cache key on a shared cover for a result that depends on the type."""
    return (name, nt.w1.values.tobytes(), nt.w2.values.tobytes())


def lift_data_solutions(nt: NormalOneType, cover: CoverPair) -> LiftSolutions:
    key = _type_key("lift-solutions", nt)
    if key in cover._cache:
        return cover._cache[key]
    h2c = cohomology_basis(cover.cover, 2)
    m = h2c.coords_matrix([rep + cover.involution.pullback(rep) for rep in h2c.reps])
    rhs = h2c.coords(cover.projection.pullback(nt.w2))
    images = Subspace.from_vectors(h2c.dim, m)
    if images.contains(rhs):
        kernel = Subspace.from_vectors(h2c.dim, images.relations)
        out = LiftSolutions(h2c, images.combination(rhs), kernel)
    else:
        out = LiftSolutions(h2c, None, Subspace.zero(h2c.dim))
    cover._cache[key] = out
    return out


def validate_lift_datum(
    nt: NormalOneType, cover: CoverPair, a: Cochain
) -> list:
    reasons = []
    if a.model is not cover.cover or a.degree != 2:
        return ["lift datum must be a degree-2 cochain on the cover"]
    if not coboundary(a).is_zero():
        return ["lift datum is not closed"]
    lhs = a + cover.involution.pullback(a)
    rhs = cover.projection.pullback(nt.w2)
    if not is_coboundary(lhs + rhs):
        reasons.append("[a + T*a] differs from [p*w2] on the cover")
    return reasons


def secondary_witness(cover: CoverPair, a: Cochain) -> Cochain:
    """The degree-4 witness a cup T*a on the cover."""
    A = cup(a, cover.involution.pullback(a))
    if not coboundary(A).is_zero():
        raise InternalInvariantError("secondary witness failed to be closed")
    return A


def _restricted_image(nt: NormalOneType, cover: CoverPair) -> Subspace:
    """The class span of p*(Im Sq^2_{w1,w2}) on the cover, kept in the
    pair's cache."""
    key = _type_key("restricted-image", nt)
    if key not in cover._cache:
        images = sq2_w_images(nt, 2)[1]
        pulled = [cover.projection.pullback(img).values for img in images]
        cover._cache[key] = class_span(cover.cover, 4, pulled)
    return cover._cache[key]


def in_restricted_image(nt: NormalOneType, cover: CoverPair, A: Cochain) -> bool:
    """Whether the class of a closed degree-4 cochain A on the cover lies in
    p*(Im Sq^2_{w1,w2}), that is, whether A lies in B^4 + p*(Im).

    Reduction modulo B^4 is linear and kills exactly B^4, so this holds when
    the residue of A lies in the span of the residues of the pulled-back
    images.  The cover model caches B^4, so types that share a cover share it.
    """
    if A.model is not cover.cover or A.degree != 4:
        raise ModelMismatchError(
            "restricted image test: A is not a degree-4 cochain on the cover"
        )
    return in_class_span(_restricted_image(nt, cover), A)


def nonzero_witness(nt: NormalOneType, cover: CoverPair, extra_lift_data=()):
    """The first lift datum whose witness lies outside the restricted image,
    as (datum, witness); None when no datum has one.

    The extra data are tested first, then the solutions a0 + k at kernel
    bit masks 0, 1, 2, 4, ..., 2^(d-1), built one at a time.  Kernel classes
    have [T*k] = [k], [a0 + T*a0] = [p*w2] and cup products commute on
    classes, so [(a0+k) T*(a0+k)] = [a0 T*a0] + [p*w2 k] + [Sq^2 k]: the
    witness class is affine in k.  Some solution fails exactly when one of
    these d + 1 does, and in the order 0, 1, 2, 3, ... the first failing mask
    is 0 or a power of two (a mask below 2^j combines only k_1..k_j), so the
    datum found is the one a test of every solution in that order finds.
    """
    sols = lift_data_solutions(nt, cover)
    masks = [] if sols.empty else [0] + [1 << j for j in range(sols.kernel.dim)]
    for datum in itertools.chain(extra_lift_data, map(sols.datum, masks)):
        A = secondary_witness(cover, datum.a)
        if not in_restricted_image(nt, cover, A):
            return datum, A
    return None


# -- secondary test --------------------------------------------------------------


@dataclass
class SecondaryOutcome:
    kind: str  # "nonzero" | "zero" | "inconclusive"
    witness: Cochain | None = None
    omega: Cochain | None = None
    omega_coords: np.ndarray | None = None
    reason: str = ""


def secondary_test(
    nt: NormalOneType,
    cover: CoverPair,
    datum: LiftDatum,
    section: SectionDatum | None = None,
) -> SecondaryOutcome:
    bad = validate_lift_datum(nt, cover, datum.a)
    if bad:
        raise ValidationError(f"lift datum: {bad[0]}")
    A = secondary_witness(cover, datum.a)
    if not in_restricted_image(nt, cover, A):
        return SecondaryOutcome("nonzero", witness=A)
    if section is None:
        return SecondaryOutcome(
            "inconclusive",
            witness=A,
            reason="witness lies in the restricted image and no section was supplied",
        )
    bad = _validate_section(nt, section)
    if bad:
        raise ValidationError(f"section: {bad[0]}")
    s = section.s
    p4, h4_cover, h4_base = induced_matrix(cover.projection, 4)
    s4, h4_section, h4_base_again = induced_matrix(s, 4)
    if h4_base_again.reduction is not h4_base.reduction:
        raise InternalInvariantError("H^4 base bases diverged")
    # the rows of p* beside those of s*, whose relations are the common kernel
    rows = np.hstack([p4.to_dense(), s4.to_dense()])
    stacked = Subspace.from_vectors(p4.cols + s4.cols, rows)
    if stacked.relations.rows:
        return SecondaryOutcome(
            "inconclusive",
            witness=A,
            reason="uniqueness fails: ker(p*) and ker(s*) overlap on H^4",
        )
    rhs = np.concatenate([h4_cover.coords(A), np.zeros(h4_section.dim, dtype=np.uint8)])
    if not stacked.contains(rhs):
        return SecondaryOutcome(
            "inconclusive",
            witness=A,
            reason="no degree-4 class satisfies both section and cover constraints",
        )
    omega_coords = stacked.combination(rhs)
    omega = h4_base.class_from_coords(omega_coords)
    if in_operator_image(nt, omega):
        return SecondaryOutcome("zero", witness=A, omega=omega, omega_coords=omega_coords)
    return SecondaryOutcome(
        "inconclusive",
        witness=A,
        omega=omega,
        omega_coords=omega_coords,
        reason="the pinned degree-4 class lies outside the operator image",
    )


# -- the degree-5 gate -----------------------------------------------------------


def h5_check(nt: NormalOneType):
    """Status of H_5(base; Z): ('zero'|'nonzero'|'unknown', detail)."""
    base = nt.base
    # the first degree from which no cells are stored
    tail_from = next((k for k in range(base.max_degree + 1) if not any(base.cells[k:])), None)
    if tail_from is not None and tail_from <= 5:
        return "zero", {
            "method": "empty-tail",
            "detail": f"no cells from degree {tail_from}; model dimension < 5",
        }
    try:
        inv = integral_homology(base, 5).invariants if base.max_degree >= 5 else None
    except TruncationError:
        inv = None
    if inv is not None:
        status = "zero" if inv.is_zero else "nonzero"
        detail = {"method": "computed", "invariants": str(inv)}
        if nt.h5_zero is not None and nt.h5_zero.value != inv.is_zero:
            detail["conflict"] = (
                f"assertion ({nt.h5_zero.provenance}) contradicts the computation"
            )
        return status, detail
    if nt.h5_zero is not None:
        return (
            "zero" if nt.h5_zero.value else "nonzero",
            {"method": "asserted", "provenance": nt.h5_zero.provenance},
        )
    return "unknown", {"method": "none"}


# -- decide ----------------------------------------------------------------------


def decide(
    nt: NormalOneType,
    cover: CoverPair | None = None,
    section: SectionDatum | None = None,
    extra_lift_data: tuple = (),
) -> Verdict:
    caveats = []

    reasons = validate_normal_type(nt, cover, section)
    rejected = []
    if cover is None and extra_lift_data:
        reasons.append("lift data supplied without cover data")
    for datum in extra_lift_data:
        label = datum.label or datum.index
        if cover is None:
            rejected.append({"label": label, "support": None})
            continue
        bad = validate_lift_datum(nt, cover, datum.a)
        reasons.extend(f"lift datum {label}: {r}" for r in bad)
        if bad:
            on_cover = datum.a.model is cover.cover and datum.a.degree == 2
            support = list(datum.a.support()) if on_cover else None
            rejected.append({"label": label, "support": support})
    if reasons:
        evidence = {"reasons": reasons}
        if rejected:
            evidence["rejected_lift_data"] = rejected
        return Verdict("InvalidInput", 1, "input validation failed", evidence)

    prim = primary_obstruction(nt)
    if not is_coboundary(prim):
        return Verdict(
            "NoExoticaPrimary",
            2,
            "the primary class w1^3 + w1 w2 is nonzero in degree-3 cohomology",
            {"primary_support": list(prim.support())},
        )

    g = kreck_witness(nt)
    if g is not None:
        return Verdict(
            "ExoticaExistKreck",
            3,
            "w2 = w1^2 in degree-2 cohomology: stable exotica exist",
            {
                "kreck_witness_support": list(g.support()),
                "primary_support": list(prim.support()),
            },
        )

    if nt.cd_at_most_3 is not None and nt.cd_at_most_3.value:
        return Verdict(
            "ExoticaExistCd3",
            4,
            "asserted cohomological dimension at most 3 with vanishing primary"
            " class: stable exotica exist",
            {"cd_assertion_provenance": nt.cd_at_most_3.provenance},
        )

    first_datum = None
    if cover is not None:
        if nt.base.max_degree < 5:
            caveats.append(
                "cover supplied but max_degree < 5: degree-4 conclusions skipped"
            )
        else:
            sols = lift_data_solutions(nt, cover)
            if sols.empty and not extra_lift_data:
                caveats.append("no lift data exist over this cover")
            hit = nonzero_witness(nt, cover, extra_lift_data)
            if hit is not None:
                datum, A = hit
                return Verdict(
                    "NoExoticaSecondary",
                    5,
                    "a lift datum has witness class outside the restricted"
                    " operator image: the secondary obstruction is nonzero",
                    {
                        "lift_datum_index": datum.index,
                        "lift_datum_support": list(datum.a.support()),
                        "witness_support": list(A.support()),
                        "solution_count": sols.count,
                        "enumeration_complete": True,
                    },
                    tuple(caveats),
                )
            if extra_lift_data:
                first_datum = extra_lift_data[0]
            elif not sols.empty:
                first_datum = sols.datum(0)

    if section is not None and first_datum is not None:
        outcome = secondary_test(nt, cover, first_datum, section)
        if outcome.kind == "nonzero":
            raise InternalInvariantError(
                "secondary test disagreed with the clause-5 scan"
            )
        if outcome.kind == "zero":
            status, detail = h5_check(nt)
            if status == "zero":
                return Verdict(
                    "ExoticaExistSecondary",
                    6,
                    "secondary obstruction vanishes and H_5(base; Z) = 0:"
                    " stable exotica exist",
                    {
                        "lift_datum_index": first_datum.index,
                        "lift_datum_support": list(first_datum.a.support()),
                        "omega_coords": [int(x) for x in outcome.omega_coords],
                        "omega_support": list(outcome.omega.support()),
                        "h5": detail,
                    },
                    tuple(caveats),
                )
            caveats.append(
                f"secondary obstruction vanishes but H_5 gate is {status}:"
                " the converse direction does not apply"
            )
        else:
            caveats.append(f"secondary test inconclusive: {outcome.reason}")

    evidence = {"caveats_reflected": list(caveats)}
    if section is not None and first_datum is not None:
        evidence["lift_datum_support"] = list(first_datum.a.support())
    return Verdict(
        "Undetermined",
        7,
        "no clause resolved the type at this truncation",
        evidence,
        tuple(caveats),
    )


# -- evidence replay -------------------------------------------------------------


def replay_evidence(
    verdict: Verdict,
    nt: NormalOneType,
    cover: CoverPair | None = None,
    section: SectionDatum | None = None,
) -> bool:
    """Decide again on the lift data the verdict cites; True when the new
    verdict has the same outcome, clause, caveats and evidence.

    The explanation is a fixed text per clause and is not compared.  The
    recorded lift datum is rebuilt on the cover with its index: decide tests
    supplied data first, so clause 5 fires on it or clause 6 tests it.  Each
    rejected datum is rebuilt with its label, an int label as the index.  One
    recorded without a support was not a degree-2 cochain on the cover; the
    zero degree-2 cochain on the base stands in for it and is rejected for
    the same reason.  A support that names a cell the cover lacks cannot be
    rebuilt, so the evidence does not replay.
    """
    ev = verdict.evidence
    data = []
    try:
        if "lift_datum_support" in ev and cover is not None:
            a = Cochain.from_support(cover.cover, 2, ev["lift_datum_support"])
            data.append(LiftDatum(a, ev.get("lift_datum_index", 0)))
        for entry in ev.get("rejected_lift_data", ()):
            if entry["support"] is None or cover is None:
                a = Cochain.zero(nt.base, 2)
            else:
                a = Cochain.from_support(cover.cover, 2, entry["support"])
            label = entry["label"]
            data.append(LiftDatum(a, label) if isinstance(label, int) else LiftDatum(a, 0, label))
    except ValidationError:
        return False
    again = decide(nt, cover, section, tuple(data))
    return (again.outcome, again.clause, tuple(again.caveats), again.evidence) == (
        verdict.outcome,
        verdict.clause,
        tuple(verdict.caveats),
        verdict.evidence,
    )
