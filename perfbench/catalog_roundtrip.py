"""Workload catalog-roundtrip: every catalog fixture from scratch to verdict.

One pass, for each fixture in catalog order: build it with the catalog's
cache cleared, export its base and cover documents to canonical bytes,
parse the bytes back, assemble the type, cover, section and lift data the
way ``stexo decide`` does, decide, replay the evidence, and run the report.
Every model is freshly parsed, so no model-level cache survives from the
build or from an earlier pass.  The inputs do not depend on the seed.

One operation fails on every pass, by a fault in the program: ``rp-kreck``
with a lift datum that is not closed.  ``decide`` rightly answers
InvalidInput, but ``replay_evidence`` re-runs only ``validate_normal_type``
for that outcome and ignores the lift data, so it returns False.
"""

from __future__ import annotations

import stexo.catalog as catalog
import stexo.cohomology as cohomology
import stexo.james as james
import stexo.modelfile as modelfile
import stexo.obstruction as obstruction
from stexo.simplicial import Cochain

STAGES = ("build", "export", "parse", "decide", "replay", "report")

# outcomes documented in the package README's catalog table
DOCUMENTED = {
    "rp-w2-zero": "NoExoticaPrimary",
    "rp-kreck": "ExoticaExistKreck",
    "z2-remark": "ExoticaExistCd3",
    "z2-secondary": "ExoticaExistSecondary",
    "z4-semidirect": "NoExoticaSecondary",
    "d4-reflection": "NoExoticaSecondary",
    "k2-stress": None,
}

BAD_LIFT_FIXTURE = "rp-kreck"


class Workload:
    def __init__(self, seed: int):
        # the catalog is fixed; the seed selects nothing here
        self.certified = 0

    def setup(self) -> None:
        missing = set(DOCUMENTED) ^ set(catalog.REGISTRY)
        if missing:
            raise SystemExit(f"catalog changed; unknown fixtures {sorted(missing)}")
        # build every fixture once, as the catalog does on first use; each
        # pass clears the cache and builds them again
        for build, _ in catalog.REGISTRY.values():
            build()

    def run_pass(self, p) -> None:
        self.certified = 0
        for name, (build, _) in catalog.REGISTRY.items():
            self._fixture(p, name, build)
        p.info["report_certified"] = self.certified

    def _fixture(self, p, name: str, build) -> None:
        with p.stage("build"):
            build.cache_clear()
            with p.span("catalog.build"):
                fx = build()
        p.op()

        with p.stage("export"):
            docs = catalog.fixture_documents(name)
            blobs = {part: modelfile.canonical_bytes(doc) for part, doc in docs.items()}
        p.op()

        with p.stage("parse"):
            parsed = {part: modelfile.parse_bytes(b) for part, b in blobs.items()}
        p.op()

        with p.checking():
            for part, data in parsed.items():
                again = modelfile.canonical_bytes(modelfile.reexport(data))
                p.check(again == blobs[part], f"{name}/{part}: re-export bytes differ")

        if fx.nt is None:
            p.check(DOCUMENTED[name] is None, f"{name}: no type to decide")
            return

        before = p.stages["decide"]
        with p.stage("decide"):
            nt, cover, section, lifts = _assemble(parsed)
            verdict = obstruction.decide(nt, cover, section, lifts)
        p.op()
        p.info[f"decide_s[{name}]"] = p.stages["decide"] - before
        with p.stage("replay"):
            replayed = obstruction.replay_evidence(verdict, nt, cover, section)
        p.op(replayed)
        p.check(
            verdict.outcome == DOCUMENTED[name],
            f"{name}: outcome {verdict.outcome}, documented {DOCUMENTED[name]}",
        )

        if name == BAD_LIFT_FIXTURE:
            self._bad_lift(p, nt, cover, section)

        with p.stage("report"):
            page = james.e2_page(nt, cover)
            diffs = james.d2_maps(nt, page, cover)
            killers = james.killers_report(nt, page, diffs, verdict)
        p.op()

        with p.checking():
            maps = (*diffs.from_q1.values(), *diffs.from_q0.values())
            known = sum(e.known for e in page.entries.values())
            known_maps = sum(d.known for d in maps)
            self.certified += known + known_maps
            p.info[f"uncertified[{name}]"] = (
                f"{len(page.entries) - known} E2, {len(maps) - known_maps} d2"
            )
            for (deg, q), e in page.entries.items():
                if q in (1, 2) and e.known:
                    dim = cohomology.cohomology_basis(nt.base, deg, True).dim
                    p.check(
                        e.group.free_rank == 0 and e.group.torsion == (2,) * dim,
                        f"{name}: E2[{deg},{q}] = {e.group}, H^{deg} has dim {dim}",
                    )

    def _bad_lift(self, p, nt, cover, section) -> None:
        """A lift datum supported on one cell, which is not a cocycle."""
        with p.stage("decide"):
            bad = Cochain.from_support(cover.cover, 2, [0])
            datum = obstruction.LiftDatum(bad, 0, "open-cochain")
            verdict = obstruction.decide(nt, cover, section, (datum,))
        p.op()
        with p.stage("replay"):
            replayed = obstruction.replay_evidence(verdict, nt, cover, section)
        p.op(replayed)
        reasons = verdict.evidence.get("reasons", [])
        p.check(
            verdict.outcome == "InvalidInput"
            and any("not closed" in r for r in reasons),
            f"{BAD_LIFT_FIXTURE}: open lift datum gave {verdict.outcome} {reasons}",
        )


def _assemble(parsed: dict):
    """Type, cover, section and lift data from parsed documents, as the CLI does."""
    data = parsed["base"]
    nt = obstruction.NormalOneType(
        data.model,
        data.cochains["w1"],
        data.cochains["w2"],
        name=data.model.name,
        cd_at_most_3=data.cd_at_most_3,
        h5_zero=data.h5_zero,
    )
    cover = None
    lifts = ()
    cdata = parsed.get("cover")
    if cdata is not None:
        projection = cdata.maps["projection"].from_model_to(cdata.model, nt.base)
        cover = obstruction.cover_data_from_parts(
            nt, cdata.model, cdata.involution, projection
        )
        lifts = tuple(
            obstruction.LiftDatum(cdata.cochains[k], 0, k) for k in sorted(cdata.cochains)
        )
    section = None
    if "section" in data.maps:
        section = obstruction.SectionDatum(data.maps["section"].into_parent(data.model))
    return nt, cover, section, lifts
