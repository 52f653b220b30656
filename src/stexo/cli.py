"""Command-line front end: decide, report, cohomology, catalog.

Exit codes are part of the contract: every completed decision exits 0 except
InvalidInput, which exits 2 like any other bad input (parse failures, missing
files, out-of-range degrees); a broken internal invariant exits 3.  All
--json payloads follow the schema dicts published in this module.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import REGISTRY, fixture_documents
from .cohomology import cohomology_basis
from .errors import InternalInvariantError, StexoError
from .james import d2_maps, e2_page, killers_report, report_json
from .modelfile import ModelFileData, canonical_bytes, parse_bytes
from .obstruction import (
    OUTCOMES,
    LiftDatum,
    NormalOneType,
    SectionDatum,
    cover_data_from_parts,
    decide,
)
from .simplicial import sq

VERDICT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "stexo verdict",
    "type": "object",
    "properties": {
        "outcome": {"enum": list(OUTCOMES)},
        "clause": {"type": "integer", "minimum": 1, "maximum": 7},
        "explanation": {"type": "string"},
        "evidence": {"type": "object"},
        "caveats": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["outcome", "clause", "explanation", "evidence", "caveats"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "stexo spectral report",
    "type": "object",
    "properties": {
        "page": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "max_total": {"type": "integer"},
                "coefficients": {"type": "object"},
                "entries": {"type": "array"},
                "notes": {"type": "array"},
            },
            "required": ["name", "entries", "coefficients"],
        },
        "differentials": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "from_q1": {"type": "object"},
                "from_q0": {"type": "object"},
                "notes": {"type": "array"},
            },
            "required": ["from_q1", "from_q0"],
        },
        "killers": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "clause": {"type": ["integer", "null"]},
                "flags": {"type": "array"},
                "survivor": {"type": "string"},
                "lines": {"type": "array"},
            },
            "required": ["clause", "flags", "survivor", "lines"],
        },
    },
    "required": ["page", "differentials", "killers"],
    "additionalProperties": False,
}


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load(path: str) -> ModelFileData:
    return parse_bytes(_read_bytes(path), default_name=path)


def _normal_type(data: ModelFileData) -> NormalOneType:
    missing = [k for k in ("w1", "w2") if k not in data.cochains]
    if missing:
        raise StexoError(
            f"the file must name cochains w1 and w2 (missing: {', '.join(missing)})"
        )
    return NormalOneType(
        data.model,
        data.cochains["w1"],
        data.cochains["w2"],
        name=data.model.name,
        cd_at_most_3=data.cd_at_most_3,
        h5_zero=data.h5_zero,
    )


def _cover_from_file(nt: NormalOneType, cdata: ModelFileData):
    if cdata.involution is None:
        raise StexoError("the cover file must carry an involution")
    pm = cdata.maps.get("projection")
    if pm is None:
        raise StexoError("the cover file must name a map 'projection'")
    projection = pm.from_model_to(cdata.model, nt.base)
    return cover_data_from_parts(nt, cdata.model, cdata.involution, projection)


def _section_from_file(data: ModelFileData, name: str) -> SectionDatum:
    md = data.maps.get(name)
    if md is None:
        known = ", ".join(sorted(data.maps)) or "none"
        raise StexoError(f"no map named {name!r} in the file (known: {known})")
    return SectionDatum(md.into_parent(data.model))


def _group_str(g) -> str:
    if g is None:
        return "?"
    parts = []
    if g.free_rank:
        parts.append(f"Z^{g.free_rank}" if g.free_rank > 1 else "Z")
    parts.extend(f"Z/{t}" for t in g.torsion)
    return " + ".join(parts) if parts else "0"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _inputs(args):
    """The type, cover, extra lift data and section that decide and report
    read from their files, checked in that order."""
    data = _load(args.path)
    nt = _normal_type(data)
    cover = None
    cdata = None
    if args.cover:
        cdata = _load(args.cover)
        cover = _cover_from_file(nt, cdata)
    extra = ()
    if args.lift:
        if cdata is None:
            raise StexoError("--lift needs --cover")
        if args.lift not in cdata.cochains:
            known = ", ".join(sorted(cdata.cochains)) or "none"
            raise StexoError(f"no cochain named {args.lift!r} in the cover file (known: {known})")
        extra = (LiftDatum(cdata.cochains[args.lift], 0, args.lift),)
    section = _section_from_file(data, args.section) if args.section else None
    return nt, cover, extra, section


def cmd_decide(args) -> int:
    nt, cover, extra, section = _inputs(args)
    verdict = decide(nt, cover, section, extra)
    payload = verdict.to_json_dict()
    if args.json:
        _emit(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines = [f"{verdict.outcome} (clause {verdict.clause})", verdict.explanation]
        for c in verdict.caveats:
            lines.append(f"caveat: {c}")
        lines.append("evidence: " + json.dumps(payload["evidence"], sort_keys=True))
        _emit("\n".join(lines))
    return 2 if verdict.outcome == "InvalidInput" else 0


def cmd_report(args) -> int:
    nt, cover, _, section = _inputs(args)
    verdict = decide(nt, cover, section)
    page = e2_page(nt, cover)
    diffs = d2_maps(nt, page)
    killers = killers_report(nt, page, diffs, verdict)
    if args.json:
        _emit(report_json(page, diffs, killers))
        return 0
    lines = [f"second-page entries for {nt.name} (p+q <= {page.max_total})"]
    for (p, q) in sorted(page.entries):
        e = page.entries[(p, q)]
        cav = f"  [{e.caveat}]" if e.caveat else ""
        lines.append(f"  E2[{p},{q}] = {_group_str(e.group)}{cav}")
    for label, block in (("q=1", diffs.from_q1), ("q=0", diffs.from_q0)):
        for p, d in sorted(block.items()):
            if d.known:
                lines.append(
                    f"  d2 {d.source}->{d.target}: {d.matrix.to_dense().tolist()}"
                )
            else:
                lines.append(f"  d2 {d.source}->{d.target}: not certified ({d.caveat})")
    lines.append(killers.text())
    _emit("\n".join(lines))
    return 0


def cmd_cohomology(args) -> int:
    data = _load(args.path)
    model = data.model
    basis = cohomology_basis(model, args.deg)
    payload = {
        "model": model.name,
        "degree": args.deg,
        "dim": basis.dim,
        "basis_supports": [
            [int(i) for i in rep.values.nonzero()[0]] for rep in basis.reps
        ],
    }
    if args.steenrod:
        for k in (1, 2):
            target = cohomology_basis(model, args.deg + k)
            m = target.coords_matrix([sq(rep, k) for rep in basis.reps])
            payload[f"sq{k}"] = m.to_dense().tolist()
    if args.json:
        _emit(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    lines = [f"H^{args.deg}({model.name}; F2) has dimension {basis.dim}"]
    for j, supp in enumerate(payload["basis_supports"]):
        lines.append(f"  b{j}: support {supp}")
    if args.steenrod:
        for j in range(basis.dim):
            lines.append(f"  Sq^1 b{j} -> {payload['sq1'][j]}")
            lines.append(f"  Sq^2 b{j} -> {payload['sq2'][j]}")
    _emit("\n".join(lines))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name, (_, desc) in REGISTRY.items():
            _emit(f"{name}: {desc}")
        return 0
    if not args.name:
        raise StexoError("catalog export needs a fixture name")
    try:
        docs = fixture_documents(args.name)
    except KeyError as exc:
        raise StexoError(str(exc.args[0])) from exc
    if args.part not in docs:
        raise StexoError(f"fixture {args.name!r} has no {args.part} document")
    sys.stdout.buffer.write(canonical_bytes(docs[args.part]))
    sys.stdout.buffer.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stexo",
        description="decide stable exotica questions on finite simplicial models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="run the decision procedure on a model file")
    d.add_argument("path", help="model file with cochains w1 and w2, or - for stdin")
    d.add_argument("--cover", help="cover model file (involution + projection)")
    d.add_argument("--lift", help="name of a degree-2 cochain in the cover file")
    d.add_argument("--section", help="name of a map in the base file")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_decide)

    r = sub.add_parser("report", help="print the spectral-sequence diagnostic")
    r.add_argument("path")
    r.add_argument("--cover")
    r.add_argument("--section")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_report, lift=None)

    h = sub.add_parser("cohomology", help="print an H^k basis, optionally with squares")
    h.add_argument("path")
    h.add_argument("--deg", type=int, required=True)
    h.add_argument("--steenrod", action="store_true")
    h.add_argument("--json", action="store_true")
    h.set_defaults(fn=cmd_cohomology)

    c = sub.add_parser("catalog", help="list built-in fixtures or export one")
    c.add_argument("action", choices=["list", "export"])
    c.add_argument("name", nargs="?")
    c.add_argument("--part", choices=["base", "cover"], default="base")
    c.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except (StexoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
