"""Print one sha256 per output of every catalog fixture, to compare checkouts.

Usage: PYTHONPATH=src python3 scripts/output_digest.py [name ...] > digest.txt

The names are catalog fixtures, or bar-models for the homology lines below.

Each line is "<fixture> <kind>.<item> <sha256>".  The kind says what a
difference between two checkouts means:

  user    what a user reads: verdicts, replays, reports, CLI output and the
          bytes of files.  A change here changes stexo's behaviour.
  canon   library values that the mathematics fixes once the cells are
          numbered: reduced echelon forms, residues, the representatives
          and relations chosen as the earliest independent vectors,
          combinations with zero free variables, induced matrices in those
          bases, boundaries and cover arrays.  Any correct elimination on
          the same cell order gives these bytes.
  path    values that depend on the route an elimination takes: row
          transforms and Smith transforms, and the integer cycle bases read
          off them.  These may move when an elimination changes; each has
          canon or user lines beside it for what its readers take.

For each fixture (all of them by default) the lines are, by kind:

user:
  verdict / replay   the decide verdict JSON on the fixture's own objects
                     (with its cover, section and lift data) and the
                     replay_evidence result;
  report             report_json of the second page, d2 maps and killers;
  <part>.bytes       canonical_bytes of each exported document;
  <part>.reexport    canonical_bytes of its re-export after parsing;
  <part>.parsed      what parsing those bytes gives, whatever the file
                     format: the model's cells and face arrays, the
                     cochains, the involution, each map's source and image
                     arrays, and the assertions (see parsed_digest);
  <part>.parsed.spaced
                     parsed_digest of the same document re-serialized by
                     json.dumps(..., indent=1), whose lists json.loads
                     reads: whitespace between tokens must not change what
                     a file parses to, so this line equals <part>.parsed;
  <part>.violations  validate() on each exported model with the faces 0 and
                     1 of every top-degree cell swapped (see swapped_faces):
                     the identity-check messages, pinned byte for byte;
  <part>.violations.mid
                     the same with the faces 0 and 1 of every cell of degree
                     max_degree - 1 swapped, on models with max_degree >= 2:
                     the top cells' identities then read faces of those
                     faces, whose targets carry nonempty words;
  cli.decide         `stexo decide --json` on the exported files, with
  cli.report         `stexo report --json` and
  cli.report.text    `stexo report` (the plain-text page, every d2 row and
                     the killers narrative); all with --cover, --section
                     and --lift where the fixture has them, exit code and
                     error text included;
  <part>.cohomology.<k>
                     `stexo cohomology --json --steenrod --deg k` on each
                     exported model, for k = 1..min(3, max_degree - 2): the
                     basis representatives and their Sq^1/Sq^2 coordinates;
  kreck.sweep        the kreck_witness supports (or None) on the type with
                     w2 replaced by w2 + delta f, w2 + w1^2 + delta f and
                     w1^2 + delta f (solvable on every base), over
                     KRECK_SEEDS seeded random 1-cochains f on the base;
  sweep.<w2>.<k>.verdict / .replay
                     for fixtures with a cover and cells to degree 5 or more:
                     decide and replay the fixture's type (w2 = "own") and
                     the type with w2 + w1^2 ("plus-w1sq") on the cover built
                     from w1 by cover_data_from_w1, twice each (k = 0, 1), so
                     that the second pass reuses what the first left on the
                     base model;
  forged.undetermined
                     for fixtures with a cover: the replay_evidence result
                     of an Undetermined verdict with no caveats on the
                     fixture's type, cover and section, forged whatever
                     decide returns;
  forged.cd3         the replay_evidence result of the fixture's verdict on
                     its type with a true cd_at_most_3 assertion (its own,
                     or one added), with its cover and section: True only
                     when decide on that type reaches the verdict's clause;
  corrupt.<k>        rp-kreck only: the exit code and error text of
                     `stexo decide` on its base and cover files with the
                     k-th edit of CORRUPTIONS applied (each one a file the
                     parser or the map checks refuse, exit code 2);
  corrupt.nested     rp-kreck only: the exit code and error text of
                     `stexo decide` on a base file nested NESTED_DEPTH
                     deep (or the name of the exception it raised).
  homology.<model>.<n>
                     under the name bar-models, after the fixtures: the
                     free rank and torsion of the integral H_n, n = 1..5, of
                     the depth-6 bar models of Z/4 (model z4) and Z/2xZ/2
                     (z2xz2), and of the twisted H_n, n = 0..5, of Z/4 by
                     its nontrivial character (z4-twisted): the integer
                     layer's answers on the models perfbench's
                     group-homology workload reads.

canon:
  relations          the relations of every coboundary_span(k) that the
                     base and the cover hold once decide and the report
                     have run, by model and increasing k (the spans of the
                     transform line, in its order): each dependent spanning
                     vector's expression in the earlier independent ones;
  combination        combination, on those spans in that order, of a
                     seeded batch of MEMBERSHIP_ROWS members of each: the
                     coefficients with zero on every dependent vector;
  induced            for fixtures with a cover or a section: the shape and
                     words of induced_matrix of the projection and of the
                     section map, in every degree k <= 4 certified on both
                     ends (one row per target basis class);
  <part>.span.<k>    the echelon words and pivots of coboundary_span(k) on
                     each exported model, for k = 1..min(4, max_degree): the
                     one reduction of B^k, pinned byte for byte;
  <part>.membership.<k>
                     contains and residual of coboundary_span(k) on each
                     exported model, for k = 1..min(4, max_degree), on a
                     seeded batch of MEMBERSHIP_ROWS k-cochains, half of them
                     coboundaries, with entries 0..3 (read mod 2); the batch
                     must give what each vector gives alone;
  <part>.cocycles.<k>
                     the representatives cohomology_basis(model, k) keeps,
                     as its reduction.reps bytes, on each exported model,
                     for k = 0..min(4, max_degree - 1): the H^k cocycles,
                     the H^4 ones of the big fixtures among them;
  <part>.boundary.<k>
                     the nonzero (row, col, value) triplets of
                     signed_faces(k).dense() on each exported model, and
                     (as twisted.boundary.<k>) of twisted_faces(k).dense()
                     of the fixture's own cover pair, for every
                     k = 1..max_degree whose dense matrix has at most
                     BOUNDARY_ENTRIES entries; skipped as larger are
                     z4-semidirect base, cover and twisted k = 4, 5,
                     d4-reflection base, cover and twisted k = 5 and
                     k2-stress base k = 6;
  cover.lifts        for fixtures with a cover: sheet, rep_cells,
                     base_index, the w1 values, the projection arrays and
                     the involution permutations (each array with its dtype
                     and shape) of the fixture's own cover pair and of the
                     pair cover_data_from_parts builds from the parsed base
                     and cover files, as the CLI does;

path:
  transform          the row transform words of the spans of the relations
                     line, in its order; its readers take the relations and
                     combination lines;
  generators         generator_chains() of every certified twisted E2 entry
                     (the integer cycle basis itself, not only its mod-2
                     pairings, which the report holds), as JSON lists of
                     ints keyed by "p,q";
  smith              diag and the three arrays the Smith loop returns
                     (snf._smith: U_inv, V and V_inv, each as carried on
                     that side, zero-width where nothing is), as JSON lists
                     of ints, of every Smith form those generator_chains()
                     calls take (the transform route), in call order; the
                     report holds the invariants and pairings its readers
                     take.

Running it on two checkouts and comparing the files with diff shows whether a
change kept every output byte for byte; a diff confined to path lines, with
their canon and user lines equal, shows that only an elimination's route
moved.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import stexo.snf as snf
from stexo import cli
from stexo.builders import bar_b, klein_table, z4_table
from stexo.catalog import REGISTRY, fixture_documents, get_fixture
from stexo.cohomology import (
    cohomology_basis,
    induced_matrix,
    integral_homology,
    twisted_homology,
)
from stexo.gf2 import unpack_rows, xor_combine
from stexo.james import d2_maps, e2_page, killers_report, report_json
from stexo.modelfile import canonical_bytes, parse_bytes, reexport
from stexo.obstruction import (
    Assertion,
    Verdict,
    cover_data_from_w1,
    decide,
    kreck_witness,
    replay_evidence,
)
from stexo.simplicial import Cochain, SimplicialModel, coboundary, cover_from_cocycle, cup


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def recorded_smith_forms():
    """Inside the block, every result of the Smith loop snf._smith is
    appended to the list it yields, as [diag, U_inv, V, V_inv] of int
    lists: the three arrays its caller handed it, as the loop returns them."""
    forms = []
    inner = snf._smith

    def spy(*arrays):
        res = inner(*arrays)
        arrays = (res.U_inv, res.V, res.V_inv)
        forms.append([res.diag, *([[int(x) for x in row] for row in m.tolist()] for m in arrays)])
        return res

    snf._smith = spy
    try:
        yield forms
    finally:
        snf._smith = inner


def _run_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _put(*path_and_value):
    """An edit setting the entry at doc[path...] to value (the last key names it)."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value

    return edit


def _drop(*path):
    """An edit removing the last entry of the list at doc[path...]."""

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc.pop()

    return edit


def _edits(*edits):
    """An edit applying each of edits in turn."""

    def edit(doc):
        for e in edits:
            e(doc)

    return edit


def _target(*path_and_target):
    """An edit setting target p of the {"cell", "word"} block at doc[path...]
    to (word mask, cell)."""
    *path, p, word, cell = path_and_target
    return _edits(_put(*path, "word", p, word), _put(*path, "cell", p, cell))


def _shorten(*path):
    """An edit removing the last target of the {"cell", "word"} block at doc[path...]."""
    return _edits(_drop(*path, "cell"), _drop(*path, "word"))


CORRUPT_FIXTURE = "rp-kreck"
# (part, edit); the edited documents are decided with their cover and section
CORRUPTIONS = [
    ("base", _put("faces", 0, "cell", 0, "7")),
    ("base", _target("faces", 1, 1, 0, 5)),
    ("base", _put("faces", 2, "word", 0, 4)),
    ("base", _put("faces", 2, "word", 2, "0")),
    ("base", _put("faces", 3, "colour", [1])),
    ("base", _shorten("faces", 1)),
    ("base", _put("cochains", "w1", "support", [0, 0])),
    ("base", _put("cochains", "w2", "support", [3])),
    ("base", _put("assertions", "cd_at_most_3", {"value": True, "provenance": ""})),
    ("base", _put("maps", "section", "assignment", 1, "word", 0, 8)),
    ("base", _target("maps", "section", "assignment", 2, 0, 0, 2**70)),
    ("cover", _put("involution", 0, [0, 1])),
    ("cover", _target("maps", "projection", "assignment", 2, 1, 0, 9)),
    ("cover", _put("maps", "projection", "assignment", 3, "cell", 0, None)),
    ("cover", _shorten("maps", "projection", "assignment", 1)),
    ("cover", _target("faces", 4, 6, 0, -1)),
    ("cover", _target("faces", 1, 2, 3, 1)),
]


def parsed_digest(data) -> str:
    """sha256 of what a parsed document holds, whatever its file format: the
    model's name, cells and face arrays, each cochain, the involution, each
    map's source model and image arrays (with the targets held back for the
    map checks), and the assertions."""

    def model_bytes(model) -> list:
        arrays = (*model.face_word, *model.face_cell)
        return [repr((model.name, model.cells)).encode(), *(a.tobytes() for a in arrays)]

    parts = model_bytes(data.model)
    for name, u in sorted(data.cochains.items()):
        parts += [repr((name, u.degree)).encode(), u.values.tobytes()]
    if data.involution is not None:
        parts += [np.asarray(p, dtype=np.int64).tobytes() for p in data.involution.perms]
    for name, m in sorted(data.maps.items()):
        parts.append(repr((name, m.source is None)).encode())
        if m.source is not None:
            parts += model_bytes(m.source)
        for masks, ids, rejects in m.images:
            parts += [masks.tobytes(), ids.tobytes(), repr(sorted(rejects.items())).encode()]
    parts.append(repr((data.cd_at_most_3, data.h5_zero)).encode())
    return _sha(b"\0".join(parts))


def swapped_faces(model: SimplicialModel, n: int) -> SimplicialModel:
    """model with the faces 0 and 1 of every degree-n cell swapped, words
    and cells alike: each stays a valid target, but the identities fail
    wherever the two faces differ."""
    swap = [1, 0, *range(2, n + 1)]
    face_word, face_cell = list(model.face_word), list(model.face_cell)
    face_word[n] = face_word[n][:, swap]
    face_cell[n] = face_cell[n][:, swap]
    return SimplicialModel(model.max_degree, model.cells, face_word, face_cell, name=model.name)


def corrupt_digest(blobs: dict) -> list:
    """(item, sha256) pairs for `stexo decide` on each corrupted file pair."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (part, edit) in enumerate(CORRUPTIONS):
            paths = {}
            for name, blob in blobs.items():
                doc = json.loads(blob)
                if name == part:
                    edit(doc)
                paths[name] = Path(tmp, f"{name}.json")
                paths[name].write_bytes(canonical_bytes(doc))
            err = io.StringIO()
            argv = ["decide", str(paths["base"]), "--cover", str(paths["cover"])]
            argv += ["--section", "section"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = f"exit {code}\n{err.getvalue()}".replace(tmp, "<dir>")
            rows.append((f"corrupt.{k}", _sha(text)))
    return rows


NESTED_DEPTH = 100000


def nested_digest() -> list:
    """(item, sha256) for `stexo decide` on a too deeply nested document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "nested.json")
        path.write_text("[" * NESTED_DEPTH + "]" * NESTED_DEPTH)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["decide", str(path)])
            except Exception as exc:  # an uncaught error is an output too
                code = f"raised {type(exc).__name__}"
        text = f"exit {code}\n{err.getvalue()}".replace(tmp, "<dir>")
    return [("corrupt.nested", _sha(text))]


KRECK_SEEDS = 16


def kreck_digest(nt) -> list:
    """(item, sha256) for kreck_witness on the type's w2, w2 + w1^2 and
    w1^2, each shifted by the coboundary of seeded random 1-cochains."""
    supports = []
    for seed in range(KRECK_SEEDS):
        rng = np.random.default_rng(seed)
        f = Cochain(nt.base, 1, rng.integers(0, 2, nt.base.n_cells(1), dtype=np.uint8))
        shift = coboundary(f)
        square = cup(nt.w1, nt.w1)
        for w2 in (nt.w2 + shift, nt.w2 + square + shift, square + shift):
            g = kreck_witness(dataclasses.replace(nt, w2=w2))
            supports.append(None if g is None else list(g.support()))
    return [("kreck.sweep", _sha(json.dumps(supports)))]


def lifts_digest(fx, blobs: dict) -> list:
    """(item, sha256) for the lift data of the fixture's own cover pair and of
    the pair built from its parsed base and cover files."""
    nt = cli._normal_type(parse_bytes(blobs["base"]))
    parsed = cli._cover_from_file(nt, parse_bytes(blobs["cover"]))
    parts = []
    for pair in (fx.cover, parsed):
        proj = pair.projection
        for arrays in (
            pair.sheet,
            pair.rep_cells,
            pair.base_index,
            [pair.w1.values],
            proj.image_word,
            proj.image_cell,
            pair.involution.perms,
        ):
            parts.append(repr(len(arrays)).encode())
            for a in arrays:
                parts += [repr((a.dtype.str, a.shape)).encode(), a.tobytes()]
    return [("cover.lifts", _sha(b"\0".join(parts)))]


def sweep_digest(fx) -> list:
    """(item, sha256) pairs for the type and its w2 + w1^2 partner, each
    decided twice on a cover from w1."""
    nt = fx.nt
    rows = []
    for label, w2 in (("own", nt.w2), ("plus-w1sq", nt.w2 + cup(nt.w1, nt.w1))):
        swept = dataclasses.replace(nt, w2=w2)
        for k in range(2):
            cover = cover_data_from_w1(swept)
            verdict = decide(swept, cover)
            replayed = replay_evidence(verdict, swept, cover)
            text = json.dumps(verdict.to_json_dict(), sort_keys=True)
            rows.append((f"sweep.{label}.{k}.verdict", _sha(text)))
            rows.append((f"sweep.{label}.{k}.replay", _sha(repr(replayed))))
    return rows


MEMBERSHIP_ROWS = 8


def membership_digest(part: str, model: SimplicialModel) -> list:
    """(item, sha256) pairs for membership in B^k on a seeded batch of
    coboundaries and random cochains, each plus twice a random cochain."""
    rows = []
    for k in range(1, min(4, model.max_degree) + 1):
        rng = np.random.default_rng(k)
        n, half = model.n_cells(k), MEMBERSHIP_ROWS // 2
        lower = rng.integers(0, 2, (half, model.n_cells(k - 1)), dtype=np.uint8)
        batch = np.concatenate(
            [[coboundary(Cochain(model, k - 1, f)).values for f in lower],
             rng.integers(0, 2, (MEMBERSHIP_ROWS - half, n), dtype=np.uint8)]
        ) + 2 * rng.integers(0, 2, (MEMBERSHIP_ROWS, n), dtype=np.uint8)
        span = model.coboundary_span(k)
        inside, residual = span.contains(batch), span.residual(batch)
        if not inside[:half].all():
            raise RuntimeError(f"{model.name}: a coboundary is not in B^{k}")
        for v, ins, res in zip(batch, inside, residual):
            if span.contains(v) != ins or not np.array_equal(span.residual(v), res):
                raise RuntimeError(f"{model.name}: B^{k} batch differs from its rows")
        data = repr(residual.shape).encode() + inside.tobytes() + residual.tobytes()
        rows.append((f"{part}.membership.{k}", _sha(data)))
    return rows


BOUNDARY_ENTRIES = 1 << 22


def boundary_digest(label: str, model: SimplicialModel, boundary) -> list:
    """(item, sha256) pairs for the nonzero (row, col, value) triplets of
    boundary(k), for each degree k whose dense matrix is small enough."""
    rows = []
    for k in range(1, model.max_degree + 1):
        if model.cells[k - 1] * model.cells[k] > BOUNDARY_ENTRIES:
            continue
        m = boundary(k)
        r, c = np.nonzero(m)
        data = repr(m.shape).encode() + np.stack([r, c, m[r, c]]).astype(np.int64).tobytes()
        rows.append((f"{label}.boundary.{k}", _sha(data)))
    return rows


def span_digest(fx) -> list:
    """(item, sha256) pairs for the transform, relations and combinations of
    each coboundary span cached on the fixture's base and cover models."""
    spans = []
    models = [fx.nt.base] + ([fx.cover.cover] if fx.cover is not None else [])
    for model in models:
        degrees = sorted(key[1] for key in model._cache if key[0] == "cob-span")
        spans += [(model.name, k, model.coboundary_span(k)) for k in degrees]
    parts = {"transform": [], "relations": [], "combination": []}
    for name, k, span in spans:
        rng = np.random.default_rng(k)
        coeffs = rng.integers(0, 2, (MEMBERSHIP_ROWS, span.dim), dtype=np.uint8)
        members = unpack_rows(xor_combine(coeffs, span.matrix.words), span.ambient_dim)
        combo = span.combination(members)
        for item, words in (
            ("transform", span.transform.words),
            ("relations", span.relations.words),
            ("combination", combo),
        ):
            parts[item] += [repr((name, k, words.shape)).encode(), words.tobytes()]
    return [(item, _sha(b"\0".join(data))) for item, data in parts.items()]


def induced_digest(fx) -> list:
    """(item, sha256) for the matrices of the cover projection and of the
    section map in cohomology."""
    maps = []
    if fx.cover is not None:
        maps.append(fx.cover.projection)
    if fx.section is not None:
        maps.append(fx.section.s)
    parts = []
    for f in maps:
        for k in range(min(4, f.source.max_degree - 1, f.target.max_degree - 1) + 1):
            m = induced_matrix(f, k)[0]
            parts += [repr((f.name, k, m.rows, m.cols)).encode(), m.words.tobytes()]
    return [("induced", _sha(b"\0".join(parts)))]


def digest(name: str) -> list:
    """(item, sha256) pairs for one fixture."""
    fx = get_fixture(name)
    rows = []
    if fx.nt is not None:
        verdict = decide(fx.nt, fx.cover, fx.section, fx.lift_data)
        rows.append(("verdict", _sha(json.dumps(verdict.to_json_dict(), sort_keys=True))))
        replayed = replay_evidence(verdict, fx.nt, fx.cover, fx.section)
        rows.append(("replay", _sha(repr(replayed))))
        page = e2_page(fx.nt, fx.cover)
        diffs = d2_maps(fx.nt, page)
        killers = killers_report(fx.nt, page, diffs, verdict)
        rows.append(("report", _sha(report_json(page, diffs, killers))))
        rows.extend(span_digest(fx))
        if fx.cover is not None or fx.section is not None:
            rows.extend(induced_digest(fx))
        with recorded_smith_forms() as forms:
            gens = {
                f"{p},{q}": [[int(x) for x in row] for row in e.result.generator_chains()]
                for (p, q), e in sorted(page.entries.items())
                if e.result is not None
            }
        rows.append(("generators", _sha(json.dumps(gens))))
        rows.append(("smith", _sha(json.dumps(forms))))
        rows.extend(kreck_digest(fx.nt))
        if fx.cover is not None and fx.nt.base.max_degree >= 5:
            rows.extend(sweep_digest(fx))
        if fx.cover is not None:
            forged = Verdict("Undetermined", 7, "forged", {"caveats_reflected": []})
            replayed = replay_evidence(forged, fx.nt, fx.cover, fx.section)
            rows.append(("forged.undetermined", _sha(repr(replayed))))
        cd = fx.nt.cd_at_most_3 or Assertion(True, "digest")
        cd3 = dataclasses.replace(fx.nt, cd_at_most_3=cd)
        replayed = replay_evidence(verdict, cd3, fx.cover, fx.section)
        rows.append(("forged.cd3", _sha(repr(replayed))))
    docs = fixture_documents(name)
    blobs = {part: canonical_bytes(doc) for part, doc in sorted(docs.items())}
    for part, blob in blobs.items():
        rows.append((f"{part}.bytes", _sha(blob)))
        data = parse_bytes(blob)
        rows.append((f"{part}.reexport", _sha(canonical_bytes(reexport(data)))))
        rows.append((f"{part}.parsed", parsed_digest(data)))
        spaced = json.dumps(json.loads(blob), indent=1).encode("utf-8")
        rows.append((f"{part}.parsed.spaced", parsed_digest(parse_bytes(spaced))))
        model = docs[part].model
        for k in range(1, min(4, model.max_degree) + 1):
            span = model.coboundary_span(k)
            words = span.matrix.words
            data = repr((words.shape, span.pivots)).encode() + words.tobytes()
            rows.append((f"{part}.span.{k}", _sha(data)))
        rows.extend(membership_digest(part, model))
        for k in range(min(4, model.max_degree - 1) + 1):
            reps = cohomology_basis(model, k).reduction.reps
            data = repr(reps.shape).encode() + reps.tobytes()
            rows.append((f"{part}.cocycles.{k}", _sha(data)))
        rows.extend(boundary_digest(part, model, lambda k: model.signed_faces(k).dense()))
        top = model.max_degree
        rows.append((f"{part}.violations", _sha("\n".join(swapped_faces(model, top).validate()))))
        if top >= 2:
            mid = swapped_faces(model, top - 1).validate()
            rows.append((f"{part}.violations.mid", _sha("\n".join(mid))))
    if fx.nt is not None and "cover" in blobs:
        rows.extend(lifts_digest(fx, blobs))
    if fx.cover is not None:
        cover = fx.cover
        rows.extend(boundary_digest("twisted", cover.base, lambda k: cover.twisted_faces(k).dense()))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for part, blob in blobs.items():
            paths[part] = Path(tmp, f"{part}.json")
            paths[part].write_bytes(blob)
        if fx.nt is not None:
            opts = [str(paths["base"])]
            if "cover" in paths:
                opts += ["--cover", str(paths["cover"])]
            if fx.section is not None:
                opts += ["--section", "section"]
            lift = ["--lift", f"lift-{fx.lift_data[0].index}"] if fx.lift_data else []
            rows.append(("cli.decide", _sha(_run_cli(["decide", "--json", *opts, *lift]))))
            rows.append(("cli.report", _sha(_run_cli(["report", "--json", *opts]))))
            rows.append(("cli.report.text", _sha(_run_cli(["report", *opts]))))
        for part, path in paths.items():
            top = min(3, docs[part].model.max_degree - 2)
            for k in range(1, top + 1):
                argv = ["cohomology", "--json", "--steenrod", "--deg", str(k), str(path)]
                rows.append((f"{part}.cohomology.{k}", _sha(_run_cli(argv))))
    if name == CORRUPT_FIXTURE:
        rows.extend(corrupt_digest(blobs))
        rows.extend(nested_digest())
    return rows


BAR_MODELS = "bar-models"


def homology_digest() -> list:
    """(item, sha256) pairs for the integral homology of the depth-6 bar
    models of Z/4 and Z/2xZ/2 and the twisted homology of Z/4."""
    z4 = bar_b(z4_table(), 6, name="bar-z4")
    rows = []

    def put(model: str, n: int, inv) -> None:
        rows.append((f"homology.{model}.{n}", _sha(json.dumps([inv.free_rank, list(inv.torsion)]))))

    for model_name, model in (("z4", z4), ("z2xz2", bar_b(klein_table(), 6, name="bar-z2xz2"))):
        for n in range(1, 6):
            put(model_name, n, integral_homology(model, n).invariants)
    pair = cover_from_cocycle(z4, Cochain(z4, 1, np.array([1, 0, 1], dtype=np.uint8)))
    for n in range(6):
        put("z4-twisted", n, twisted_homology(pair, n, "Z-"))
    return rows


# the words of an item name that make it a path or a canon line; every
# other line is a user line
PATH_WORDS = {"transform", "generators", "smith"}
CANON_WORDS = {
    "relations", "combination", "induced", "span", "membership", "cocycles", "boundary", "lifts"
}


def kind(item: str) -> str:
    """The kind of a digest line: "path", "canon" or "user" (see above)."""
    words = set(item.split("."))
    return "path" if words & PATH_WORDS else "canon" if words & CANON_WORDS else "user"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="fixture names (default: all)")
    args = ap.parse_args()
    for name in args.names or [*REGISTRY, BAR_MODELS]:
        for item, sha in homology_digest() if name == BAR_MODELS else digest(name):
            print(f"{name} {kind(item)}.{item} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
