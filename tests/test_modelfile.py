"""Model file format: schema conformance, canonical bytes, parser diagnostics."""

import gc
import json
from functools import lru_cache
from itertools import chain, repeat
from operator import contains

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stexo.modelfile as modelfile
from stexo.builders import (
    bar_b,
    bar_hom_map,
    dihedral8_table,
    klein_table,
    z2_table,
    z4_table,
)
from stexo.catalog import REGISTRY, fixture_documents, get_fixture
from stexo.cli import main
from stexo.errors import ValidationError
from stexo.modelfile import (
    MODEL_FILE_SCHEMA,
    canonical_bytes,
    model_document,
    parse_bytes,
    reexport,
)
from stexo.obstruction import Assertion
from stexo.simplicial import Cochain, SimplicialMap, _word, coboundary, cover_from_cocycle

from reference import encode_targets

SMALL = ("rp-w2-zero", "rp-kreck", "z2-remark", "z2-secondary")
BIG = ("z4-semidirect", "d4-reflection", "k2-stress")


@pytest.fixture(scope="module")
def small_documents():
    return {name: fixture_documents(name) for name in SMALL}


@pytest.fixture(scope="module")
def rp_doc(small_documents):
    return small_documents["rp-w2-zero"]["base"]


def test_registry_documents_validate_against_schema(small_documents):
    for name, docs in small_documents.items():
        for part, doc in docs.items():
            jsonschema.validate(json.loads(canonical_bytes(doc)), MODEL_FILE_SCHEMA)


def _reference_bytes(doc) -> bytes:
    """The definition canonical_bytes must meet, byte for byte."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def test_small_fixture_round_trips_are_byte_stable(small_documents):
    for name, docs in small_documents.items():
        for part, doc in docs.items():
            blob = canonical_bytes(doc)
            assert blob == _reference_bytes(json.loads(canonical_bytes(doc)))
            parsed = parse_bytes(blob, default_name=f"{name}-{part}")
            assert canonical_bytes(reexport(parsed)) == blob
            # a second serialization of the same document is identical
            assert canonical_bytes(doc) == blob


@pytest.mark.slow
@pytest.mark.parametrize("name", BIG)
def test_big_fixture_round_trips_are_byte_stable(name):
    for part, doc in fixture_documents(name).items():
        jsonschema.validate(json.loads(canonical_bytes(doc)), MODEL_FILE_SCHEMA)
        blob = canonical_bytes(doc)
        assert blob == _reference_bytes(json.loads(canonical_bytes(doc)))
        assert canonical_bytes(reexport(parse_bytes(blob))) == blob


def test_canonical_bytes_ignore_key_order(rp_doc):
    scrambled = json.loads(canonical_bytes(rp_doc))
    scrambled = dict(reversed(list(scrambled.items())))
    assert canonical_bytes(scrambled) == canonical_bytes(rp_doc)


def test_parsed_model_carries_normal_type_data(rp_doc):
    parsed = parse_bytes(canonical_bytes(rp_doc))
    assert set(parsed.cochains) == {"w1", "w2"}
    assert parsed.cd_at_most_3 is None
    fx = get_fixture("rp-w2-zero")
    assert parsed.model.cells == fx.nt.base.cells
    assert np.array_equal(parsed.cochains["w1"].values, fx.nt.w1.values)


def test_cover_document_reassembles(small_documents):
    docs = small_documents["rp-kreck"]
    base = parse_bytes(canonical_bytes(docs["base"]))
    cover = parse_bytes(canonical_bytes(docs["cover"]))
    assert cover.involution is not None
    proj = cover.maps["projection"].from_model_to(cover.model, base.model)
    assert proj.validate() == []
    section = base.maps["section"].into_parent(base.model)
    assert section.target is base.model


def test_all_registry_names_export_something():
    for name in REGISTRY:
        docs = fixture_documents(name)
        assert "base" in docs


def _corrupt(doc, mutate):
    clone = json.loads(canonical_bytes(doc))
    mutate(clone)
    return canonical_bytes(clone)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(surprise=1), "unknown"),
        (lambda d: d.update(format_version=99), "format_version"),
        (lambda d: d["cells"].append(7), "cells"),
        (lambda d: d["faces"][0][0].__setitem__(0, {"cell": 10 ** 6}), "violation"),
        (lambda d: d["cochains"]["w1"].__setitem__("degree", -1), "degree"),
        (
            lambda d: d["cochains"]["w1"].__setitem__("support", [0, 0]),
            "support",
        ),
        (
            lambda d: d.update(assertions={"cd_at_most_3": {"value": True, "provenance": ""}}),
            "provenance",
        ),
        (lambda d: d.update(assertions={"mystery": None}), "mystery"),
    ],
)
def test_parser_rejects_corrupt_documents(rp_doc, mutate, fragment):
    with pytest.raises(ValidationError) as err:
        parse_bytes(_corrupt(rp_doc, mutate))
    assert fragment in str(err.value)


def test_parser_rejects_non_json():
    with pytest.raises(ValidationError) as err:
        parse_bytes(b"{this is not json")
    assert "not a JSON model file" in str(err.value)


def test_parser_rejects_fixed_point_involution(small_documents):
    doc = json.loads(canonical_bytes(small_documents["rp-kreck"]["cover"]))
    doc["involution"][0] = [0, 1]  # identity on vertices has fixed cells
    with pytest.raises(ValidationError):
        parse_bytes(canonical_bytes(doc))


def test_model_document_rejects_foreign_cochain():
    a = get_fixture("rp-w2-zero").nt
    b = get_fixture("z2-remark").nt
    with pytest.raises(ValidationError, match="different model"):
        model_document(a.base, cochains={"w1": b.w1})
    with pytest.raises(ValidationError, match="touches neither side"):
        model_document(a.base, maps={"section": SimplicialMap.identity(b.base)})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arbitrary_supports_round_trip(data):
    model = get_fixture("z2-remark").nt.base
    degree = data.draw(st.integers(min_value=0, max_value=model.max_degree))
    n = model.cells[degree]
    if n:
        bits = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    else:
        bits = set()
    values = np.zeros(n, dtype=np.uint8)
    for i in bits:
        values[i] = 1
    doc = model_document(model, cochains={"u": Cochain(model, degree, values)})
    parsed = parse_bytes(canonical_bytes(doc))
    assert np.array_equal(parsed.cochains["u"].values, values)


# -- canonical_bytes against the json.dumps reference -------------------------------

_TEXT = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["a\nb", "[x, y]", "1,2", '"q"', "\\", "\u00e9\u2028", "{}"]),
)
_INT = st.one_of(st.integers(-3, 9), st.just(2**70), st.just(-(2**70)))
_LETTER = st.one_of(st.integers(-1, 5), st.booleans(), st.just(2**70))
_TARGET = st.one_of(
    st.builds(lambda c: {"cell": c}, _INT),
    st.builds(lambda c, w: {"cell": c, "degen": w}, _INT, st.lists(_LETTER, max_size=3)),
    st.builds(
        lambda c, extra: {"cell": c, **extra},
        _INT,
        st.dictionaries(st.sampled_from(["degen", "colour", "a\nb"]), _INT, min_size=1),
    ),
    st.builds(
        lambda c: {"cell": c},
        st.one_of(st.booleans(), _TEXT, st.none(), st.floats(allow_nan=False), st.lists(_INT)),
    ),
    st.builds(lambda w: {"cell": 0, "degen": w}, st.one_of(_INT, _TEXT, st.none())),
    st.dictionaries(_TEXT, _INT, max_size=2),
    _INT,
    _TEXT,
    st.lists(st.lists(_INT, max_size=2), max_size=2),
    st.none(),
)
_ROWS = st.lists(st.one_of(st.lists(_TARGET, max_size=3), _TARGET), max_size=4)
_CORE = {
    "name": _TEXT,
    "max_degree": _INT,
    "cells": st.lists(st.one_of(_INT, st.booleans()), max_size=4),
    "faces": st.lists(st.one_of(_ROWS, _INT), max_size=3),
}
_DOCUMENTS = st.fixed_dictionaries(
    {
        "format_version": st.just(1),
        **_CORE,
        "cochains": st.dictionaries(
            _TEXT,
            st.fixed_dictionaries({"degree": _INT, "support": st.lists(_INT, max_size=4)}),
            max_size=2,
        ),
        "involution": st.one_of(st.none(), st.lists(st.lists(_INT, max_size=3), max_size=3)),
        "maps": st.dictionaries(
            _TEXT,
            st.fixed_dictionaries(
                {
                    "source": st.one_of(st.none(), st.fixed_dictionaries(_CORE)),
                    "assignment": _ROWS,
                }
            ),
            max_size=2,
        ),
        "assertions": st.fixed_dictionaries(
            {
                "cd_at_most_3": st.one_of(
                    st.none(),
                    st.fixed_dictionaries({"value": st.booleans(), "provenance": _TEXT}),
                )
            }
        ),
    }
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_canonical_bytes_equal_json_dumps_reference(doc):
    assert canonical_bytes(doc) == _reference_bytes(doc)


def test_canonical_bytes_of_edited_catalog_documents(small_documents):
    doc = json.loads(canonical_bytes(small_documents["z2-secondary"]["base"]))
    doc["faces"][0][1][0] = {"cell": True}
    doc["faces"][0][2] = []
    doc["faces"][1][0][2] = {"degen": [], "cell": 2**70, "note": "x\ny"}
    doc["maps"]["section"]["assignment"][1] = [{"cell": 0, "degen": [1, 0]}]
    doc["name"] = "[a,\nb]"
    assert canonical_bytes(doc) == _reference_bytes(doc)


# -- the array writer on bar models and their covers -----------------------------------

_GROUPS = {
    "z2": (z2_table(), (2, 3, 4)),
    "z4": (z4_table(), (2, 3, 4)),
    "klein": (klein_table(), (2, 3, 4)),
    "d8": (dihedral8_table(), (3,)),
}


@lru_cache(maxsize=None)
def _bar(group: str, depth: int):
    """A bar model and its degree-1 cocycles."""
    table = _GROUPS[group][0]
    model = bar_b(table, depth, name=f"bar-{group}")
    n = model.cells[1]
    cocycles = [
        u
        for bits in range(1 << n)
        for u in [Cochain(model, 1, np.array([bits >> j & 1 for j in range(n)], dtype=np.uint8))]
        if coboundary(u).is_zero()
    ]
    return model, cocycles


def _random_cochains(model, rng) -> dict:
    degrees = rng.integers(0, model.max_degree + 1, size=rng.integers(0, 3))
    return {
        f"u{k}\n\u00e9" if k % 2 else f"u{k}": Cochain(
            model, int(d), rng.integers(0, 2, size=model.cells[d], dtype=np.uint8)
        )
        for k, d in enumerate(degrees)
    }


def _arrays_equal(a, b) -> bool:
    return len(a) == len(b) and all(map(np.array_equal, a, b))


_ASSERTIONS = st.one_of(
    st.none(),
    st.builds(Assertion, st.booleans(), st.text(min_size=1, max_size=4).filter(str.strip)),
)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_writer_round_trips_bar_models_with_covers_and_sections(data):
    group = data.draw(st.sampled_from(sorted(_GROUPS)))
    table = _GROUPS[group][0]
    depth = data.draw(st.sampled_from(_GROUPS[group][1]))
    base, cocycles = _bar(group, depth)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = cover_from_cocycle(base, data.draw(st.sampled_from(cocycles)), allow_trivial=True)
    order_two = [g for g in range(1, len(table)) if table[g][g] == 0]
    src_depth = data.draw(st.integers(0, depth))
    section = bar_hom_map(
        bar_b(z2_table(), src_depth, name="bar-z2"),
        z2_table(),
        base,
        table,
        [0, data.draw(st.sampled_from(order_two))],
        name="section",
    )
    docs = {
        "base": model_document(
            base,
            cochains=_random_cochains(base, rng),
            maps={"section": section},
            cd_at_most_3=data.draw(_ASSERTIONS),
            h5_zero=data.draw(_ASSERTIONS),
        ),
        "cover": model_document(
            pair.cover,
            cochains=_random_cochains(pair.cover, rng),
            involution=pair.involution,
            maps={"projection": pair.projection},
        ),
    }
    parsed = {}
    for part, doc in docs.items():
        blob = canonical_bytes(doc)
        assert blob == _reference_bytes(json.loads(blob))
        parsed[part] = parse_bytes(blob)
        assert canonical_bytes(reexport(parsed[part])) == blob
        model = parsed[part].model
        assert model.cells == doc.model.cells and model.name == doc.model.name
        assert _arrays_equal(model.face_word, doc.model.face_word)
        assert _arrays_equal(model.face_cell, doc.model.face_cell)
        assert parsed[part].cochains.keys() == doc.cochains.keys()
        for name, u in doc.cochains.items():
            assert parsed[part].cochains[name] == Cochain(model, u.degree, u.values)
    assert _arrays_equal(parsed["cover"].involution.perms, pair.involution.perms)
    maps = {
        "section": (section, parsed["base"].maps["section"].into_parent(parsed["base"].model)),
        "projection": (
            pair.projection,
            parsed["cover"].maps["projection"].from_model_to(
                parsed["cover"].model, parsed["base"].model
            ),
        ),
    }
    for want, got in maps.values():
        assert _arrays_equal(got.source.face_word, want.source.face_word)
        assert _arrays_equal(got.source.face_cell, want.source.face_cell)
        assert _arrays_equal(got.image_word, want.image_word)
        assert _arrays_equal(got.image_cell, want.image_cell)


# -- parse diagnostics, as literal messages of the target-by-target parser -------------

_TARGET_SPOTS = {
    # fixture, part, path of the list holding the target, index in it
    "face": ("z2-secondary", "cover", ("faces", 1, 2), 1),
    "source-face": ("z2-secondary", "base", ("maps", "section", "source", "faces", 0, 0), 1),
    "section": ("z2-secondary", "base", ("maps", "section", "assignment", 1), 0),
    "own-section": ("rp-kreck", "base", ("maps", "section", "assignment", 3), 0),
    "projection": ("z2-secondary", "cover", ("maps", "projection", "assignment", 2), 3),
}


def _set(*path_and_value):
    """An edit setting doc[path...][key] to value."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value

    return edit


def _replace_target(spot, target):
    name, part, path, index = _TARGET_SPOTS[spot]
    return name, part, _set(*path, index, target)


def _diagnostic(name, part, edit):
    """The first complaint of parsing a fixture's documents with one of them
    edited, then making its section and projection maps as the CLI does."""
    docs = {p: json.loads(canonical_bytes(d)) for p, d in fixture_documents(name).items()}
    edit(docs[part])
    with pytest.raises(ValidationError) as err:
        base = parse_bytes(canonical_bytes(docs["base"]))
        base.maps["section"].into_parent(base.model)
        cover = parse_bytes(canonical_bytes(docs["cover"]))
        cover.maps["projection"].from_model_to(cover.model, base.model)
    return str(err.value)


def _edit(name, part, *path_and_edit):
    *path, edit = path_and_edit

    def apply(doc):
        for key in path:
            doc = doc[key]
        edit(doc)

    return name, part, apply


_VIOLATION = "document: 1 simplicial violations; first: degree 2 cell 2 face 1: "
_SOURCE_VIOLATION = (
    "document.maps.section.source: 1 simplicial violations; first: degree 1 cell 0 face 1: "
)
_BIG = 2**70


@pytest.mark.parametrize(
    "case, want",
    [
        (_replace_target("face", 7), "document.faces[1][2][1]: target must be an object"),
        (
            _replace_target("face", {"cell": 0, "colour": 1}),
            "document.faces[1][2][1]: unknown target keys ['colour']",
        ),
        (
            _replace_target("face", {"degen": []}),
            "document.faces[1][2][1]: target needs an integer cell",
        ),
        (
            _replace_target("face", {"cell": "0"}),
            "document.faces[1][2][1]: target needs an integer cell",
        ),
        (
            _replace_target("face", {"cell": 0, "degen": 0}),
            "document.faces[1][2][1]: degen must be a list of integers",
        ),
        (
            _replace_target("face", {"cell": 0, "degen": [0, 1]}),
            _VIOLATION + "degeneracy word (0, 1) is not strictly decreasing",
        ),
        (
            _replace_target("face", {"cell": 0, "degen": [5]}),
            _VIOLATION + "degeneracy word (5,) out of range for dimension 1",
        ),
        (
            _replace_target("face", {"cell": -1}),
            _VIOLATION + "target ((), -1) has no core cell in degree 1",
        ),
        (
            _replace_target("face", {"cell": 10**6}),
            _VIOLATION + "target ((), 1000000) has no core cell in degree 1",
        ),
        (
            _replace_target("face", {"cell": _BIG}),
            _VIOLATION + "target ((), 1180591620717411303424) has no core cell in degree 1",
        ),
        (
            _replace_target("face", {"cell": _BIG, "degen": [0]}),
            _VIOLATION + "target ((0,), 1180591620717411303424) has no core cell in degree 0",
        ),
        (
            _edit("z2-secondary", "cover", "faces", 1, 2, lambda row: row.append({"cell": 0})),
            "document.faces[1][2]: expected 3 targets",
        ),
        (
            _edit("z2-secondary", "cover", "faces", 1, lambda block: block.pop()),
            "document.faces[1]: expected 4 rows",
        ),
        (
            # a faulty target in an earlier row is reported before a short row
            _edit(
                "z2-secondary",
                "cover",
                "faces",
                1,
                lambda block: (block[3].pop(), block[2].__setitem__(0, {"cell": "x"})),
            ),
            "document.faces[1][2][0]: target needs an integer cell",
        ),
        (
            _replace_target("source-face", []),
            "document.maps.section.source.faces[0][0][1]: target must be an object",
        ),
        (
            _replace_target("source-face", {"cell": 1.0}),
            "document.maps.section.source.faces[0][0][1]: target needs an integer cell",
        ),
        (
            _replace_target("source-face", {"cell": 0, "degen": ["0"]}),
            "document.maps.section.source.faces[0][0][1]: degen must be a list of integers",
        ),
        (
            _replace_target("source-face", {"cell": 0, "degen": [0, 1]}),
            _SOURCE_VIOLATION + "degeneracy word (0, 1) is not strictly decreasing",
        ),
        (
            _replace_target("source-face", {"cell": -1}),
            _SOURCE_VIOLATION + "target ((), -1) has no core cell in degree 0",
        ),
        (
            _replace_target("source-face", {"cell": _BIG, "degen": [0]}),
            _SOURCE_VIOLATION + "degeneracy word (0,) out of range for dimension 0",
        ),
        (
            _edit(
                "z2-secondary",
                "base",
                "maps",
                "section",
                "source",
                "faces",
                0,
                0,
                lambda row: row.pop(),
            ),
            "document.maps.section.source.faces[0][0]: expected 2 targets",
        ),
        (
            _replace_target("section", {"cell": 0, "colour": 1}),
            "document.maps.section.assignment[1][0]: unknown target keys ['colour']",
        ),
        (
            _replace_target("section", {"degen": []}),
            "document.maps.section.assignment[1][0]: target needs an integer cell",
        ),
        (
            _replace_target("section", {"cell": 0, "degen": [0, 1]}),
            "map section: degree 1 cell 0: degeneracy word (0, 1) is not strictly decreasing",
        ),
        (
            _replace_target("section", {"cell": 0, "degen": [5]}),
            "map section: degree 1 cell 0: degeneracy word (5,) out of range for dimension 1",
        ),
        (
            _replace_target("section", {"cell": 10**6}),
            "map section: degree 1 cell 0: target ((), 1000000) has no core cell in degree 1",
        ),
        (
            _replace_target("section", {"cell": _BIG, "degen": [0]}),
            "map section: degree 1 cell 0: target ((0,), 1180591620717411303424)"
            " has no core cell in degree 0",
        ),
        (
            _replace_target("own-section", 7),
            "document.maps.section.assignment[3][0]: target must be an object",
        ),
        (
            _replace_target("own-section", {"cell": -1}),
            "map section: degree 3 cell 0: target ((), -1) has no core cell in degree 3",
        ),
        (
            _replace_target("own-section", {"cell": 0, "degen": [5]}),
            "map section: degree 3 cell 0: degeneracy word (5,) out of range for dimension 3",
        ),
        (
            _replace_target("projection", {"cell": 0, "degen": 0}),
            "document.maps.projection.assignment[2][3]: degen must be a list of integers",
        ),
        (
            _replace_target("projection", {"cell": 0, "degen": [0, 1]}),
            "map projection: degree 2 cell 3: degeneracy word (0, 1) is not strictly decreasing",
        ),
        (
            _replace_target("projection", {"cell": -1}),
            "map projection: degree 2 cell 3: target ((), -1) has no core cell in degree 2",
        ),
        (
            _replace_target("projection", {"cell": _BIG}),
            "map projection: degree 2 cell 3: target ((), 1180591620717411303424)"
            " has no core cell in degree 2",
        ),
        (
            _edit(
                "z2-secondary", "cover", "maps", "projection", "assignment", 1, lambda b: b.pop()
            ),
            "document.maps.projection.assignment[1]: expected 6 targets",
        ),
        (
            # the first fault in (degree, cell) order wins, whatever its kind
            _edit(
                "z2-secondary",
                "cover",
                "maps",
                "projection",
                "assignment",
                lambda a: (
                    a[2].__setitem__(0, {"cell": 0, "degen": [1, 1]}),
                    a[1].__setitem__(4, {"cell": 99}),
                ),
            ),
            "map projection: degree 1 cell 4: target ((), 99) has no core cell in degree 1",
        ),
        (
            _edit("z2-secondary", "base", "cochains", "w1", lambda c: c.update(support=[2, 1])),
            "document.cochains.w1.support[1]: support must be strictly increasing",
        ),
        (
            _edit("z2-secondary", "base", "cochains", "w1", lambda c: c.update(support=[1, 1])),
            "document.cochains.w1.support[1]: support must be strictly increasing",
        ),
        (
            _edit("z2-secondary", "base", "cochains", "w1", lambda c: c.update(support=[0, 3])),
            "document.cochains.w1.support[1]: cell index out of range 0..2",
        ),
        (
            _edit("z2-secondary", "base", "cochains", "w1", lambda c: c.update(support=[-1])),
            "document.cochains.w1.support[0]: cell index out of range 0..2",
        ),
        (
            _edit(
                "z2-secondary", "base", "cochains", "w1", lambda c: c.update(support=[0, _BIG])
            ),
            "document.cochains.w1.support[1]: cell index out of range 0..2",
        ),
    ],
)
def test_parse_diagnostics_are_unchanged(case, want):
    assert _diagnostic(*case) == want



@pytest.mark.parametrize(
    "target",
    [{"cell": 0, "degen": [0, 1]}, {"cell": 0, "degen": [7]}, {"cell": -1}, {"cell": 2**70}],
)
def test_reexport_keeps_map_targets_checked_only_on_use(target):
    # a map's targets are checked against the codomain the consumer picks
    doc = json.loads(canonical_bytes(fixture_documents("z2-secondary")["cover"]))
    doc["maps"]["projection"]["assignment"][2][3] = target
    blob = canonical_bytes(doc)
    assert canonical_bytes(reexport(parse_bytes(blob))) == blob


# -- the target reader and writer against their references -----------------------


def _reference_targets(flat, dim, path_of):
    """The target reader as a batch check of the objects, then encode_targets
    on their words and cells; the first fault is found target by target."""
    if all(map(isinstance, flat, repeat(dict))):
        cells = list(map(dict.get, flat, repeat("cell")))
        words = list(map(dict.get, flat, repeat("degen"), repeat(())))
        with_word = sum(map(contains, flat, repeat("degen")))
        if (
            sum(map(len, flat)) == len(flat) + with_word
            and set(map(type, cells)) <= {int}
            and sum(map(isinstance, words, repeat(list))) == with_word
            and set(map(type, chain.from_iterable(words))) <= {int}
        ):
            return encode_targets(dim, words, cells)
    k = next(k for k, obj in enumerate(flat) if modelfile._target_fault(obj))
    raise ValidationError(f"{path_of(k)}: {modelfile._target_fault(flat[k])}")


def _read(reader, flat, dim):
    """What a target reader gives: its arrays and rejects, or its message."""
    try:
        masks, ids, rejects = reader(flat, dim, lambda k: f"faces[{k // 3}][{k % 3}]")
    except ValidationError as exc:
        return str(exc)
    return masks.dtype, masks.tolist(), ids.dtype, ids.tolist(), rejects


_CELL = st.one_of(
    st.integers(-3, 40),
    st.integers(2**31, 2**63 - 1),
    st.sampled_from([2**63, 2**70, -(2**63), -(2**70)]),
)
_WORD = st.one_of(
    st.sets(st.integers(0, 5)).map(lambda s: sorted(s, reverse=True)),  # canonical up to range
    st.lists(st.integers(-2, 6), max_size=4),
    st.just([]),
)
_READABLE = st.one_of(
    st.builds(lambda c: {"cell": c}, _CELL),
    st.builds(lambda c, w: {"cell": c, "degen": w}, _CELL, _WORD),
    st.builds(lambda w, c: {"degen": w, "cell": c}, _WORD, _CELL),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_target_reader_matches_check_then_encode(data):
    # readable targets, and now and then a faulty one among them: a boolean
    # cell or letter, an extra key, no cell, or no object at all
    dim = data.draw(st.integers(0, 5))
    flat = data.draw(st.lists(_READABLE, max_size=12))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(flat)))
        flat.insert(at, data.draw(_TARGET))
    assert _read(modelfile._targets, flat, dim) == _read(_reference_targets, flat, dim)


def _target_dict(word, cell):
    return {"cell": cell, "degen": list(word)} if word else {"cell": cell}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_targets_text_equals_json_dumps(data):
    level = data.draw(st.integers(0, 4))
    dim = data.draw(st.integers(0, 5))
    shape = data.draw(
        st.one_of(st.tuples(st.integers(0, 8)), st.tuples(st.integers(0, 4), st.integers(1, 4)))
    )
    size = int(np.prod(shape))
    big = st.integers(2**31, 2**63 - 1)
    pool = data.draw(st.lists(st.one_of(st.integers(0, 9), big), min_size=1, max_size=3))
    cell = st.one_of(st.sampled_from(pool), st.integers(0, 99), big)  # repeated and distinct
    cells = data.draw(st.lists(cell, min_size=size, max_size=size))
    masks = data.draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=size, max_size=size))
    # rejects as parsed: any word, a cell that is negative or past int64
    positions = data.draw(st.sets(st.integers(0, size - 1))) if size else set()
    if size and data.draw(st.booleans()):
        positions |= {0, size - 1}
    rejects = {
        p: (
            tuple(data.draw(st.lists(st.integers(-2, 7), max_size=3))),
            data.draw(st.sampled_from([-1, -(2**40), 2**63, 2**70])),
        )
        for p in sorted(positions)
    }
    targets = [_target_dict(_word(m), c) for m, c in zip(masks, cells)]
    for p, (word, cell) in rejects.items():
        masks[p], cells[p] = 0, -1
        targets[p] = _target_dict(word, cell)
    if len(shape) == 2:
        targets = [targets[r * shape[1] : (r + 1) * shape[1]] for r in range(shape[0])]
    words_array = np.array(masks, dtype=np.int64).reshape(shape)
    cells_array = np.array(cells, dtype=np.int64).reshape(shape)
    want = json.dumps(targets, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)
    assert modelfile._targets_text(words_array, cells_array, level, rejects) == want


# -- integers, as the schema means them ----------------------------------------------


@pytest.mark.parametrize(
    "edit",
    [
        _set("faces", 0, 0, 0, "cell", True),
        _set("faces", 1, 0, 0, "degen", [True]),
        _set("cells", 0, True),
        _set("max_degree", True),
        _set("cochains", "lift-0", {"degree": True, "support": []}),
        _set("cochains", "lift-0", {"degree": 1, "support": [False]}),
        _set("involution", 0, [True, False]),
        _set("maps", "projection", "assignment", 0, 0, "cell", False),
    ],
)
def test_booleans_are_not_integers(edit):
    doc = json.loads(canonical_bytes(fixture_documents("rp-kreck")["cover"]))
    edit(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MODEL_FILE_SCHEMA)
    with pytest.raises(ValidationError):
        data = parse_bytes(canonical_bytes(doc))
        base = parse_bytes(canonical_bytes(fixture_documents("rp-kreck")["base"]))
        data.maps["projection"].from_model_to(data.model, base.model)


@pytest.mark.parametrize("perm", [[1.3, 0.3], ["1", "0"], ["ab", 0], [2**70, 0], [[1], 0]])
def test_involution_entries_must_be_integers(perm, tmp_path, capsys):
    docs = fixture_documents("rp-kreck")
    doc = json.loads(canonical_bytes(docs["cover"]))
    doc["involution"][0] = perm
    with pytest.raises(ValidationError, match=r"^document\.involution: "):
        parse_bytes(canonical_bytes(doc))
    base, cover = tmp_path / "base.json", tmp_path / "cover.json"
    base.write_bytes(canonical_bytes(docs["base"]))
    cover.write_bytes(canonical_bytes(doc))
    assert main(["decide", str(base), "--cover", str(cover)]) == 2
    assert "document.involution" in capsys.readouterr().err


def test_deeply_nested_document_is_not_a_model_file():
    with pytest.raises(ValidationError, match=r"^not a JSON model file: "):
        parse_bytes(b"[" * 100000 + b"]" * 100000)


# -- the collector pause ---------------------------------------------------------


@pytest.fixture
def collector_state():
    """Puts the collector back as it was, whatever the test leaves."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _spy_collector(monkeypatch, name: str, seen: dict) -> None:
    """Record the collector's state at each call of modelfile.<name>."""
    real = getattr(modelfile, name)

    def spy(*args, **kwargs):
        seen.setdefault(name, set()).add(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(modelfile, name, spy)


@pytest.mark.parametrize("enabled", [True, False])
def test_model_file_calls_pause_and_restore_the_collector(
    enabled, monkeypatch, collector_state
):
    # parsing pauses the collector; export leaves it as it found it
    fx = get_fixture("rp-kreck")
    seen: dict = {}
    _spy_collector(monkeypatch, "parse_document", seen)
    (gc.enable if enabled else gc.disable)()

    doc = model_document(fx.nt.base, cochains={"w1": fx.nt.w1})
    assert gc.isenabled() is enabled
    blob = canonical_bytes(doc)
    assert gc.isenabled() is enabled
    parsed = parse_bytes(blob)
    assert gc.isenabled() is enabled
    assert seen == {"parse_document": {False}}

    other = get_fixture("rp-w2-zero").nt.w1
    with pytest.raises(ValidationError, match="different model"):
        model_document(fx.nt.base, cochains={"w1": other})
    assert gc.isenabled() is enabled
    for corrupt in (b"{oops", blob.replace(b'"format_version": 1', b'"format_version": 2')):
        with pytest.raises(ValidationError):
            parse_bytes(corrupt)
        assert gc.isenabled() is enabled

    # a parse inside a caller that paused already leaves the pause on
    with modelfile._collector_paused():
        again = reexport(parse_bytes(blob))
        assert not gc.isenabled()
    assert gc.isenabled() is enabled
    assert canonical_bytes(again) == blob
    assert canonical_bytes(reexport(parsed)) == blob
    assert gc.isenabled() is enabled
