"""Model file format: schema conformance, canonical bytes, parser diagnostics."""

import gc
import io
import json
import re
import tracemalloc
import warnings
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
    parse_document,
    reexport,
)
from stexo.obstruction import Assertion
from stexo.simplicial import Cochain, SimplicialMap, coboundary, cover_from_cocycle

from reference import encode_targets, v1_document

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
            jsonschema.validate(v1_document(json.loads(canonical_bytes(doc))), MODEL_FILE_SCHEMA)


def _reference_bytes(doc) -> bytes:
    """The definition canonical_bytes must meet, byte for byte."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


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


def _models_equal(a, b) -> bool:
    return (
        (a.name, a.cells) == (b.name, b.cells)
        and _arrays_equal(a.face_word, b.face_word)
        and _arrays_equal(a.face_cell, b.face_cell)
    )


def _same_data(a, b) -> bool:
    """Whether two parsed documents hold the same model, cochains, involution,
    maps and assertions, array for array."""
    maps = a.maps.keys() == b.maps.keys() and all(
        (a.maps[k].source is None) == (b.maps[k].source is None)
        and (a.maps[k].source is None or _models_equal(a.maps[k].source, b.maps[k].source))
        and len(a.maps[k].images) == len(b.maps[k].images)
        and all(
            np.array_equal(mx, my) and np.array_equal(ix, iy) and rx == ry
            for (mx, ix, rx), (my, iy, ry) in zip(a.maps[k].images, b.maps[k].images)
        )
        for k in a.maps
    )
    return (
        _models_equal(a.model, b.model)
        and a.cochains.keys() == b.cochains.keys()
        and all(
            a.cochains[k].degree == b.cochains[k].degree
            and np.array_equal(a.cochains[k].values, b.cochains[k].values)
            for k in a.cochains
        )
        and (a.involution is None) == (b.involution is None)
        and (a.involution is None or _arrays_equal(a.involution.perms, b.involution.perms))
        and maps
        and (a.cd_at_most_3, a.h5_zero) == (b.cd_at_most_3, b.h5_zero)
    )


@pytest.mark.parametrize("name", list(REGISTRY))
def test_version_1_form_parses_to_the_same_data(name):
    for part, doc in fixture_documents(name).items():
        blob = canonical_bytes(doc)
        old = v1_document(json.loads(blob))
        jsonschema.validate(old, MODEL_FILE_SCHEMA)
        assert _same_data(parse_document(old), parse_bytes(blob))


@pytest.mark.parametrize("name", list(REGISTRY))
def test_indented_form_parses_to_the_same_data(name):
    # files written with indent=2, as canonical bytes were defined before,
    # parse to the same data and re-export to the compact canonical bytes
    for part, doc in fixture_documents(name).items():
        blob = canonical_bytes(doc)
        indented = (json.dumps(json.loads(blob), sort_keys=True, indent=2) + "\n").encode()
        assert len(indented) > len(blob)
        parsed = parse_bytes(indented)
        assert _same_data(parsed, parse_bytes(blob))
        assert canonical_bytes(reexport(parsed)) == blob


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


def _version(value):
    # a version that is not a JSON integer 1 or 2 (true == 1 and 1.0 == 1 in Python)
    return pytest.param(
        lambda d: d.update(format_version=value),
        "document.format_version: expected 1 or 2",
        id=f"format_version={json.dumps(value)}",
    )


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(surprise=1), "unknown"),
        (lambda d: d.update(format_version=99), "format_version"),
        _version(True),
        _version(1.0),
        _version(2.0),
        _version(False),
        (lambda d: d["cells"].append(7), "cells"),
        (lambda d: d["faces"][0]["cell"].__setitem__(0, 10**6), "violation"),
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
_ENTRY = st.one_of(_INT, st.booleans(), st.floats(allow_nan=False), _TEXT, st.none())
_BLOCK = st.one_of(
    st.fixed_dictionaries(
        {"cell": st.lists(_ENTRY, max_size=6), "word": st.lists(_INT, max_size=6)}
    ),
    st.dictionaries(st.sampled_from(["cell", "word", "degen"]), st.lists(_INT, max_size=3)),
    st.lists(_TARGET, max_size=3),
    _INT,
    st.none(),
)
_CORE = {
    "name": _TEXT,
    "max_degree": _INT,
    "cells": st.lists(st.one_of(_INT, st.booleans()), max_size=4),
    "faces": st.lists(_BLOCK, max_size=3),
}
_DOCUMENTS = st.fixed_dictionaries(
    {
        "format_version": st.just(2),
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
                    "assignment": st.lists(_BLOCK, max_size=3),
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
    doc["faces"][0]["cell"][1] = True
    doc["faces"][0]["word"] = []
    doc["faces"][1]["cell"][2] = 2**70
    doc["faces"][1]["note"] = "x\ny"
    doc["maps"]["section"]["assignment"][1] = {"cell": [-(2**70)], "word": [1.5]}
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


# -- version 1 parse diagnostics, as literal messages of the target-by-target parser ---

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


def _diagnostic(name, part, edit, form=v1_document):
    """The first complaint of parsing a fixture's documents, in the given
    form, with one of them edited, then making its section and projection
    maps as the CLI does."""
    docs = {p: form(json.loads(canonical_bytes(d))) for p, d in fixture_documents(name).items()}
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


# -- version 2 faults ------------------------------------------------------------------


def _same(name, part, *path_and_edit):
    """An edit of a version 2 document, applied to the list or object at path."""
    return (*_edit(name, part, *path_and_edit), lambda doc: doc)


_FACES = ("z2-secondary", "cover", "faces", 1)  # degree 2: 4 cells, 12 targets of dim 1
_PROJECTION = ("z2-secondary", "cover", "maps", "projection", "assignment")
_SOURCE_FACES = ("z2-secondary", "base", "maps", "section", "source", "faces", 0)


@pytest.mark.parametrize(
    "case, want",
    [
        (
            _same(*_FACES, "cell", lambda c: c.__setitem__(4, True)),
            "document.faces[1].cell[4]: expected an integer",
        ),
        (
            _same(*_FACES, "word", lambda w: w.__setitem__(2, 1.0)),
            "document.faces[1].word[2]: expected an integer",
        ),
        (
            _same(*_FACES, "cell", lambda c: c.__setitem__(5, -1)),
            "document.faces[1].cell[5]: cell must be a nonnegative 64-bit integer",
        ),
        (
            _same(*_FACES, "cell", lambda c: c.__setitem__(7, 2**70)),
            "document.faces[1].cell[7]: cell must be a nonnegative 64-bit integer",
        ),
        (
            _same(*_FACES, "word", lambda w: w.__setitem__(3, 2)),
            "document.faces[1].word[3]: expected a word mask in 0..1",
        ),
        (
            _same(*_FACES, "word", lambda w: w.__setitem__(3, -1)),
            "document.faces[1].word[3]: expected a word mask in 0..1",
        ),
        (
            _same(*_FACES, "word", lambda w: w.pop()),
            "document.faces[1].word: expected a list of 12 integers",
        ),
        (
            _same(*_FACES, lambda b: (b["cell"].pop(), b["word"].pop())),
            "document.faces[1].cell: expected a list of 12 integers",
        ),
        (
            _same(*_FACES, lambda b: b.update(degen=[])),
            'document.faces[1]: expected an object of "cell" and "word" lists',
        ),
        (
            # a cell past the model's count is a simplicial violation, as in version 1
            _same(*_FACES, lambda b: (b["cell"].__setitem__(7, 99), b["word"].__setitem__(7, 0))),
            _VIOLATION + "target ((), 99) has no core cell in degree 1",
        ),
        (
            _same(*_SOURCE_FACES, "cell", lambda c: c.__setitem__(1, False)),
            "document.maps.section.source.faces[0].cell[1]: expected an integer",
        ),
        (
            _same(*_PROJECTION, 1, "word", lambda w: w.__setitem__(4, 2)),
            "document.maps.projection.assignment[1].word[4]: expected a word mask in 0..1",
        ),
        (
            _same(*_PROJECTION, 2, "cell", lambda c: c.__setitem__(3, -1)),
            "document.maps.projection.assignment[2].cell[3]: "
            "cell must be a nonnegative 64-bit integer",
        ),
        (
            _same(*_PROJECTION, 1, lambda b: (b["cell"].pop(), b["word"].pop())),
            "document.maps.projection.assignment[1].cell: expected a list of 6 integers",
        ),
        (
            # a cell past the codomain's count is found when the map is made
            _same(*_PROJECTION, 2, "cell", lambda c: c.__setitem__(3, 99)),
            "map projection: degree 2 cell 3: target ((), 99) has no core cell in degree 2",
        ),
    ],
)
def test_version_2_faults_name_their_path(case, want):
    assert _diagnostic(*case) == want


@pytest.mark.parametrize("target", [(0, 10**6), (1, 7), (0, 2**63 - 1), (1, 2**40)])
def test_reexport_keeps_map_targets_checked_only_on_use(target):
    # a map's cells are checked against the codomain the consumer picks
    doc = json.loads(canonical_bytes(fixture_documents("z2-secondary")["cover"]))
    block = doc["maps"]["projection"]["assignment"][2]
    block["word"][3], block["cell"][3] = target
    blob = canonical_bytes(doc)
    data = parse_bytes(blob)
    assert canonical_bytes(reexport(data)) == blob
    base = parse_bytes(canonical_bytes(fixture_documents("z2-secondary")["base"]))
    with pytest.raises(ValidationError, match=r"^map projection: degree 2 cell 3: target "):
        data.maps["projection"].from_model_to(data.model, base.model)


@pytest.mark.parametrize(
    "target, problem",
    [
        ({"cell": 0, "degen": [0, 1]}, "degeneracy word (0, 1) is not strictly decreasing"),
        ({"cell": 0, "degen": [7]}, "degeneracy word (7,) out of range for dimension 2"),
        ({"cell": -1}, "target ((), -1) has no core cell in degree 2"),
        ({"cell": 2**70}, "target ((), 1180591620717411303424) has no core cell in degree 2"),
    ],
)
def test_version_1_targets_wrong_on_every_model_are_not_written(target, problem):
    # version 1 parses them, and refuses them when the map is made; version 2
    # cannot hold them, so writing the parsed document refuses them too
    doc = v1_document(json.loads(canonical_bytes(fixture_documents("z2-secondary")["cover"])))
    doc["maps"]["projection"]["assignment"][2][3] = target
    data = parse_bytes(canonical_bytes(doc))
    want = f"map projection: degree 2 cell 3: {problem}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        data.maps["projection"].into_parent(data.model)
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        reexport(data)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ints_text_equals_json_dumps(data):
    # nonnegative values below the list's length or _CHUNK take the table
    # route, any others the value-by-value one
    big = st.integers(2**31, 2**63 - 1)
    pool = data.draw(st.lists(st.one_of(st.integers(0, 9), big), min_size=1, max_size=3))
    value = st.one_of(
        st.sampled_from(pool), st.integers(0, 99), st.integers(-(2**63), 2**63 - 1)
    )
    values = data.draw(st.lists(value, max_size=12))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.integers(0, 2 * len(values) + 1), max_size=12))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.integers(0, 4), min_size=40, max_size=60))
    want = json.dumps(values, separators=(",", ":"))
    assert _ints_bytes(np.array(values, dtype=np.int64)) == want.encode()
    assert _ints_bytes(values) == want.encode()


_CHUNK, _CAP = modelfile._CHUNK, modelfile._TABLE_CAP
_LONG = 2 * _CHUNK + 1


def _topped(n: int, top: int) -> np.ndarray:
    """A list of n values whose largest is top."""
    return np.append(np.arange(n - 1) % 7, top)


# (values, whether they take the table route): digit-width boundaries, the
# route's cutoff from either side, empty and one-value lists, permutations
# and other dtypes
_INTS_CASES = [
    *(([10**k - 1, 10**k], 10**k < _CHUNK) for k in range(1, 19)),
    ([2**63 - 1], False),
    (list(range(10**5 + 1)), True),
    *((_topped(3, top), top < _CHUNK) for top in (_CHUNK - 1, _CHUNK, _CHUNK + 1)),
    *((_topped(_LONG, top), top < _LONG) for top in (_LONG - 1, _LONG, _LONG + 1)),
    *((_topped(_CAP + 2, top), top < _CAP) for top in (_CAP - 1, _CAP, _CAP + 1)),
    ([], False),
    ([7], True),
    *((np.random.default_rng(n).permutation(n), True) for n in (1, 10, 1000, 3 * _CHUNK + 5)),
    (np.arange(256, dtype=np.uint8), True),
    (np.array([0, 9, 2**31 - 1], dtype=np.int32), False),
    (np.array([0, 9, 99, 100], dtype=np.int32), True),
    (list(range(50)), True),
]


@pytest.mark.parametrize("values, table", _INTS_CASES)
def test_ints_routes_equal_json_dumps(values, table, monkeypatch):
    # the route _ints takes writes json.dumps's text, and so does the
    # value-by-value route, forced by a table cap of 0
    want = json.dumps(np.asarray(values).tolist(), separators=(",", ":")).encode()
    tops = []
    real = modelfile._decimal_table
    monkeypatch.setattr(modelfile, "_decimal_table", lambda top: tops.append(top) or real(top))
    assert _ints_bytes(values) == want
    assert bool(tops) == table
    monkeypatch.setattr(modelfile, "_TABLE_CAP", 0)
    assert _ints_bytes(values) == want


def _ints_bytes(values) -> bytes:
    """The fragments _ints writes for a list, joined."""
    out = io.BytesIO()
    modelfile._ints(out, values)
    return out.getvalue()


@pytest.mark.parametrize("size", [2**15 - 1, 2**15, 2**15 + 1, 2 * 2**15 + 7])
def test_ints_chunks_join_to_json_dumps(size):
    # lists that end one value short of a chunk boundary, on it and one past
    # it, over eight and sixteen chunks, on both routes of _ints
    assert 2**15 % modelfile._CHUNK == 0
    rng = np.random.default_rng(size)
    for values in (rng.integers(0, 50, size), rng.integers(-(2**63), 2**63 - 1, size)):
        want = json.dumps(values.tolist(), separators=(",", ":"))
        assert _ints_bytes(values) == want.encode()


@pytest.mark.slow
@pytest.mark.parametrize("name", BIG)
def test_writer_peak_memory_is_near_its_output(name):
    # the writer holds the document once in its buffer, plus one chunk and
    # one value table of one list: tracemalloc's peak stays under 1.6 times
    # the output
    for part, doc in fixture_documents(name).items():
        canonical_bytes(doc)
        tracemalloc.start()
        try:
            blob = canonical_bytes(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * len(blob), (part, peak, len(blob))


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
    doc = v1_document(json.loads(canonical_bytes(fixture_documents("rp-kreck")["cover"])))
    edit(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MODEL_FILE_SCHEMA)
    with pytest.raises(ValidationError):
        data = parse_bytes(canonical_bytes(doc))
        base = parse_bytes(canonical_bytes(fixture_documents("rp-kreck")["base"]))
        data.maps["projection"].from_model_to(data.model, base.model)


@pytest.mark.parametrize(
    "edit, where, message",
    [
        (_set("format_version", 2.0), "document.format_version", "expected 1 or 2"),
        (_set("max_degree", 6.0), "document", "max_degree must be a nonnegative integer"),
        (_set("faces", 1, "cell", 0, 0.0), "document.faces[1].cell[0]", "expected an integer"),
    ],
)
def test_integral_floats_pass_the_schema_and_fail_the_parser(edit, where, message):
    # draft-07 "integer" and const compare by value, so 2.0 passes for 2; the
    # parser, the authority on integers, refuses it
    doc = json.loads(canonical_bytes(fixture_documents("rp-kreck")["base"]))
    assert doc["format_version"] == 2 and doc["max_degree"] == 6
    assert doc["faces"][1]["cell"][0] == 0
    edit(doc)
    jsonschema.validate(doc, MODEL_FILE_SCHEMA)
    with pytest.raises(ValidationError) as err:
        parse_document(doc)
    assert str(err.value) == f"{where}: {message}"


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


# -- the skeleton scan --------------------------------------------------------------


def _json_route(blob: bytes):
    """The JSON route alone: json.loads of the whole text, then
    parse_document."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"not a JSON model file: {exc}") from exc
    return parse_document(doc)


def _outcome(parse, blob: bytes):
    """("parsed", re-export bytes) of a parse, or the message that refused it."""
    try:
        data = parse(blob)
        return "parsed", canonical_bytes(reexport(data))
    except ValidationError as exc:
        return "refused", str(exc)


# a "cell" or "word" list as canonical bytes write it
_LIST = re.compile(rb'"(?:cell|word)":\[([0-9,]*)\]')

# entries a list may be given instead of one of its own: too long for int64
# or just inside it, signed, fractional, exponent, leading zeros, non-numbers
_ENTRIES = [
    b"1" + b"0" * 18,
    b"9" * 19,
    b"1" + b"0" * 19,
    b"%d" % (2**63 - 1),
    b"%d" % 2**63,
    b"%d" % 2**64,
    b"-1",
    b"-0",
    b"1.0",
    b"1e3",
    b"0",
    b"00",
    b"007",
    b"+1",
    b"0x1",
    b"true",
    b'"1"',
    b" 1",
    b"1\n",
]

# names and cochain keys that hold list text, quotes, escapes or U+0000
_NAMES = [
    '"cell":[1,2]',
    'a"cell',
    '""cell',
    '\\"cell',
    '"word":[]',
    "x\u0000y",
    "\\",
    "cell",
    "word",
    'é"cell":[3]',
]


def _as_lists(doc):
    """doc with every array the skeleton scan read turned back into a list."""
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return list(map(_as_lists, doc))
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _edit_entries(entries: list, data) -> list:
    kind = data.draw(st.sampled_from(["lead zero", "empty", "replace", "drop", "clear"]))
    if kind == "clear" or not entries:
        return []
    k = data.draw(st.integers(0, len(entries)))
    if kind == "empty":  # ",," inside, or a leading or trailing comma
        return [*entries[:k], b"", *entries[k:]]
    k = min(k, len(entries) - 1)
    if kind == "lead zero":
        return [*entries[:k], b"0" + entries[k], *entries[k + 1 :]]
    if kind == "drop":
        return entries[:k] + entries[k + 1 :]
    return [*entries[:k], data.draw(st.sampled_from(_ENTRIES)), *entries[k + 1 :]]


def _edit_list(blob: bytes, data) -> bytes:
    """blob with one of its compact "cell"/"word" lists edited."""
    spots = list(_LIST.finditer(blob))
    if not spots:
        return blob
    spot = data.draw(st.sampled_from(spots))
    body = spot.group(1)
    kind = data.draw(st.sampled_from(["entries", "spaced", "spaced key", "placeholder"]))
    if kind == "entries":
        text = b"[" + b",".join(_edit_entries(body.split(b",") if body else [], data)) + b"]"
        return blob[: spot.start(1) - 1] + text + blob[spot.end() :]
    if kind == "spaced":
        gap = data.draw(st.sampled_from([b", ", b",\n  ", b" ,"]))
        text = b"[ " + body.replace(b",", gap) + b"\n]"
        return blob[: spot.start(1) - 1] + text + blob[spot.end() :]
    if kind == "placeholder":  # the text the scan puts in place of a list
        text = b'"\\u0000%d"' % data.draw(st.integers(0, 2))
        return blob[: spot.start(1) - 1] + text + blob[spot.end() :]
    key = blob[spot.start() : spot.start(1) - 2]
    return blob[: spot.start()] + key + b" :\n\t[" + blob[spot.start(1) :]


def _edit_document(doc: dict, data) -> None:
    """Give doc a tricky name, an extra cochain under a tricky key, or a map
    named "cell" or "word"."""
    kind = data.draw(st.sampled_from(["name", "cochain", "listed cochain", "map", "block map"]))
    name = data.draw(st.sampled_from(_NAMES))
    if kind == "name":
        doc["name"] = name
    elif kind == "cochain":
        doc.setdefault("cochains", {})[name] = {"degree": 0, "support": [0]}
    elif kind == "listed cochain":
        doc.setdefault("cochains", {})[name] = [1, 2]
    else:
        maps = doc.setdefault("maps", {})
        key = data.draw(st.sampled_from(["cell", "word"]))
        if kind == "map" and maps:
            maps[key] = json.loads(json.dumps(next(iter(maps.values()))))
        else:
            maps[key] = {"cell": [0], "word": [0]}


@lru_cache(maxsize=None)
def _small_blob(name: str, part: str) -> bytes:
    return canonical_bytes(fixture_documents(name)[part])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_skeleton_scan_agrees_with_the_json_route(data):
    # whatever text a list, a name or a key holds, parse_bytes gives the data
    # or the message of json.loads and parse_document on the whole text
    name = data.draw(st.sampled_from(SMALL))
    part = data.draw(st.sampled_from(sorted(fixture_documents(name))))
    doc = json.loads(_small_blob(name, part))
    for _ in range(data.draw(st.integers(0, 2))):
        _edit_document(doc, data)
    indent = data.draw(st.sampled_from([None, None, None, 0, 1]))
    separators = (",", ":") if indent is None else None
    ascii_only = data.draw(st.booleans())
    text = json.dumps(
        doc, sort_keys=True, indent=indent, separators=separators, ensure_ascii=ascii_only
    )
    blob = text.encode("utf-8")
    for _ in range(data.draw(st.integers(0, 3))):
        blob = _edit_list(blob, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_bytes, blob) == _outcome(_json_route, blob), blob
        scanned = modelfile._scanned_document(blob)
    # where the scan takes a document, it reads what json.loads reads
    assert scanned is None or _as_lists(scanned) == json.loads(blob), blob


# texts a two-entry list may be given: one entry replaced, commas misplaced,
# an entry more or less, whitespace, the placeholder
_LIST_TEXTS = [
    *(b"[%s,0]" % entry for entry in _ENTRIES),
    b"[0,0,]",
    b"[,0,0]",
    b"[0,,0]",
    b"[,]",
    b"[]",
    b"[0]",
    b"[0,0,0]",
    b"[ 0,0]",
    b"[0,0\n]",
    b'"\\u00000"',
]


@pytest.mark.parametrize("text", _LIST_TEXTS)
@pytest.mark.parametrize("key", ["cell", "word"])
def test_scan_reads_each_list_text_as_the_json_route_does(key, text):
    blob = _small_blob("rp-kreck", "base")
    spot = blob.index(b'"%s":[0,0]' % key.encode()) + len(key) + 3
    edited = blob[:spot] + text + blob[spot + 5 :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_bytes, edited) == _outcome(_json_route, edited)


@pytest.mark.parametrize(
    "body, want",
    [
        (b"1,2,", None),
        (b"007", None),
        (b"00", None),
        (b"10,01", None),
        (b"9223372036854775807", None),
        (b"9223372036854775808", None),
        (b"99999999999999999999", None),
        (b"1,99999999999999999999,3", None),
        (b"0", [0]),
        (b"5", [5]),
        (b"1,0,2", [1, 0, 2]),
    ],
)
def test_scanned_ints_digit_identity(body, want):
    # a trailing comma, a leading zero and a value fromstring saturates at
    # each break the identity of digits plus commas and the text's length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = modelfile._scanned_ints(body)
    if want is None:
        assert values is None
    else:
        assert values.dtype == np.int64 and values.tolist() == want


def test_only_utf8_text_is_scanned():
    # json.loads(bytes) would read UTF-16 and UTF-32; model files are UTF-8.
    # The name's UTF-16 units spell "x"cell":[1,2] in bytes, so a scan of the
    # bytes finds a list there, and the skeleton stays UTF-16 JSON.
    doc = json.loads(_small_blob("rp-kreck", "base"))
    doc["name"] = b'"x"cell":[1,2]'.decode("utf-16-le")
    text = json.dumps(doc, ensure_ascii=False)
    for blob in (text.encode("utf-16-le"), text.encode("utf-16"), text.encode("utf-32")):
        outcome = _outcome(parse_bytes, blob)
        assert outcome == _outcome(_json_route, blob)
        assert outcome[0] == "refused" and "not a JSON model file" in outcome[1]


def test_version_1_files_are_not_walked_token_by_token(monkeypatch):
    # a version 1 file has no list for the scan, so its string tokens, one
    # or two per target, are not matched one at a time
    class Unused:
        def finditer(self, data):
            raise AssertionError("a version 1 file was scanned")

    monkeypatch.setattr(modelfile, "_SCAN", Unused())
    blob = _small_blob("rp-kreck", "cover")
    old = canonical_bytes(v1_document(json.loads(blob)))
    assert _same_data(parse_bytes(old), _json_route(blob))


def _v2_blocks(doc) -> int:
    """The number of {"cell": [...], "word": [...]} blocks in a JSON document."""
    if isinstance(doc, list):
        return sum(map(_v2_blocks, doc))
    if not isinstance(doc, dict):
        return 0
    inner = sum(map(_v2_blocks, doc.values()))
    return inner + (doc.keys() == {"cell", "word"} and isinstance(doc["cell"], list))


@pytest.mark.parametrize("name", list(REGISTRY))
def test_catalog_lists_reach_the_reader_as_int64_arrays(name, monkeypatch):
    # every cell and word list of a catalog document skips json.loads, and
    # no warning fires on the way (np.fromstring warns where it stops early)
    seen = []
    real = modelfile._int_list

    def spy(values, size, path):
        seen.append((path, type(values), getattr(values, "dtype", None)))
        return real(values, size, path)

    monkeypatch.setattr(modelfile, "_int_list", spy)
    for part, doc in fixture_documents(name).items():
        blob = canonical_bytes(doc)
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_bytes(blob)
        assert len(seen) == 2 * _v2_blocks(json.loads(blob)) > 0
        assert all(kind is np.ndarray and dtype == np.int64 for _, kind, dtype in seen), part


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
    wrong_version = blob.replace(b'"format_version":2', b'"format_version":1')
    assert wrong_version != blob
    for corrupt in (b"{oops", wrong_version):
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
