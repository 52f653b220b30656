"""Owned JSON file format for models, cochains, covers, maps and assertions.

One document describes one simplicial model plus the decorations a decision
run needs: named cochains (supports only, the coefficients are mod 2), an
optional free involution, named maps, and the two auditable assertions.
Canonical serialization sorts keys and supports, so equal data gives equal
bytes; parse followed by export is the identity on canonical files.

The canonical bytes of a document are by definition those of
json.dumps(doc, sort_keys=True, indent=2) plus a newline; canonical_bytes
writes them without the pure-Python indenting encoder, from text made once per
degeneracy word and nesting level.  Export and parse are array-native: a
model's document is built from its face_word/face_cell arrays (a map's from
image_word/image_cell), and parsing checks each degree's targets in batches
and stores them as arrays, with the same messages a target-by-target check
gives.

The three entry points, model_document, canonical_bytes and parse_bytes,
always run with CPython's cyclic garbage collector paused, and restore its
previous state on return or exception.  They build or read up to half a
million small dicts and lists per big document, none of them in a reference
cycle; with the collector running, its passes over those young containers
took about a quarter of export and parse time.  The pause frees nothing later
than reference counting would, because models and their caches hold no
reference cycles (see cohomology).

Map entries either inline their own source model, in which case they map
into this file's model, or carry source null, meaning the source is this
file's model and the consumer picks the codomain (the base model when this
file describes a cover, the file's own model otherwise).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import contains, is_

import numpy as np

from .errors import ValidationError
from .obstruction import Assertion
from .simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
    _word,
    check_targets,
    checked_images,
    encode_targets,
    int64_array,
)

FORMAT_VERSION = 1

_TARGET_SCHEMA = {
    "type": "object",
    "properties": {
        "cell": {"type": "integer", "minimum": 0},
        "degen": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
    "required": ["cell"],
    "additionalProperties": False,
}

_MODEL_CORE_PROPERTIES = {
    "name": {"type": "string"},
    "max_degree": {"type": "integer", "minimum": 0},
    "cells": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    "faces": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "array", "items": _TARGET_SCHEMA}},
    },
}

_ASSERTION_SCHEMA = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "value": {"type": "boolean"},
                "provenance": {"type": "string", "minLength": 1},
            },
            "required": ["value", "provenance"],
            "additionalProperties": False,
        },
    ]
}

MODEL_FILE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "stexo model file",
    "type": "object",
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        **_MODEL_CORE_PROPERTIES,
        "cochains": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "degree": {"type": "integer", "minimum": 0},
                    "support": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
                "required": ["degree", "support"],
                "additionalProperties": False,
            },
        },
        "involution": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
            ]
        },
        "maps": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "source": {
                        "oneOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "properties": _MODEL_CORE_PROPERTIES,
                                "required": ["max_degree", "cells", "faces"],
                                "additionalProperties": False,
                            },
                        ]
                    },
                    "assignment": {
                        "type": "array",
                        "items": {"type": "array", "items": _TARGET_SCHEMA},
                    },
                },
                "required": ["source", "assignment"],
                "additionalProperties": False,
            },
        },
        "assertions": {
            "type": "object",
            "properties": {
                "cd_at_most_3": _ASSERTION_SCHEMA,
                "h5_zero": _ASSERTION_SCHEMA,
            },
            "additionalProperties": False,
        },
    },
    "required": ["format_version", "max_degree", "cells", "faces"],
    "additionalProperties": False,
}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its previous state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# -- document construction -----------------------------------------------------------


def _target_dicts(words: np.ndarray, cells: np.ndarray, rejects=None) -> list:
    """Target objects of (word mask, cell) arrays, flattened, in one pass.

    rejects maps positions to (word, cell) targets as parsed, written instead.
    """
    out = [{"cell": c} for c in cells.ravel().tolist()]
    flat = words.ravel()
    for k in np.flatnonzero(flat).tolist():
        out[k]["degen"] = list(_word(int(flat[k])))
    for k, (word, cell) in (rejects or {}).items():
        out[k] = {"degen": list(word), "cell": cell} if word else {"cell": cell}
    return out


def _faces_json(model: SimplicialModel) -> list:
    blocks = []
    for n in range(1, model.max_degree + 1):
        flat = _target_dicts(model.face_word[n], model.face_cell[n])
        blocks.append([flat[k : k + n + 1] for k in range(0, len(flat), n + 1)])
    return blocks


def _model_core_json(model: SimplicialModel) -> dict:
    return {
        "name": model.name,
        "max_degree": model.max_degree,
        "cells": list(model.cells),
        "faces": _faces_json(model),
    }


def _assertion_json(a: Assertion | None):
    if a is None:
        return None
    return {"value": bool(a.value), "provenance": a.provenance}


@_collector_paused()
def model_document(
    model: SimplicialModel,
    cochains: dict | None = None,
    involution: Involution | None = None,
    maps: dict | None = None,
    cd_at_most_3: Assertion | None = None,
    h5_zero: Assertion | None = None,
) -> dict:
    """Document dict for a model and its decorations, ready for canonical dump.

    `maps` values are either SimplicialMap objects into or out of `model`
    (out-of maps are stored with source null) or pre-encoded entry dicts.
    """
    doc = {"format_version": FORMAT_VERSION, **_model_core_json(model)}
    doc["cochains"] = {}
    for name, u in (cochains or {}).items():
        if u.model is not model:
            raise ValidationError(f"cochain {name} lives on a different model")
        doc["cochains"][name] = {
            "degree": u.degree,
            "support": np.flatnonzero(u.values).tolist(),
        }
    doc["involution"] = (
        None if involution is None else [np.asarray(p).tolist() for p in involution.perms]
    )
    doc["maps"] = {}
    for name, m in (maps or {}).items():
        if isinstance(m, dict):
            doc["maps"][name] = m
        elif m.source is model or m.target is model:
            doc["maps"][name] = {
                "source": None if m.source is model else _model_core_json(m.source),
                "assignment": list(map(_target_dicts, m.image_word, m.image_cell)),
            }
        else:
            raise ValidationError(f"map {name} touches neither side of the model")
    doc["assertions"] = {
        "cd_at_most_3": _assertion_json(cd_at_most_3),
        "h5_zero": _assertion_json(h5_zero),
    }
    return doc


# -- canonical serialization ---------------------------------------------------------

_INDENT = "  "


@_collector_paused()
def canonical_bytes(doc: dict) -> bytes:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\\n".

    Rows of targets (face blocks, map assignments) are written from text made
    once per degeneracy word and nesting level, lists of integers by one join;
    any other value, and any target that is not {"cell": int} or
    {"cell": int, "degen": [int, ...]}, goes through json.dumps and is
    re-indented, which is exact because a JSON string cannot hold a raw newline.
    """
    return (_write(doc, 0) + "\n").encode("utf-8")


def _dumps(value, level: int) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + _INDENT * level)


def _write(value, level: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a value at nesting level."""
    inner = _INDENT * (level + 1)
    if type(value) is list and value:
        if all(map(is_, map(type, value), repeat(int))):
            body = (",\n" + inner).join(map(str, value))
        elif (
            all(map(is_, map(type, value), repeat(list)))
            and all(value)
            and isinstance(value[0][0], dict)
        ):
            body = _rows_text(value, level + 1)
        else:
            body = (",\n" + inner).join(_write(v, level + 1) for v in value)
        return f"[\n{inner}{body}\n{_INDENT * level}]"
    if type(value) is dict and value and all(type(k) is str for k in value):
        body = (",\n" + inner).join(
            f"{json.dumps(k)}: {_write(v, level + 1)}" for k, v in sorted(value.items())
        )
        return f"{{\n{inner}{body}\n{_INDENT * level}}}"
    return _dumps(value, level)


def _word_text(word: tuple, level: int) -> str:
    """What follows the cell of a target at nesting level whose degen is word."""
    keys = _INDENT * (level + 1)
    if not word:
        letters = "[]"
    else:
        inner = ",\n".join(f"{keys}{_INDENT}{a}" for a in word)
        letters = f"[\n{inner}\n{keys}]"
    return f',\n{keys}"degen": {letters}\n{_INDENT * level}}}'


def _rows_text(rows: list, level: int) -> str:
    """json.dumps text of rows (non-empty lists) of targets whose brackets sit
    at nesting level, joined by commas, without the indent of the first row."""
    flat = list(chain.from_iterable(rows))
    count = len(flat)
    objs = flat
    if not all(map(isinstance, flat, repeat(dict))):
        objs = [t if isinstance(t, dict) else {} for t in flat]
    cells = list(map(dict.get, objs, repeat("cell")))
    sizes = np.fromiter(map(len, objs), dtype=np.int64, count=count)
    if not set(map(type, cells)) <= {int}:
        sizes[~np.fromiter(map(is_, map(type, cells), repeat(int)), dtype=bool, count=count)] = 0
    # the text of a target: kind 0 {"cell": c}, 1 anything else, 2.. by degen word
    kind = np.where(sizes == 1, 0, 1)
    words: dict = {}
    for p in np.flatnonzero(sizes == 2).tolist():
        word = objs[p].get("degen")
        if type(word) is list and all(map(is_, map(type, word), repeat(int))):
            kind[p] = words.setdefault(tuple(word), len(words) + 2)
    plain = kind != 1
    target = _INDENT * (level + 1)
    head = f'{{\n{target}{_INDENT}"cell": '
    tails = [f"\n{target}}}", ""] + [_word_text(w, level + 1) for w in words]
    seps = (f",\n{target}", f"\n{_INDENT * level}],\n{_INDENT * level}[\n{target}")
    # after each cell: its tail, the separator (within a row or to the next
    # row), and the head of the next target when that one is plain
    table = [t + s + h for t in tails for s in seps for h in ("", head)]
    last = np.zeros(count, dtype=np.int64)
    last[np.cumsum([len(row) for row in rows]) - 1] = 1
    follow = np.append(plain[1:], False)
    posts = list(map(table.__getitem__, (4 * kind + 2 * last + follow).tolist()))
    posts[-1] = tails[kind[-1]] + f"\n{_INDENT * level}]"
    if plain.all():
        mids = map(str, cells)
    else:
        mids = [
            str(c) if p else _dumps(t, level + 1)
            for p, c, t in zip(plain.tolist(), cells, flat)
        ]
    start = f"[\n{target}" + (head if plain[0] else "")
    return start + "".join(chain.from_iterable(zip(mids, posts)))


# -- parsing -------------------------------------------------------------------------


def _fail(path: str, msg: str):
    raise ValidationError(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        _fail(path, msg)


def _is_int(x) -> bool:
    """A JSON integer: true and false are not."""
    return type(x) is int


def _integers(values) -> np.ndarray:
    """A list of JSON integers as int64; any other entry, or one outside int64,
    reads as -1."""
    if not set(map(type, values)) <= {int}:
        values = [v if type(v) is int else -1 for v in values]
    return int64_array(values)


def _target_fault(obj) -> str | None:
    """The first fault of one target object, in the order the parser checks."""
    if not isinstance(obj, dict):
        return "target must be an object"
    extra = set(obj) - {"cell", "degen"}
    if extra:
        return f"unknown target keys {sorted(extra)}"
    if not _is_int(obj.get("cell")):
        return "target needs an integer cell"
    word = obj.get("degen", [])
    if not (isinstance(word, list) and all(map(_is_int, word))):
        return "degen must be a list of integers"
    return None


def _targets(flat: list, path_of):
    """Degeneracy words and cells of a list of target objects.

    The whole list is checked at once; when it fails, the first faulty target
    is found and reported with its path, path_of(position).
    """
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
            return words, cells
    k = next(k for k, obj in enumerate(flat) if _target_fault(obj))
    _fail(path_of(k), _target_fault(flat[k]))


def _parse_model_core(obj, path: str, default_name: str) -> SimplicialModel:
    _expect(isinstance(obj, dict), path, "model must be an object")
    max_degree = obj.get("max_degree")
    _expect(
        _is_int(max_degree) and max_degree >= 0,
        path,
        "max_degree must be a nonnegative integer",
    )
    cells = obj.get("cells")
    _expect(
        isinstance(cells, list)
        and len(cells) == max_degree + 1
        and all(_is_int(c) and c >= 0 for c in cells),
        path,
        f"cells must list {max_degree + 1} nonnegative counts",
    )
    faces_json = obj.get("faces")
    _expect(
        isinstance(faces_json, list) and len(faces_json) == max_degree,
        path,
        f"faces must have one block per degree 1..{max_degree}",
    )
    encoded = []
    for n, block in enumerate(faces_json, 1):
        where = f"{path}.faces[{n - 1}]"
        _expect(
            isinstance(block, list) and len(block) == cells[n], where, f"expected {cells[n]} rows"
        )
        width = n + 1
        good = len(block)
        if not (all(map(isinstance, block, repeat(list))) and set(map(len, block)) <= {width}):
            good = next(
                c
                for c, row in enumerate(block)
                if not (isinstance(row, list) and len(row) == width)
            )
        words, ids = _targets(
            list(chain.from_iterable(block[:good])),
            lambda k: f"{where}[{k // width}][{k % width}]",
        )
        _expect(good == len(block), f"{where}[{good}]", f"expected {width} targets")
        encoded.append(encode_targets(n - 1, words, ids))
    name = obj.get("name", default_name)
    _expect(isinstance(name, str), path, "name must be a string")
    empty = np.zeros((cells[0], 0), dtype=np.int64)
    face_word, face_cell, bad = [empty], [empty], []
    for n, block in enumerate(encoded, 1):
        ws, cs, errs = check_targets(cells, n - 1, *block)
        bad.extend(
            f"degree {n} cell {p // (n + 1)} face {p % (n + 1)}: {msg}" for p, msg in errs
        )
        face_word.append(ws.reshape(-1, n + 1))
        face_cell.append(cs.reshape(-1, n + 1))
    model = SimplicialModel(max_degree, cells, face_word, face_cell, name=name)
    bad = bad or model.validate()
    if bad:
        _fail(path, f"{len(bad)} simplicial violations; first: {bad[0]}")
    return model


def _parse_cochain(model, name: str, obj, path: str) -> Cochain:
    _expect(isinstance(obj, dict), path, "cochain must be an object")
    extra = set(obj) - {"degree", "support"}
    _expect(not extra, path, f"unknown cochain keys {sorted(extra)}")
    degree = obj.get("degree")
    _expect(
        _is_int(degree) and 0 <= degree <= model.max_degree,
        path,
        f"degree must be an integer in 0..{model.max_degree}",
    )
    support = obj.get("support")
    _expect(isinstance(support, list), path, "support must be a list")
    n = model.cells[degree]
    cells = _integers(support)
    out_of_range = (cells < 0) | (cells >= n)
    unordered = np.zeros_like(out_of_range)
    unordered[1:] = cells[1:] <= cells[:-1]
    wrong = np.flatnonzero(out_of_range | unordered)
    if wrong.size:
        i = int(wrong[0])
        _fail(
            f"{path}.support[{i}]",
            f"cell index out of range 0..{n - 1}"
            if out_of_range[i]
            else "support must be strictly increasing",
        )
    vals = np.zeros(n, dtype=np.uint8)
    vals[cells] = 1
    return Cochain(model, degree, vals)


def _parse_assertion(obj, path: str) -> Assertion | None:
    if obj is None:
        return None
    _expect(isinstance(obj, dict), path, "assertion must be an object or null")
    extra = set(obj) - {"value", "provenance"}
    _expect(not extra, path, f"unknown assertion keys {sorted(extra)}")
    _expect(isinstance(obj.get("value"), bool), path, "value must be a boolean")
    prov = obj.get("provenance")
    _expect(
        isinstance(prov, str) and prov.strip() != "",
        path,
        "assertions need a nonempty provenance string",
    )
    return Assertion(obj["value"], prov)


@dataclass
class MapData:
    """A named map entry: inline-source maps point into the parent model.

    images[n] holds the degree-n targets as encode_targets returns them; they
    are checked against the codomain when the map is made.
    """

    name: str
    source: SimplicialModel | None
    images: list

    def into_parent(self, parent: SimplicialModel) -> SimplicialMap:
        return self._map(parent if self.source is None else self.source, parent)

    def from_model_to(self, own: SimplicialModel, target: SimplicialModel) -> SimplicialMap:
        if self.source is not None:
            raise ValidationError(
                f"map {self.name} inlines a source and cannot be re-targeted"
            )
        return self._map(own, target)

    def _map(self, source: SimplicialModel, target: SimplicialModel) -> SimplicialMap:
        words, cells, bad = checked_images(source, target, self.images)
        if bad:
            raise ValidationError(f"map {self.name}: {bad[0]}")
        m = SimplicialMap(source, target, words, cells, name=self.name)
        m.require_valid()
        return m


@dataclass
class ModelFileData:
    """Everything a parsed document describes, structurally validated."""

    model: SimplicialModel
    cochains: dict
    involution: Involution | None
    maps: dict
    cd_at_most_3: Assertion | None = None
    h5_zero: Assertion | None = None
    warnings: tuple = ()


def parse_document(doc, default_name: str = "model") -> ModelFileData:
    _expect(isinstance(doc, dict), "document", "top level must be an object")
    known = {
        "format_version",
        "name",
        "max_degree",
        "cells",
        "faces",
        "cochains",
        "involution",
        "maps",
        "assertions",
    }
    extra = set(doc) - known
    _expect(not extra, "document", f"unknown keys {sorted(extra)}")
    _expect(
        doc.get("format_version") == FORMAT_VERSION,
        "document.format_version",
        f"expected {FORMAT_VERSION}",
    )
    model = _parse_model_core(doc, "document", default_name)

    cochains = {}
    raw_cochains = doc.get("cochains", {})
    _expect(isinstance(raw_cochains, dict), "document.cochains", "must be an object")
    for name in sorted(raw_cochains):
        cochains[name] = _parse_cochain(
            model, name, raw_cochains[name], f"document.cochains.{name}"
        )

    involution = None
    raw_inv = doc.get("involution")
    if raw_inv is not None:
        _expect(
            isinstance(raw_inv, list) and len(raw_inv) == model.max_degree + 1,
            "document.involution",
            f"expected {model.max_degree + 1} permutations",
        )
        _expect(
            all(isinstance(p, list) and set(map(type, p)) <= {int} for p in raw_inv),
            "document.involution",
            "permutations must be lists of integers",
        )
        involution = Involution(
            model, [int64_array(p) for p in raw_inv], name=f"{model.name}-involution"
        )
        bad = involution.validate()
        if bad:
            _fail("document.involution", bad[0])

    maps = {}
    raw_maps = doc.get("maps", {})
    _expect(isinstance(raw_maps, dict), "document.maps", "must be an object")
    for name in sorted(raw_maps):
        entry = raw_maps[name]
        path = f"document.maps.{name}"
        _expect(isinstance(entry, dict), path, "map entry must be an object")
        extra = set(entry) - {"source", "assignment"}
        _expect(not extra, path, f"unknown map keys {sorted(extra)}")
        raw_src = entry.get("source")
        src = (
            None
            if raw_src is None
            else _parse_model_core(raw_src, f"{path}.source", f"{name}-source")
        )
        counting = src if src is not None else model
        raw_assign = entry.get("assignment")
        _expect(
            isinstance(raw_assign, list)
            and len(raw_assign) == counting.max_degree + 1,
            path,
            f"assignment must cover degrees 0..{counting.max_degree}",
        )
        images = []
        for n, block in enumerate(raw_assign):
            where = f"{path}.assignment[{n}]"
            _expect(
                isinstance(block, list) and len(block) == counting.cells[n],
                where,
                f"expected {counting.cells[n]} targets",
            )
            words, ids = _targets(block, lambda k: f"{where}[{k}]")
            images.append(encode_targets(n, words, ids))
        maps[name] = MapData(name, src, images)

    raw_assert = doc.get("assertions", {})
    _expect(isinstance(raw_assert, dict), "document.assertions", "must be an object")
    extra = set(raw_assert) - {"cd_at_most_3", "h5_zero"}
    _expect(not extra, "document.assertions", f"unknown keys {sorted(extra)}")
    cd = _parse_assertion(raw_assert.get("cd_at_most_3"), "document.assertions.cd_at_most_3")
    h5 = _parse_assertion(raw_assert.get("h5_zero"), "document.assertions.h5_zero")

    return ModelFileData(model, cochains, involution, maps, cd, h5)


@_collector_paused()
def parse_bytes(data: bytes, default_name: str = "model") -> ModelFileData:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"not a JSON model file: {exc}") from exc
    return parse_document(doc, default_name)


def reexport(parsed: ModelFileData) -> dict:
    """Document for previously parsed data; used for round-trip checks."""
    maps = {
        name: {
            "source": None if md.source is None else _model_core_json(md.source),
            "assignment": [_target_dicts(*image) for image in md.images],
        }
        for name, md in parsed.maps.items()
    }
    return model_document(
        parsed.model,
        cochains=parsed.cochains,
        involution=parsed.involution,
        maps=maps,
        cd_at_most_3=parsed.cd_at_most_3,
        h5_zero=parsed.h5_zero,
    )
