"""Owned JSON file format for models, cochains, covers, maps and assertions.

One document describes one simplicial model plus the decorations a decision
run needs: named cochains (supports only, the coefficients are mod 2), an
optional free involution, named maps, and the two auditable assertions.
Canonical serialization sorts keys and supports, so equal data gives equal
bytes; parse followed by export is the identity on canonical files.

The canonical bytes of a document are by definition those of
json.dumps(doc, sort_keys=True, indent=2) plus a newline.  model_document
checks a model and its decorations and returns them as a ModelDocument, which
stands for that JSON document without building it: canonical_bytes writes it
straight from the face_word/face_cell arrays (a map's from image_word/
image_cell), from text made once per distinct (cell, tail) pair and one join
of one str per target.  A plain JSON document goes through json.dumps.
Parsing is array-native too: _targets reads each degree's targets in one
batch into arrays, with the same messages a target-by-target check gives.

parse_bytes runs with CPython's cyclic garbage collector paused, and restores
its previous state on return or exception.  json.loads builds up to half a
million small dicts and lists per big document, none of them in a reference
cycle; with the collector running, its passes over those young containers
took about a quarter of parse time.  The pause frees nothing later than
reference counting would, because models and their caches hold no reference
cycles (see cohomology).  Export builds only a few containers per document
and runs with the collector as the caller left it.

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
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .obstruction import Assertion
from .simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
    _canonical_masks,
    _word,
    check_targets,
    checked_images,
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


# -- documents -----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelDocument:
    """A model and its decorations, checked by model_document and written by
    canonical_bytes.

    maps values are SimplicialMap objects into or out of model (an out-of map
    is written with source null) or MapData entries as parsed.
    """

    model: SimplicialModel
    cochains: dict
    involution: Involution | None
    maps: dict
    cd_at_most_3: Assertion | None
    h5_zero: Assertion | None


def model_document(
    model: SimplicialModel,
    cochains: dict | None = None,
    involution: Involution | None = None,
    maps: dict | None = None,
    cd_at_most_3: Assertion | None = None,
    h5_zero: Assertion | None = None,
) -> ModelDocument:
    """The document of a model and its decorations, ready for canonical_bytes."""
    cochains = dict(cochains or {})
    maps = dict(maps or {})
    for name, u in cochains.items():
        if u.model is not model:
            raise ValidationError(f"cochain {name} lives on a different model")
    for name, m in maps.items():
        if not (isinstance(m, MapData) or m.source is model or m.target is model):
            raise ValidationError(f"map {name} touches neither side of the model")
    return ModelDocument(model, cochains, involution, maps, cd_at_most_3, h5_zero)


# -- canonical serialization ---------------------------------------------------------

_INDENT = "  "


def canonical_bytes(doc: ModelDocument | dict) -> bytes:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\\n", where a
    ModelDocument stands for the JSON document it describes.

    A ModelDocument is written from its arrays: the targets of each face block
    and map degree by _targets_text, lists of integers by one join.  Any
    other document goes through json.dumps itself.
    """
    if isinstance(doc, ModelDocument):
        return (_document_text(doc) + "\n").encode("utf-8")
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _list(texts, level: int, brackets: str = "[]") -> str:
    """A JSON list at nesting level from the texts of its items."""
    inner = _INDENT * (level + 1)
    body = f",\n{inner}".join(texts)
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{_INDENT * level}{brackets[1]}"


def _object(fields: dict, level: int) -> str:
    """A JSON object at nesting level from the texts of its values, keys sorted."""
    return _list((f"{json.dumps(k)}: {v}" for k, v in sorted(fields.items())), level, "{}")


def _ints(values, level: int) -> str:
    return _list(map(str, values), level)


@lru_cache(maxsize=None)
def _target_text(word: tuple, level: int) -> tuple:
    """The text of a target at nesting level whose degen is word: what comes
    before its cell, and what follows it."""
    fields = {"cell": "@", "degen": _ints(word, level + 1)} if word else {"cell": "@"}
    return tuple(_object(fields, level).split("@"))


def _targets_text(words: np.ndarray, cells: np.ndarray, level: int, rejects=None) -> str:
    """The list, brackets at nesting level, of the targets of word mask and
    cell arrays: a list of rows when they are 2-D, of targets when 1-D.

    rejects maps flat positions to (word, cell) targets as parsed, written
    in their place.
    """
    if not words.size:
        return "[]"
    nested = words.ndim == 2
    at = level + 1 + nested  # the nesting level of a target
    head = _target_text((), at)[0]
    row = _INDENT * (at - 1)
    # after a cell: its tail, then the next target within the row, across a
    # row break, or the end of the list
    follow = (
        f",\n{_INDENT * at}{head}",
        f"\n{row}],\n{row}[\n{_INDENT * at}{head}",
        f"\n{row}]" + (f"\n{_INDENT * level}]" if nested else ""),
    )
    flat = words.ravel()
    tails = [_target_text(_word(m), at)[1] for m in range(1 << int(flat.max()).bit_length())]
    table = [tail + f for tail in tails for f in follow]
    place = np.zeros_like(words)
    place[..., -1] = 1  # a row ends here; a flat list has one row, ended below
    place.flat[-1] = 2
    # target p is written as str(cell) + table[code]: one text per distinct
    # (cell, code) key, which the cell rank replaces when cell * len(table)
    # could leave int64 (a map's cells are unchecked until use)
    code = 3 * flat + place.ravel()
    ids, values = cells.ravel(), None
    if int(ids.max()) >= (1 << 63) // len(table) - 1:
        values, ids = np.unique(ids, return_inverse=True)
    keys, inverse = np.unique(ids * len(table) + code, return_inverse=True)
    key_cells, key_codes = np.divmod(keys, len(table))
    if values is not None:
        key_cells = values[key_cells]
    texts = [str(c) + table[k] for c, k in zip(key_cells.tolist(), key_codes.tolist())]
    pieces = np.array(texts, dtype=object)[inverse]
    for p, (word, cell) in (rejects or {}).items():
        pieces[p] = str(cell) + _target_text(word, at)[1] + follow[place.flat[p]]
    start = f"[\n{row}[\n" if nested else "[\n"
    return start + _INDENT * at + head + "".join(pieces.tolist())


def _model_fields(model: SimplicialModel, level: int) -> dict:
    """Texts of the model keys of an object at nesting level."""
    blocks = zip(model.face_word[1:], model.face_cell[1:])
    return {
        "name": json.dumps(model.name),
        "max_degree": str(model.max_degree),
        "cells": _ints(model.cells, level + 1),
        "faces": _list((_targets_text(w, c, level + 2) for w, c in blocks), level + 1),
    }


def _map_text(m, model: SimplicialModel, level: int) -> str:
    """A map entry at nesting level, of a SimplicialMap or a MapData."""
    if isinstance(m, MapData):
        source, blocks = m.source, m.images
    else:
        source = None if m.source is model else m.source
        blocks = [(w, c, None) for w, c in zip(m.image_word, m.image_cell)]
    inner = level + 1
    return _object(
        {
            "source": "null" if source is None else _object(_model_fields(source, inner), inner),
            "assignment": _list((_targets_text(w, c, inner + 1, r) for w, c, r in blocks), inner),
        },
        level,
    )


def _assertion_text(a: Assertion | None, level: int) -> str:
    if a is None:
        return "null"
    return _object(
        {"value": json.dumps(bool(a.value)), "provenance": json.dumps(a.provenance)}, level
    )


def _document_text(doc: ModelDocument) -> str:
    fields = _model_fields(doc.model, 0)
    fields["format_version"] = str(FORMAT_VERSION)
    fields["cochains"] = _object(
        {
            name: _object(
                {"degree": str(u.degree), "support": _ints(np.flatnonzero(u.values).tolist(), 3)},
                2,
            )
            for name, u in doc.cochains.items()
        },
        1,
    )
    fields["involution"] = (
        "null"
        if doc.involution is None
        else _list((_ints(np.asarray(p).tolist(), 2) for p in doc.involution.perms), 1)
    )
    fields["maps"] = _object({k: _map_text(m, doc.model, 2) for k, m in doc.maps.items()}, 1)
    fields["assertions"] = _object(
        {
            "cd_at_most_3": _assertion_text(doc.cd_at_most_3, 2),
            "h5_zero": _assertion_text(doc.h5_zero, 2),
        },
        1,
    )
    return _object(fields, 0)


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


_cell = itemgetter("cell")
_degen = itemgetter("degen")


def _targets(flat: list, dim: int, path_of):
    """Word masks, cells and rejects of a list of dimension-dim target objects.

    Returns (masks, ids, rejects): int64 arrays, and the targets that are
    wrong on every model, by position, as (word tuple, cell) as given: a word
    that is not canonical for dim, or a negative cell or one past int64.  A
    reject is stored as (0, -1); check_targets finishes the check on a model.

    The whole list is read at once: its cells, the key count of each target
    (1 for a plain target, 2 with a degen), and the degen words where there
    are two keys.  When a check fails, the first faulty target is found and
    reported with its path, path_of(position).
    """
    try:
        cells = list(map(_cell, flat))
        sizes = np.fromiter(map(len, flat), dtype=np.int64, count=len(flat))
        given = np.flatnonzero(sizes == 2)
        words = list(map(_degen, map(flat.__getitem__, given.tolist())))
    except (KeyError, TypeError):  # a target with no cell, or no object
        words = None
    if (
        words is not None
        and sizes.max(initial=0) <= 2
        and set(map(type, cells)) <= {int}
        and set(map(type, words)) <= {list}
        and set(map(type, chain.from_iterable(words))) <= {int}
    ):
        masks = np.zeros(len(flat), dtype=np.int64)
        masks[given] = np.fromiter(
            map(_canonical_masks(dim).get, map(tuple, words), repeat(-1)),
            dtype=np.int64,
            count=len(words),
        )
        ids = int64_array(cells)
        out = np.flatnonzero((masks < 0) | (ids < 0))
        rejects = {p: (tuple(flat[p].get("degen", ())), cells[p]) for p in out.tolist()}
        masks[out] = 0
        ids[out] = -1
        return masks, ids, rejects
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
        targets = _targets(
            list(chain.from_iterable(block[:good])),
            n - 1,
            lambda k: f"{where}[{k // width}][{k % width}]",
        )
        _expect(good == len(block), f"{where}[{good}]", f"expected {width} targets")
        encoded.append(targets)
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

    images[n] holds the degree-n targets as _targets returns them; they
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
            images.append(_targets(block, n, lambda k: f"{where}[{k}]"))
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


def reexport(parsed: ModelFileData) -> ModelDocument:
    """Document for previously parsed data; used for round-trip checks."""
    return model_document(
        parsed.model,
        cochains=parsed.cochains,
        involution=parsed.involution,
        maps=parsed.maps,
        cd_at_most_3=parsed.cd_at_most_3,
        h5_zero=parsed.h5_zero,
    )
