"""Owned JSON file format for models, cochains, covers, maps and assertions.

One document describes one simplicial model plus the decorations a decision
run needs: named cochains (supports only, the coefficients are mod 2), an
optional free involution, named maps, and the two auditable assertions.
Canonical serialization sorts keys and supports, so equal data gives equal
bytes; parse followed by export is the identity on canonical files.

Map entries either inline their own source model, in which case they map
into this file's model, or carry source null, meaning the source is this
file's model and the consumer picks the codomain (the base model when this
file describes a cover, the file's own model otherwise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .obstruction import Assertion
from .simplicial import Cochain, Involution, SimplicialMap, SimplicialModel

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


# -- document construction -----------------------------------------------------------


def _target_json(t) -> dict:
    word, cell = t
    if word:
        return {"degen": [int(w) for w in word], "cell": int(cell)}
    return {"cell": int(cell)}


def _faces_json(model: SimplicialModel) -> list:
    return [[[_target_json(t) for t in row] for row in block] for block in model.faces[1:]]


def _model_core_json(model: SimplicialModel) -> dict:
    return {
        "name": model.name,
        "max_degree": model.max_degree,
        "cells": [int(c) for c in model.cells],
        "faces": _faces_json(model),
    }


def _assignment_json(assignment, top: int) -> list:
    return [[_target_json(t) for t in assignment[n]] for n in range(top + 1)]


def _assertion_json(a: Assertion | None):
    if a is None:
        return None
    return {"value": bool(a.value), "provenance": a.provenance}


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
            "support": [int(i) for i in np.flatnonzero(u.values)],
        }
    doc["involution"] = (
        None
        if involution is None
        else [[int(x) for x in p] for p in involution.perms]
    )
    doc["maps"] = {}
    for name, m in (maps or {}).items():
        if isinstance(m, dict):
            doc["maps"][name] = m
        elif m.source is model:
            doc["maps"][name] = {
                "source": None,
                "assignment": _assignment_json(m.assignment, model.max_degree),
            }
        elif m.target is model:
            doc["maps"][name] = {
                "source": _model_core_json(m.source),
                "assignment": _assignment_json(m.assignment, m.source.max_degree),
            }
        else:
            raise ValidationError(f"map {name} touches neither side of the model")
    doc["assertions"] = {
        "cd_at_most_3": _assertion_json(cd_at_most_3),
        "h5_zero": _assertion_json(h5_zero),
    }
    return doc


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# -- parsing -------------------------------------------------------------------------


def _fail(path: str, msg: str):
    raise ValidationError(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        _fail(path, msg)


def _parse_target(obj, path: str):
    _expect(isinstance(obj, dict), path, "target must be an object")
    extra = set(obj) - {"cell", "degen"}
    _expect(not extra, path, f"unknown target keys {sorted(extra)}")
    _expect(isinstance(obj.get("cell"), int), path, "target needs an integer cell")
    word = obj.get("degen", [])
    _expect(
        isinstance(word, list) and all(isinstance(w, int) for w in word),
        path,
        "degen must be a list of integers",
    )
    return (tuple(word), obj["cell"])


def _parse_model_core(obj, path: str, default_name: str) -> SimplicialModel:
    _expect(isinstance(obj, dict), path, "model must be an object")
    max_degree = obj.get("max_degree")
    _expect(
        isinstance(max_degree, int) and max_degree >= 0,
        path,
        "max_degree must be a nonnegative integer",
    )
    cells = obj.get("cells")
    _expect(
        isinstance(cells, list)
        and len(cells) == max_degree + 1
        and all(isinstance(c, int) and c >= 0 for c in cells),
        path,
        f"cells must list {max_degree + 1} nonnegative counts",
    )
    faces_json = obj.get("faces")
    _expect(
        isinstance(faces_json, list) and len(faces_json) == max_degree,
        path,
        f"faces must have one block per degree 1..{max_degree}",
    )
    faces = [[]]
    for n in range(1, max_degree + 1):
        block = faces_json[n - 1]
        _expect(
            isinstance(block, list) and len(block) == cells[n],
            f"{path}.faces[{n - 1}]",
            f"expected {cells[n]} rows",
        )
        rows = []
        for c, row in enumerate(block):
            _expect(
                isinstance(row, list) and len(row) == n + 1,
                f"{path}.faces[{n - 1}][{c}]",
                f"expected {n + 1} targets",
            )
            rows.append(
                [
                    _parse_target(t, f"{path}.faces[{n - 1}][{c}][{i}]")
                    for i, t in enumerate(row)
                ]
            )
        faces.append(rows)
    name = obj.get("name", default_name)
    _expect(isinstance(name, str), path, "name must be a string")
    model = SimplicialModel(max_degree, cells, faces, name=name)
    bad = model.validate()
    if bad:
        _fail(path, f"{len(bad)} simplicial violations; first: {bad[0]}")
    return model


def _parse_cochain(model, name: str, obj, path: str) -> Cochain:
    _expect(isinstance(obj, dict), path, "cochain must be an object")
    extra = set(obj) - {"degree", "support"}
    _expect(not extra, path, f"unknown cochain keys {sorted(extra)}")
    degree = obj.get("degree")
    _expect(
        isinstance(degree, int) and 0 <= degree <= model.max_degree,
        path,
        f"degree must be an integer in 0..{model.max_degree}",
    )
    support = obj.get("support")
    _expect(isinstance(support, list), path, "support must be a list")
    n = model.cells[degree]
    prev = -1
    vals = np.zeros(n, dtype=np.uint8)
    for i, s in enumerate(support):
        _expect(
            isinstance(s, int) and 0 <= s < n,
            f"{path}.support[{i}]",
            f"cell index out of range 0..{n - 1}",
        )
        _expect(s > prev, f"{path}.support[{i}]", "support must be strictly increasing")
        prev = s
        vals[s] = 1
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
    """A named map entry: inline-source maps point into the parent model."""

    name: str
    source: SimplicialModel | None
    assignment: list

    def into_parent(self, parent: SimplicialModel) -> SimplicialMap:
        if self.source is None:
            m = SimplicialMap(parent, parent, self.assignment, name=self.name)
        else:
            m = SimplicialMap(self.source, parent, self.assignment, name=self.name)
        m.require_valid()
        return m

    def from_model_to(self, own: SimplicialModel, target: SimplicialModel) -> SimplicialMap:
        if self.source is not None:
            raise ValidationError(
                f"map {self.name} inlines a source and cannot be re-targeted"
            )
        m = SimplicialMap(own, target, self.assignment, name=self.name)
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
        involution = Involution(model, raw_inv, name=f"{model.name}-involution")
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
        assignment = []
        for n, block in enumerate(raw_assign):
            _expect(
                isinstance(block, list) and len(block) == counting.cells[n],
                f"{path}.assignment[{n}]",
                f"expected {counting.cells[n]} targets",
            )
            assignment.append(
                [
                    _parse_target(t, f"{path}.assignment[{n}][{c}]")
                    for c, t in enumerate(block)
                ]
            )
        maps[name] = MapData(name, src, assignment)

    raw_assert = doc.get("assertions", {})
    _expect(isinstance(raw_assert, dict), "document.assertions", "must be an object")
    extra = set(raw_assert) - {"cd_at_most_3", "h5_zero"}
    _expect(not extra, "document.assertions", f"unknown keys {sorted(extra)}")
    cd = _parse_assertion(raw_assert.get("cd_at_most_3"), "document.assertions.cd_at_most_3")
    h5 = _parse_assertion(raw_assert.get("h5_zero"), "document.assertions.h5_zero")

    return ModelFileData(model, cochains, involution, maps, cd, h5)


def parse_bytes(data: bytes, default_name: str = "model") -> ModelFileData:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"not a JSON model file: {exc}") from exc
    return parse_document(doc, default_name)


def reexport(parsed: ModelFileData) -> dict:
    """Document for previously parsed data; used for round-trip checks."""
    maps = {}
    for name, md in parsed.maps.items():
        top = (md.source or parsed.model).max_degree
        maps[name] = {
            "source": None if md.source is None else _model_core_json(md.source),
            "assignment": _assignment_json(md.assignment, top),
        }
    return model_document(
        parsed.model,
        cochains=parsed.cochains,
        involution=parsed.involution,
        maps=maps,
        cd_at_most_3=parsed.cd_at_most_3,
        h5_zero=parsed.h5_zero,
    )
