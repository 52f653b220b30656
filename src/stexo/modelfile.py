"""Owned JSON file format for models, cochains, covers, maps and assertions.

One document describes one simplicial model plus the decorations a decision
run needs: named cochains (supports only, the coefficients are mod 2), an
optional free involution, named maps, and the two auditable assertions.
Canonical serialization sorts keys and supports, so equal data gives equal
bytes; parse followed by export is the identity on canonical files.

Format version 2 holds the faces of degree n as {"cell": [...], "word":
[...]}, two flat integer lists, row-major over (cell, face).  A word is the
bitmask face_word holds, so every mask in 0 .. 2**(n-1) - 1 is a canonical
word.  A map's assignment has the same form per degree, one target per
source cell.  Version 1 held each target as {"cell": c, "degen": [letters]};
it is still read, to the same models with the same messages, but not written.

MODEL_FILE_SCHEMA describes both versions, but the parser, not the schema,
is the authority on integers: draft-07 "integer" and "const" compare numbers
by value, so the schema accepts "format_version": 2.0, "max_degree": 6.0 or
a cell of 2.0, and parse_document refuses each of them, as it refuses true
or any other float in an integer field.

The canonical bytes of a document are by definition those of
json.dumps(doc, sort_keys=True, separators=(",", ":")) plus a newline, with
no other whitespace (python -m json.tool prints a file indented); the parser
takes any JSON whitespace.  model_document checks a model and its
decorations and returns them as a ModelDocument, which canonical_bytes
writes straight from the arrays into one io.BytesIO and returns its
getvalue(), which hands the buffer over without a copy.  An integer list
goes out in chunks of 2**12 values, and a chunk of small nonnegative values
is one gather from a decimal text table, with no Python object per value
(see _ints), so the writer's peak is about its output.  A plain JSON
document goes through json.dumps.  A version 2 list is read in one batch,
and a fault names the path of the first bad entry.

parse_bytes reads the "cell" and "word" lists of a file straight from its
bytes into int64 arrays, and json.loads reads only the skeleton left around
them (_scanned_document): structure first, integers in bulk, as in
Langdale and Lemire, "Parsing Gigabytes of JSON per Second" (VLDB J.
2019).  One regular expression walks the bytes, alternating JSON string
tokens with a "cell" or "word" key whose value is digits and commas, so the
text of a string is never read as a list.  Each list found is checked and
converted at once (_scanned_ints) and replaced by the placeholder string
"\\u0000<k>", which an object hook of json.loads swaps back for its array;
a file that holds \\u0000 anywhere is not scanned, so no placeholder can
meet a string of the file.  A list with anything but digits and commas
inside, whitespace included, stays in the skeleton for json.loads.  Any
other irregularity (a list that is not canonical JSON integers, a skeleton
that is not strict UTF-8 JSON) and any file where no list is found, every
version 1 file among them, send the whole text to json.loads, the one
source of the messages for text that is not a JSON document.  Either way
parse_document gets the same data and runs every check.

parse_bytes runs with CPython's cyclic garbage collector paused, and restores
its previous state on return or exception: json.loads of a version 1 file
builds up to half a million small containers, none in a reference cycle, and
collector passes over them took about a sixth of parse time.  On the scan
route json.loads builds a few containers per block, and the pause neither
gains nor costs there; it is one pause for both routes.  The pause frees
nothing later than reference counting would, because models and their
caches hold no reference cycles (see cohomology).

Map entries either inline their own source model, in which case they map
into this file's model, or carry source null, meaning the source is this
file's model and the consumer picks the codomain (the base model when this
file describes a cover, the file's own model otherwise).  A map's cells are
checked against that codomain when the map is made.
"""

from __future__ import annotations

import gc
import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ValidationError
from .obstruction import Assertion
from .simplicial import (
    Cochain,
    Involution,
    SimplicialMap,
    SimplicialModel,
    _canonical_masks,
    _target_problem,
    check_targets,
    checked_images,
    int64_array,
)

FORMAT_VERSION = 2

_INTS = {"type": "array", "items": {"type": "integer", "minimum": 0}}


def _closed(properties: dict, *required: str) -> dict:
    """The schema of an object with these properties and no others."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


# version 1 holds an object per target, version 2 two flat lists per block
_TARGET_LIST = {
    "type": "array",
    "items": _closed({"cell": {"type": "integer", "minimum": 0}, "degen": _INTS}, "cell"),
}
_TARGETS = _closed({"cell": _INTS, "word": _INTS}, "cell", "word")
_ASSERTION = {
    "oneOf": [
        {"type": "null"},
        _closed(
            {"value": {"type": "boolean"}, "provenance": {"type": "string", "minLength": 1}},
            "value",
            "provenance",
        ),
    ]
}


def _version_schema(version: int, face_block: dict, map_degree: dict) -> dict:
    """The schema of a format version, given those of its face blocks and map degrees."""
    core = {
        "name": {"type": "string"},
        "max_degree": {"type": "integer", "minimum": 0},
        "cells": _INTS,
        "faces": {"type": "array", "items": face_block},
    }
    cochain = _closed(
        {"degree": {"type": "integer", "minimum": 0}, "support": _INTS}, "degree", "support"
    )
    source = {"oneOf": [{"type": "null"}, _closed(core, "max_degree", "cells", "faces")]}
    entry = _closed(
        {"source": source, "assignment": {"type": "array", "items": map_degree}},
        "source",
        "assignment",
    )
    return _closed(
        {
            "format_version": {"const": version},
            **core,
            "cochains": {"type": "object", "additionalProperties": cochain},
            "involution": {"oneOf": [{"type": "null"}, {"type": "array", "items": _INTS}]},
            "maps": {"type": "object", "additionalProperties": entry},
            "assertions": _closed({"cd_at_most_3": _ASSERTION, "h5_zero": _ASSERTION}),
        },
        "format_version",
        "max_degree",
        "cells",
        "faces",
    )


MODEL_FILE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "stexo model file",
    "oneOf": [
        _version_schema(1, {"type": "array", "items": _TARGET_LIST}, _TARGET_LIST),
        _version_schema(2, _TARGETS, _TARGETS),
    ],
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
    """The document of a model and its decorations, ready for canonical_bytes.

    A parsed map entry whose targets include one that is wrong on every
    model (which only version 1 can hold) has no version 2 form: it is
    refused with the message making the map gives.
    """
    cochains = dict(cochains or {})
    maps = dict(maps or {})
    for name, u in cochains.items():
        if u.model is not model:
            raise ValidationError(f"cochain {name} lives on a different model")
    for name, m in maps.items():
        if isinstance(m, MapData):
            for n, (_, _, rejects) in enumerate(m.images):
                for p, target in rejects.items():
                    problem = _target_problem(target, n)
                    raise ValidationError(f"map {name}: degree {n} cell {p}: {problem}")
        elif not (m.source is model or m.target is model):
            raise ValidationError(f"map {name} touches neither side of the model")
    return ModelDocument(model, cochains, involution, maps, cd_at_most_3, h5_zero)


# -- canonical serialization ---------------------------------------------------------

# integers per chunk in _ints: a chunk's text, up to 24 B per value on the
# table route and about 100 B of str on the value-by-value one, is live at a time
_CHUNK = 2**12
# the most entries of a decimal text table; digit count -> its table
_TABLE_CAP, _TABLES = 2**17, {}


def canonical_bytes(doc: ModelDocument | dict) -> bytes:
    """The bytes of json.dumps(doc, sort_keys=True, separators=(",", ":")) +
    "\\n", where a ModelDocument stands for the JSON document it describes.

    A ModelDocument is written from its arrays into one buffer, every list
    of integers by _ints, and the buffer's bytes are returned without a
    copy.  Any other document goes through json.dumps itself.
    """
    if isinstance(doc, ModelDocument):
        out = io.BytesIO()
        _document(out, doc)
        out.write(b"\n")
        return out.getvalue()
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


# A value below is the bytes of its JSON text, or (writer, *args), which
# writer(out, *args) writes when its turn comes.


def _put(out: io.BytesIO, value) -> None:
    if isinstance(value, bytes):
        out.write(value)
    else:
        writer, *args = value
        writer(out, *args)


def _list(out: io.BytesIO, values, brackets: bytes = b"[]") -> None:
    """Write the JSON list of values."""
    out.write(brackets[:1])
    for k, value in enumerate(values):
        if k:
            out.write(b",")
        _put(out, value)
    out.write(brackets[1:])


def _field(out: io.BytesIO, key: str, value) -> None:
    out.write(json.dumps(key).encode("ascii") + b":")
    _put(out, value)


def _object(out: io.BytesIO, fields: dict) -> None:
    """Write the JSON object of fields, keys sorted."""
    _list(out, [(_field, k, v) for k, v in sorted(fields.items())], b"{}")


def _decimal_table(top: int) -> np.ndarray:
    """The text table of top's digit count d, with at least entries 0 .. top:
    entry k is an unsigned integer of 2, 4 or 8 bytes, NULs, the text of k
    and a comma.  It grows by powers of two to at most 10**d or _TABLE_CAP."""
    d = len(str(top))
    table = _TABLES.get(d)
    if table is None or table.size <= top:
        size, width = min(10**d, _TABLE_CAP, 1 << top.bit_length()), 2 ** d.bit_length()
        k = np.arange(size, dtype=np.uint32)
        text = np.zeros((size, width), dtype=np.uint8)
        text[:, -1] = ord(",")
        for p in range(d):  # place p > 0 of k < 10**p is a leading zero: a NUL
            text[:, -2 - p] = k // 10**p % 10 + ord("0")
            text[: 10**p if p else 0, -2 - p] = 0
        table = _TABLES[d] = text.view(f"u{width}")[:, 0]
    return table


def _ints(out: io.BytesIO, values) -> None:
    """Write the JSON list of a sequence of integers.

    Nonnegative integers below the list's length or _CHUNK take their text
    from a decimal text table: a chunk is one gather, one tobytes and one NUL
    deletion, with no Python object per value.  Other lists go value by
    value, one str.join per chunk.  Every chunk ends in a comma: the last
    one becomes the "]".
    """
    values = np.asarray(values).ravel()
    n, table = values.size, None
    if n and values.dtype.kind in "iu" and values.min() >= 0:
        if (top := int(values.max())) < min(_TABLE_CAP, max(n, _CHUNK)):
            table = _decimal_table(top)
    out.write(b"[")
    for start in range(0, n, _CHUNK):
        chunk = values[start : start + _CHUNK]
        if table is None:
            out.write(",".join(map(str, chunk.tolist())).encode("ascii") + b",")
        else:
            out.write(table[chunk].tobytes().translate(None, b"\0"))
    if n:
        out.seek(-1, io.SEEK_CUR)
    out.write(b"]")


def _targets_block(out: io.BytesIO, words: np.ndarray, cells: np.ndarray) -> None:
    """Write the {"cell": [...], "word": [...]} object of target arrays."""
    _object(out, {"cell": (_ints, cells), "word": (_ints, words)})


def _model_fields(model: SimplicialModel) -> dict:
    """Values of the model keys of an object."""
    blocks = zip(model.face_word[1:], model.face_cell[1:])
    return {
        "name": json.dumps(model.name).encode("ascii"),
        "max_degree": b"%d" % model.max_degree,
        "cells": (_ints, model.cells),
        "faces": (_list, [(_targets_block, w, c) for w, c in blocks]),
    }


def _map(out: io.BytesIO, m, model: SimplicialModel) -> None:
    """Write a map entry, of a SimplicialMap or a MapData."""
    if isinstance(m, MapData):
        source, blocks = m.source, [(w, c) for w, c, _ in m.images]
    else:
        source = None if m.source is model else m.source
        blocks = zip(m.image_word, m.image_cell)
    source = b"null" if source is None else (_object, _model_fields(source))
    assignment = [(_targets_block, w, c) for w, c in blocks]
    _object(out, {"source": source, "assignment": (_list, assignment)})


def _assertion(out: io.BytesIO, a: Assertion | None) -> None:
    if a is None:
        out.write(b"null")
        return
    value = b"true" if a.value else b"false"
    _object(out, {"value": value, "provenance": json.dumps(a.provenance).encode("ascii")})


def _document(out: io.BytesIO, doc: ModelDocument) -> None:
    fields = _model_fields(doc.model)
    fields["format_version"] = b"%d" % FORMAT_VERSION
    cochains = {}
    for name, u in doc.cochains.items():
        support = (_ints, np.flatnonzero(u.values))
        cochains[name] = (_object, {"degree": b"%d" % u.degree, "support": support})
    fields["cochains"] = (_object, cochains)
    fields["involution"] = (
        b"null" if doc.involution is None else (_list, [(_ints, p) for p in doc.involution.perms])
    )
    maps = {k: (_map, m, doc.model) for k, m in doc.maps.items()}
    fields["maps"] = (_object, maps)
    assertions = {
        "cd_at_most_3": (_assertion, doc.cd_at_most_3),
        "h5_zero": (_assertion, doc.h5_zero),
    }
    fields["assertions"] = (_object, assertions)
    _object(out, fields)


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


def _targets(flat: list, dim: int, path_of):
    """Word masks, cells and rejects of a list of dimension-dim target objects.

    Returns (masks, ids, rejects): int64 arrays, and the targets that are
    wrong on every model, by position, as (word tuple, cell) as given: a word
    that is not canonical for dim, or a negative cell or one past int64.  A
    reject is stored as (0, -1); check_targets finishes the check on a model.
    The first faulty target is reported with its path, path_of(position).
    """
    for k, fault in enumerate(map(_target_fault, flat)):
        if fault:
            _fail(path_of(k), fault)
    words = [tuple(obj.get("degen", ())) for obj in flat]
    cells = [obj["cell"] for obj in flat]
    masks = np.fromiter(
        map(_canonical_masks(dim).get, words, repeat(-1)), dtype=np.int64, count=len(words)
    )
    ids = int64_array(cells)
    out = np.flatnonzero((masks < 0) | (ids < 0))
    rejects = {p: (words[p], cells[p]) for p in out.tolist()}
    masks[out] = 0
    ids[out] = -1
    return masks, ids, rejects


def _v1_faces(block, path: str, n: int, count: int):
    """The targets of a version 1 face block of degree n: count rows of n + 1
    target objects."""
    _expect(isinstance(block, list) and len(block) == count, path, f"expected {count} rows")
    width = n + 1
    good = len(block)
    if not (all(map(isinstance, block, repeat(list))) and set(map(len, block)) <= {width}):
        good = next(
            c for c, row in enumerate(block) if not (isinstance(row, list) and len(row) == width)
        )
    targets = _targets(
        list(chain.from_iterable(block[:good])),
        n - 1,
        lambda k: f"{path}[{k // width}][{k % width}]",
    )
    _expect(good == len(block), f"{path}[{good}]", f"expected {width} targets")
    return targets


def _v1_images(block, path: str, n: int, count: int):
    """The targets of degree n of a version 1 map: a list of count target objects."""
    _expect(isinstance(block, list) and len(block) == count, path, f"expected {count} targets")
    return _targets(block, n, lambda k: f"{path}[{k}]")


def _first(wrong: np.ndarray, path: str, msg: str) -> None:
    """Fail at path[k] for the first k where wrong holds, if any."""
    if wrong.any():
        _fail(f"{path}[{int(np.argmax(wrong))}]", msg)


def _int_list(values, size: int, path: str) -> np.ndarray:
    """A list of size JSON integers as int64; one outside int64 reads as -1.

    An int64 array is a list the skeleton scan has read and checked already
    (see _scanned_document): only its size is checked here.
    """
    _expect(
        isinstance(values, (list, np.ndarray)) and len(values) == size,
        path,
        f"expected a list of {size} integers",
    )
    if isinstance(values, np.ndarray):
        return values
    if not set(map(type, values)) <= {int}:
        _first(np.array([type(v) is not int for v in values]), path, "expected an integer")
    return int64_array(values)


def _v2_images(block, path: str, dim: int, size: int):
    """The size dimension-dim targets of a version 2 block, {"cell": [...],
    "word": [...]}, in the (masks, ids, rejects) form check_targets takes:
    the targets of degree dim of a map, one per source cell.

    Each list is checked and converted in one batch: JSON integers, cells
    nonnegative and within int64, masks in 0 .. 2**dim - 1 (each of them a
    canonical word).  A target that is wrong on every model is a fault here,
    so there are no rejects; check_targets finishes the check on a model.
    """
    _expect(
        isinstance(block, dict) and set(block) == {"cell", "word"},
        path,
        'expected an object of "cell" and "word" lists',
    )
    cells = _int_list(block["cell"], size, f"{path}.cell")
    masks = _int_list(block["word"], size, f"{path}.word")
    _first(cells < 0, f"{path}.cell", "cell must be a nonnegative 64-bit integer")
    top = (1 << dim) - 1
    _first(masks >> min(dim, 63) != 0, f"{path}.word", f"expected a word mask in 0..{top}")
    return masks, cells, {}


def _v2_faces(block, path: str, n: int, count: int):
    """The targets of a version 2 face block of degree n: count cells of n + 1 faces."""
    return _v2_images(block, path, n - 1, count * (n + 1))


# format version -> the readers of its face blocks and of its map degrees
_READERS = {1: (_v1_faces, _v1_images), 2: (_v2_faces, _v2_images)}


def _parse_model_core(obj, path: str, default_name: str, read_faces) -> SimplicialModel:
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
    encoded = [
        read_faces(block, f"{path}.faces[{n - 1}]", n, cells[n])
        for n, block in enumerate(faces_json, 1)
    ]
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

    images[n] holds the degree-n targets in the (masks, ids, rejects) form
    the readers return; they are checked against the codomain when the map
    is made.
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
    version = doc.get("format_version")
    _expect(
        _is_int(version) and version in _READERS, "document.format_version", "expected 1 or 2"
    )
    read_faces, read_images = _READERS[version]
    model = _parse_model_core(doc, "document", default_name, read_faces)

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
            else _parse_model_core(raw_src, f"{path}.source", f"{name}-source", read_faces)
        )
        counting = src if src is not None else model
        raw_assign = entry.get("assignment")
        _expect(
            isinstance(raw_assign, list)
            and len(raw_assign) == counting.max_degree + 1,
            path,
            f"assignment must cover degrees 0..{counting.max_degree}",
        )
        images = [
            read_images(block, f"{path}.assignment[{n}]", n, counting.cells[n])
            for n, block in enumerate(raw_assign)
        ]
        maps[name] = MapData(name, src, images)

    raw_assert = doc.get("assertions", {})
    _expect(isinstance(raw_assert, dict), "document.assertions", "must be an object")
    extra = set(raw_assert) - {"cd_at_most_3", "h5_zero"}
    _expect(not extra, "document.assertions", f"unknown keys {sorted(extra)}")
    cd = _parse_assertion(raw_assert.get("cd_at_most_3"), "document.assertions.cd_at_most_3")
    h5 = _parse_assertion(raw_assert.get("h5_zero"), "document.assertions.h5_zero")

    return ModelFileData(model, cochains, involution, maps, cd, h5)


# The key "cell" or "word" with a list of digits and commas as its value
# (group 1 is that list's text).  _SCAN alternates it with a JSON string:
# every quote outside a string begins one, so finditer, which resumes after
# each match, never reads the inside of a string as structure.  _ANY_LIST
# finds whether a file has such a list at all: a version 1 file has none,
# and its million string tokens are then never walked one by one.
_KEYED_LIST = rb'"(?:cell|word)"[ \t\n\r]*:[ \t\n\r]*\[([0-9,]*)\]'
_ANY_LIST = re.compile(_KEYED_LIST)
_SCAN = re.compile(_KEYED_LIST + rb'|"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_INT64_MAX = np.iinfo(np.int64).max
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _scanned_ints(body: bytes) -> np.ndarray | None:
    """The JSON integer list of text body, digits and commas only, as int64;
    None unless each entry is a nonempty run of digits without a leading zero
    and below 2**63 - 1.

    np.fromstring stops with a DeprecationWarning at an empty entry before
    the last, so those are ruled out before it reads body.  The digit counts
    of the values plus values.size - 1 commas must then be len(body): a
    trailing comma, which fromstring takes, leaves that one short, and so
    does a leading zero.  A value of 2**63 - 1 may be one fromstring
    saturated at.
    """
    if not body:
        return np.zeros(0, dtype=np.int64)
    if body[:1] == b"," or b",," in body:
        return None
    values = np.fromstring(body, dtype=np.int64, sep=",")
    top = int(values.max())
    digits = values.size + sum(
        int(np.count_nonzero(values >= p)) for p in _POWERS_OF_TEN[_POWERS_OF_TEN <= top]
    )
    if digits + values.size - 1 != len(body) or top == _INT64_MAX:
        return None
    return values


def _scanned_document(data: bytes):
    """The JSON document of data with its "cell" and "word" lists as int64
    arrays, or None if the whole text must go to json.loads (see the module
    docstring).  A key is matched only as a whole string token, so every
    placeholder is the value of a "cell" or "word" key, where the object
    hook finds it; the readers of those keys take an array as the list it
    was (_int_list as checked integers, a version 1 target as no integer).
    """
    if b"\\u0000" in data or not _ANY_LIST.search(data):
        return None
    pieces, lists, start = [], [], 0
    for match in _SCAN.finditer(data):
        body = match.group(1)
        if body is None:
            continue
        values = _scanned_ints(body)
        if values is None:
            return None
        pieces += [data[start : match.start(1) - 1], b'"\\u0000%d"' % len(lists)]
        lists.append(values)
        start = match.end()
    if not lists:
        return None
    pieces.append(data[start:])

    def restore(obj: dict) -> dict:
        for key in ("cell", "word"):
            value = obj.get(key)
            if type(value) is str and value[:1] == "\0":
                obj[key] = lists[int(value[1:])]
        return obj

    try:
        return json.loads(b"".join(pieces).decode("utf-8"), object_hook=restore)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return None


@_collector_paused()
def parse_bytes(data: bytes, default_name: str = "model") -> ModelFileData:
    """The document data holds, parsed and checked by parse_document.

    A version 2 file takes the skeleton scan (_scanned_document): its
    "cell" and "word" lists of digits and commas go straight from the bytes
    into int64 arrays, and json.loads reads only the rest.  A file the scan
    gives up, a version 1 file or one with a fault in its text among them,
    goes to json.loads of the whole text, the one source of the messages
    for text that is not a JSON document.  Both routes give parse_document
    the same data, so every check and message after it is the same.
    """
    doc = _scanned_document(data)
    if doc is None:
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
