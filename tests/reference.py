"""Test-only references: small operations the package itself never calls.

The tests use them as oracles or to build inputs; each works on the public
arrays of the package objects.
"""

from itertools import repeat

import numpy as np

from stexo.errors import ModelMismatchError
from stexo.gf2 import F2Matrix, pack_rows
from stexo.simplicial import SimplicialMap, SimplicialModel, _canonical_masks, int64_array
from stexo.snf import AbelianGroupInvariants


def euler_characteristic(model: SimplicialModel) -> int:
    return sum((-1) ** k * c for k, c in enumerate(model.cells))


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """outer after inner (inner.source -> outer.target)."""
    if inner.target is not outer.source:
        raise ModelMismatchError("composition: inner target is not outer source")
    words, cells = zip(
        *map(outer.push, range(len(inner.image_word)), inner.image_word, inner.image_cell)
    )
    name = f"{outer.name}*{inner.name}"
    return SimplicialMap(inner.source, outer.target, words, cells, name)


def mod2_rank(group: AbelianGroupInvariants) -> int:
    return group.free_rank + sum(1 for t in group.torsion if t % 2 == 0)


def mul_vec(m: F2Matrix, v) -> np.ndarray:
    """Matrix times column vector; v has length cols, result length rows."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (m.cols,):
        raise ModelMismatchError(f"vector of length {v.shape} against {m.rows}x{m.cols}")
    if m.rows == 0 or m.cols == 0:
        return np.zeros(m.rows, dtype=np.uint8)
    pv = pack_rows(v[None, :])[0]
    return (np.bitwise_count(m.words & pv).sum(axis=1) & 1).astype(np.uint8)


def encode_targets(dim: int, words, cells):
    """Word masks and cells of dimension-dim targets given as letter
    sequences and cells, in the (masks, ids, rejects) form check_targets
    takes: a word that is not canonical for dim, or a negative cell or one
    past int64, is a reject, stored as (0, -1) and kept by position as
    (word tuple, cell) as given.
    """
    words = list(map(tuple, words))
    masks = np.fromiter(
        map(_canonical_masks(dim).get, words, repeat(-1)), dtype=np.int64, count=len(words)
    )
    ids = int64_array(cells)
    out = np.flatnonzero((masks < 0) | (ids < 0))
    rejects = {p: (words[p], cells[p]) for p in out.tolist()}
    masks[out] = 0
    ids[out] = -1
    return masks, ids, rejects
