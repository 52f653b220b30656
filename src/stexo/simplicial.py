"""Finite truncations of simplicial sets with normalized GF(2) cochains.

A model stores only nondegenerate simplices.  Face maps land in "targets": a
pair (word, cell) where word is a degeneracy word in canonical form (strictly
decreasing operator indices) applied to a nondegenerate cell.  The word, read
as a set, is exactly the set of repeat positions of the underlying surjection,
which is what makes products and quotients finite and the cup-i formulas
evaluable.

Face tables are stored as read-only integer arrays, where a canonical word is
the bitmask of its letters.  A batch of targets is likewise a pair of arrays
(word masks, cells), and SimplicialModel.face_batch takes one face of a whole
batch at once; every face walk of this module goes through it or indexes the
arrays directly.  Maps store the target of every source cell in the same form,
and SimplicialMap.push sends a batch of targets through a map.  Models and
maps check their own targets in batches, with check_targets, which the
model-file parser calls too; the one constructor of each class takes arrays.

SimplicialModel.validate checks the identities d_i d_j = d_{j-1} d_i on
target codes: a dimension-n target is coded by its place in
_target_table(n), and per degree one table gives the code of each face of
every face target that occurs, so each identity is two gathers from it.

Every chain-level matrix, CoverPair.twisted_faces included, is read from
one cached table per degree, SimplicialModel.face_index(n): the one place
where face words become incidence and where the degree is checked.  The
integer boundaries are that table with a sign table beside it
(signed_faces, CoverPair.twisted_faces), the one input of snf's integer
layer.

Cochains are normalized: a degeneracy-decorated target evaluates to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, repeat

import numpy as np

from .errors import (
    ModelMismatchError,
    TrivialCoverError,
    TruncationError,
    ValidationError,
)
from .gf2 import F2Matrix, Subspace
from .snf import FaceTable

# -- word masks ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _word(mask: int) -> tuple:
    """The canonical word whose letters are the set bits of mask."""
    return tuple(a for a in range(mask.bit_length() - 1, -1, -1) if mask >> a & 1)


def _mask(word) -> int:
    return sum(1 << a for a in word)


@lru_cache(maxsize=None)
def _canonical_masks(dim: int) -> dict:
    """Every canonical word of a dimension-dim target, mapped to its mask."""
    return {_word(m): m for m in range(1 << dim)}


def _degenerate(mask, a):
    """The word mask of s_a applied to a target whose word mask is given:
    letters >= a move up by one, and a is added.  mask and a may be int64
    arrays as well as ints."""
    return (mask >> a << (a + 1)) | (mask & ((1 << a) - 1)) | (1 << a)


@lru_cache(maxsize=None)
def _compose_table(outer: int, dim: int) -> np.ndarray:
    """The word mask of s_{outer} applied to each dimension-dim mask m: the
    letters of outer applied by _degenerate, the lowest (innermost) first."""
    table = np.arange(1 << dim, dtype=np.int64)
    for a in reversed(_word(outer)):
        table = _degenerate(table, a)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _face_plan(n: int, mask: int, i: int):
    """How d_i passes through the word of a dimension-n target.

    Returns (word mask, None, None) when d_i cancels against a letter, so the
    face is the same cell under that word.  Otherwise returns (k, b, table):
    the face is d_k of the core b-cell with the surviving letters applied to
    its word through table.
    """
    word = _word(mask)
    out = []
    k = i
    for pos, w in enumerate(word):
        if k == w or k == w + 1:
            inner = mask & ((1 << w) - 1)
            return int(_compose_table(_mask(out), n - 1 - pos)[inner]), None, None
        if k < w:
            out.append(w - 1)
        else:
            out.append(w)
            k -= 1
    b = n - len(word)
    return k, b, _compose_table(_mask(out), b - 1)


def _groups(keys: np.ndarray) -> list:
    """(value, selector) for each distinct value of keys, ascending.  The keys
    are nonnegative and small (word masks, core degrees), so a count per
    value finds them."""
    values = np.flatnonzero(np.bincount(keys.ravel())).tolist()
    if len(values) == 1:
        return [(values[0], slice(None))]
    return [(v, keys == v) for v in values]


def _index_groups(keys: np.ndarray) -> list:
    """_groups with each selector as an index array, for a grouping that
    several faces reuse."""
    return [(v, s if isinstance(s, slice) else np.flatnonzero(s)) for v, s in _groups(keys)]


def _through(dim: int, words: np.ndarray, cells: np.ndarray, tables) -> np.ndarray:
    """Cells of dimension-dim targets sent through tables[core degree]."""
    core = dim - np.bitwise_count(words).astype(np.int64)
    out = np.empty_like(cells)
    for d, sel in _groups(core):
        out[sel] = tables[d][cells[sel]]
    return out


def _frozen(a, dtype=np.int64) -> np.ndarray:
    """a as a read-only C-contiguous array of dtype; one that already is
    comes back as it is."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and not a.flags.writeable
        and a.flags.c_contiguous
    ):
        return a
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _checked_once(obj) -> list[str]:
    """obj._violations_found(), computed on the first call and kept in
    obj._violations.  Models, maps and involutions hold only read-only
    arrays and fixed endpoints, so the answer cannot change."""
    if obj._violations is None:
        obj._violations = tuple(obj._violations_found())
    return list(obj._violations)


def _no_faces(count: int) -> np.ndarray:
    return np.zeros((count, 0), dtype=np.int64)


# -- checked input -------------------------------------------------------------


def int64_array(values) -> np.ndarray:
    """values as an int64 array; a Python int outside int64 reads as -1."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(
            [v if -(1 << 63) <= v < 1 << 63 else -1 for v in values], dtype=np.int64
        )


def _target_problem(target, dim: int) -> str:
    """Why a dimension-dim target that check_targets refused has no place;
    target is (word, cell), its word a mask or, as given, a tuple."""
    word, cell = target
    if isinstance(word, int):
        if word < 0:
            return f"degeneracy word mask {word} out of range for dimension {dim}"
        word = _word(word)
    if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
        return f"degeneracy word {word} is not strictly decreasing"
    if word and (word[0] > dim - 1 or word[-1] < 0):
        return f"degeneracy word {word} out of range for dimension {dim}"
    return f"target {(word, cell)} has no core cell in degree {dim - len(word)}"


def check_targets(counts, dim: int, masks, ids, rejects):
    """Dimension-dim targets checked against a model with the given cell
    counts: the one target check of model faces, map images and the parser.

    masks and ids are int64 arrays of word masks and cells.  Read as
    unsigned, a negative value is past every bound: a mask must be below
    2**dim (a canonical word), a cell below the count of its core degree.
    rejects holds the targets the parser found wrong on every model, by
    position, as (word tuple, cell) as given; a reject is stored as (0, -1).

    Returns (masks, cells, bad): int64 arrays where a target that has no place
    on the model is stored as (0, 0), and (position, message) for each such
    target, in order.
    """
    wide = masks.view(np.uint64) >= 1 << dim
    core = dim - np.bitwise_count(np.where(wide, 0, masks)).astype(np.int64)
    limit = np.zeros(dim + 1, dtype=np.uint64)
    k = min(len(counts), dim + 1)
    limit[:k] = counts[:k]
    wrong = wide | (ids.view(np.uint64) >= limit[core])
    bad = [
        (p, _target_problem(rejects.get(p) or (int(masks[p]), int(ids[p])), dim))
        for p in np.flatnonzero(wrong).tolist()
    ]
    if bad:
        masks = np.where(wrong, 0, masks)
        ids = np.where(wrong, 0, ids)
    return masks, ids, bad


def checked_images(source, target, blocks):
    """Image arrays of a map from source to target, from the (masks, ids,
    rejects) targets of each source degree, in order, as check_targets takes
    them: (image_word, image_cell, bad).

    bad lists "degree n cell c: message" for each target refused on target.
    Checking stops at the first degree that is missing or whose word or
    cell array does not hold one entry per source cell; from there on the
    arrays are zeros.
    """
    words, cells, bad = [], [], []
    none = np.zeros(0, dtype=np.int64)
    for n in range(source.max_degree + 1):
        masks, ids, rejects = blocks[n] if n < len(blocks) else (none, none, {})
        if masks.shape != (source.cells[n],) or ids.shape != masks.shape:
            bad.append(f"degree {n}: assignment size mismatch")
            break
        ws, cs, errs = check_targets(target.cells, n, masks, ids, rejects)
        bad.extend(f"degree {n} cell {c}: {msg}" for c, msg in errs)
        words.append(ws)
        cells.append(cs)
    for c in source.cells[len(words) :]:
        words.append(np.zeros(c, dtype=np.int64))
        cells.append(np.zeros(c, dtype=np.int64))
    return words, cells, bad


class SimplicialModel:
    """Nondegenerate cells per degree plus decorated face maps.

    face_word[n][c, i] and face_cell[n][c, i] are the i-th face of the n-cell
    c, a dimension n-1 target: the mask of its canonical word and its cell.
    Degree 0 has width-0 arrays.  The arrays cannot be written, so whatever
    the model caches about them stays valid, the result of validate too.
    """

    def __init__(self, max_degree: int, cells, face_word, face_cell, name: str = "model"):
        self.max_degree = int(max_degree)
        self.cells = tuple(int(c) for c in cells)
        self.name = name
        self._cache: dict = {}
        self._violations = None
        if len(self.cells) != self.max_degree + 1:
            raise ValidationError(
                f"{name}: cells list length {len(self.cells)} vs max_degree {max_degree}"
            )
        self.face_word = tuple(_frozen(a) for a in face_word)
        self.face_cell = tuple(_frozen(a) for a in face_cell)

    def __repr__(self) -> str:
        return f"SimplicialModel({self.name}, cells={self.cells})"

    def n_cells(self, n: int) -> int:
        return self.cells[n] if 0 <= n <= self.max_degree else 0

    # -- face calculus -------------------------------------------------------

    def face_batch(self, n: int, words, cells, i: int):
        """d_i of a batch of dimension-n targets, as (word masks, cells) arrays.

        Targets are grouped by word; per word the passage of d_i through the
        letters is worked out once, then the core faces are gathered from the
        arrays and the surviving letters applied through a mask table.
        """
        words = np.asarray(words, dtype=np.int64)
        return self._grouped_faces(n, _groups(words), np.asarray(cells, dtype=np.int64), i)

    def _grouped_faces(self, n: int, groups, cells: np.ndarray, i: int):
        """face_batch of targets given as cells and their (word mask,
        selector) groups, as _groups returns them."""
        out_w = np.empty_like(cells)
        out_c = np.empty_like(cells)
        for mask, sel in groups:
            k, b, table = _face_plan(n, mask, i)
            if table is None:
                out_w[sel] = k
                out_c[sel] = cells[sel]
            else:
                core = cells[sel]
                out_w[sel] = table[self.face_word[b][core, k]]
                out_c[sel] = self.face_cell[b][core, k]
        return out_w, out_c

    def subfaces(self, n: int, keep, cells=None):
        """Restrictions of n-cells (all, or those listed) to the vertex subset keep."""
        keep_set = set(keep)
        cs = np.arange(self.cells[n]) if cells is None else np.asarray(cells)
        ws = np.zeros(len(cs), dtype=np.int64)
        dim = n
        for v in range(n, -1, -1):
            if v not in keep_set:
                ws, cs = self.face_batch(dim, ws, cs, v)
                dim -= 1
        return ws, cs

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """The simplicial identities, checked once per model; the result is cached."""
        return _checked_once(self)

    def _violations_found(self) -> list[str]:
        """Faces that have no place on the model, in (degree, cell, face)
        order; if there are none, d_i d_j = d_{j-1} d_i for i < j on every
        cell, in (degree, cell, j, i) order.

        A dimension-n target is coded by its position in _target_table(n).
        A face cell past the count of its core degree would take the code of
        another target, so every face is checked against the counts first."""
        bad = [msg for n in range(1, self.max_degree + 1) for msg in self._stray_faces(n)]
        if bad:
            return bad
        runs = [_target_runs(self.cells, dim) for dim in range(self.max_degree)]
        for n in range(2, self.max_degree + 1):
            bad.extend(self._identity_violations(n, *runs[n - 1], runs[n - 2][0]))
        return bad

    def _stray_faces(self, n: int) -> list[str]:
        """The faces of the n-cells that check_targets refuses."""
        fw, fc = self.face_word[n].ravel(), self.face_cell[n].ravel()
        return [
            f"degree {n} cell {p // (n + 1)} face {p % (n + 1)}: {msg}"
            for p, msg in check_targets(self.cells, n - 1, fw, fc, {})[2]
        ]

    def _identity_violations(self, n: int, first, count, below) -> list[str]:
        """The identities on the n-cells, whose faces are dimension-(n-1)
        targets with the runs first, count of _target_runs; below is the
        first array of dimension n-2.

        Row i of a code table holds the code of d_i of every dimension-(n-1)
        target whose word occurs among the faces: one face plan and one
        gather of core faces per (word, i).  Each identity is then two
        gathers from it at the codes of the n-cells' faces, one row of
        codes per face; every code is in range, so "wrap" changes none."""
        total = int(count.sum())
        dtype = np.int32 if total < 1 << 31 else np.int64
        fw = self.face_word[n]
        codes = first.astype(dtype)[fw]
        np.add(codes, self.face_cell[n], out=codes, casting="unsafe")
        codes = np.ascontiguousarray(codes.T)
        seen = np.zeros(first.size, dtype=bool)
        seen[fw] = True
        table = np.empty((n, total), dtype=dtype)
        for mask in np.flatnonzero(seen).tolist():
            run = table[:, first[mask] : first[mask] + count[mask]]
            for i in range(n):
                k, b, compose = _face_plan(n - 1, mask, i)
                if compose is None:
                    run[i] = np.arange(below[k], below[k] + run.shape[1])
                else:
                    run[i] = below[compose][self.face_word[b][:, k]] + self.face_cell[b][:, k]
        found = []
        for j in range(1, n + 1):
            for i in range(j):
                lhs = table[i].take(codes[j], mode="wrap")
                rhs = table[j - 1].take(codes[i], mode="wrap")
                found.extend((c, j, i, lhs[c], rhs[c]) for c in (lhs != rhs).nonzero()[0].tolist())
        if not found:
            return []
        words, cells, _ = _target_table(self, n - 2)
        found.sort(key=lambda f: f[:3])
        return [
            f"degree {n} cell {c}: d_{i} d_{j} != d_{j-1} d_{i}"
            f" ({(_word(int(words[lhs])), int(cells[lhs]))}"
            f" vs {(_word(int(words[rhs])), int(cells[rhs]))})"
            for c, j, i, lhs, rhs in found
        ]

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise ValidationError(
                f"{self.name}: {len(bad)} violations; first: {bad[0]}"
            )

    # -- chain level ---------------------------------------------------------

    def face_index(self, n: int) -> np.ndarray:
        """The face table of degree n, from which every chain-level matrix is
        read: row i holds, per n-cell, the (n-1)-cell of its face d_i, or
        cells[n-1] where that face is degenerate.  The one check that faces
        are stored in degree n.  Cached and read-only, on int32 while the
        count of (n-1)-cells fits."""
        key = ("faces", n)
        if key not in self._cache:
            if not 1 <= n <= self.max_degree:
                raise TruncationError(f"{self.name}: no faces stored in degree {n}")
            dtype = np.int32 if self.cells[n - 1] < 1 << 31 else np.int64
            table = np.where(self.face_word[n] == 0, self.face_cell[n], self.cells[n - 1])
            self._cache[key] = _frozen(table.T, dtype)
        return self._cache[key]

    def coboundary_span(self, k: int) -> Subspace:
        """The k-coboundaries delta(C^{k-1}) as a reduced basis in C^k (zero
        in degree 0): the one reduction of delta_{k-1}.  Its spanning rows are
        delta_{k-1} transposed, packed straight from the plain faces: row b of
        a (k-1)-cell b has a bit at each k-cell with b as a plain face.  So its
        relations are Z^{k-1}, and its combination of y solves delta x = y."""
        key = ("cob-span", k)
        if key not in self._cache:
            n = self.n_cells(k)
            if k == 0:
                rows = F2Matrix(0, n)
            else:
                table = self.face_index(k)
                plain = table != self.cells[k - 1]
                rows = F2Matrix.from_entries(self.cells[k - 1], n, table[plain], plain.nonzero()[1])
            self._cache[key] = Subspace.from_vectors(n, rows)
        return self._cache[key]

    def signed_faces(self, k: int) -> FaceTable:
        """The integral boundary C_k -> C_{k-1} as a signed face table:
        face_index(k), with sign (-1)^i on a plain face d_i and 0 on a
        degenerate one."""
        table = self.face_index(k)
        signs = np.where(table < self.cells[k - 1], 1 - 2 * (np.arange(k + 1)[:, None] & 1), 0)
        return FaceTable(table, signs, self.cells[k - 1])

    def cup_table(self, p: int, q: int, i: int):
        """Index triples (out, u, v) with odd multiplicity for the cup-i sum."""
        key = ("cup", p, q, i)
        if key not in self._cache:
            self._cache[key] = _build_cup_table(self, p, q, i)
        return self._cache[key]


def _build_cup_table(model: SimplicialModel, p: int, q: int, i: int):
    n = p + q - i
    if n > model.max_degree or p < 0 or q < 0 or i < 0:
        raise TruncationError(
            f"{model.name}: cup_{i} of degrees ({p},{q}) needs degree {n}"
        )
    # a triple (c, u, v) is counted under the key (c * nu + u) * nv + v
    nu, nv = model.cells[p], model.cells[q]
    keys = [np.zeros(0, dtype=np.int64)]
    for cuts in combinations_with_replacement(range(n + 1), i + 1):
        even: set = set()
        odd: set = set()
        prev = 0
        for k, a in enumerate(cuts + (n,)):
            (even if k % 2 == 0 else odd).update(range(prev, a + 1))
            prev = a
        if len(even) != p + 1 or len(odd) != q + 1:
            continue
        wu, cu = model.subfaces(n, even)
        wv, cv = model.subfaces(n, odd)
        c = np.flatnonzero((wu == 0) & (wv == 0))
        keys.append((c * nu + cu[c]) * nv + cv[c])
    found, mult = np.unique(np.concatenate(keys), return_counts=True)
    keep = found[mult % 2 == 1]
    return keep // (nu * nv), keep // nv % nu, keep % nv


@dataclass(frozen=True)
class Cochain:
    """A normalized GF(2) cochain: one bit per nondegenerate cell.

    The constructor reads its values mod 2 into a new uint8 array and checks
    their length, for values from outside; what stexo computes itself comes
    through _computed, which checks and copies nothing.
    """

    model: SimplicialModel
    degree: int
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.uint8) & 1
        if vals.shape != (self.model.n_cells(self.degree),):
            raise ModelMismatchError(
                f"cochain length {vals.shape} vs {self.model.n_cells(self.degree)}"
                f" cells in degree {self.degree}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def _computed(cls, model, degree: int, values: np.ndarray) -> "Cochain":
        """A cochain on values that are already a new uint8 array of 0/1
        entries, one per cell of the degree, taken as they are."""
        u = object.__new__(cls)
        vars(u).update(model=model, degree=degree, values=values)
        return u

    @classmethod
    def zero(cls, model, degree: int) -> "Cochain":
        return cls(model, degree, np.zeros(model.n_cells(degree), dtype=np.uint8))

    @classmethod
    def from_support(cls, model, degree: int, support) -> "Cochain":
        """The cochain that is 1 on the cells listed an odd number of times."""
        n = model.n_cells(degree)
        cells = int64_array(list(support))
        if cells.size and not (0 <= cells.min() and cells.max() < n):
            raise ValidationError(f"support index out of range 0..{n - 1} in degree {degree}")
        return cls(model, degree, np.bincount(cells, minlength=n) & 1)

    def support(self) -> tuple:
        return tuple(np.flatnonzero(self.values).tolist())

    def is_zero(self) -> bool:
        return not self.values.any()

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.model is not other.model or self.degree != other.degree:
            raise ModelMismatchError("cochain addition across models or degrees")
        return Cochain._computed(self.model, self.degree, self.values ^ other.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.model is other.model
            and self.degree == other.degree
            and bool(np.array_equal(self.values, other.values))
        )


# the most entries of a coboundary gather index that take copies at once:
# below it one whole take and a reduce beat a take per face row (2x on the
# bar models' indices of 100-12000 entries); above it, 48000 entries and
# more, the row loop is faster and skips the whole index's intp copy
_WHOLE_GATHER = 1 << 15


def coboundary_values(model: SimplicialModel, degree: int, values: np.ndarray) -> np.ndarray:
    """delta of one k-cochain's (n,) values, or of each column of (n, batch)
    values, gathered through face_index(k+1): each (k+1)-cell sums the
    values over its plain faces, and a degenerate face (the count of
    k-cells in the table) reads a zero appended after them.  take copies an
    int32 index to intp, so a table of more than _WHOLE_GATHER entries is
    taken one face row at a time; "wrap", the fastest mode, changes none."""
    index = model.face_index(degree + 1)
    padded = np.zeros((len(values) + 1, *values.shape[1:]), dtype=np.uint8)
    padded[:-1] = values
    if index.size <= _WHOLE_GATHER:
        return np.bitwise_xor.reduce(padded.take(index, axis=0, mode="wrap"), axis=0)
    acc = padded.take(index[0], axis=0, mode="wrap")
    for row in index[1:]:
        acc ^= padded.take(row, axis=0, mode="wrap")
    return acc


def coboundary(u: Cochain) -> Cochain:
    """delta u (see coboundary_values)."""
    return Cochain._computed(u.model, u.degree + 1, coboundary_values(u.model, u.degree, u.values))


def is_coboundary(u: Cochain) -> bool:
    """Whether u = delta v for some cochain v one degree lower."""
    return u.model.coboundary_span(u.degree).contains(u.values)


def is_closed(u: Cochain) -> bool:
    """Whether delta u = 0; a top-degree cochain has no coboundary to check."""
    return u.degree >= u.model.max_degree or coboundary(u).is_zero()


def cup_i(u: Cochain, v: Cochain, i: int) -> Cochain:
    """Steenrod cup-i product by interval cuts; cup_0 is Alexander-Whitney."""
    if u.model is not v.model:
        raise ModelMismatchError("cup of cochains on different models")
    model = u.model
    n = u.degree + v.degree - i
    out_idx, u_idx, v_idx = model.cup_table(u.degree, v.degree, i)
    terms = u.values[u_idx] & v.values[v_idx]
    count = np.bincount(out_idx[terms.view(bool)], minlength=model.n_cells(n))
    return Cochain._computed(model, n, (count & 1).astype(np.uint8))


def cup(u: Cochain, v: Cochain) -> Cochain:
    return cup_i(u, v, 0)


def sq(u: Cochain, k: int) -> Cochain:
    """Steenrod square Sq^k on a closed cochain, as u cup_{p-k} u.

    Returns the zero cochain when k exceeds the degree (unstable axiom).
    """
    if k < 0:
        raise ValidationError(f"sq: negative k={k}")
    if not is_closed(u):
        raise ValidationError("sq requires a closed cochain")
    if k > u.degree:
        return Cochain.zero(u.model, u.degree + k)
    return cup_i(u, u, u.degree - k)


class SimplicialMap:
    """A map of models: each source n-cell goes to a dimension-n target.

    image_word[n][c] and image_cell[n][c] are the target of the source n-cell
    c on the target model, as a word mask and a cell, laid out like the face
    tables of a model and just as read-only.  Neither they nor the endpoints
    change, so validate checks them once per map and keeps the answer:
    checked_images first, with the parser's messages, then the faces.
    """

    def __init__(
        self, source: SimplicialModel, target: SimplicialModel, image_word, image_cell, name="map"
    ):
        self.source = source
        self.target = target
        self.name = name
        self.image_word = tuple(_frozen(a) for a in image_word)
        self.image_cell = tuple(_frozen(a) for a in image_cell)
        self._violations = None

    def __repr__(self):
        return f"SimplicialMap({self.name}: {self.source.name} -> {self.target.name})"

    def push(self, dim: int, words, cells):
        """Images of a batch of dimension-dim source targets, as (word masks, cells)."""
        words = np.asarray(words, dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int64)
        out_w = np.empty_like(words)
        out_c = np.empty_like(cells)
        for outer, sel in _groups(words):
            core = dim - outer.bit_count()
            out_w[sel] = _compose_table(outer, core)[self.image_word[core][cells[sel]]]
            out_c[sel] = self.image_cell[core][cells[sel]]
        return out_w, out_c

    def validate(self) -> list[str]:
        """Faces that do not commute with the map, checked once per map; the
        result is cached."""
        return _checked_once(self)

    def _violations_found(self) -> list[str]:
        """What checked_images refuses, or else the faces that do not
        commute: the images of each degree are grouped by word once, and
        every face taken of them reuses that grouping."""
        blocks = list(zip(self.image_word, self.image_cell, repeat({})))
        bad = checked_images(self.source, self.target, blocks)[2]
        if bad:
            return bad
        src = self.source
        for n in range(1, src.max_degree + 1):
            wrong = np.zeros((src.cells[n], n + 1), dtype=bool)
            groups = _index_groups(self.image_word[n])
            for i in range(n + 1):
                lw, lc = self.target._grouped_faces(n, groups, self.image_cell[n], i)
                rw, rc = self.push(n - 1, src.face_word[n][:, i], src.face_cell[n][:, i])
                wrong[:, i] = (lw != rw) | (lc != rc)
            bad.extend(
                f"degree {n} cell {c}: face {i} does not commute"
                for c, i in np.argwhere(wrong).tolist()
            )
        return bad

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise ValidationError(f"map {self.name}: {bad[0]}")

    def pullback(self, u: Cochain) -> Cochain:
        if u.model is not self.target:
            raise ModelMismatchError("pullback: cochain not on the map's target")
        words, cells = self.image_word[u.degree], self.image_cell[u.degree]
        vals = np.zeros(cells.size, dtype=np.uint8)
        plain = words == 0
        vals[plain] = u.values[cells[plain]]
        return Cochain._computed(self.source, u.degree, vals)

    @classmethod
    def identity(cls, model: SimplicialModel) -> "SimplicialMap":
        cells = [np.arange(c, dtype=np.int64) for c in model.cells]
        return cls(model, model, [np.zeros_like(c) for c in cells], cells, "id")


class Involution(SimplicialMap):
    """A free simplicial automorphism of order two: a map from its model to
    itself whose targets are all plain, so every image word is 0 and
    image_cell[n], also called perms[n], permutes the n-cells.

    validate checks the permutations, then the faces as for any map, once;
    the result is cached as for every map.  _lifts holds what _double_cover
    last derived from the permutations (see there).
    """

    def __init__(self, model: SimplicialModel, perms, name="involution"):
        perms = [_frozen(p) for p in perms]
        # np.zeros, not zeros_like: large zero arrays then stay untouched pages
        words = [np.zeros(p.shape, dtype=np.int64) for p in perms]
        super().__init__(model, model, words, perms, name)
        self.model = model
        self.perms = self.image_cell
        self._lifts = None

    def _violations_found(self) -> list[str]:
        count = self.model.max_degree + 1
        if len(self.perms) != count:
            return [f"expected {count} permutations, got {len(self.perms)}"]
        bad = []
        for n, perm in enumerate(self.perms):
            if perm.shape != (self.model.cells[n],):
                bad.append(f"degree {n}: permutation size mismatch")
                continue
            if not np.array_equal(np.sort(perm), np.arange(self.model.cells[n])):
                bad.append(f"degree {n}: not a permutation")
                continue
            if not np.array_equal(perm[perm], np.arange(self.model.cells[n])):
                bad.append(f"degree {n}: does not square to the identity")
            if np.any(perm == np.arange(self.model.cells[n])):
                bad.append(f"degree {n}: fixed cell found")
        return bad or super()._violations_found()

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise ValidationError(f"involution {self.name}: {bad[0]}")


# -- products ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _run_order(n: int) -> tuple:
    """(core degree, word mask) of every dimension-n word, in the order of
    the runs of _target_table: by core degree, then by letters."""
    return tuple(
        (m, _mask(combo)) for m in range(n + 1) for combo in combinations(range(n), n - m)
    )


def _target_runs(cells, n: int):
    """Where the targets of each word lie among the dimension-n targets of a
    model with the given cell counts, in _target_table's order: per word
    mask, the position of its first target (-1 when the word cannot occur)
    and the count of its targets, the cells of its core degree."""
    first = np.full(1 << n, -1, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    total = 0
    for m, mask in _run_order(n):
        if m >= len(cells):
            break
        first[mask] = total
        count[mask] = cells[m]
        total += cells[m]
    return first, count


def _target_table(model: SimplicialModel, n: int):
    """Every dimension-n target of model as arrays (word masks, cells), in a
    deterministic order, plus, per mask, the position of its first target (-1
    when the word cannot occur)."""
    first, count = _target_runs(model.cells, n)
    masks = np.flatnonzero(count)
    masks = masks[np.argsort(first[masks])]
    words = np.repeat(masks, count[masks])
    return words, np.arange(words.size) - np.repeat(first[masks], count[masks]), first


class ProductModel:
    """Categorical product of models a and b truncated at up_to.

    Nondegenerate n-cells are pairs of decorated targets with disjoint
    degeneracy words (the shuffle description of Eilenberg-Zilber).  With
    targets_a[n], targets_b[n] the tables of _target_table, the n-cell k is
    the pair at positions (x, y) with keys[n][k] = x * len(targets_b) + y;
    keys grow with the cell.  left and right are the projections.
    """

    def __init__(self, a: SimplicialModel, b: SimplicialModel, up_to: int, name: str):
        self.targets_a = [_target_table(a, n) for n in range(up_to + 1)]
        self.targets_b = [_target_table(b, n) for n in range(up_to + 1)]
        self.keys = [
            np.flatnonzero((ta[0][:, None] & tb[0][None, :]) == 0)
            for ta, tb in zip(self.targets_a, self.targets_b)
        ]
        self.name = name
        face_word, face_cell = [_no_faces(self.keys[0].size)], [_no_faces(self.keys[0].size)]
        for n in range(1, up_to + 1):
            ta, tb = self.targets_a[n], self.targets_b[n]
            x, y = np.divmod(self.keys[n], tb[0].size)
            fw = np.empty((x.size, n + 1), dtype=np.int64)
            fc = np.empty_like(fw)
            for i in range(n + 1):
                aw, ac = a.face_batch(n, ta[0], ta[1], i)
                bw, bc = b.face_batch(n, tb[0], tb[1], i)
                aw, ac, bw, bc = aw[x], ac[x], bw[y], bc[y]
                # letters both faces carry become the face's own word
                common = aw & bw
                fw[:, i] = common
                for mask, sel in _groups(common):
                    saw, sac, sbw, sbc = aw[sel], ac[sel], bw[sel], bc[sel]
                    d = n - 1
                    for pos in _word(mask):
                        saw, sac = a.face_batch(d, saw, sac, pos)
                        sbw, sbc = b.face_batch(d, sbw, sbc, pos)
                        d -= 1
                    fc[sel, i] = self.cell_of(d, saw, sac, sbw, sbc)
            face_word.append(fw)
            face_cell.append(fc)
        cells = [k.size for k in self.keys]
        self.model = SimplicialModel(up_to, cells, face_word, face_cell, name=name)
        aw, ac, bw, bc = zip(*map(self.coordinates, range(up_to + 1)))
        self.left = SimplicialMap(self.model, a, aw, ac, "left")
        self.right = SimplicialMap(self.model, b, bw, bc, "right")

    def coordinates(self, n: int):
        """The two targets of every n-cell, as arrays (a words, a cells, b words, b cells)."""
        ta, tb = self.targets_a[n], self.targets_b[n]
        x, y = np.divmod(self.keys[n], tb[0].size)
        return ta[0][x], ta[1][x], tb[0][y], tb[1][y]

    def cell_of(self, n: int, aw, ac, bw, bc):
        """The n-cells with the given coordinates (word masks and cells of
        dimension-n targets on a and on b); arrays or scalars alike."""
        ta, tb, keys = self.targets_a[n], self.targets_b[n], self.keys[n]
        key = (ta[2][aw] + ac) * tb[0].size + tb[2][bw] + bc
        pos = np.searchsorted(keys, key)
        if not np.all(pos < keys.size) or np.any(keys[pos] != key):
            raise ValidationError(f"{self.name}: a face of a product cell is not a product cell")
        return pos


def product(a: SimplicialModel, b: SimplicialModel, up_to: int, name=None) -> ProductModel:
    """Categorical product truncated at up_to; see ProductModel."""
    if up_to > a.max_degree + b.max_degree:
        raise ValidationError("product truncation exceeds summed degrees")
    return ProductModel(a, b, up_to, name or f"{a.name}x{b.name}")


def product_involution(
    prod: ProductModel,
    inv_a: Involution | None,
    inv_b: Involution | None,
    name="product involution",
) -> Involution:
    """The involution acting factorwise on a product (None = identity factor)."""
    perms = []
    for n in range(prod.model.max_degree + 1):
        aw, ac, bw, bc = prod.coordinates(n)
        if inv_a:
            ac = _through(n, aw, ac, inv_a.perms)
        if inv_b:
            bc = _through(n, bw, bc, inv_b.perms)
        perms.append(prod.cell_of(n, aw, ac, bw, bc))
    return Involution(prod.model, perms, name)


def swap_factors(prod: ProductModel, name="swap") -> Involution:
    """Swap of the two coordinates of a self-product X x X."""
    perms = []
    for n in range(prod.model.max_degree + 1):
        aw, ac, bw, bc = prod.coordinates(n)
        perms.append(prod.cell_of(n, bw, bc, aw, ac))
    return Involution(prod.model, perms, name)


# -- double covers -----------------------------------------------------------


@dataclass
class CoverPair:
    """A model, its free involution, and the quotient with projection data;
    the cache keeps results keyed by a type over the pair.

    _double_cover derives every field after the first four from the
    involution and base_index, the base cell under each cover cell: the
    representative lift of a base cell is the lower-numbered cell of its
    fiber, the other cell is on sheet 1, the projection sends each cover
    cell to its base cell under the empty word, and w1 is 1 on the base
    edges whose lift joins the two sheets.
    """

    cover: SimplicialModel
    base: SimplicialModel
    projection: SimplicialMap
    involution: Involution
    w1: Cochain  # degree-1 characteristic cocycle on the base
    sheet: list  # per degree, 0/1 per cover cell
    rep_cells: list  # per degree, cover index of each base cell's chosen lift
    base_index: list  # per degree, base index per cover cell
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def descend_invariant(self, u: Cochain) -> Cochain:
        """Push an involution-invariant cochain down to the base."""
        if u.model is not self.cover:
            raise ModelMismatchError("descend: cochain not on the cover")
        if not np.array_equal(u.values[self.involution.perms[u.degree]], u.values):
            raise ValidationError("descend: cochain is not involution-invariant")
        return Cochain._computed(self.base, u.degree, u.values[self.rep_cells[u.degree]])

    def twisted_faces(self, k: int) -> FaceTable:
        """The boundary on base chains with integer coefficients twisted by
        w1, as a signed face table: the base's, with a sign flipped where
        the face of the cell's representative lift lies on sheet 1.  A
        degenerate face, whose lift is degenerate too, keeps its sign 0
        whatever sheet the clipped take reads for it."""
        plain = self.base.signed_faces(k)
        lifted = self.cover.face_index(k)[:, self.rep_cells[k]]
        flip = self.sheet[k - 1].take(lifted, mode="clip")
        return FaceTable(plain.faces, np.where(flip, -plain.signs, plain.signs), plain.rows)


def _double_cover(
    cover: SimplicialModel,
    base: SimplicialModel,
    involution: Involution,
    base_index,
    w1: Cochain | None = None,
) -> CoverPair:
    """The pair of a cover and its free involution over base, where the
    n-cell c of the cover lies over the base cell base_index[n][c]; w1 is
    derived from the sheets unless given.  See CoverPair for the fields.

    Refuses an involution on any model but the cover, and base_index unless
    each fiber is one orbit of the involution.  The checks and the sheet and
    rep_cells arrays depend only on the involution, base_index and the base
    cell counts, so the involution keeps them with the last base_index
    sequence and counts it was given: a call with that same sequence object
    (a cover_from_cocycle memo hit) checks and derives nothing.  The
    projection shares the involution's zero word arrays.
    """
    if involution.model is not cover:
        raise ModelMismatchError("the involution does not act on the cover model")
    lifts = involution._lifts
    if lifts is None or lifts[0] is not base_index or lifts[1] != base.cells:
        sheet, reps = [], []
        for n, (perm, bidx) in enumerate(zip(involution.perms, base_index)):
            split = np.bincount(bidx, minlength=base.cells[n]) != 2
            split[bidx[bidx[perm] != bidx]] = True
            if split.any():
                raise ValidationError(
                    f"degree {n}: fiber over cell {int(np.argmax(split))}"
                    " is not a single free orbit"
                )
            idx = np.arange(perm.size)
            lower = np.flatnonzero(idx < perm)
            rep = np.empty(lower.size, dtype=np.int64)
            rep[bidx[lower]] = lower
            sheet.append(_frozen(idx > perm, np.uint8))
            reps.append(_frozen(rep))
        involution._lifts = (base_index, base.cells, tuple(sheet), tuple(reps))
    sheet, reps = involution._lifts[2:]
    if w1 is None:
        ends = cover.face_cell[1][reps[1]]
        w1 = Cochain(base, 1, sheet[0][ends[:, 0]] ^ sheet[0][ends[:, 1]])
    projection = SimplicialMap(cover, base, involution.image_word, base_index, "projection")
    return CoverPair(
        cover, base, projection, involution, w1, list(sheet), list(reps), list(base_index)
    )


def quotient_free_involution(
    cover: SimplicialModel, inv: Involution, allow_trivial: bool = False, name=None
) -> CoverPair:
    """Quotient by a free involution; the base carries the characteristic w1.

    The base n-cells are the orbits, numbered as their lower cells are.  The
    base is read off the involution's own model, which the pair then
    requires to be the cover.
    """
    inv.require_valid()
    name = name or f"{cover.name}/T"
    model = inv.model
    lower = [np.flatnonzero(np.arange(p.size) < p) for p in inv.perms]
    base_index = []
    for perm, low in zip(inv.perms, lower):
        bidx = np.empty(perm.size, dtype=np.int64)
        bidx[low] = bidx[perm[low]] = np.arange(low.size)
        base_index.append(_frozen(bidx))
    cells = [low.size for low in lower]
    face_word, face_cell = [_no_faces(cells[0])], [_no_faces(cells[0])]
    for n in range(1, model.max_degree + 1):
        fw = model.face_word[n][lower[n]]
        face_word.append(fw)
        face_cell.append(_through(n - 1, fw, model.face_cell[n][lower[n]], base_index))
    base = SimplicialModel(model.max_degree, cells, face_word, face_cell, name=name)
    pair = _double_cover(cover, base, inv, base_index)
    if not allow_trivial and is_coboundary(pair.w1):
        raise TrivialCoverError(
            f"{name}: characteristic cocycle is null-cohomologous"
            " (the double cover is trivial)"
        )
    return pair


def cover_from_cocycle(
    base: SimplicialModel, w: Cochain, allow_trivial: bool = False, name=None
) -> CoverPair:
    """Build the double cover classified by a degree-1 cocycle.

    Cover cell 2c + e is the lift of base cell c to sheet e; a face keeps the
    sheet, except d_0, which changes it when w is 1 on the front edge.

    The parts that depend only on the base and the cocycle values (the cover
    model, the deck involution and base_index) are built once per base,
    cocycle values and name, and kept in the base's cache as _CoverParts;
    the involution keeps what _double_cover derives from them.  None of them
    refers to the base, so the base and its cache form no reference cycle.
    Each call checks w again and builds a new projection and a new pair,
    whose cache is its own and whose w1 is this call's w.
    """
    if w.model is not base or w.degree != 1:
        raise ModelMismatchError("cover_from_cocycle needs a degree-1 cochain on base")
    if not coboundary(w).is_zero():
        raise ValidationError("cover_from_cocycle: the cochain is not a cocycle")
    if not allow_trivial:
        if is_coboundary(w):
            raise TrivialCoverError("cocycle is null-cohomologous; cover is trivial")
    name = name or f"{base.name}^w"
    key = ("cover", w.values.tobytes(), name)
    if key not in base._cache:
        base._cache[key] = _cover_parts(base, w, name)
    parts = base._cache[key]
    return _double_cover(parts.cover, base, parts.involution, parts.base_index, w)


@dataclass(frozen=True, eq=False)
class _CoverParts:
    """What cover_from_cocycle keeps per base, cocycle values and name."""

    cover: SimplicialModel
    involution: Involution
    base_index: tuple


def _cover_parts(base: SimplicialModel, w: Cochain, name: str) -> _CoverParts:
    """The cover model of cover_from_cocycle, from the face arrays of the
    base, with its deck involution and base_index."""
    cells = [2 * c for c in base.cells]
    face_word, face_cell = [_no_faces(cells[0])], [_no_faces(cells[0])]
    for n in range(1, base.max_degree + 1):
        front_w, front_c = base.subfaces(n, (0, 1))
        twist = np.zeros(base.cells[n], dtype=np.int64)
        edges = front_w == 0
        twist[edges] = w.values[front_c[edges]]
        fc = 2 * np.repeat(base.face_cell[n], 2, axis=0)
        fc += (np.arange(cells[n]) % 2)[:, None]
        fc[:, 0] ^= np.repeat(twist, 2)
        face_word.append(np.repeat(base.face_word[n], 2, axis=0))
        face_cell.append(fc)
    cover = SimplicialModel(base.max_degree, cells, face_word, face_cell, name=name)
    return _CoverParts(
        cover,
        Involution(cover, [np.arange(c) ^ 1 for c in cells], "deck"),
        tuple(_frozen(np.arange(c) // 2) for c in cells),
    )


def relabel_model(model: SimplicialModel, rng: np.random.Generator):
    """Apply random per-degree cell permutations; returns (model, perms).

    perms[n][old_index] = new_index.  Used to check that pipeline outputs are
    invariant under the arbitrary cell numbering.
    """
    perms = [rng.permutation(model.cells[n]) for n in range(model.max_degree + 1)]
    face_word, face_cell = [_no_faces(model.cells[0])], [_no_faces(model.cells[0])]
    for n in range(1, model.max_degree + 1):
        fw = np.empty_like(model.face_word[n])
        fc = np.empty_like(model.face_cell[n])
        fw[perms[n]] = model.face_word[n]
        fc[perms[n]] = _through(n - 1, model.face_word[n], model.face_cell[n], perms)
        face_word.append(fw)
        face_cell.append(fc)
    name = f"{model.name}~"
    return SimplicialModel(model.max_degree, model.cells, face_word, face_cell, name=name), perms
