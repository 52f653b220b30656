"""Cohomology bases over GF(2), induced maps, and integral homology.

Truncation honesty: a degree-k cohomology basis is only certified when the
model stores (k+1)-cells, since closedness of k-cochains is otherwise
unverifiable.  Callers that accept uncertified answers must opt in, and the
result reads truncated off its degree.

Every class question reduces residues modulo the model's coboundary_span(k),
the one reduction of B^k: residues are linear and zero exactly on
coboundaries.  A basis reduces the residues of all closed cochains
(coboundary_span(k+1)'s relations) once and keeps its pivot vectors, the
closed cochains whose residues are independent of the earlier ones'.
Coordinates are coefficients over the span of the representatives' residues.

Coordinate matrices hold one row per cochain: row j of coords_matrix is the
coordinate vector of cochains[j], and row j of induced_matrix is the source
coordinate vector of the pullback of target representative j.  So a matrix
of f^* reads as the images of the target basis, the span of its rows is
the image of f^*, and the matrix of (g f)^* is that of g^* times that of
f^* (F2Matrix.matmul).

The model's cache holds only that reduction (the representatives' values and
the span of their residues), which refers to no model; each cohomology_basis
call returns a new CohomologyBasis view of it on the model.  A model and its
caches thus form no reference cycle, and a dropped model is freed by
reference counting alone.

Integral homology, plain or twisted by w1, reads the signed face tables of
the model (SimplicialModel.signed_faces) or of the cover pair
(CoverPair.twisted_faces): snf checks each composite boundary_p @
boundary_{p+1} = 0 on the two tables, and each boundary is reduced once
per call (_chain_homologies).  integral_homology and twisted_homology ask
for one degree, twisted_integral_homologies for a run of them.  A result
keeps boundary p and what reducing p + 1 left, which generators finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelMismatchError, TruncationError, ValidationError
from .gf2 import F2Matrix, Subspace, xor_combine
from .simplicial import Cochain, CoverPair, SimplicialMap, SimplicialModel, coboundary_values
from .snf import AbelianGroupInvariants, FaceTable, HomologyResult, homology_from_reductions


@dataclass(frozen=True, eq=False)
class BasisReduction:
    """The model-free part of a degree-k basis, as cached on the model: the
    representatives' values, one read-only row each, and the class span of
    the representatives."""

    reps: np.ndarray
    span: Subspace


@dataclass
class CohomologyBasis:
    """A chosen basis of H^k(model; GF(2)) with a coordinate oracle: a view of
    the model's cached reduction."""

    model: SimplicialModel
    degree: int
    reduction: BasisReduction

    @property
    def truncated(self) -> bool:
        return self.degree >= self.model.max_degree

    @property
    def dim(self) -> int:
        return len(self.reduction.reps)

    @cached_property
    def reps(self) -> list:
        return [Cochain(self.model, self.degree, row) for row in self.reduction.reps]

    def _coords(self, cochains) -> np.ndarray:
        """Coordinates of a batch of cochains, one row each: the coefficients
        of their residues over the representatives' residues.  Below the top
        degree, one batched coboundary checks that every cochain is closed."""
        for u in cochains:
            if u.model is not self.model or u.degree != self.degree:
                raise ModelMismatchError("coords: cochain does not match the basis")
        values = np.array([u.values for u in cochains], dtype=np.uint8)
        values = values.reshape(len(cochains), self.model.n_cells(self.degree))
        if not self.truncated and coboundary_values(self.model, self.degree, values.T).any():
            raise ValidationError("coords: cochain is not closed")
        return self.reduction.span.combination(_residues(self.model, self.degree, values))

    def coords(self, u: Cochain) -> np.ndarray:
        return self._coords([u])[0]

    def coords_matrix(self, cochains) -> F2Matrix:
        """Matrix whose row j holds the coordinates of cochains[j]."""
        return F2Matrix.from_dense(self._coords(cochains))

    def class_from_coords(self, coords) -> Cochain:
        coords = np.asarray(coords, dtype=np.uint8)[None] & 1
        values = xor_combine(coords, self.reduction.reps)[0]
        return Cochain._computed(self.model, self.degree, values)


def cohomology_basis(
    model: SimplicialModel, degree: int, allow_truncated: bool = False
) -> CohomologyBasis:
    if degree < 0 or degree > model.max_degree:
        raise TruncationError(f"{model.name}: no cochains stored in degree {degree}")
    if not allow_truncated:
        require_certified(model, degree)
    key = ("hbasis", degree)
    if key not in model._cache:
        model._cache[key] = _reduction(model, degree)
    return CohomologyBasis(model, degree, model._cache[key])


def require_certified(model: SimplicialModel, degree: int) -> None:
    """Raise unless (k+1)-cells certify that degree-k cochains are closed."""
    if degree + 1 > model.max_degree:
        raise TruncationError(
            f"{model.name}: degree {degree} cohomology needs cells in degree"
            f" {degree + 1} to certify closedness"
        )


def _reduction(model: SimplicialModel, degree: int) -> BasisReduction:
    n = model.n_cells(degree)
    if degree < model.max_degree:
        closed = model.coboundary_span(degree + 1).relations.to_dense()
    else:
        closed = np.eye(n, dtype=np.uint8)
    # a closed row is kept when its residue is a pivot vector of all of them
    residues = _residues(model, degree, closed)
    kept = sorted(Subspace.from_vectors(n, residues).pivot_rows)
    reps = closed[kept]
    reps.setflags(write=False)
    return BasisReduction(reps, Subspace.from_vectors(n, residues[kept]))


def _residues(model: SimplicialModel, degree: int, rows) -> np.ndarray:
    """The residues modulo the coboundaries of degree-k cochains, one row of
    values each."""
    rows = np.asarray(rows, dtype=np.uint8).reshape(len(rows), model.n_cells(degree))
    return model.coboundary_span(degree).residual(rows)


def class_span(model: SimplicialModel, degree: int, rows) -> Subspace:
    """The span of the classes of degree-k cochains: that of their residues."""
    return Subspace.from_vectors(model.n_cells(degree), _residues(model, degree, rows))


def in_class_span(span: Subspace, u: Cochain) -> bool:
    """Whether the class of u lies in a class span of u's model and degree."""
    return span.contains(u.model.coboundary_span(u.degree).residual(u.values))


def mod2_betti(model: SimplicialModel, degree: int) -> int:
    return cohomology_basis(model, degree).dim


def induced_matrix(f: SimplicialMap, degree: int):
    """Matrix of f^* on degree-k cohomology, one row per target basis class.

    Returns (matrix, source_basis, target_basis); row j of matrix holds the
    source coordinates of the pullback of target representative j.
    """
    src = cohomology_basis(f.source, degree)
    tgt = cohomology_basis(f.target, degree)
    return src.coords_matrix([f.pullback(rep) for rep in tgt.reps]), src, tgt


def truncated_at_top(model: SimplicialModel, p: int, coeff: str) -> bool:
    """Whether the cell counts alone show that H_p with coefficients "F2",
    or integers plain or twisted, cannot be certified: at the top degree
    nothing divides out cycles, so mod 2 any p-cell stops it, and over Z a
    boundary with fewer rows than columns.  The homology functions raise for
    these before they build a matrix."""
    if p + 1 <= model.max_degree:
        return False
    if coeff == "F2":
        return model.cells[p] > 0
    return p >= 1 and model.cells[p - 1] < model.cells[p]


def _chain_homologies(model: SimplicialModel, degrees, faces, message: str) -> dict:
    """Homology of the pairs faces(p), faces(p + 1) for each p of degrees,
    within the truncation: p -> HomologyResult, or the TruncationError that
    degree raises.  faces(k) is the face table of boundary k.  Each table is
    built and reduced at most once in the call, so a run of degrees reduces
    each boundary once; nothing is kept past it.  message is the text of a
    truncation, formatted with the model's name, p and q = p + 1.

    With no (p+1)-chains stored the answer is certified only when nothing can
    be divided out; truncated_at_top refuses what the cell counts rule out
    before any table is built, and a free part left after the reduction is
    refused too.
    """
    top = model.max_degree
    reduced = {}

    def boundary(k: int):
        """The table of boundary k (zero at k = 0 and past the top) and its
        reduction (FaceTable.reduce)."""
        if k not in reduced:
            if k == 0:
                table = FaceTable.zero(0, model.cells[0])
            elif k > top:
                table = FaceTable.zero(model.cells[top], 0)
            else:
                table = faces(k)
            reduced[k] = table, table.reduce()
        return reduced[k]

    results = {}
    for p in degrees:
        text = message.format(name=model.name, p=p, q=p + 1)
        try:
            _require_chains(model, p)
            if truncated_at_top(model, p, "Z"):
                raise TruncationError(text)
            (bout, out), (bin_, in_) = boundary(p), boundary(p + 1)
            res = homology_from_reductions(bout, bin_, out, in_)
            if p == top and res.invariants.free_rank:
                raise TruncationError(text)
            results[p] = res
        except TruncationError as exc:
            # kept without its traceback, whose frame holds results: a
            # reference cycle would keep the boundaries and models alive
            # until the cyclic garbage collector ran
            results[p] = exc.with_traceback(None)
    return results


def _one(results: dict, p: int) -> HomologyResult:
    """The result for degree p of _chain_homologies, raising its error."""
    res = results[p]
    if isinstance(res, TruncationError):
        raise res
    return res


def _require_chains(model: SimplicialModel, p: int) -> None:
    if p < 0 or p > model.max_degree:
        raise TruncationError(f"{model.name}: no chains stored in degree {p}")


def integral_homology(model: SimplicialModel, p: int, check: bool = True) -> HomologyResult:
    """H_p with integer coefficients, certified within the truncation.

    The boundary composite is always checked; check is accepted and changes
    nothing.
    """
    message = "{name}: H_{p} needs degree-{q} chains to divide out boundaries"
    return _one(_chain_homologies(model, [p], model.signed_faces, message), p)


def twisted_homology(
    pair: CoverPair, p: int, coeff: str = "Z-", check: bool = True
) -> AbelianGroupInvariants:
    """H_p of the base with coefficients Z- (w1-twisted) or F2.

    As in integral_homology, check is accepted and changes nothing.
    """
    base = pair.base
    if coeff == "F2":
        _require_chains(base, p)
        if truncated_at_top(base, p, "F2"):
            raise TruncationError(f"{base.name}: mod-2 H_{p} needs degree-{p + 1} cells")
        d = base.cells[p] - base.coboundary_span(p).dim
        if p < base.max_degree:
            d -= base.coboundary_span(p + 1).dim
        return AbelianGroupInvariants(0, (2,) * d)
    if coeff != "Z-":
        raise ValidationError(f"unknown coefficient system {coeff!r}")
    return _one(twisted_integral_homologies(pair, [p]), p).invariants


def twisted_integral_homologies(pair: CoverPair, degrees) -> dict:
    """H_p of the base with integer coefficients twisted by w1, for each p of
    degrees, certified within the truncation: p -> HomologyResult, or the
    TruncationError that degree raises.  Each twisted boundary is reduced
    once in the call; cycle generators are built from a result on demand."""
    message = "{name}: twisted H_{p} needs degree-{q} chains"
    return _chain_homologies(pair.base, degrees, pair.twisted_faces, message)
