"""Workload small-types: a seeded sweep of normal 1-types on small groups.

Base models are normalized bar models of Z/2, Z/4 and Z/2xZ/2 to depth 6
and of the dihedral group of order 8 to depth 5, one per group, shared by
every type on that group.  w1 runs over the nonzero characters; w2 runs over
the cup products of two characters (the trivial one included) and, on Z/4,
the mod-2 carry class.  Each pass perturbs every w2 by the coboundary of a
fresh seeded random 1-cochain (a bar model has one vertex, so w1 has no
coboundary to add) and gives each type its own cover from w1.

All cochains are computed here from the group tables, and the expected
outcome of each type is predicted from the cohomology rings
  Z/2: F2[x]    Z/4: F2[x,y]/(x^2)    Z/2xZ/2: F2[a,b]    D8: F2[x,y,w]/(xy)
(x, y, a, b in degree 1, y on Z/4 and w in degree 2): a nonzero primary
class w1^3 + w1 w2 gives clause 2, otherwise w2 = w1^2 gives clause 3, and
a type that passes both must reach the secondary stage (clause 5 or later).
"""

from __future__ import annotations

import gc
from itertools import product

import numpy as np

import stexo.builders as builders
import stexo.obstruction as obstruction
from stexo.simplicial import Cochain

STAGES = ("cover", "decide", "replay")


def _d8_mul(a: int, b: int) -> int:
    # element r + 4 f is rotation^r flip^f; a flip inverts the rotation it passes
    r1, f1, r2, f2 = a % 4, a // 4, b % 4, b // 4
    return (r1 + (r2 if f1 == 0 else -r2)) % 4 + 4 * (f1 ^ f2)


GROUPS = (
    ("z2", [[a ^ b for b in range(2)] for a in range(2)], 6),
    ("z4", [[(a + b) % 4 for b in range(4)] for a in range(4)], 6),
    ("z2xz2", [[a ^ b for b in range(4)] for a in range(4)], 6),
    ("d8", [[_d8_mul(a, b) for b in range(8)] for a in range(8)], 5),
)
# the rings' degree-1 and degree-2 generators used here, and the monomials
# (exponent tuples) the relations kill
RINGS = {
    "z2": (1, lambda m: False),  # F2[x]
    "z4": (2, lambda m: m[0] >= 2),  # F2[x, y]/(x^2)
    "z2xz2": (2, lambda m: False),  # F2[a, b]
    "d8": (2, lambda m: m[0] > 0 and m[1] > 0),  # F2[x, y, w]/(xy), w unused
}


# -- polynomials over F2: sets of exponent tuples -----------------------------


def _mul(p: frozenset, q: frozenset, zero) -> frozenset:
    out: set = set()
    for a in p:
        for b in q:
            m = tuple(x + y for x, y in zip(a, b))
            if not zero(m):
                out ^= {m}
    return frozenset(out)


def _add(p: frozenset, q: frozenset) -> frozenset:
    return p ^ q


def _gen(k: int, n: int) -> frozenset:
    return frozenset({tuple(int(i == k) for i in range(n))})


def _order(table, g: int) -> int:
    k, x = 1, g
    while x != 0:
        x, k = table[x][g], k + 1
    return k


class Group:
    """A bar model plus its characters, w2 candidates and ring images."""

    def __init__(self, name: str, table, depth: int):
        self.name, self.table, self.depth = name, table, depth
        self.ngens, self.zero = RINGS[name]
        n = len(table)
        self.chars = [
            chi
            for chi in ((0,) + bits for bits in product((0, 1), repeat=n - 1))
            if all(chi[table[a][b]] == chi[a] ^ chi[b] for a in range(n) for b in range(n))
        ]
        self.ring_of = self._ring_images()  # character -> degree-1 polynomial
        # w2 candidates: (values on 2-cells, ring element), distinct cochains
        self.w2s: list = []
        for i, a in enumerate(self.chars):
            for b in self.chars[i:]:
                vals = np.array(
                    [a[g] & b[h] for g in range(1, n) for h in range(1, n)], dtype=np.uint8
                )
                if not any(np.array_equal(vals, v) for v, _ in self.w2s):
                    self.w2s.append((vals, _mul(self.ring_of[a], self.ring_of[b], self.zero)))
        if name == "z4":
            carry = [int(g + h >= 4) for g in range(1, n) for h in range(1, n)]
            self.w2s.append((np.array(carry, dtype=np.uint8), _gen(1, 2)))
        self.model = None

    def _ring_images(self) -> dict:
        n = len(self.table)
        x, y = _gen(0, self.ngens), _gen(self.ngens - 1, self.ngens)
        if self.name in ("z2", "z4"):
            # the one nonzero character is x
            return {chi: (x if any(chi) else frozenset()) for chi in self.chars}
        if self.name == "z2xz2":
            # a = x and b = y are dual to the generators 1 and 2
            return {
                chi: _add(x if chi[1] else frozenset(), y if chi[2] else frozenset())
                for chi in self.chars
            }
        # D8: x + y is the character that vanishes on the rotations of order 4
        fours = [g for g in range(1, n) if _order(self.table, g) == 4]
        nonzero = [c for c in self.chars if any(c)]
        xy = next(c for c in nonzero if not any(c[g] for g in fours))
        cx, cy = [c for c in nonzero if c != xy]
        return {self.chars[0]: frozenset(), cx: x, cy: y, xy: _add(x, y)}

    def coboundary_of(self, f: np.ndarray) -> np.ndarray:
        """delta f on 2-cells (g, h): f(g) + f(gh) + f(h), with f(1) = 0."""
        n = len(self.table)
        full = np.concatenate([[0], f]).astype(np.uint8)
        return np.array(
            [full[g] ^ full[self.table[g][h]] ^ full[h] for g in range(1, n) for h in range(1, n)],
            dtype=np.uint8,
        )

    def predict(self, w1, w2_ring) -> int:
        """Clause predicted by the ring: 2, 3, or 5 for 'reaches the secondary stage'."""
        x = self.ring_of[w1]
        sq = _mul(x, x, self.zero)
        primary = _add(_mul(sq, x, self.zero), _mul(x, w2_ring, self.zero))
        if primary:
            return 2
        return 3 if not _add(w2_ring, sq) else 5

    def swap(self, poly: frozenset) -> frozenset:
        """The outer automorphism of D8 on the ring: x <-> y."""
        return frozenset((m[1], m[0]) for m in poly)


class Workload:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.groups = [Group(*g) for g in GROUPS]
        self.types = [
            (grp, w1, k)
            for grp in self.groups
            for w1 in grp.chars
            if any(w1)
            for k in range(len(grp.w2s))
        ]

    def setup(self) -> None:
        for grp in self.groups:
            grp.model = builders.bar_b(grp.table, grp.depth, name=f"bar-{grp.name}")
        # fill each shared model's caches with one type that goes deepest
        for grp in self.groups:
            w1, k = max(
                ((w1, k) for g, w1, k in self.types if g is grp),
                key=lambda t: grp.predict(t[0], grp.w2s[t[1]][1]),
            )
            nt = self._type(grp, w1, grp.w2s[k][0])
            cover = obstruction.cover_data_from_w1(nt)
            verdict = obstruction.decide(nt, cover)
            obstruction.replay_evidence(verdict, nt, cover)

    def _type(self, grp: Group, w1, w2_vals) -> obstruction.NormalOneType:
        m = grp.model
        return obstruction.NormalOneType(
            m,
            Cochain(m, 1, np.array(w1[1:], dtype=np.uint8)),
            Cochain(m, 2, w2_vals),
            name=f"{grp.name}-type",
        )

    def run_pass(self, p) -> None:
        inputs = []
        for grp, w1, k in self.types:
            f = self.rng.integers(0, 2, len(grp.table) - 1)
            inputs.append(grp.w2s[k][0] ^ grp.coboundary_of(f))
        outcomes = {}
        for (grp, w1, k), w2_vals in zip(self.types, inputs):
            with p.stage("cover"):
                nt = self._type(grp, w1, w2_vals)
                cover = obstruction.cover_data_from_w1(nt)
            p.op()
            with p.stage("decide"):
                verdict = obstruction.decide(nt, cover)
            p.op()
            with p.stage("replay"):
                replayed = obstruction.replay_evidence(verdict, nt, cover)
            p.op(replayed)
            want = grp.predict(w1, grp.w2s[k][1])
            got = verdict.clause
            p.check(
                got == want if want < 5 else got >= 5 and grp.name == "d8",
                f"{grp.name} w1={w1} w2#{k}: clause {got}, ring predicts {want}",
            )
            outcomes[(grp.name, w1, k)] = verdict.outcome
            # a spent cover is freed by the cycle collector; run it now, untimed,
            # so that the peak RSS does not depend on when it would have run
            del nt, cover, verdict
            gc.collect()
        self._check_d8_symmetry(p, outcomes)
        p.info["types"] = len(self.types)

    def _check_d8_symmetry(self, p, outcomes: dict) -> None:
        grp = next(g for g in self.groups if g.name == "d8")
        classes = {}
        for g, w1, k in self.types:
            if g is grp:
                key = (grp.ring_of[w1], grp.w2s[k][1])
                classes.setdefault(key, set()).add(outcomes[("d8", w1, k)])
        for (r1, r2), seen in classes.items():
            partner = classes.get((grp.swap(r1), grp.swap(r2)), set())
            p.check(
                len(seen | partner) == 1,
                f"d8: types swapped by the outer automorphism disagree: {seen | partner}",
            )
