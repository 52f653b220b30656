"""Workload group-homology: integral and twisted group homology by Smith form.

One pass computes, with the boundary-composite check on, H_1..H_5(G; Z) of
the depth-6 bar models of Z/4 and Z/2xZ/2, and H_0..H_5(Z/4; Z-) twisted by
the nontrivial character.  The degree-5 groups reduce 243 x 729 integer
boundary matrices.  The inputs do not depend on the seed.

Checks against closed forms, not against the program:
  H_n(Z/4; Z)       = Z/4 for odd n, 0 for even n > 0
  H_n(Z/4; Z-)      = Z/2 for even n, 0 for odd n
  H_n(Z/2xZ/2; Z)   = (Z/2)^((n+3)/2) for odd n, (Z/2)^(n/2) for even n > 0
and the universal-coefficient count dim H_n(G; F2) = r_n + t_n + t_{n-1}
(r free rank, t the number of even torsion factors) against the mod-2 Betti
numbers, 1 for Z/4 and n + 1 for Z/2xZ/2.
"""

from __future__ import annotations

import numpy as np

import stexo.builders as builders
import stexo.cohomology as cohomology
import stexo.simplicial as simplicial

STAGES = ("homology",)
DEPTH = 6
Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
V4 = [[a ^ b for b in range(4)] for a in range(4)]


def _z4(n: int) -> tuple:
    return (0, (4,) if n % 2 else ())


def _v4(n: int) -> tuple:
    return (0, (2,) * ((n + 3) // 2 if n % 2 else n // 2))


def _z4_twisted(n: int) -> tuple:
    return (0, () if n % 2 else (2,))


def _even_torsion(inv) -> int:
    return sum(1 for t in inv.torsion if t % 2 == 0)


class Workload:
    def __init__(self, seed: int):
        pass  # the groups are fixed; the seed selects nothing here

    def setup(self) -> None:
        self.models = {
            "z4": (builders.bar_b(Z4, DEPTH, name="bar-z4"), _z4, lambda n: 1),
            "z2xz2": (builders.bar_b(V4, DEPTH, name="bar-z2xz2"), _v4, lambda n: n + 1),
        }
        z4 = self.models["z4"][0]
        parity = simplicial.Cochain(z4, 1, np.array([g % 2 for g in range(1, 4)]))
        self.pair = simplicial.cover_from_cocycle(z4, parity)
        # the mod-2 Betti numbers the checks compare against; the timed
        # homology calls use no cohomology cache
        self.betti = {
            name: [cohomology.mod2_betti(model, n) for n in range(DEPTH)]
            for name, (model, _, _) in self.models.items()
        }

    def run_pass(self, p) -> None:
        results = {}
        for name, (model, _, _) in self.models.items():
            for n in range(1, DEPTH):
                with p.stage("homology"):
                    res = cohomology.integral_homology(model, n, check=True)
                p.op()
                results[(name, n)] = res.invariants
        for n in range(0, DEPTH):
            with p.stage("homology"):
                inv = cohomology.twisted_homology(self.pair, n, "Z-", check=True)
            p.op()
            results[("z4-", n)] = inv

        with p.checking():
            for name, (_, closed, betti) in self.models.items():
                for n in range(1, DEPTH):
                    inv = results[(name, n)]
                    got = (inv.free_rank, tuple(inv.torsion))
                    p.check(got == closed(n), f"H_{n}({name}) = {inv}")
                    below = 0 if n == 1 else _even_torsion(results[(name, n - 1)])
                    uct = inv.free_rank + _even_torsion(inv) + below
                    b = self.betti[name][n]
                    p.check(
                        uct == b == betti(n),
                        f"{name}: UCT count {uct}, mod-2 Betti {b}, expected {betti(n)}"
                        f" in degree {n}",
                    )
            for n in range(0, DEPTH):
                inv = results[("z4-", n)]
                got = (inv.free_rank, tuple(inv.torsion))
                p.check(got == _z4_twisted(n), f"H_{n}(Z/4; Z-) = {inv}")
        p.info["groups"] = len(results)
