"""Named example inputs exercised by the test suite, reports and the CLI.

Every entry is built from scratch on first use and cached for the process
lifetime, so repeated lookups share cohomology bases and cup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .builders import (
    bar_b,
    bar_e_z2,
    bar_hom_map,
    circle,
    dihedral8_table,
    fundamental_class_cochain,
    k_z2_2,
    z2_table,
)
from .errors import InternalInvariantError
from .obstruction import (
    Assertion,
    LiftDatum,
    NormalOneType,
    SectionDatum,
    cover_data_from_pair,
    cover_data_from_w1,
    primary_vanishes,
)
from .simplicial import (
    Cochain,
    CoverPair,
    SimplicialMap,
    SimplicialModel,
    cover_from_cocycle,
    cup,
    is_coboundary,
    product,
    product_involution,
    quotient_free_involution,
    swap_factors,
)


@dataclass
class Fixture:
    name: str
    description: str
    nt: NormalOneType | None = None
    cover: CoverPair | None = None
    section: SectionDatum | None = None
    lift_data: tuple = ()
    stress_model: SimplicialModel | None = None
    stress_cochain: Cochain | None = None
    notes: tuple = ()


@lru_cache(maxsize=None)
def rp_w2_zero(depth: int = 6) -> Fixture:
    """Order-two fundamental group, orientation class cubes to the obstruction."""
    base = bar_b(z2_table(), depth, name="bar-z2")
    w1 = Cochain(base, 1, np.ones(1, dtype=np.uint8))
    w2 = Cochain.zero(base, 2)
    nt = NormalOneType(base, w1, w2, name="rp-w2-zero")
    return Fixture(
        "rp-w2-zero",
        "cyclic order 2, w2 = 0; the degree-3 class w1^3 is nonzero",
        nt=nt,
        cover=cover_data_from_w1(nt),
    )


@lru_cache(maxsize=None)
def rp_kreck(depth: int = 6) -> Fixture:
    """Order-two fundamental group with w2 = w1^2."""
    base = bar_b(z2_table(), depth, name="bar-z2")
    w1 = Cochain(base, 1, np.ones(1, dtype=np.uint8))
    nt = NormalOneType(base, w1, cup(w1, w1), name="rp-kreck")
    return Fixture(
        "rp-kreck",
        "cyclic order 2 with w2 = w1^2",
        nt=nt,
        cover=cover_data_from_w1(nt),
        section=SectionDatum(SimplicialMap.identity(base)),
    )


@lru_cache(maxsize=None)
def z2_remark(depth: int = 4) -> Fixture:
    """Rank-two free abelian group, nonorientable type, dimension assertion."""
    c = circle(2)
    t2 = product(c, c, depth, name="torus")
    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    e1 = t2.left.pullback(e)
    e2 = t2.right.pullback(e)
    nt = NormalOneType(
        t2.model,
        e1,
        cup(e1, e2),
        name="z2-remark",
        cd_at_most_3=Assertion(True, "free abelian of rank 2 acts on the plane"),
    )
    return Fixture(
        "z2-remark",
        "free abelian rank 2 with w1 the first coordinate class",
        nt=nt,
    )


@lru_cache(maxsize=None)
def z2_secondary() -> Fixture:
    """Rank-two free abelian group packaged for the secondary stage.

    The torus model is padded to degree 5 so every degree-4 statement is
    certified; all the relevant groups vanish up there, which makes this the
    smallest input that walks the whole secondary branch to a positive answer.
    """
    c = circle(3)
    t2 = product(c, c, 5, name="torus-deep")
    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    e1 = t2.left.pullback(e)
    e2 = t2.right.pullback(e)
    nt = NormalOneType(t2.model, e1, cup(e1, e2), name="z2-secondary")
    pair = cover_from_cocycle(t2.model, e1)

    loop = circle(5)
    edge_cell = t2.cell_of(1, 0, 0, 1, 0)  # the circle's edge paired with s_0 of its vertex
    cells = [[0], [edge_cell]] + [[] for _ in range(4)]
    words = [[0] * len(c) for c in cells]
    sec = SimplicialMap(loop, t2.model, words, cells, "first-factor-loop")
    return Fixture(
        "z2-secondary",
        "free abelian rank 2 driven through the lift and section stage",
        nt=nt,
        cover=cover_data_from_pair(nt, pair),
        section=SectionDatum(sec),
    )


@lru_cache(maxsize=None)
def z4_semidirect() -> Fixture:
    """Rank-four free abelian group extended by a factor-swapping involution.

    The cover is a four-torus model crossed with a contractible two-sheet
    model; the deck transformation swaps the two torus factors and flips the
    sheets, so the quotient is a classifying-space model for the extension.
    """
    c = circle(3)
    t2 = product(c, c, 3, name="torus2")
    t4 = product(t2.model, t2.model, 5, name="torus4")
    emodel, flip = bar_e_z2(5)
    cov = product(t4.model, emodel, 5, name="torus4-sheets")
    deck = product_involution(cov, swap_factors(t4), flip, name="deck")
    pair = quotient_free_involution(cov.model, deck, name="z4-semidirect-base")

    e = Cochain(c, 1, np.ones(1, dtype=np.uint8))
    t1 = cov.left.pullback(t4.left.pullback(t2.left.pullback(e)))
    t2c = cov.left.pullback(t4.left.pullback(t2.right.pullback(e)))
    u = cup(t1, t2c)
    v = u + deck.pullback(u)
    w2 = pair.descend_invariant(v)
    nt = NormalOneType(pair.base, pair.w1, w2, name="z4-semidirect")
    notes = ["w2 is the descent of the invariant cochain t1 t2 + T(t1 t2)"]
    if not primary_vanishes(nt):
        w2 = w2 + cup(pair.w1, pair.w1)
        nt = NormalOneType(pair.base, pair.w1, w2, name="z4-semidirect")
        notes = ["w2 is the descended invariant cochain corrected by w1^2"]
        if not primary_vanishes(nt):
            raise InternalInvariantError(
                "neither w2 candidate kills the primary class"
            )
    return Fixture(
        "z4-semidirect",
        "free abelian rank 4 extended by a swap; the secondary class obstructs",
        nt=nt,
        cover=cover_data_from_pair(nt, pair),
        lift_data=(LiftDatum(u, 0, "pullback of t1 t2"),),
        notes=tuple(notes),
    )


@lru_cache(maxsize=None)
def d4_reflection(depth: int = 5) -> Fixture:
    """Dihedral group of order 8 with w2 = x^2 + y^2 and a reflection section.

    The two degree-one characters x, y with [x][y] = 0 are found by search;
    w1 = x keeps the primary class zero while w2 differs from w1^2, so the
    pipeline has to consult the secondary stage.
    """
    table = dihedral8_table()
    base = bar_b(table, depth, name="bar-d8")
    chars = []
    for chi in (lambda g: g & 1, lambda g: g >> 2, lambda g: (g & 1) ^ (g >> 2)):
        vals = np.array([chi(g) for g in range(1, 8)], dtype=np.uint8)
        chars.append(Cochain(base, 1, vals))
    pairs = [
        (a, b)
        for a in range(3)
        for b in range(3)
        if a != b and is_coboundary(cup(chars[a], chars[b]))
    ]
    if not pairs:
        raise InternalInvariantError("no vanishing character product found")
    xc, yc = chars[pairs[0][0]], chars[pairs[0][1]]
    w2 = cup(xc, xc) + cup(yc, yc)
    nt = NormalOneType(base, xc, w2, name="d4-reflection")

    refl = next(
        g
        for g in range(1, 8)
        if table[g][g] == 0 and xc.values[g - 1] == 1 and yc.values[g - 1] == 0
    )
    src = bar_b(z2_table(), depth, name="bar-z2")
    sec = bar_hom_map(src, z2_table(), base, table, [0, refl], name="reflection")
    return Fixture(
        "d4-reflection",
        "dihedral order 8, w2 = x^2 + y^2, section through a reflection",
        nt=nt,
        cover=cover_data_from_w1(nt),
        section=SectionDatum(sec),
        notes=(f"section through element {refl}",),
    )


@lru_cache(maxsize=None)
def k2_stress(depth: int = 6) -> Fixture:
    """Eilenberg-MacLane model in degree 2, used as a Steenrod stress input."""
    model = k_z2_2(depth)
    iota = fundamental_class_cochain(model)
    return Fixture(
        "k2-stress",
        "degree-2 Eilenberg-MacLane model; exercises squares on wide degrees",
        stress_model=model,
        stress_cochain=iota,
    )


REGISTRY = {
    "rp-w2-zero": (rp_w2_zero, "cyclic order 2 with w2 = 0"),
    "rp-kreck": (rp_kreck, "cyclic order 2 with w2 = w1^2"),
    "z2-remark": (z2_remark, "free abelian rank 2, nonorientable"),
    "z2-secondary": (z2_secondary, "rank 2 resolved through the secondary stage"),
    "z4-semidirect": (z4_semidirect, "rank 4 free abelian twisted by a swap"),
    "d4-reflection": (d4_reflection, "dihedral order 8 with a reflection section"),
    "k2-stress": (k2_stress, "Eilenberg-MacLane stress model"),
}


def get_fixture(name: str) -> Fixture:
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[name][0]()


def fixture_documents(name: str) -> dict:
    """ModelDocuments for a fixture: always a base entry, a cover when present.

    Lift data become cover cochains named lift-<index>; a section becomes a
    base map named section.  canonical_bytes writes each document.
    """
    from .modelfile import model_document

    fx = get_fixture(name)
    if fx.nt is None:
        return {
            "base": model_document(
                fx.stress_model, cochains={"iota": fx.stress_cochain}
            )
        }
    maps = {}
    if fx.section is not None:
        maps["section"] = fx.section.s
    docs = {
        "base": model_document(
            fx.nt.base,
            cochains={"w1": fx.nt.w1, "w2": fx.nt.w2},
            maps=maps,
            cd_at_most_3=fx.nt.cd_at_most_3,
            h5_zero=fx.nt.h5_zero,
        )
    }
    if fx.cover is not None:
        docs["cover"] = model_document(
            fx.cover.cover,
            cochains={f"lift-{d.index}": d.a for d in fx.lift_data},
            involution=fx.cover.involution,
            maps={"projection": fx.cover.projection},
        )
    return docs
