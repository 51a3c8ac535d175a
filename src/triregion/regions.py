"""Triangular regions cut out by monomial ideals.

A region of side d holds the degree d-1 (upward triangle) and degree d-2
(downward triangle) monomials surviving outside an ideal.  Punctures,
balance, monomial subregions and the over-puncturing coefficient are all
derived from those label sets by divisibility arithmetic; geometry enters
only in the SVG renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .monomials import (
    Monomial,
    MonomialIdeal,
    _check_degree,
    monomials_of_degree,
    revlex_key,
)


class Balance(Enum):
    DOWN_HEAVY = "down-heavy"
    UP_HEAVY = "up-heavy"
    BALANCED = "balanced"


class PunctureRelation(Enum):
    OVERLAPPING = "Overlapping"
    TOUCHING = "Touching"
    DISJOINT = "Disjoint"


@dataclass(frozen=True)
class Puncture:
    """An upward gap of the region, one per minimal generator of degree < d."""

    generator: Monomial
    side_length: int
    boundary_contact: bool
    floating: bool

    def __post_init__(self):
        if self.side_length < 1:
            raise ValueError("puncture side length must be positive")
        if self.boundary_contact and self.floating:
            raise ValueError("a boundary puncture cannot float")


@dataclass(frozen=True)
class TriangularRegion:
    """Label sets of a side-d triangular region.

    Two regions compare equal when they have the same side length and label
    sets; the ideal they were built from is provenance only.
    """

    d: int
    up_labels: frozenset[Monomial]
    down_labels: frozenset[Monomial]
    source_ideal: MonomialIdeal = field(compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("region side length must be positive")
        for m in self.up_labels:
            if m.degree() != self.d - 1 or self.source_ideal.contains(m):
                raise ValueError(f"invalid up label {m}")
        for m in self.down_labels:
            if m.degree() != self.d - 2 or self.source_ideal.contains(m):
                raise ValueError(f"invalid down label {m}")

    def up_sorted(self) -> list[Monomial]:
        return sorted(self.up_labels, key=revlex_key)

    def down_sorted(self) -> list[Monomial]:
        return sorted(self.down_labels, key=revlex_key)

    def is_empty(self) -> bool:
        return not self.up_labels and not self.down_labels


def build_region(ideal: MonomialIdeal, d: int) -> TriangularRegion:
    """The side-d region whose labels are the degree d-1 and d-2 standard monomials."""
    if d < 1:
        raise ValueError("region side length must be positive")
    _check_degree(d)
    up = frozenset(ideal.standard_monomials(d - 1))
    down = frozenset(ideal.standard_monomials(d - 2)) if d >= 2 else frozenset()
    return TriangularRegion(d, up, down, ideal)


def triangle_counts(region: TriangularRegion) -> tuple[int, int, Balance]:
    """(#down, #up, classification) for the region."""
    down, up = len(region.down_labels), len(region.up_labels)
    if down > up:
        cls = Balance.DOWN_HEAVY
    elif up > down:
        cls = Balance.UP_HEAVY
    else:
        cls = Balance.BALANCED
    return down, up, cls


def monomial_ideal_of_region(region: TriangularRegion) -> MonomialIdeal:
    """The largest ideal with generators of degree < d cutting out exactly this region.

    A monomial qualifies as a generator candidate exactly when it divides no
    surviving label, i.e. all its multiples in degrees d-2 and d-1 are gone;
    the minimal candidates are collected degree by degree.
    """
    divisors: set[tuple[int, int, int]] = set()
    for label in region.up_labels | region.down_labels:
        for a in range(label.a + 1):
            for b in range(label.b + 1):
                for c in range(label.c + 1):
                    divisors.add((a, b, c))
    gens: list[Monomial] = []
    for j in range(region.d):
        for m in monomials_of_degree(j):
            if m.exponents() in divisors:
                continue
            if any(g.divides(m) for g in gens):
                continue
            gens.append(m)
    return MonomialIdeal.from_generators(gens)


def relate_punctures(m1: Monomial, m2: Monomial, d: int) -> PunctureRelation:
    """How the side-(d - deg) punctures of two distinct generators interact."""
    if m1 == m2:
        raise ValueError("puncture relation requires distinct monomials")
    if m1.degree() >= d or m2.degree() >= d:
        raise ValueError("both monomials must have degree below the region side")
    lcm_degree = m1.lcm(m2).degree()
    if lcm_degree <= d - 1:
        return PunctureRelation.OVERLAPPING
    if lcm_degree == d:
        return PunctureRelation.TOUCHING
    return PunctureRelation.DISJOINT


def puncture_list(region: TriangularRegion) -> list[Puncture]:
    """One puncture per minimal generator of the region's ideal, flags included.

    Non-floating punctures form the least set containing every puncture with
    boundary contact (a zero exponent in its generator) and closed under
    overlapping or touching; the rest float.  The fixed point does not
    depend on enumeration order.
    """
    region_ideal = monomial_ideal_of_region(region)
    gens = list(region_ideal.generators)
    non_floating = {g for g in gens if 0 in g.exponents()}
    changed = True
    while changed:
        changed = False
        for g in gens:
            if g in non_floating:
                continue
            if any(
                relate_punctures(g, h, region.d) != PunctureRelation.DISJOINT
                for h in tuple(non_floating)
            ):
                non_floating.add(g)
                changed = True
    return [
        Puncture(
            generator=g,
            side_length=region.d - g.degree(),
            boundary_contact=0 in g.exponents(),
            floating=g not in non_floating,
        )
        for g in gens
    ]


def monomial_subregion(region: TriangularRegion, m: Monomial) -> TriangularRegion:
    """The part of the region lying inside the puncture position of m.

    Labels divisible by m survive, re-expressed after dividing m out; the
    result is the side-(d - deg m) region of the colon ideal.
    """
    if m.degree() >= region.d:
        raise ValueError(
            f"subregion monomial must have degree below {region.d}, got {m} of degree {m.degree()}"
        )
    up = frozenset(l.divide_by(m) for l in region.up_labels if m.divides(l))
    down = frozenset(l.divide_by(m) for l in region.down_labels if m.divides(l))
    return TriangularRegion(
        region.d - m.degree(), up, down, region.source_ideal.colon(m)
    )


def overpuncturing(region: TriangularRegion) -> int:
    """Total puncture side length minus the region side (0 = perfectly punctured).

    Computed from the region's own ideal, so overlapping input presentations
    normalize away.
    """
    region_ideal = monomial_ideal_of_region(region)
    return sum(region.d - g.degree() for g in region_ideal.generators) - region.d


def overpuncturing_ideal(ideal: MonomialIdeal, d: int) -> int:
    """Side-length sum of the ideal's own degree-< d generators, minus d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return sum(d - g.degree() for g in ideal.generators if g.degree() < d) - d


def region_json(region: TriangularRegion) -> dict:
    """JSON-ready dump: labels and punctures in descending revlex order."""
    return {
        "d": region.d,
        "up": [str(m) for m in region.up_sorted()],
        "down": [str(m) for m in region.down_sorted()],
        "punctures": [
            {
                "generator": str(p.generator),
                "side": p.side_length,
                "floating": p.floating,
            }
            for p in sorted(puncture_list(region), key=lambda p: revlex_key(p.generator))
        ],
    }
