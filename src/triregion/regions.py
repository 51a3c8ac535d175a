"""Triangular regions cut out by monomial ideals.

A region of side d holds the degree d-1 (upward triangle) and degree d-2
(downward triangle) monomials surviving outside an ideal.  Punctures,
balance, monomial subregions and the over-puncturing coefficient are all
derived from those label sets by divisibility arithmetic; geometry enters
only in the SVG renderer.

Labels are never compared pair by pair.  For each label degree D a count
table N[j][c][b] holds how many labels are divisible by x^(j-b-c) y^b z^c,
for every j <= D.  It is filled from degree D down by inclusion-exclusion,
N(m) = N(mx) + N(my) + N(mz) - N(mxy) - N(mxz) - N(myz) + N(mxyz), so it
costs O(1) per monomial and O(d^3) per region, and it lives only for the
call that builds it.  The region's ideal (and with it the punctures and
the over-puncturing coefficient) and the structural tileability scan in
``tilings`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .monomials import Monomial, MonomialIdeal, _check_degree, revlex_key


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

    A region is its labels: up labels of degree d-1 and down labels of
    degree d-2.  It keeps no ideal; ``monomial_ideal_of_region`` recovers
    the largest one that cuts it out.
    """

    d: int
    up_labels: frozenset[Monomial]
    down_labels: frozenset[Monomial]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("region side length must be positive")
        for m in self.up_labels:
            if m.degree() != self.d - 1:
                raise ValueError(f"invalid up label {m}")
        for m in self.down_labels:
            if m.degree() != self.d - 2:
                raise ValueError(f"invalid down label {m}")

    def up_sorted(self) -> list[Monomial]:
        return sorted(self.up_labels, key=revlex_key)

    def down_sorted(self) -> list[Monomial]:
        return sorted(self.down_labels, key=revlex_key)

    def is_empty(self) -> bool:
        return not self.up_labels and not self.down_labels


def build_region(ideal: MonomialIdeal, d: int) -> TriangularRegion:
    """The side-d region whose labels are the degree d-1 and d-2 standard
    monomials, both read off one staircase of the ideal."""
    if d < 1:
        raise ValueError("region side length must be positive")
    _check_degree(d)
    up, down = ideal._standard_in(d - 1, d - 2)
    return TriangularRegion(d, frozenset(up), frozenset(down))


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


def _divisor_counts(labels: frozenset[Monomial], degree: int) -> list[list[list[int]]]:
    """Count table of degree-``degree`` labels: ``N[j][c][b]`` is the number
    of labels divisible by x^(j-b-c) y^b z^c, for 0 <= j <= degree.

    The top layer marks the labels themselves; every lower layer follows
    from the three above it by inclusion-exclusion over x, y and z.
    """
    if degree < 0:
        return []
    zero = [[0] * (degree + 3)] * (degree + 3)
    table = [zero, zero, [[0] * (degree - c + 1) for c in range(degree + 1)]]
    for m in labels:
        table[2][m.c][m.b] = 1
    for j in range(degree - 1, -1, -1):
        n3, n2, n1 = table[-3:]
        layer = []
        for c in range(j + 1):
            # N(mx), N(my) from n1[c]; N(mz) from n1[c + 1]; N(mxy) from
            # n2[c]; N(mxz), N(myz) from n2[c + 1]; N(mxyz) from n3[c + 1].
            x1, z1, y2, z2, z3 = n1[c], n1[c + 1], n2[c], n2[c + 1], n3[c + 1]
            layer.append([
                x1[b] + x1[b + 1] + z1[b] - y2[b + 1] - z2[b] - z2[b + 1] + z3[b + 1]
                for b in range(j - c + 1)
            ])
        table.append(layer)
    return table[:1:-1]


def monomial_ideal_of_region(region: TriangularRegion) -> MonomialIdeal:
    """The largest ideal with generators of degree < d cutting out exactly this region.

    A monomial qualifies as a generator candidate exactly when it divides no
    surviving label, i.e. its up and down counts are both 0.  Candidates are
    closed under multiplication, so a candidate is a minimal generator
    exactly when each m/v (v a variable dividing m) divides some label.
    """
    d = region.d
    up = _divisor_counts(region.up_labels, d - 1)
    down = _divisor_counts(region.down_labels, d - 2)

    def divides_a_label(j: int, c: int, b: int) -> bool:
        return up[j][c][b] > 0 or (j <= d - 2 and down[j][c][b] > 0)

    gens: list[Monomial] = []
    for j in range(d):
        for c in range(j + 1):
            for b in range(j - c + 1):
                a = j - b - c
                if divides_a_label(j, c, b):
                    continue
                if (
                    (a and not divides_a_label(j - 1, c, b))
                    or (b and not divides_a_label(j - 1, c, b - 1))
                    or (c and not divides_a_label(j - 1, c - 1, b))
                ):
                    continue
                gens.append(Monomial(a, b, c))
    return MonomialIdeal(tuple(sorted(gens, key=revlex_key)))


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
    result is a side-(d - deg m) region, the one the colon ideal (I : m)
    cuts out when I cuts out this region.
    """
    if m.degree() >= region.d:
        raise ValueError(
            f"subregion monomial must have degree below {region.d}, got {m} of degree {m.degree()}"
        )
    up = frozenset(l.divide_by(m) for l in region.up_labels if m.divides(l))
    down = frozenset(l.divide_by(m) for l in region.down_labels if m.divides(l))
    return TriangularRegion(region.d - m.degree(), up, down)


def overpuncturing(region: TriangularRegion) -> int:
    """Total puncture side length minus the region side (0 = perfectly punctured).

    Computed from the region's own ideal, so overlapping input presentations
    normalize away.
    """
    return overpuncturing_ideal(monomial_ideal_of_region(region), region.d)


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
