"""Constructors for explicit families with the weak Lefschetz property.

Given admissible generator degrees, these build ideals whose side-d
regions have pairwise disjoint punctures, perfect puncturing and even
floating punctures, so the strong criterion of :mod:`triregion.stability`
applies; the regions tile, so ``criterion_check`` certifies WLP and semistability.
The constructors re-validate every numeric condition instead of trusting
the closed formulas, so a bad parameter choice fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .monomials import Monomial, MonomialIdeal

#: Recorded deviation: the z-exponent of the fifth generator is computed as
#: d3 + d4 + d5 - 2d - 2; the naively transcribed positive form would exceed
#: the degree budget of that generator.
FIFTH_GENERATOR_NOTE = "fifth generator z-exponent computed as d3+d4+d5-2d-2"


class FamilyConstructionError(ValueError):
    """A degree vector that cannot yield a valid family ideal."""


@dataclass(frozen=True)
class FamilySpec:
    """An admissible degree vector d_1, ..., d_t (t >= 3).

    The degree sum must be divisible by t-1, the resulting d must exceed
    every d_i, and at most three of the gaps d - d_i may be odd.
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        t = len(self.degrees)
        if t < 3:
            raise FamilyConstructionError("need at least three generator degrees")
        if any(deg < 1 for deg in self.degrees):
            raise FamilyConstructionError("degrees must be positive")
        total = sum(self.degrees)
        if total % (t - 1) != 0:
            raise FamilyConstructionError(
                f"degree sum {total} is not divisible by t-1 = {t - 1}"
            )
        d = total // (t - 1)
        if any(deg >= d for deg in self.degrees):
            raise FamilyConstructionError(f"every degree must be below d = {d}")
        odd = sum(1 for deg in self.degrees if (d - deg) % 2 != 0)
        if odd > 3:
            raise FamilyConstructionError(
                f"{odd} of the gaps d - d_i are odd; at most three are allowed"
            )

    @property
    def t(self) -> int:
        return len(self.degrees)

    @property
    def d(self) -> int:
        return sum(self.degrees) // (self.t - 1)


def _validate_family(ideal: MonomialIdeal, degrees: list[int], d: int) -> None:
    """Check minimality, degrees, disjoint punctures and parity; raise otherwise."""
    gens = ideal.generators
    if len(gens) != len(degrees):
        raise FamilyConstructionError(
            f"expected {len(degrees)} minimal generators, got {len(gens)}"
        )
    if sorted(g.degree() for g in gens) != sorted(degrees):
        raise FamilyConstructionError("generator degrees do not match the requested vector")
    for g, h in combinations(gens, 2):
        if g.lcm(h).degree() < d + 1:
            raise FamilyConstructionError(
                f"lcm({g}, {h}) has degree {g.lcm(h).degree()} < {d + 1}; punctures meet"
            )
    for g in gens:
        if not g.is_pure_power() and (d - g.degree()) % 2 != 0:
            raise FamilyConstructionError(f"generator {g} leaves an odd gap {d - g.degree()}")


def _checked(index: int, a: int, b: int, c: int, expected_degree: int) -> Monomial:
    if min(a, b, c) < 0:
        raise FamilyConstructionError(
            f"generator {index} has a negative exponent: ({a}, {b}, {c})"
        )
    m = Monomial(a, b, c)
    if m.degree() != expected_degree:
        raise FamilyConstructionError(
            f"generator {index} has degree {m.degree()}, expected {expected_degree}"
        )
    return m


def example_family(spec: FamilySpec) -> MonomialIdeal:
    """The general family ideal for an admissible degree vector.

    Degrees are re-indexed so the three corner generators x^d1, y^d2, z^d3
    absorb every odd gap with d3 smallest among them, and the remaining
    degrees (all even gaps) feed the mixed-generator formulas.  Both the
    corner assignment and the tail run in descending degree order, with
    ties kept in input order.
    """
    d = spec.d
    odd = [deg for deg in spec.degrees if (d - deg) % 2 != 0]
    even = sorted(
        (deg for deg in spec.degrees if (d - deg) % 2 == 0), reverse=True
    )
    corners = sorted(odd + even[: 3 - len(odd)], reverse=True)
    tail = even[3 - len(odd):]
    d1, d2, d3 = corners
    ds = [None, d1, d2, d3] + tail  # 1-based indexing to match the formulas

    gens = [Monomial(d1, 0, 0), Monomial(0, d2, 0), Monomial(0, 0, d3)]
    t = spec.t
    if t >= 4:
        gens.append(_checked(4, d - d3, 1, -d - 1 + d3 + ds[4], ds[4]))
    if t >= 5:
        gens.append(
            _checked(5, 2 * d - d3 - ds[4], 2, -2 * d - 2 + d3 + ds[4] + ds[5], ds[5])
        )
    for i in range(6, t + 1):
        z_exp = -d * (i - 3) - 1 + sum(ds[3 : i + 1])
        if i % 2 == 0:
            a = d - d3
            b = 1 + sum(d - ds[k] for k in range(4, i))
        else:
            a = -1 + sum(d - ds[k] for k in range(3, i))
            b = 2
        gens.append(_checked(i, a, b, z_exp, ds[i]))

    ideal = MonomialIdeal.from_generators(gens)
    _validate_family(ideal, list(spec.degrees), d)
    return ideal


def convenient_degrees(t: int, d: int) -> FamilySpec:
    """The degree vector 2t-4, d-1, d-1, d-2, ..., d-2 used by ``convenient_family``."""
    if t < 3:
        raise FamilyConstructionError("need t >= 3")
    if d < 2 * t - 3:
        raise FamilyConstructionError(f"need d >= 2t-3 = {2 * t - 3}, got {d}")
    return FamilySpec((2 * t - 4, d - 1, d - 1) + (d - 2,) * (t - 3))


def convenient_family(t: int, d: int) -> MonomialIdeal:
    """The simpler closed-form family for t >= 3 generators and d >= 2t-3.

    For t = 3 it degenerates to the three corner generators alone.
    """
    spec = convenient_degrees(t, d)  # validates t and d
    gens = [Monomial(2 * t - 4, 0, 0), Monomial(0, d - 1, 0), Monomial(0, 0, d - 1)]
    if t >= 4:
        gens.append(_checked(4, 1, 1, d - 4, d - 2))
    if t >= 5:
        gens.append(_checked(5, 3, 2, d - 7, d - 2))
    for i in range(6, t + 1):
        if i % 2 == 0:
            gens.append(_checked(i, 1, 2 * i - 7, d + 4 - 2 * i, d - 2))
        else:
            gens.append(_checked(i, 2 * i - 8, 2, d + 4 - 2 * i, d - 2))
    ideal = MonomialIdeal.from_generators(gens)
    _validate_family(ideal, list(spec.degrees), d)
    return ideal
