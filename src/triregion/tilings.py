"""Lozenge tilings: existence, structural criterion, and exact enumeration.

A lozenge pairs a downward triangle with an adjacent upward triangle, so a
tiling of a region is a perfect matching between its down and up labels
under the relation "up = variable * down".  Three independent routes decide
tileability: greedy then augmenting-path matching, the no-heavy-subregion
criterion, and exhaustive enumeration.  Enumeration runs the matching
counter of `triregion.matrices`; the exact count in polynomial time is
``permanent(biadjacency(region))``, the determinant of the Kasteleyn
signing that `triregion.regions` reads off the region's holes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .matrices import TilingCount, _count_perfect_matchings
from .monomials import Monomial, MonomialIdeal, _texts, monomials_of_degree, revlex_key
from .regions import (
    Balance,
    TriangularRegion,
    _adjacency,
    monomial_ideal_of_region,
    overpuncturing_ideal,
    triangle_counts,
)

#: Default ceiling for exhaustive enumeration.
ENUMERATION_CAP = 1_000_000

#: The exponent steps from a lozenge's down label to its up label.
_VARIABLE_STEPS = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})


@dataclass(frozen=True, slots=True)
class Lozenge:
    """One rhombus: a down label glued to the up label above, left or right of it."""

    down_label: Monomial
    up_label: Monomial

    def __post_init__(self):
        up, down = self.up_label, self.down_label
        if (up.a - down.a, up.b - down.b, up.c - down.c) not in _VARIABLE_STEPS:
            raise ValueError(
                f"{self.up_label} is not adjacent to {self.down_label}"
            )

    def direction(self) -> Monomial:
        """The variable connecting the two labels."""
        return self.up_label.divide_by(self.down_label)


@dataclass(frozen=True)
class Tiling:
    """A set of lozenges; ``find_tiling`` hands over their order by down
    label, which is otherwise sorted once, on first use."""

    lozenges: frozenset[Lozenge]

    @cached_property
    def _order(self) -> tuple[Lozenge, ...]:
        return tuple(sorted(self.lozenges, key=lambda l: revlex_key(l.down_label)))

    def sorted_lozenges(self) -> list[Lozenge]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self.lozenges)


@dataclass(frozen=True)
class StructuralTileability:
    """Outcome of the no-heavy-subregion criterion, with a witness on failure."""

    tileable: bool
    unbalanced: bool
    heavy_witness: Monomial | None


def find_tiling(region: TriangularRegion) -> Tiling | None:
    """A lozenge tiling if one exists: a greedy pass, then augmenting paths.

    First each down label, in descending revlex order, takes its first free
    up neighbour in x, y, z order; on most regions, hexagons included, that
    already tiles.  Each down label left unmatched then gets an augmenting
    path through the matching so far, in the same orders, depth first.  A
    root with no augmenting path proves there is no tiling: the down labels
    its alternating paths reach have fewer up neighbours than themselves
    (Hall's condition fails, as in Berge's theorem).  Every search keeps its
    own stack, so no region is too deep for it.  The empty region yields
    the empty tiling.
    """
    if len(region.down_labels) != len(region.up_labels):
        return None
    downs, ups, neighbors = _adjacency(region)
    matched_up = [-1] * len(ups)
    roots = []
    for mu, near in enumerate(neighbors):
        for nu in near:
            if matched_up[nu] < 0:
                matched_up[nu] = mu
                break
        else:
            roots.append(mu)
    for root in roots:
        seen: set[int] = set()
        # path[i] is a down label on the search path; tried[i] counts the
        # neighbours it has tried, the last of them leading to path[i + 1].
        path, tried = [root], [0]
        while path:
            options, k = neighbors[path[-1]], tried[-1]
            while k < len(options) and options[k] in seen:
                k += 1
            if k == len(options):
                path.pop()
                tried.pop()
                continue
            nu = options[k]
            seen.add(nu)
            tried[-1] = k + 1
            if matched_up[nu] < 0:
                for step, count in zip(path, tried):
                    matched_up[neighbors[step][count - 1]] = step
                break
            path.append(matched_up[nu])
            tried.append(0)
        else:
            return None
    order: list = [None] * len(downs)
    for nu, mu in enumerate(matched_up):
        order[mu] = Lozenge(downs[mu], ups[nu])
    tiling = Tiling(frozenset(order))
    vars(tiling)["_order"] = tuple(order)  # the cached order, not a field
    return tiling


def validate_tiling(region: TriangularRegion, tiling: Tiling) -> None:
    """Raise unless the tiling covers every label of the region exactly once."""
    downs = [l.down_label for l in tiling.lozenges]
    ups = [l.up_label for l in tiling.lozenges]
    if len(set(downs)) != len(downs) or len(set(ups)) != len(ups):
        raise ValueError("tiling reuses a triangle")
    if set(downs) != region.down_labels or set(ups) != region.up_labels:
        raise ValueError("tiling does not cover the region exactly")


def enumerate_tilings(region: TriangularRegion, cap: int = ENUMERATION_CAP) -> TilingCount:
    """Number of tilings by backtracking, forced lozenges first.

    Each tiling is a perfect matching of down labels to adjacent up labels.
    After every placement each triangle, up or down, left with one free
    neighbour takes it, so the search branches only on the down label with
    the fewest free neighbours and rarely reaches a dead end; it keeps its
    own stack, so no region is too deep for it.  When the count passes
    ``cap`` the search stops and the result is flagged as a lower bound
    instead of silently truncating.  The search is exponential in general,
    but its time follows the tilings it counts, so the cap bounds it in
    practice: the d = 21 hexagon stops at ``cap=1000`` within a tenth of a
    second.  ``permanent(biadjacency(region))`` gives the exact count in
    polynomial time.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if len(region.down_labels) != len(region.up_labels):
        return TilingCount(0, True)
    return _count_perfect_matchings(_adjacency(region)[2], cap)


def _divisor_counts(labels: frozenset[Monomial], degree: int) -> Iterator[list[list[int]]]:
    """The count table of degree-``degree`` labels, one layer N[j] at a time
    from j = ``degree`` down to 0: N[j][c][b] is the number of labels
    divisible by x^(j-b-c) y^b z^c.  The top layer marks the labels; each
    lower one follows from the three above it by inclusion-exclusion over
    x, y and z, so three layers are kept: O(degree^3) time, O(degree^2) memory.
    """
    if degree < 0:
        return
    zero = [[0] * (degree + 3)] * (degree + 3)
    n3, n2, n1 = zero, zero, [[0] * (degree - c + 1) for c in range(degree + 1)]
    for m in labels:
        n1[m.c][m.b] = 1
    yield n1
    for j in range(degree - 1, -1, -1):
        layer = []
        for c in range(j + 1):
            # N(mx), N(my) from n1[c]; N(mz) from n1[c + 1]; N(mxy) from
            # n2[c]; N(mxz), N(myz) from n2[c + 1]; N(mxyz) from n3[c + 1].
            x1, z1, y2, z2, z3 = n1[c], n1[c + 1], n2[c], n2[c + 1], n3[c + 1]
            layer.append([
                x1[b] + x1[b + 1] + z1[b] - y2[b + 1] - z2[b] - z2[b + 1] + z3[b + 1]
                for b in range(j - c + 1)
            ])
        n3, n2, n1 = n2, n1, layer
        yield layer


def is_tileable_structural(region: TriangularRegion) -> StructuralTileability:
    """Tileability via balance plus the absence of down-heavy monomial subregions.

    An unbalanced region fails immediately; otherwise the witness is the
    first monomial of degree at most d-2 (ascending degree, descending
    revlex within a degree) whose subregion holds more down than up
    triangles.  The subregion counts are the count tables' layers, streamed
    from degree d-2 down, so the last heavy degree seen is the lowest and
    gives the witness: O(d^3) time and O(d^2) memory.
    """
    _, _, balance = triangle_counts(region)
    if balance is not Balance.BALANCED:
        return StructuralTileability(False, True, None)
    d = region.d
    down = _divisor_counts(region.down_labels, d - 2)
    up = _divisor_counts(region.up_labels, d - 1)
    next(up, None)  # layer d-1 has no down labels to weigh against
    witness = None
    for j, down_layer, up_layer in zip(range(d - 2, -1, -1), down, up):
        witness = next(
            (
                Monomial(j - b - c, b, c)
                for c, (down_row, up_row) in enumerate(zip(down_layer, up_layer))
                for b, (down_n, up_n) in enumerate(zip(down_row, up_row))
                if down_n > up_n
            ),
            witness,
        )
    return StructuralTileability(witness is None, False, witness)


@dataclass(frozen=True)
class TwoOfThreeReport:
    """The three mutually coupled conditions on a region.

    Any two of them imply the third; an instance where exactly two hold is
    a defect and raises instead of returning.
    """

    perfectly_punctured: bool
    no_overpunctured_subregion: bool
    tileable: bool
    overpunctured_witness: Monomial | None


def two_of_three(region: TriangularRegion) -> TwoOfThreeReport:
    """Evaluate perfect puncturing, subregion puncturing, and tileability together.

    The witness is the first monomial m of degree < d (ascending degree,
    descending revlex within a degree) whose subregion is over-punctured.
    No subregion is built: q divides a subregion label exactly when mq
    divides a label of the region, so the subregion's own ideal is generated
    by the generators of (I : m) of degree < d - deg m, where I is the
    region's ideal.  Only the quotients lcm(g, m)/m of that degree are
    minimalized: a quotient dividing a kept one has smaller degree and is
    kept too, so their minimal elements are exactly those generators.
    """
    d = region.d
    region_ideal = monomial_ideal_of_region(region)
    perfectly = overpuncturing_ideal(region_ideal, d) == 0
    gens = region_ideal.generators
    witness = next(
        (
            m
            for j in range(d)
            for m in monomials_of_degree(j)
            if overpuncturing_ideal(
                MonomialIdeal.from_generators(
                    n.divide_by(m) for n in (g.lcm(m) for g in gens) if n.degree() < d
                ),
                d - j,
            ) > 0
        ),
        None,
    )
    no_overpunctured = witness is None
    tileable = find_tiling(region) is not None
    truths = sum((perfectly, no_overpunctured, tileable))
    if truths == 2:
        raise RuntimeError(
            "two-of-three coupling violated: "
            f"perfectly_punctured={perfectly}, "
            f"no_overpunctured_subregion={no_overpunctured}, tileable={tileable}"
        )
    return TwoOfThreeReport(perfectly, no_overpunctured, tileable, witness)


def tiling_json(tiling: Tiling) -> list[dict]:
    """JSON-ready list of lozenges, sorted by descending revlex of the down label."""
    order = tiling._order
    ups = [l.up_label for l in order]
    n = max(map(Monomial.degree, ups), default=0)
    downs = _texts((l.down_label for l in order), n)
    return [{"down": down, "up": up} for down, up in zip(downs, _texts(ups, n))]
