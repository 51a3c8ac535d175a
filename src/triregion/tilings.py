"""Lozenge tilings: existence, structural criterion, and exact enumeration.

A lozenge pairs a downward triangle with an adjacent upward triangle, so a
tiling of a region is a perfect matching between its down and up labels
under the relation "up = variable * down".  Three independent routes decide
tileability: augmenting-path matching, the no-heavy-subregion criterion,
and exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .monomials import Monomial, MonomialIdeal, VARIABLE_MONOMIALS, monomials_of_degree, revlex_key
from .regions import (
    Balance,
    TriangularRegion,
    _divisor_counts,
    monomial_ideal_of_region,
    overpuncturing_ideal,
    triangle_counts,
)

#: Default ceiling for exhaustive enumeration.
ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class Lozenge:
    """One rhombus: a down label glued to the up label above, left or right of it."""

    down_label: Monomial
    up_label: Monomial

    def __post_init__(self):
        if all(self.down_label * v != self.up_label for v in VARIABLE_MONOMIALS):
            raise ValueError(
                f"{self.up_label} is not adjacent to {self.down_label}"
            )

    def direction(self) -> Monomial:
        """The variable connecting the two labels."""
        return self.up_label.divide_by(self.down_label)


@dataclass(frozen=True)
class Tiling:
    lozenges: frozenset[Lozenge]

    def sorted_lozenges(self) -> list[Lozenge]:
        return sorted(self.lozenges, key=lambda l: revlex_key(l.down_label))

    def __len__(self) -> int:
        return len(self.lozenges)


class TilingCount(NamedTuple):
    count: int
    exact: bool


@dataclass(frozen=True)
class StructuralTileability:
    """Outcome of the no-heavy-subregion criterion, with a witness on failure."""

    tileable: bool
    unbalanced: bool
    heavy_witness: Monomial | None


def _adjacency(region: TriangularRegion) -> tuple[list[Monomial], list[Monomial], list[tuple[int, ...]]]:
    """Down and up labels in descending revlex order, and for each down label
    the indices of its up neighbours in x, y, z order (ascending index)."""
    downs, ups = region.down_sorted(), region.up_sorted()
    up_index = {m.exponents(): k for k, m in enumerate(ups)}
    neighbors = []
    for mu in downs:
        a, b, c = mu.a, mu.b, mu.c
        near = (up_index.get((a + 1, b, c)), up_index.get((a, b + 1, c)), up_index.get((a, b, c + 1)))
        neighbors.append(tuple(k for k in near if k is not None))
    return downs, ups, neighbors


def find_tiling(region: TriangularRegion) -> Tiling | None:
    """A lozenge tiling if one exists, via augmenting-path maximum matching.

    Deterministic: down labels are processed in descending revlex order and
    neighbors in x, y, z order, depth first.  The path search keeps its own
    stack, so no region is too deep for it.  The empty region yields the
    empty tiling.
    """
    if len(region.down_labels) != len(region.up_labels):
        return None
    downs, ups, neighbors = _adjacency(region)
    matched_up = [-1] * len(ups)
    # Up labels in the order they were first matched, which fixes the
    # lozenge set's insertion order.
    first_matched: list[int] = []
    for root in range(len(downs)):
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
                first_matched.append(nu)
                for step, count in zip(path, tried):
                    matched_up[neighbors[step][count - 1]] = step
                break
            path.append(matched_up[nu])
            tried.append(0)
        else:
            return None
    return Tiling(frozenset(Lozenge(downs[matched_up[nu]], ups[nu]) for nu in first_matched))


def validate_tiling(region: TriangularRegion, tiling: Tiling) -> None:
    """Raise unless the tiling covers every label of the region exactly once."""
    downs = [l.down_label for l in tiling.lozenges]
    ups = [l.up_label for l in tiling.lozenges]
    if len(set(downs)) != len(downs) or len(set(ups)) != len(ups):
        raise ValueError("tiling reuses a triangle")
    if set(downs) != region.down_labels or set(ups) != region.up_labels:
        raise ValueError("tiling does not cover the region exactly")


def _count_perfect_matchings(
    candidates: list[frozenset[int]], cap: int | None = None
) -> TilingCount:
    """Number of ways to match every row i to its own column in ``candidates[i]``.

    The unmatched row with the fewest free candidates is matched first, and
    a row with at most one is taken at once, which makes forced chains
    linear.  Frames live on an explicit stack, so depth costs no recursion.
    Once the count passes ``cap`` the search stops with ``(cap + 1, False)``.
    """
    remaining = set(range(len(candidates)))
    used: set[int] = set()
    # One frame per matched row: (row, its free columns, index of the one in use).
    stack: list[tuple[int, tuple[int, ...], int]] = []
    count = 0
    while True:
        if remaining:
            best_row, best = -1, None
            for i in remaining:
                live = candidates[i] - used
                if best is None or len(live) < len(best):
                    best_row, best = i, live
                    if len(live) <= 1:
                        break
            if best:
                # Columns are tried in ascending order, for a region the x, y, z
                # neighbour order; it fixes how soon a capped search ends.
                columns = tuple(sorted(best))
                remaining.discard(best_row)
                used.add(columns[0])
                stack.append((best_row, columns, 0))
                continue
        else:
            count += 1
            if cap is not None and count > cap:
                return TilingCount(count, False)
        # Dead end or complete matching: advance the deepest row that has
        # another column left, releasing the exhausted rows above it.
        while stack:
            row, columns, k = stack.pop()
            used.discard(columns[k])
            if k + 1 < len(columns):
                used.add(columns[k + 1])
                stack.append((row, columns, k + 1))
                break
            remaining.add(row)
        else:
            return TilingCount(count, True)


def enumerate_tilings(region: TriangularRegion, cap: int = ENUMERATION_CAP) -> TilingCount:
    """Exact number of tilings by backtracking with forced-move propagation.

    Each tiling is a perfect matching of down labels to adjacent up labels;
    the down label with the fewest free neighbours is placed first, which
    makes forced chains linear, and the search keeps its own stack, so no
    region is too deep for it.  When the count passes ``cap`` the search
    stops and the result is flagged as a lower bound instead of silently
    truncating.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if len(region.down_labels) != len(region.up_labels):
        return TilingCount(0, True)
    _, _, neighbors = _adjacency(region)
    return _count_perfect_matchings([frozenset(n) for n in neighbors], cap)


def is_tileable_structural(region: TriangularRegion) -> StructuralTileability:
    """Tileability via balance plus the absence of down-heavy monomial subregions.

    An unbalanced region fails immediately; otherwise every monomial of
    degree at most d-2 is scanned (ascending degree, descending revlex
    within a degree) and the first whose subregion holds more down than up
    triangles is returned as witness.  The subregion counts are read from
    the down and up label count tables, so the scan is O(d^3).
    """
    _, _, balance = triangle_counts(region)
    if balance is not Balance.BALANCED:
        return StructuralTileability(False, True, None)
    down = _divisor_counts(region.down_labels, region.d - 2)
    up = _divisor_counts(region.up_labels, region.d - 1)
    for j in range(region.d - 1):
        for c, (down_row, up_row) in enumerate(zip(down[j], up[j])):
            for b, (down_n, up_n) in enumerate(zip(down_row, up_row)):
                if down_n > up_n:
                    return StructuralTileability(False, False, Monomial(j - b - c, b, c))
    return StructuralTileability(True, False, None)


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
    return [
        {"down": str(l.down_label), "up": str(l.up_label)}
        for l in tiling.sorted_lozenges()
    ]
