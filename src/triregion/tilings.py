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

from .monomials import Monomial, VARIABLE_MONOMIALS, monomials_of_degree, revlex_key
from .regions import (
    Balance,
    TriangularRegion,
    monomial_subregion,
    overpuncturing,
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


def _neighbor_map(region: TriangularRegion) -> dict[Monomial, tuple[Monomial, ...]]:
    ups = region.up_labels
    return {
        mu: tuple(mu * v for v in VARIABLE_MONOMIALS if mu * v in ups)
        for mu in region.down_sorted()
    }


def find_tiling(region: TriangularRegion) -> Tiling | None:
    """A lozenge tiling if one exists, via augmenting-path maximum matching.

    Deterministic: down labels are processed in descending revlex order and
    neighbors in x, y, z order.  The empty region yields the empty tiling.
    """
    downs = region.down_sorted()
    if len(downs) != len(region.up_labels):
        return None
    neighbors = _neighbor_map(region)
    matched_up: dict[Monomial, Monomial] = {}

    def augment(mu: Monomial, seen: set[Monomial]) -> bool:
        for nu in neighbors[mu]:
            if nu in seen:
                continue
            seen.add(nu)
            if nu not in matched_up or augment(matched_up[nu], seen):
                matched_up[nu] = mu
                return True
        return False

    for mu in downs:
        if not augment(mu, set()):
            return None
    return Tiling(frozenset(Lozenge(mu, nu) for nu, mu in matched_up.items()))


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
    up_index = {nu: k for k, nu in enumerate(region.up_sorted())}
    candidates = [
        frozenset(up_index[nu] for nu in neighbors)
        for neighbors in _neighbor_map(region).values()
    ]
    return _count_perfect_matchings(candidates, cap)


def is_tileable_structural(region: TriangularRegion) -> StructuralTileability:
    """Tileability via balance plus the absence of down-heavy monomial subregions.

    An unbalanced region fails immediately; otherwise every monomial of
    degree at most d-2 is scanned (ascending degree, descending revlex
    within a degree) and the first whose subregion holds more down than up
    triangles is returned as witness.
    """
    _, _, balance = triangle_counts(region)
    if balance is not Balance.BALANCED:
        return StructuralTileability(False, True, None)
    for j in range(region.d - 1):
        for m in monomials_of_degree(j):
            down_n = sum(1 for l in region.down_labels if m.divides(l))
            up_n = sum(1 for l in region.up_labels if m.divides(l))
            if down_n > up_n:
                return StructuralTileability(False, False, m)
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
    """Evaluate perfect puncturing, subregion puncturing, and tileability together."""
    perfectly = overpuncturing(region) == 0
    witness = None
    for j in range(region.d):
        for m in monomials_of_degree(j):
            if overpuncturing(monomial_subregion(region, m)) > 0:
                witness = m
                break
        if witness is not None:
            break
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
