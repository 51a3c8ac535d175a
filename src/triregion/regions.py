"""Triangular regions cut out by monomial ideals.

A region of side d holds the degree d-1 (upward triangle) and degree d-2
(downward triangle) monomials surviving outside an ideal.  Punctures,
balance and the over-puncturing coefficient are all derived from those
label sets by divisibility arithmetic; geometry enters only in the SVG
renderer.

Labels are never compared pair by pair.  The region's ideal, and with it
the punctures, is read off one label staircase: h[c][b] is 1 + the largest
a over the labels x^a' y^b' z^c', up or down, with b' >= b and c' >= c, so
x^a y^b z^c divides a label iff a < h[c][b].  This suffix maximum over b,
then over c, is the dual of ``MonomialIdeal._staircase`` and costs O(d^2).
The lozenge adjacency is read off cells as well: one neighbour rule, on a
table keyed by cell, gives each down label its up neighbours' columns, or
the ``(column, 1)`` entries from which ``_kasteleyn_rows`` reads matrix
rows straight off the table.  The Kasteleyn signing that ``permanent``
counts tilings with is read off the same cell tables, its faces and holes
keyed like the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from .monomials import Monomial, MonomialIdeal, _check_degree, _texts, revlex_key


class Balance(Enum):
    DOWN_HEAVY = "down-heavy"
    UP_HEAVY = "up-heavy"
    BALANCED = "balanced"


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
    the largest one that cuts it out.  Each side is put in descending
    revlex order at most once, on first use, and ``build_region`` hands
    over the order its staircase already gives.
    """

    d: int
    up_labels: frozenset[Monomial]
    down_labels: frozenset[Monomial]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("region side length must be positive")
        _check_degree(self.d)
        for m in self.up_labels:
            if m.degree() != self.d - 1:
                raise ValueError(f"invalid up label {m}")
        for m in self.down_labels:
            if m.degree() != self.d - 2:
                raise ValueError(f"invalid down label {m}")

    @cached_property
    def _up_order(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self.up_labels, key=revlex_key))

    @cached_property
    def _down_order(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self.down_labels, key=revlex_key))

    def up_sorted(self) -> list[Monomial]:
        return list(self._up_order)

    def down_sorted(self) -> list[Monomial]:
        return list(self._down_order)

    def is_empty(self) -> bool:
        return not self.up_labels and not self.down_labels


def build_region(ideal: MonomialIdeal, d: int) -> TriangularRegion:
    """The side-d region whose labels are the degree d-1 and d-2 standard
    monomials, both read off one staircase of the ideal."""
    if d < 1:
        raise ValueError("region side length must be positive")
    _check_degree(d)
    up, down = ideal._standard_in(d - 1, d - 2)
    region = TriangularRegion(d, frozenset(up), frozenset(down))
    # fill the cached label orders, which are not fields: equality and hash are unchanged
    vars(region).update(_up_order=tuple(up), _down_order=tuple(down))
    return region


def _neighbours(column: dict[int, object], d: int, downs: Iterable[int]) -> list[tuple]:
    """The lozenge adjacency of a side-d region on cell keys.

    A label of degree d-1 or d-2 is fixed by its cell (b, c), keyed c*d + b.
    ``column`` maps each up cell's key to what a row holds for it: its
    column, or a ``(column, 1)`` entry, so that ``_kasteleyn_rows`` reads
    matrix rows straight off the table.  The down label in cell
    (b, c) has its x-, y- and z-neighbours in up cells (b, c), (b+1, c) and
    (b, c+1), keys k, k+1 and k+d.  Each down key gets the values of its up
    neighbours in x, y, z order, ascending with descending revlex columns.
    """
    get = column.get
    rows = []
    for k in downs:
        near = (get(k), get(k + 1), get(k + d))
        rows.append(near if None not in near else tuple(j for j in near if j is not None))
    return rows


def _adjacency(region: TriangularRegion) -> tuple[list[Monomial], list[Monomial], list[tuple[int, ...]]]:
    """Down and up labels in descending revlex order, and for each down label
    the indices of its up neighbours in x, y, z order (ascending index).
    The cell table holds one entry per up label, not one per cell."""
    d, downs, ups = region.d, region.down_sorted(), region.up_sorted()
    column = {m.c * d + m.b: k for k, m in enumerate(ups)}
    return downs, ups, _neighbours(column, d, [m.c * d + m.b for m in downs])


def _root(parent: dict, v):
    """Union-find root of ``v``, halving the path; an unseen ``v`` is its own root."""
    parent.setdefault(v, v)
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _kasteleyn_rows(region: TriangularRegion) -> list[tuple[tuple[int, int], ...]]:
    """The rows of a Kasteleyn signing K of the region's bi-adjacency
    matrix: ``(column, ±1)`` entries in ``biadjacency``'s row and column
    order, some z-lozenges negated.

    The lozenge graph is planar and bipartite, so |det K| is the number of
    tilings once every bounded face of length 2k of every component has
    k - 1 negative edges mod 2 (Kasteleyn 1963; Kuperberg, "An exploration
    of the permanent-determinant method", 1998).  The faces are read off
    the lattice, whose vertex x^a y^b z^c of degree d is keyed c*d + b like
    a cell: up cell k has the vertices k, k+1 and k+d, down cell k has k+1,
    k+d and k+d+1, and a lozenge crosses the lattice edge its two triangles
    share.  An interior vertex v (b, c >= 1, b + c < d) ends the edges of
    six lozenges, as (down, up) cells (v-1, v-1), (v-1, v), (v-d, v-d),
    (v-d, v), (v-d-1, v-d) and (v-d-1, v-1); the fourth and sixth are
    z-lozenges.  With all six present v is a hexagonal face, right with all
    signs +1.  A plane graph has E - V + C bounded faces, one per row entry
    that joins two up cells already joined; when they are all hexagons, no
    hole search is needed.  Every other bounded face is a hole: a class of
    removed triangles, joined when they share a vertex, with no vertex on
    the boundary (b = 0, c = 0 or b + c = d).  Its face belongs to the
    component of the lozenge (v0-d, v0), which crosses the edge from P0 =
    v0 to v0+1.  P0 is the hole vertex least in the order of (a, b): the
    largest b + c, then the least b.  Components inside the hole (islands)
    see it as their outer face.  Its length 2k counts that component's
    lozenges once per end of their crossed edge that is a hole vertex.  A
    face of the wrong parity is mended by negating the z-lozenges
    (v0-d+t, v0+t), t < d - b0 - c0, across the lattice ray from P0 to the
    boundary: of its own face the ray crosses only the first edge, it
    crosses every hexagon twice, and it never reaches a vertex of a hole
    with a larger P0, so holes are mended in descending order of P0.
    """
    d = region.d
    column = {m.c * d + m.b: (j, 1) for j, m in enumerate(region._up_order)}
    keys = [m.c * d + m.b for m in region._down_order]
    rows = _neighbours(column, d, keys)
    # Components of the lozenge graph by the up cells' columns.
    component: dict = {}
    faces = 0
    for row in rows:
        for j, _ in row[1:]:
            first, root = _root(component, row[0][0]), _root(component, j)
            faces += first == root
            component[root] = first
    downs = set(keys)
    # Vertex k+1 of down cell k is a hexagonal face when its six triangles are present.
    hexagons = sum(
        1 for k in keys
        if k >= d and k - d in downs and k - d + 1 in downs
        and k in column and k + 1 in column and k - d + 1 in column
    )
    if faces == hexagons:
        return rows
    # Join the vertices of each removed triangle; -1 stands for the boundary.
    removed = [(k, k + 1, k + d) for c in range(d) for k in range(c * d, c * d + d - c) if k not in column]
    removed += [(k + 1, k + d, k + d + 1)
                for c in range(d - 1) for k in range(c * d, c * d + d - 1 - c) if k not in downs]
    vertex_root = {-1: -1}
    for triangle in removed:
        first, *rest = (_root(vertex_root, v if v > d and 0 < v % d < d - v // d else -1) for v in triangle)
        for root in rest:
            vertex_root[root] = first
    outside = _root(vertex_root, -1)
    holes: dict = {}
    for v in list(vertex_root):
        root = _root(vertex_root, v)
        if root != outside:
            holes.setdefault(root, []).append(v)

    def exponents_ab(v: int) -> tuple[int, int]:
        return d - v % d - v // d, v % d

    starts = {min(hole, key=exponents_ab): hole for hole in holes.values()}
    flips: set[int] = set()
    for v0 in sorted(starts, key=exponents_ab, reverse=True):
        vertices = starts[v0]
        enclosing = _root(component, column[v0][0])
        sides = negative = 0
        for v in vertices:
            for mu, nu, z in (
                (v - 1, v - 1, False), (v - 1, v, False), (v - d, v - d, False),
                (v - d, v, True), (v - d - 1, v - d, False), (v - d - 1, v - 1, True),
            ):
                if mu in downs and nu in column and _root(component, column[nu][0]) == enclosing:
                    sides += 1
                    negative += z and mu in flips
        if (negative + sides // 2) % 2 == 0:
            flips ^= {k for k in range(v0 - d, v0 - v0 % d - v0 // d) if k in downs and k + d in column}
    for i, k in enumerate(keys):
        if k in flips:
            z = column[k + d]
            rows[i] = tuple((j, -1) if (j, v) == z else (j, v) for j, v in rows[i])
    return rows


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

    Its generators are the monomials of degree < d dividing no label while
    each m/v (v a variable dividing m) does: the staircase cells x^h y^b z^c,
    h = h[c][b], with h + b + c < d, h[c][b-1] > h if b > 0 and h[c-1][b] > h
    if c > 0.  Read row by row, they come out minimal and in canonical order.
    """
    d = region.d
    h = [[0] * (d - c) for c in range(d)]
    for m in region.up_labels | region.down_labels:
        if m.a >= h[m.c][m.b]:
            h[m.c][m.b] = m.a + 1
    h = [list(accumulate(reversed(row), max))[::-1] for row in h]
    for c in range(d - 2, -1, -1):  # row c + 1 is one cell shorter than row c
        h[c][:-1] = map(max, h[c], h[c + 1])
    return MonomialIdeal(tuple(
        Monomial(a, b, c)
        for c, row in enumerate(h)
        for b, a in enumerate(row)
        if a + b + c < d and (b == 0 or row[b - 1] > a) and (c == 0 or h[c - 1][b] > a)
    ))


def puncture_list(region: TriangularRegion) -> list[Puncture]:
    """One puncture per minimal generator of the region's ideal, flags included.

    Non-floating punctures form the least set containing every puncture with
    boundary contact (a zero exponent in its generator) and closed under
    overlapping or touching; the rest float.  They are found breadth first:
    each puncture taken from a queue that starts with the boundary ones adds
    every puncture not yet reached that it overlaps or touches.
    """
    gens = monomial_ideal_of_region(region).generators
    queue = [g for g in gens if 0 in g.exponents()]
    unreached = [g for g in gens if 0 not in g.exponents()]
    for g in queue:  # the loop also visits what it appends
        left = []
        for h in unreached:
            # lcm degree <= d: the punctures overlap or touch
            (queue if g.lcm(h).degree() <= region.d else left).append(h)
        unreached = left
    non_floating = set(queue)
    return [
        Puncture(
            generator=g,
            side_length=region.d - g.degree(),
            boundary_contact=0 in g.exponents(),
            floating=g not in non_floating,
        )
        for g in gens
    ]


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
    """JSON-ready dump: labels and punctures (in generator order) in
    descending revlex order."""
    return {
        "d": region.d,
        "up": _texts(region._up_order, region.d),
        "down": _texts(region._down_order, region.d),
        "punctures": [
            {
                "generator": str(p.generator),
                "side": p.side_length,
                "floating": p.floating,
            }
            for p in puncture_list(region)
        ],
    }
