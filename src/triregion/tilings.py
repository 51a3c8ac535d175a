"""Lozenge tilings: existence, structural criterion, and exact enumeration.

A lozenge pairs a downward triangle with an adjacent upward triangle, so a
tiling of a region is a perfect matching between its down and up labels
under the relation "up = variable * down".  Three independent routes decide
tileability: greedy then augmenting-path matching, the no-heavy-subregion
criterion, and exhaustive enumeration.  The exact count in polynomial time is
``permanent(biadjacency(region))``: the lozenge graph is planar, and the
signs that make its determinant count the tilings (a Kasteleyn signing)
are read off the region's holes here, next to the adjacency they sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

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


class TilingCount(NamedTuple):
    count: int
    exact: bool


@dataclass(frozen=True)
class StructuralTileability:
    """Outcome of the no-heavy-subregion criterion, with a witness on failure."""

    tileable: bool
    unbalanced: bool
    heavy_witness: Monomial | None


def _root(parent: dict, v):
    """Union-find root of ``v``, halving the path; an unseen ``v`` is its own root."""
    parent.setdefault(v, v)
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _triples(j: int):
    """Exponent triples of degree j."""
    return ((j - b - c, b, c) for c in range(j + 1) for b in range(j - c + 1))


def _kasteleyn_flips(region: TriangularRegion) -> set[tuple[int, int, int]]:
    """Down labels, as exponent triples, whose z-lozenge is negated in a
    Kasteleyn signing K of the region's bi-adjacency matrix.

    The lozenge graph is planar and bipartite, so |det K| is the number of
    tilings once every bounded face of length 2k of every component has
    k - 1 negative edges mod 2 (Kasteleyn 1963; Kuperberg, "An exploration
    of the permanent-determinant method", 1998).  The faces are read off
    the lattice, whose vertices are the degree-d triples: up label m has the
    vertices mx, my, mz, down label mu has mu*xy, mu*xz, mu*yz, and a
    lozenge crosses the lattice edge its two triangles share.  A vertex with
    all six triangles present is a hexagonal face, right with all signs +1.
    Every other bounded face is a hole: a class of removed triangles,
    joined when they share a vertex, with no vertex on the boundary (a zero
    exponent).  Its face belongs to the component of the lozenge that
    crosses the edge from P0, the hole vertex least in lexicographic order
    (so of least x-exponent), towards P0 - x + y; components inside the
    hole (islands) see it as their outer face.  Its length 2k counts that
    component's lozenges once per end of the crossed edge that is a hole
    vertex.  A face of the wrong parity is mended by negating the
    z-lozenges across the lattice ray P0 -> P0 - x + y -> ... to the
    boundary: of its own face the ray crosses only the first edge, it
    crosses every hexagon twice, and it never reaches a vertex of a hole
    with a larger P0, so holes are mended in descending order of P0.
    """
    up = {m.exponents() for m in region.up_labels}
    down = {m.exponents() for m in region.down_labels}
    # Components of the lozenge graph, by their down labels; an up label
    # with no down neighbour is a component of its own.
    component: dict = {mu: mu for mu in down}
    lozenges, components = 0, len(down)
    for a, b, c in up:
        near = [mu for mu in ((a - 1, b, c), (a, b - 1, c), (a, b, c - 1)) if mu in down]
        lozenges += len(near)
        components += not near
        for mu in near[1:]:
            first, root = _root(component, near[0]), _root(component, mu)
            components -= first != root
            component[root] = first
    # A plane graph has E - V + C bounded faces.  Each is a hexagon, around
    # the vertex mu*xy of one down label mu with all six triangles present,
    # or a hole; most regions have none, and no hole search is needed.
    hexagons = sum(
        1 for a, b, c in down
        if (a, b + 1, c - 1) in down and (a + 1, b, c - 1) in down
        and (a, b + 1, c) in up and (a + 1, b, c) in up and (a + 1, b + 1, c - 1) in up
    )
    if lozenges - len(up) - len(down) + components == hexagons:
        return set()
    # Join the vertices of each removed triangle; () stands for the boundary.
    d = region.d
    removed = [((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
               for a, b, c in _triples(d - 1) if (a, b, c) not in up]
    removed += [((a + 1, b + 1, c), (a + 1, b, c + 1), (a, b + 1, c + 1))
                for a, b, c in _triples(d - 2) if (a, b, c) not in down]
    vertex_root: dict = {(): ()}
    for triangle in removed:
        first, *rest = (_root(vertex_root, v if all(v) else ()) for v in triangle)
        for root in rest:
            vertex_root[root] = first
    outside = _root(vertex_root, ())
    holes: dict = {}
    for v in list(vertex_root):
        root = _root(vertex_root, v)
        if root != outside:
            holes.setdefault(root, []).append(v)
    flips: set[tuple[int, int, int]] = set()
    for vertices in sorted(holes.values(), key=min, reverse=True):
        a0, b0, c0 = min(vertices)
        enclosing = _root(component, (a0 - 1, b0, c0 - 1))
        sides = negative = 0
        for a, b, c in vertices:
            # The six lozenges whose crossed edge ends at (a, b, c), as
            # (down, up, is a z-lozenge); (a, b, c) is down * xy, xz or yz.
            xy, xz, yz = (a - 1, b - 1, c), (a - 1, b, c - 1), (a, b - 1, c - 1)
            for mu, nu, z in (
                (xy, (a, b - 1, c), False), (xy, (a - 1, b, c), False),
                (xz, (a, b, c - 1), False), (xz, (a - 1, b, c), True),
                (yz, (a, b, c - 1), False), (yz, (a, b - 1, c), True),
            ):
                if mu in down and nu in up and _root(component, mu) == enclosing:
                    sides += 1
                    negative += z and mu in flips
        if (negative + sides // 2) % 2 == 0:
            for t in range(a0):
                mu = (a0 - 1 - t, b0 + t, c0 - 1)
                if mu in down and (a0 - 1 - t, b0 + t, c0) in up:
                    flips ^= {mu}
    return flips


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


def _count_perfect_matchings(candidates: Sequence[Sequence[int]], cap: int | None = None) -> TilingCount:
    """Number of ways to match every row i to its own column in ``candidates[i]``.

    Each row lists its columns in ascending order.  The problem must be
    square: the columns are drawn from ``range(len(candidates))``, so a
    perfect matching covers every column too, and a column with one free
    row left must take it just as a row with one free column must.  After
    each placement every such forced pair is placed, so the search branches
    only where nothing is forced: on the unmatched row with the fewest free
    columns, trying them in ascending order (for a region the x, y, z
    neighbour order), and it rarely meets a dead end.  Free counts are
    undone from a trail and the branches live on an explicit stack, so
    depth costs no recursion.  Once the count passes ``cap`` the search
    stops with ``(cap + 1, False)``.
    """
    n = len(candidates)
    # One bipartite graph on 2n vertices: row i is vertex i and column j is
    # vertex n + j.  adj[v] lists v's neighbours in ascending order, free[v]
    # counts those still unmatched while v is, and mate[v] is v's partner or -1.
    adj = [[n + j for j in row] for row in candidates] + [[] for _ in range(n)]
    for i, row in enumerate(candidates):
        for j in row:
            adj[n + j].append(i)
    free = [len(near) for near in adj]
    mate = [-1] * (2 * n)
    # Unmatched vertices seen with at most one free neighbour, and one end
    # of every placed pair in placement order.
    waiting = [v for v, f in enumerate(free) if f < 2]
    trail: list[int] = []

    def place(u: int, v: int) -> None:
        mate[u], mate[v] = v, u
        trail.append(u)
        for end in (u, v):
            for w in adj[end]:
                free[w] -= 1
                if free[w] < 2 and mate[w] < 0:
                    waiting.append(w)

    def propagate() -> bool:
        """Place every forced pair; False once a vertex has no free neighbour left."""
        while waiting:
            v = waiting.pop()
            if mate[v] < 0:
                for w in adj[v]:
                    if mate[w] < 0:
                        place(v, w)
                        break
                else:
                    return False
        return True

    def undo(mark: int) -> None:
        """Take back every placement after the first ``mark``."""
        waiting.clear()
        while len(trail) > mark:
            u = trail.pop()
            v = mate[u]
            for end in (u, v):
                for w in adj[end]:
                    free[w] += 1
            mate[u] = mate[v] = -1

    # One frame per branch: (row, its free columns, index of the one in
    # use, trail length before the branch).
    stack: list[tuple[int, tuple[int, ...], int, int]] = []
    count = 0
    alive = propagate()
    while True:
        if alive and len(trail) < n:
            # Every unmatched row has at least two free columns now.
            row = -1
            for i in range(n):
                if mate[i] < 0 and (row < 0 or free[i] < free[row]):
                    row = i
                    if free[i] == 2:
                        break
            columns = tuple(v for v in adj[row] if mate[v] < 0)
            stack.append((row, columns, -1, len(trail)))
        elif alive:
            count += 1
            if cap is not None and count > cap:
                return TilingCount(count, False)
        # Place the next column of the deepest branch that has one left: the
        # first of a new branch, or after a dead end or a complete matching
        # the next one, dropping the exhausted branches above it.
        while stack:
            row, columns, k, mark = stack.pop()
            undo(mark)
            if k + 1 < len(columns):
                stack.append((row, columns, k + 1, mark))
                place(row, columns[k + 1])
                alive = propagate()
                break
        else:
            return TilingCount(count, True)


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
