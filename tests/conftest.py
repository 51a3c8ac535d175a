"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: ranks and
determinants come from Fraction-based Gaussian elimination, the lozenge
adjacency from a dict of exponent triples, permanents from
permutation expansion, multiplication matrices from direct polynomial
shifts on standard monomial bases found by a plain divisibility scan, socle
degrees from membership tests degree by degree, region ideals, structural
scans and over-punctured subregions from testing every monomial against
every label, floating punctures from a fixed point over all pairs, and SVG
documents from each triangle's vertices, computed and formatted one by one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import strategies as st

from triregion import (
    Balance,
    IntegerMatrix,
    Monomial,
    MonomialIdeal,
    PunctureRelation,
    RenderOptions,
    StructuralTileability,
    Tiling,
    TriangularRegion,
    X,
    Y,
    Z,
    build_region,
    monomial_subregion,
    monomials_of_degree,
    puncture_list,
    relate_punctures,
    revlex_key,
    triangle_counts,
)
from triregion.render import (
    DOWN_FILL,
    FLOATING_STROKE,
    LOZENGE_FILLS,
    PUNCTURE_FILL,
    STROKE,
    UP_FILL,
    _document,
    _fmt,
    _label_text,
)

CORPUS_SEED = 20260811
CORPUS_SIZE = 500


@st.composite
def artinian_ideals(draw, max_d: int = 16):
    """An Artinian ideal and a side d <= max_d: up to three boundary
    generators and up to four interior ones (every exponent positive)
    besides the three pure powers."""
    d = draw(st.integers(1, max_d))
    power = st.integers(1, d + 1)
    gens = [Monomial(draw(power), 0, 0), Monomial(0, draw(power), 0), Monomial(0, 0, draw(power))]
    small = st.integers(0, d)
    positive = st.integers(1, max(1, d // 2))
    for a, b, c in draw(st.lists(st.tuples(small, small, small), max_size=3)):
        gens.append(Monomial(a, b, c))
    for a, b, c in draw(st.lists(st.tuples(positive, positive, positive), max_size=4)):
        gens.append(Monomial(a, b, c))
    return MonomialIdeal.from_generators(gens), d


def artinian_regions(max_d: int = 16):
    """The side-d region of an ``artinian_ideals`` draw."""
    return artinian_ideals(max_d).map(lambda drawn: build_region(*drawn))


@st.composite
def label_sets(draw, balanced: bool = True):
    """A side-d region, d <= 12, whose label sets are arbitrary sets of
    monomials of degrees d-1 and d-2 (not necessarily cut out by an ideal):
    of equal size when ``balanced``, so that down-heavy subregions are
    common, and of independent sizes otherwise."""
    d = draw(st.integers(1, 12))
    k = draw(st.integers(0, len(monomials_of_degree(d - 2))))

    def labels(j):
        pool = monomials_of_degree(j)
        return draw(st.permutations(pool))[:k if balanced else draw(st.integers(0, len(pool)))]

    up, down = labels(d - 1), labels(d - 2)
    return TriangularRegion(d, frozenset(up), frozenset(down))


def random_artinian_ideal(rng: random.Random) -> tuple[MonomialIdeal, int]:
    """A random Artinian ideal together with a region side length d <= 10."""
    d = rng.choice([2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10])
    gens = [
        Monomial(rng.randint(1, d), 0, 0),
        Monomial(0, rng.randint(1, d), 0),
        Monomial(0, 0, rng.randint(1, d)),
    ]
    for _ in range(rng.randint(0, 4)):
        degree = rng.randint(2, max(2, d - 1))
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        gens.append(Monomial(a, b, degree - a - b))
    return MonomialIdeal.from_generators(gens), d


@pytest.fixture(scope="session")
def corpus() -> list[tuple[MonomialIdeal, int]]:
    rng = random.Random(CORPUS_SEED)
    return [random_artinian_ideal(rng) for _ in range(CORPUS_SIZE)]


def fraction_rank(matrix: IntegerMatrix) -> int:
    """Rank over the rationals by plain Gaussian elimination on Fractions."""
    a = [[Fraction(v) for v in row] for row in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][col]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col] / pv
                for j in range(col, ncols):
                    a[i][j] -= f * a[r][j]
        r += 1
    return r


def modular_rank(rows: tuple[tuple[int, ...], ...], p: int) -> int:
    """Rank over GF(p), p prime, by plain Gaussian elimination mod p."""
    a = [[v % p for v in row] for row in rows]
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][col], -1, p)
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def fraction_determinant(matrix: IntegerMatrix) -> Fraction:
    """Determinant by Fraction Gaussian elimination with partial pivoting."""
    n = matrix.rows
    a = [[Fraction(v) for v in row] for row in matrix.entries]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def macmahon(a: int, b: int, c: int) -> int:
    """Lozenge tilings of the a, b, c, a, b, c hexagon by MacMahon's box
    formula: the product of (c+i+j-1)/(i+j-1) over 1 <= i <= a, 1 <= j <= b."""
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            total *= Fraction(c + i + j - 1, i + j - 1)
    assert total.denominator == 1
    return int(total)


def hexagon(a: int, b: int, c: int) -> tuple[MonomialIdeal, int]:
    """Ideal and side d = a+b+c whose region is the a, b, c, a, b, c hexagon:
    corner punctures of sides a, b and c."""
    d = a + b + c
    corners = [Monomial(d - a, 0, 0), Monomial(0, d - b, 0), Monomial(0, 0, d - c)]
    return MonomialIdeal.from_generators(corners), d


def adjacency_oracle(region: TriangularRegion) -> tuple[list[Monomial], list[Monomial], list[tuple[int, ...]]]:
    """Down and up labels in descending revlex order, and for each down
    label the indices of its up neighbours x*mu, y*mu, z*mu, looked up by
    exponent triple."""
    downs = sorted(region.down_labels, key=revlex_key)
    ups = sorted(region.up_labels, key=revlex_key)
    up_index = {m.exponents(): k for k, m in enumerate(ups)}
    neighbors = []
    for mu in downs:
        a, b, c = mu.a, mu.b, mu.c
        near = (up_index.get((a + 1, b, c)), up_index.get((a, b + 1, c)), up_index.get((a, b, c + 1)))
        neighbors.append(tuple(k for k in near if k is not None))
    return downs, ups, neighbors


def permutation_permanent(matrix: IntegerMatrix) -> int:
    """Permanent by full permutation expansion; only for tiny matrices."""
    n = matrix.rows
    total = 0
    for perm in permutations(range(n)):
        product = 1
        for i in range(n):
            product *= matrix.entries[i][perm[i]]
            if product == 0:
                break
        total += product
    return total


def swapped_rows(matrix: IntegerMatrix, i: int, j: int) -> IntegerMatrix:
    """Unlabelled copy of the matrix with rows i and j exchanged."""
    rows = list(matrix.row_entries)
    rows[i], rows[j] = rows[j], rows[i]
    return IntegerMatrix(matrix.rows, matrix.cols, tuple(rows))


def reversed_rows(matrix: IntegerMatrix) -> IntegerMatrix:
    """Unlabelled copy of the matrix with its rows in reverse order."""
    return IntegerMatrix(matrix.rows, matrix.cols, matrix.row_entries[::-1])


def standard_by_scan(ideal: MonomialIdeal, j: int) -> list[Monomial]:
    """Degree-j monomials outside the ideal in descending revlex order, each
    exponent triple tested against every generator."""
    gens = [g.exponents() for g in ideal.generators]
    out = []
    for c in range(j + 1):
        for b in range(j - c + 1):
            a = j - b - c
            if not any(ga <= a and gb <= b and gc <= c for ga, gb, gc in gens):
                out.append(Monomial(a, b, c))
    return out


def socle_by_scan(ideal: MonomialIdeal) -> list[int]:
    """Socle degrees of an Artinian quotient, degree by degree: every
    standard monomial m with x*m, y*m and z*m in the ideal, found by
    ``contains`` until a degree has no standard monomial."""
    degrees = []
    j = 0
    while survivors := [m for m in monomials_of_degree(j) if not ideal.contains(m)]:
        degrees += [j for m in survivors if all(ideal.contains(m * v) for v in (X, Y, Z))]
        j += 1
    return degrees


def multiplication_matrix(ideal: MonomialIdeal, d: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by x+y+z from degree d-2 to degree d-1.

    Rows are indexed by the degree d-1 standard monomials and columns by
    the degree d-2 ones, both in descending revlex order.
    """
    source = standard_by_scan(ideal, d - 2)
    target = standard_by_scan(ideal, d - 1)
    index = {m: i for i, m in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for j, mu in enumerate(source):
        for v in (X, Y, Z):
            i = index.get(mu * v)
            if i is not None:
                rows[i][j] = 1
    return tuple(tuple(r) for r in rows)


def region_ideal_oracle(region: TriangularRegion) -> MonomialIdeal:
    """The region's ideal from the set of every divisor of every label: the
    minimal monomials of degree < d outside that set."""
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


def structural_oracle(region: TriangularRegion) -> StructuralTileability:
    """The structural scan with every monomial tested against every label:
    the first down-heavy subregion in ascending degree, descending revlex."""
    if triangle_counts(region)[2] is not Balance.BALANCED:
        return StructuralTileability(False, True, None)
    for j in range(region.d - 1):
        for m in monomials_of_degree(j):
            down_n = sum(1 for l in region.down_labels if m.divides(l))
            up_n = sum(1 for l in region.up_labels if m.divides(l))
            if down_n > up_n:
                return StructuralTileability(False, False, m)
    return StructuralTileability(True, False, None)


def overpunctured_witness_oracle(region: TriangularRegion) -> Monomial | None:
    """The first monomial whose subregion, built label by label, is
    over-punctured by its own oracle ideal."""
    for j in range(region.d):
        for m in monomials_of_degree(j):
            sub = monomial_subregion(region, m)
            gens = region_ideal_oracle(sub).generators
            if sum(sub.d - g.degree() for g in gens) > sub.d:
                return m
    return None


def non_floating_oracle(gens, d: int) -> set[Monomial]:
    """The non-floating generators by a fixed point: add every generator
    whose puncture overlaps or touches one already in the set, rescanning
    ``gens`` in the order given until nothing changes."""
    non_floating = {g for g in gens if 0 in g.exponents()}
    changed = True
    while changed:
        changed = False
        for g in gens:
            if g in non_floating:
                continue
            if any(relate_punctures(g, h, d) != PunctureRelation.DISJOINT for h in list(non_floating)):
                non_floating.add(g)
                changed = True
    return non_floating


def _points(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _up_vertices(m: Monomial, d: int, u: float, h: float) -> list[tuple[float, float]]:
    x0 = (m.a / 2 + m.c) * u
    return [
        (x0, (d - m.a) * h),
        (x0 + u, (d - m.a) * h),
        (x0 + u / 2, (d - 1 - m.a) * h),
    ]


def _down_vertices(m: Monomial, d: int, u: float, h: float) -> list[tuple[float, float]]:
    x0 = ((m.a + 1) / 2 + m.c) * u
    return [
        (x0, (d - 1 - m.a) * h),
        (x0 + u, (d - 1 - m.a) * h),
        (x0 + u / 2, (d - m.a) * h),
    ]


def region_svg_oracle(region: TriangularRegion, options: RenderOptions = RenderOptions()) -> str:
    """``region_svg`` with every vertex of every triangle computed and
    formatted on its own, and the labels and punctures sorted here."""
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    body: list[str] = []
    for cls, fill, labels, vertices in (
        ("up", UP_FILL, region.up_labels, _up_vertices),
        ("down", DOWN_FILL, region.down_labels, _down_vertices),
    ):
        for m in sorted(labels, key=revlex_key):
            pts = vertices(m, d, u, h)
            body.append(
                f'<polygon class="{cls}" points="{_points(pts)}" '
                f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>'
            )
            if options.show_labels:
                cx = sum(p[0] for p in pts) / 3
                cy = sum(p[1] for p in pts) / 3 + u / 10
                body.append(_label_text(m, cx, cy, u))
    if options.shade_punctures:
        for p in sorted(puncture_list(region), key=lambda p: revlex_key(p.generator)):
            g, s = p.generator, p.side_length
            x0 = (g.a / 2 + g.c) * u
            pts = [
                (x0, (d - g.a) * h),
                (x0 + s * u, (d - g.a) * h),
                (x0 + s * u / 2, (d - g.a - s) * h),
            ]
            extra = ""
            if options.mark_floating and p.floating:
                extra = f' stroke="{FLOATING_STROKE}" stroke-width="2" stroke-dasharray="4 2"'
            body.append(
                f'<polygon class="puncture" points="{_points(pts)}" '
                f'fill="{PUNCTURE_FILL}" fill-opacity="0.6"{extra}/>'
            )
    return _document(d, u, h, body)


def tiling_svg_oracle(
    region: TriangularRegion, tiling: Tiling, options: RenderOptions = RenderOptions()
) -> str:
    """``tiling_svg`` of a valid tiling, each rhombus from the vertices of
    its two triangles and its direction from ``Lozenge.direction``."""
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    body: list[str] = []
    for loz in sorted(tiling.lozenges, key=lambda l: revlex_key(l.down_label)):
        mu = loz.down_label
        down = _down_vertices(mu, d, u, h)
        up = _up_vertices(loz.up_label, d, u, h)
        direction = loz.direction()
        if direction == X:
            # up sits on the top edge of the down triangle
            quad = [up[2], up[1], down[2], down[0]]
            fill = LOZENGE_FILLS["x"]
        elif direction == Y:
            # up hangs off the lower-left edge
            quad = [down[1], down[2], up[0], up[2]]
            fill = LOZENGE_FILLS["y"]
        else:
            # up hangs off the lower-right edge
            quad = [down[0], down[2], up[1], up[2]]
            fill = LOZENGE_FILLS["z"]
        body.append(
            f'<polygon class="lozenge" points="{_points(quad)}" '
            f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            cx = sum(p[0] for p in quad) / 4
            cy = sum(p[1] for p in quad) / 4 + u / 10
            body.append(_label_text(mu, cx, cy, u))
    return _document(d, u, h, body)
