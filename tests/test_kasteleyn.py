"""Tiling counts as |det K| for a Kasteleyn signing K of the bi-adjacency matrix.

The backtracking ``enumerate_tilings`` and the permutation expansion in
``conftest`` are the oracles; MacMahon's box formula pins the hexagons.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triregion import (
    IntegerMatrix,
    Monomial,
    MonomialIdeal,
    TriangularRegion,
    X,
    biadjacency,
    build_region,
    determinant,
    enumerate_tilings,
    find_tiling,
    monomials_of_degree,
    parse_ideal,
    permanent,
    rank,
)
from triregion import matrices
from triregion.regions import _kasteleyn_rows
from conftest import (
    fraction_determinant,
    fraction_rank,
    hexagon,
    macmahon,
    permutation_permanent,
    reversed_rows,
    swapped_rows,
)

#: Enumeration stops here in the property tests; capped draws are skipped.
ORACLE_CAP = 20_000


def ring_region(d: int, center, rings: set[int], drop=()) -> TriangularRegion:
    """The side-d region of the triangles whose farthest vertex lies at a
    hexagonal distance in ``rings`` from ``center`` (a tuple of lattice
    vertices: one, or the three of a triangle), less the labels in
    ``drop``.  A missing ring between two kept ones is a hole with an
    island inside."""

    def distance(v):
        return min(max(abs(e - f) for e, f in zip(v, w)) for w in center)

    def kept(m: Monomial, corners) -> bool:
        a, b, c = m.exponents()
        far = max(distance((a + p, b + q, c + r)) for p, q, r in corners)
        return far in rings and m not in drop

    up = frozenset(m for m in monomials_of_degree(d - 1) if kept(m, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    down = frozenset(m for m in monomials_of_degree(d - 2) if kept(m, ((1, 1, 0), (1, 0, 1), (0, 1, 1))))
    return TriangularRegion(d, up, down)


@st.composite
def holey_ideals(draw, most: int = 5):
    """One to ``most`` interior generators (every exponent positive) and
    corner powers, at a side 5 <= d <= 10.  The puncture sides add up to d,
    so the region is balanced unless punctures overlap."""
    d = draw(st.integers(5, 10))
    gens, left = [], d
    for _ in range(draw(st.integers(1, most))):
        if left < 1:
            break
        side = draw(st.integers(1, min(left, d - 3)))
        degree = d - side
        a = draw(st.integers(1, degree - 2))
        b = draw(st.integers(1, degree - a - 1))
        gens.append(Monomial(a, b, degree - a - b))
        left -= side
    p = draw(st.integers(0, max(left, 0)))
    q = draw(st.integers(0, max(left - p, 0)))
    r = max(left - p - q, 0)
    gens += [Monomial(d - p, 0, 0), Monomial(0, d - q, 0), Monomial(0, 0, d - r)]
    return MonomialIdeal.from_generators(gens), d


@st.composite
def label_regions(draw):
    """A region of ``holey_ideals`` with at most two interior generators,
    less some lozenges of one of its tilings: a tileable region that no
    ideal cuts out, whose holes merge punctures with removed lozenges."""
    region = build_region(*draw(holey_ideals(most=2)))
    tiling = find_tiling(region)
    if tiling is None:
        return region
    rng = random.Random(draw(st.integers(0, 2**32)))
    share = draw(st.sampled_from([0.03, 0.1, 0.2]))
    dropped = [l for l in tiling.sorted_lozenges() if rng.random() < share]
    return TriangularRegion(
        region.d,
        region.up_labels - {l.up_label for l in dropped},
        region.down_labels - {l.down_label for l in dropped},
    )


def kasteleyn_matrix(region: TriangularRegion) -> IntegerMatrix:
    """The unlabelled Kasteleyn signing K whose determinant ``permanent``
    takes, in the shape of the region's bi-adjacency matrix."""
    Z = biadjacency(region)
    return IntegerMatrix(Z.rows, Z.cols, tuple(_kasteleyn_rows(region)))


#: The d = 6 triangle less six up triangles.  The down triangle y^3 z has
#: lost its x- and y-neighbours and its z-lozenge is negated, so its row of
#: K is a lone -1.
LONE_NEGATIVE_ROW = TriangularRegion(
    6,
    frozenset(monomials_of_degree(5)) - {
        Monomial(0, 4, 1), Monomial(1, 1, 3), Monomial(1, 3, 1),
        Monomial(1, 4, 0), Monomial(3, 1, 1), Monomial(5, 0, 0),
    },
    frozenset(monomials_of_degree(4)),
)


def assert_counted(region: TriangularRegion) -> None:
    count = enumerate_tilings(region, cap=ORACLE_CAP)
    n = count.count
    if count.exact and len(region.up_labels) == len(region.down_labels):
        Z = biadjacency(region)
        assert permanent(Z) == n
        assert abs(determinant(Z)) <= n
    if count.exact and n >= 2:
        # the counter stops one past its cap, and not at the cap itself
        assert enumerate_tilings(region, cap=n - 1) == (n, False)
        assert enumerate_tilings(region, cap=n) == (n, True)


class TestKasteleynCount:
    @pytest.mark.parametrize(
        "text, d, count, det",
        [
            ("x^3, y^3, z^3, xyz", 4, 2, 0),
            # overlapping punctures x^2y^2z and xy^3z make one hole
            ("x^9, y^10, z^10, x^2y^2z, xy^3z", 11, 10, -8),
            # two holes
            ("x^9, y^8, x^6yz, xy^4z^2, z^8", 10, 240, 168),
            # the punctures of x^4yz and xy^4z^2 meet only at a vertex: one hole
            ("x^9, y^9, x^4yz, xy^4z^2, z^9", 10, 2, 0),
            # a ray passes a down triangle whose z-neighbour is removed
            ("x^8, y^7, x^4yz, xy^3z^4, z^7", 9, 108, 56),
            # a centred core of odd side 3
            ("x^9, y^9, z^9, x^3y^3z^3", 12, 35000, 0),
        ],
    )
    def test_pinned_regions(self, text, d, count, det):
        region = build_region(parse_ideal(text), d)
        Z = biadjacency(region)
        assert any(v < 0 for row in kasteleyn_matrix(region).row_entries for _, v in row)
        assert permanent(Z) == enumerate_tilings(region).count == count
        assert determinant(Z) == det

    def test_cored_hexagon_at_degree_60(self):
        # a centred core of odd side 15; the count CI pins for the installed command
        Z = biadjacency(build_region(parse_ideal("x^45, y^45, z^45, x^15y^15z^15"), 60))
        assert determinant(Z) == 0
        assert permanent(Z) == int(
            "1948660229686002175733178877015958609060730365258741376637783387885552044138054498"
            "14310115374759752176057031250000000000000"
        )

    @pytest.mark.parametrize(
        "region, count, det",
        [
            # a two-tiling hexagon island inside a ring-shaped hole; summing
            # the hole's face length over the island's lozenges too gives 0
            (ring_region(9, ((3, 3, 3),), {1, 3}), 4, -4),
            # the island is a ring around a hole of its own
            (ring_region(15, ((5, 5, 5),), {2, 4, 5}), 11560, 11560),
            (ring_region(15, ((5, 5, 5),), {2, 4, 5}, {Monomial(6, 7, 1), Monomial(9, 0, 4)}), 152, -136),
            # the island rings one removed down triangle, a hole that needs a
            # sign flip; its ray crosses the face of the hole around the
            # island, which must be mended after it
            (ring_region(14, ((6, 5, 3), (6, 4, 4), (5, 5, 4)), {1, 3}), 4, 0),
        ],
    )
    def test_hole_around_an_island(self, region, count, det):
        Z = biadjacency(region)
        assert permanent(Z) == enumerate_tilings(region).count == count
        assert determinant(Z) == det

    def test_vertex_with_five_triangles_is_no_hexagon(self):
        # the (1, 2, 2) hexagon less the down triangle xyz and the up
        # triangle x^3y: the vertex xy^2z^2 keeps five of its six triangles,
        # so it lies on the hole's face, which needs a sign flip
        hexagon_region = build_region(parse_ideal("x^4, y^3, z^3"), 5)
        region = replace(
            hexagon_region,
            up_labels=hexagon_region.up_labels - {Monomial(3, 1, 0)},
            down_labels=hexagon_region.down_labels - {Monomial(1, 1, 1)},
        )
        Z = biadjacency(region)
        assert any(v < 0 for row in kasteleyn_matrix(region).row_entries for _, v in row)
        assert permanent(Z) == enumerate_tilings(region).count == 2
        assert determinant(Z) == 0

    def test_macmahon_hexagons_to_degree_60(self):
        boxes = [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
        for box in boxes + [(5, 10, 15), (1, 1, 58), (20, 20, 20)]:
            ideal, d = hexagon(*box)
            assert permanent(biadjacency(build_region(ideal, d))) == macmahon(*box)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(holey_ideals())
    def test_interior_generators(self, drawn):
        assert_counted(build_region(*drawn))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(label_regions())
    def test_arbitrary_label_sets(self, region):
        assert_counted(region)


class TestSignedRowOrder:
    """A lead of K can be -1, which the elimination normalises; the row
    order changes only the sign of det K."""

    def test_lone_negative_row(self):
        K = kasteleyn_matrix(LONE_NEGATIVE_ROW)
        row = K.row_entries[biadjacency(LONE_NEGATIVE_ROW).row_labels.index(Monomial(0, 3, 1))]
        assert len(row) == 1 and row[0][1] == -1
        assert (determinant(K), rank(K)) == (-2, 15)
        assert permanent(biadjacency(LONE_NEGATIVE_ROW)) == enumerate_tilings(LONE_NEGATIVE_ROW).count == 2

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(label_regions(), st.randoms(use_true_random=False))
    @example(LONE_NEGATIVE_ROW, random.Random(0))
    def test_row_order(self, region, rnd):
        K = kasteleyn_matrix(region)
        assert rank(reversed_rows(K)) == rank(K) == fraction_rank(K)
        if K.is_square() and K.rows >= 2:
            i, j = rnd.sample(range(K.rows), 2)
            assert determinant(swapped_rows(K, i, j)) == -determinant(K) == -fraction_determinant(K)


class TestCounterFallback:
    """A matrix not built by ``biadjacency`` gets the counter's answer,
    never |det K|."""

    @pytest.fixture
    def counter_calls(self, monkeypatch):
        calls = []
        counter = matrices._count_perfect_matchings

        def counted(candidates):
            calls.append(len(candidates))
            return counter(candidates)

        monkeypatch.setattr(matrices, "_count_perfect_matchings", counted)
        return calls

    # six rows, 2 tilings and det Z = 0: its hole needs a sign flip
    REGION = build_region(parse_ideal("x^3, y^3, z^3, xyz"), 4)
    Z = biadjacency(REGION)

    @pytest.mark.parametrize(
        "region, count",
        [
            (REGION, 2),
            (build_region(parse_ideal("x^2, y^2, z^2"), 3), 2),
            (TriangularRegion(3, frozenset(), frozenset()), 1),
            (LONE_NEGATIVE_ROW, 2),
        ],
        ids=["order6-flip", "order3", "empty", "lone-negative-row"],
    )
    def test_region_takes_the_determinant(self, region, count, counter_calls):
        assert permanent(biadjacency(region)) == count
        assert counter_calls == []

    @pytest.mark.parametrize(
        "M",
        [
            replace(Z),
            IntegerMatrix(Z.rows, Z.cols, Z.row_entries, Z.row_labels, Z.col_labels),
            Z.transpose(),
            replace(Z, row_entries=Z.row_entries[1:] + Z.row_entries[:1]),
            replace(Z, row_entries=(Z.row_entries[0][1:],) + Z.row_entries[1:]),
            replace(Z, row_labels=tuple(m * X for m in Z.row_labels)),
            IntegerMatrix.from_rows([list(row) for row in Z.entries]),
        ],
        ids=[
            "identical-copy", "identical-matrix", "transpose", "rows-permuted",
            "entry-dropped", "label-degree", "unlabelled",
        ],
    )
    def test_other_matrices_take_the_counter(self, M, counter_calls):
        assert permanent(M) == permutation_permanent(M)
        assert counter_calls == [6]
