"""Tiling existence, enumeration, the structural criterion, two-of-three."""

from __future__ import annotations

import random
import sys
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triregion import (
    Balance,
    Lozenge,
    Monomial,
    MonomialIdeal,
    Tiling,
    TilingCount,
    build_region,
    enumerate_tilings,
    find_tiling,
    is_tileable_structural,
    parse_ideal,
    revlex_key,
    tiling_json,
    triangle_counts,
    two_of_three,
    validate_tiling,
)
from triregion.matrices import _count_perfect_matchings
from conftest import artinian_regions, hexagon, macmahon, random_artinian_ideal


def m(a, b, c):
    return Monomial(a, b, c)


TOUCHING_IDEAL = "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"


class TestFindTiling:
    def test_unique_forced_tiling(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        tiling = find_tiling(region)
        pairs = {(str(l.down_label), str(l.up_label)) for l in tiling.lozenges}
        assert pairs == {
            ("x^2", "x^3"),
            ("x*z", "x^2*z"),
            ("z^2", "x*z^2"),
            ("y*z", "y*z^2"),
        }

    def test_empty_region_empty_tiling(self):
        tiling = find_tiling(build_region(parse_ideal("1"), 3))
        assert tiling is not None and len(tiling) == 0

    def test_reference_non_tileable(self):
        assert find_tiling(build_region(parse_ideal(TOUCHING_IDEAL), 8)) is None

    def test_deterministic(self):
        region = build_region(parse_ideal("x^2, y^2, z^2"), 3)
        assert find_tiling(region) == find_tiling(region)

    def test_valid_on_random_regions(self):
        rng = random.Random(97)
        for _ in range(60):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            tiling = find_tiling(region)
            if tiling is not None:
                validate_tiling(region, tiling)

    def test_deep_hexagon_without_recursion(self):
        # the d = 60 hexagon's augmenting paths run over a hundred labels long
        ideal, d = hexagon(20, 20, 20)
        region = build_region(ideal, d)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            tiling = find_tiling(region)
        finally:
            sys.setrecursionlimit(limit)
        validate_tiling(region, tiling)

    def test_augmenting_search_after_greedy(self):
        # The greedy pass gives x the lozenge x-xy, which y needs; the
        # augmenting path y -> xy -> x -> xz -> z -> z^2 mends it.
        region = build_region(parse_ideal("x^2, y^2, yz, z^3"), 3)
        tiling = find_tiling(region)
        validate_tiling(region, tiling)
        assert [(e["down"], e["up"]) for e in tiling_json(tiling)] == [
            ("x", "x*z"), ("y", "x*y"), ("z", "z^2"),
        ]

    def test_parallelogram_single_tiling(self):
        # (32, 32, 0) parallelogram at d = 64: every lozenge is forced, and
        # its one tiling pairs each down label mu with mu * z
        region = build_region(parse_ideal("x^32, y^32, z^64"), 64)
        tiling = find_tiling(region)
        validate_tiling(region, tiling)
        assert tiling.lozenges == {Lozenge(mu, mu * m(0, 0, 1)) for mu in region.down_labels}

    # Four regions with more than one tiling; the lozenges found are pinned.
    PINNED_TILINGS = {
        ("x^4, y^4, z^4", 6): [  # hexagon (2, 2, 2): 20 tilings
            ("x^3*y", "x^3*y^2"), ("x^2*y^2", "x^2*y^3"), ("x*y^3", "x*y^3*z"),
            ("x^3*z", "x^3*y*z"), ("x^2*y*z", "x^2*y^2*z"), ("x*y^2*z", "x*y^2*z^2"),
            ("y^3*z", "y^3*z^2"), ("x^2*z^2", "x^3*z^2"), ("x*y*z^2", "x^2*y*z^2"),
            ("y^2*z^2", "y^2*z^3"), ("x*z^3", "x^2*z^3"), ("y*z^3", "x*y*z^3"),
        ],
        ("x^3, y^3, z^3, xyz", 4): [  # a hole: 2 tilings
            ("x^2", "x^2*y"), ("x*y", "x*y^2"), ("y^2", "y^2*z"),
            ("x*z", "x^2*z"), ("y*z", "y*z^2"), ("z^2", "x*z^2"),
        ],
        ("x^4, y^5, z^5, x^2yz", 6): [  # 5 tilings
            ("x^3*y", "x^3*y^2"), ("x^2*y^2", "x^2*y^3"), ("x*y^3", "x*y^4"),
            ("y^4", "y^4*z"), ("x^3*z", "x^3*z^2"), ("x*y^2*z", "x*y^3*z"),
            ("y^3*z", "y^3*z^2"), ("x^2*z^2", "x^2*z^3"), ("x*y*z^2", "x*y^2*z^2"),
            ("y^2*z^2", "y^2*z^3"), ("x*z^3", "x*y*z^3"), ("y*z^3", "y*z^4"),
            ("z^4", "x*z^4"),
        ],
        ("x^3, y^3, y^2z, z^3", 4): [  # 3 tilings; greedy first, then y^2 augments
            ("x^2", "x^2*z"), ("x*y", "x^2*y"), ("y^2", "x*y^2"),
            ("x*z", "x*y*z"), ("y*z", "y*z^2"), ("z^2", "x*z^2"),
        ],
    }

    @pytest.mark.parametrize("text, d", list(PINNED_TILINGS))
    def test_pinned_tiling_json(self, text, d):
        region = build_region(parse_ideal(text), d)
        assert enumerate_tilings(region).count > 1
        payload = tiling_json(find_tiling(region))
        assert [(e["down"], e["up"]) for e in payload] == self.PINNED_TILINGS[(text, d)]


def perfect_by_hopcroft_karp(region) -> bool:
    """Whether networkx's Hopcroft-Karp matching of the lozenge graph
    covers every triangle of the region."""
    import networkx as nx
    from networkx.algorithms import bipartite

    graph = nx.Graph()
    downs = [("down", mu) for mu in region.down_labels]
    graph.add_nodes_from(downs)
    graph.add_nodes_from(("up", nu) for nu in region.up_labels)
    graph.add_edges_from(
        (("down", mu), ("up", mu * v))
        for mu in region.down_labels
        for v in (m(1, 0, 0), m(0, 1, 0), m(0, 0, 1))
        if mu * v in region.up_labels
    )
    matching = bipartite.hopcroft_karp_matching(graph, top_nodes=downs)
    # the matching maps each matched vertex, on either side, to its mate
    return len(matching) == len(graph)


@st.composite
def punctured_balanced_regions(draw, max_d: int = 30):
    """A balanced side-d region with one to three interior punctures of
    side s (generators x^a y^b z^c, every exponent positive, of degree
    d - s) and corner punctures whose sides make up the rest of d."""
    d = draw(st.integers(6, max_d))
    gens, sides = [], 0
    for s in draw(st.lists(st.integers(1, d // 3), min_size=1, max_size=3)):
        a = draw(st.integers(1, d - s - 2))
        b = draw(st.integers(1, d - s - 1 - a))
        gens.append(m(a, b, d - s - a - b))
        sides += s
    rest = max(0, d - sides)
    a = draw(st.integers(0, rest))
    b = draw(st.integers(0, rest - a))
    gens += [m(d - a, 0, 0), m(0, d - b, 0), m(0, 0, d - (rest - a - b))]
    region = build_region(MonomialIdeal.from_generators(gens), d)
    assume(triangle_counts(region)[2] is Balance.BALANCED)
    return region


class TestFindTilingOracle:
    """``find_tiling`` against Hopcroft-Karp in networkx."""

    @staticmethod
    def check(region):
        tiling = find_tiling(region)
        assert (tiling is not None) == perfect_by_hopcroft_karp(region)
        if tiling is not None:
            validate_tiling(region, tiling)

    @settings(derandomize=True, deadline=None)
    @given(artinian_regions(max_d=30))
    def test_artinian_regions(self, region):
        self.check(region)

    @settings(derandomize=True, deadline=None)
    @given(punctured_balanced_regions())
    def test_punctured_balanced_regions(self, region):
        self.check(region)


class TestEnumerate:
    def test_hexagon_two_tilings(self):
        assert enumerate_tilings(build_region(parse_ideal("x^2, y^2, z^2"), 3)).count == 2

    def test_forced_chain_unique(self):
        result = enumerate_tilings(build_region(parse_ideal("xy, y^2, z^3"), 4))
        assert result == (1, True)

    def test_non_tileable_zero(self):
        assert enumerate_tilings(build_region(parse_ideal(TOUCHING_IDEAL), 8)) == (0, True)

    def test_empty_region_one_tiling(self):
        assert enumerate_tilings(build_region(parse_ideal("1"), 4)) == (1, True)

    def test_deep_forced_chain_without_recursion(self):
        # the d = 64 parallelogram: one tiling, a forced chain of 1024 placements
        region = build_region(parse_ideal("x^32, y^32, z^64"), 64)
        assert enumerate_tilings(region) == (1, True)

    def test_box_formula_oracle(self):
        # corner punctures of sides (a, b, c) with a+b+c = d leave a hexagon
        for box in [(2, 2, 2), (2, 2, 3), (1, 2, 3), (1, 1, 4)]:
            ideal, d = hexagon(*box)
            assert enumerate_tilings(build_region(ideal, d)).count == macmahon(*box)

    def test_cap_reports_lower_bound(self):
        region = build_region(parse_ideal("x^4, y^4, z^4"), 6)  # 20 tilings
        result = enumerate_tilings(region, cap=5)
        assert not result.exact
        assert result.count == 6
        assert enumerate_tilings(region, cap=20) == (20, True)

    def test_capped_large_hexagon_returns(self):
        # the d = 21 hexagon has MacMahon(7, 7, 7), about 3.9e16, tilings
        region = build_region(parse_ideal("x^14, y^14, z^14"), 21)
        assert enumerate_tilings(region, cap=1000) == TilingCount(1001, False)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            enumerate_tilings(build_region(parse_ideal("x,y,z"), 2), cap=0)

    def test_variable_permutation_invariance(self):
        rng = random.Random(101)
        for _ in range(20):
            ideal, d = random_artinian_ideal(rng)
            base = enumerate_tilings(build_region(ideal, d)).count
            for perm in ((1, 2, 0), (0, 2, 1), (2, 1, 0)):
                permuted = MonomialIdeal.from_generators(
                    Monomial(*(g.exponents()[p] for p in perm))
                    for g in ideal.generators
                )
                assert enumerate_tilings(build_region(permuted, d)).count == base


def brute_force_matchings(rows: list[tuple[int, ...]]) -> int:
    n = len(rows)
    return sum(all(p[i] in rows[i] for i in range(n)) for p in permutations(range(n)))


@st.composite
def square_candidates(draw):
    n = draw(st.integers(0, 7))
    return [tuple(sorted(draw(st.sets(st.integers(0, n - 1))))) for _ in range(n)]


class TestMatchingCounter:
    """The forced-pair counter against the permutation expansion."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(square_candidates(), st.sampled_from([1, 2, 3, None]))
    def test_matches_brute_force(self, rows, cap):
        exact = brute_force_matchings(rows)
        expected = (exact, True) if cap is None or exact <= cap else (cap + 1, False)
        assert _count_perfect_matchings(rows, cap) == expected

    def test_empty_problem_has_one_matching(self):
        assert _count_perfect_matchings([]) == (1, True)

    def test_full_matrix(self):
        rows = [tuple(range(6))] * 6
        assert _count_perfect_matchings(rows) == (720, True)
        assert _count_perfect_matchings(rows, cap=100) == (101, False)


class TestStructural:
    def test_first_reference_witness(self):
        report = is_tileable_structural(build_region(parse_ideal(TOUCHING_IDEAL), 8))
        assert not report.tileable
        assert not report.unbalanced
        assert report.heavy_witness == m(1, 2, 1)

    def test_second_reference_witness(self):
        region = build_region(
            parse_ideal("x^6, y^7, z^7, xy^4z^2, xy^2z^4, x^2y^2z^2"), 8
        )
        report = is_tileable_structural(region)
        assert report.heavy_witness == m(1, 2, 2)

    def test_hexagon_tileable(self):
        report = is_tileable_structural(build_region(parse_ideal("x^2, y^2, z^2"), 3))
        assert report.tileable

    def test_unbalanced_flagged(self):
        report = is_tileable_structural(build_region(MonomialIdeal(()), 4))
        assert not report.tileable
        assert report.unbalanced
        assert report.heavy_witness is None


class TestOracleTriangle:
    def test_three_routes_agree(self):
        rng = random.Random(103)
        for _ in range(80):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            found = find_tiling(region) is not None
            count = enumerate_tilings(region)
            structural = is_tileable_structural(region).tileable
            assert found == (count.count > 0) == structural

    # d <= 10: a capped count can still run long on larger hexagons
    @settings(derandomize=True, deadline=None)
    @given(artinian_regions(max_d=10))
    def test_four_routes_agree_property(self, region):
        found = find_tiling(region) is not None
        assert found == is_tileable_structural(region).tileable
        assert found == (enumerate_tilings(region, cap=1).count > 0)
        assert found == two_of_three(region).tileable

    def test_tileable_implies_balanced(self):
        rng = random.Random(107)
        for _ in range(60):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            if find_tiling(region) is not None:
                assert triangle_counts(region)[2] is Balance.BALANCED


class TestLozenge:
    def test_shared_edge_invariant(self):
        with pytest.raises(ValueError):
            Lozenge(m(1, 0, 0), m(3, 0, 0))
        # one degree apart, but y^2 is no variable times x
        with pytest.raises(ValueError, match="not adjacent"):
            Lozenge(m(1, 0, 0), m(0, 2, 0))
        loz = Lozenge(m(1, 0, 0), m(1, 1, 0))
        assert str(loz.direction()) == "y"

    def test_accepts_exactly_variable_multiples(self):
        # every pair of exponent triples in {0, 1, 2}^3 against up = v * down
        triples = [m(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        for down in triples:
            for up in triples:
                adjacent = any(down * v == up for v in (m(1, 0, 0), m(0, 1, 0), m(0, 0, 1)))
                if adjacent:
                    assert Lozenge(down, up).direction() == up.divide_by(down)
                else:
                    with pytest.raises(ValueError, match="not adjacent"):
                        Lozenge(down, up)

    def test_validate_rejects_foreign_tiling(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        bad = Tiling(frozenset({Lozenge(m(0, 0, 0), m(1, 0, 0))}))
        with pytest.raises(ValueError):
            validate_tiling(region, bad)

    def test_json_sorted_by_down_label(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        payload = tiling_json(find_tiling(region))
        assert [entry["down"] for entry in payload] == ["x^2", "x*z", "y*z", "z^2"]

    def test_handed_over_order_is_the_sort(self, corpus):
        # find_tiling hands its lozenges over in order; a tiling rebuilt
        # from the same set sorts them itself, and the two stay equal
        for ideal, d in corpus:
            tiling = find_tiling(build_region(ideal, d))
            if tiling is None:
                continue
            rebuilt = Tiling(frozenset(tiling.lozenges))
            assert rebuilt == tiling and hash(rebuilt) == hash(tiling)
            expected = sorted(tiling.lozenges, key=lambda l: revlex_key(l.down_label))
            assert tiling.sorted_lozenges() == rebuilt.sorted_lozenges() == expected
            assert tiling_json(tiling) == tiling_json(rebuilt) == [
                {"down": str(l.down_label), "up": str(l.up_label)} for l in expected
            ]


class TestTwoOfThree:
    def test_perfectly_punctured_non_tileable(self):
        report = two_of_three(build_region(parse_ideal(TOUCHING_IDEAL), 8))
        assert report.perfectly_punctured
        assert not report.no_overpunctured_subregion
        assert report.overpunctured_witness == m(1, 2, 1)
        assert not report.tileable

    def test_all_three_hold(self):
        region = build_region(parse_ideal("x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"), 9)
        report = two_of_three(region)
        assert (
            report.perfectly_punctured,
            report.no_overpunctured_subregion,
            report.tileable,
        ) == (True, True, True)

    def test_small_full_region(self):
        report = two_of_three(build_region(MonomialIdeal(()), 2))
        assert (
            report.perfectly_punctured,
            report.no_overpunctured_subregion,
            report.tileable,
        ) == (False, True, False)

    def test_no_violations_on_random_regions(self):
        rng = random.Random(109)
        for _ in range(60):
            ideal, d = random_artinian_ideal(rng)
            two_of_three(build_region(ideal, d))  # raises on a violation
