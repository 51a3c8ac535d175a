"""Triangular region construction, punctures, subregions, over-puncturing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import triregion.monomials
from triregion import (
    Balance,
    Monomial,
    MonomialIdeal,
    TriangularRegion,
    build_region,
    monomial_ideal_of_region,
    overpuncturing,
    overpuncturing_ideal,
    parse_ideal,
    puncture_list,
    region_json,
    triangle_counts,
)
from triregion.monomials import monomials_of_degree, revlex_key
from triregion.regions import _adjacency, _cells
from conftest import (
    X,
    Y,
    Z,
    adjacency_oracle,
    artinian_ideals,
    colon,
    hexagon,
    interior_ideal,
    label_sets,
    monomial_subregion,
    non_floating_oracle,
    random_artinian_ideal,
    standard_by_scan,
    times,
)


def m(a, b, c):
    return Monomial(a, b, c)


ZERO = MonomialIdeal(())
TOUCHING_IDEAL = "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"


class TestBuildRegion:
    def test_reference_region(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        assert region.up_labels == {m(3, 0, 0), m(2, 0, 1), m(1, 0, 2), m(0, 1, 2)}
        assert region.down_labels == {m(2, 0, 0), m(1, 0, 1), m(0, 0, 2), m(0, 1, 1)}

    def test_full_region_counts(self):
        region = build_region(ZERO, 4)
        assert len(region.up_labels) == 10
        assert len(region.down_labels) == 6

    def test_unit_ideal_region_empty(self):
        region = build_region(parse_ideal("1"), 5)
        assert region.is_empty()

    def test_side_one(self):
        region = build_region(parse_ideal("x, y, z^2"), 1)
        assert region.up_labels == {m(0, 0, 0)}
        assert region.down_labels == frozenset()

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            build_region(ZERO, 0)

    def test_label_degrees_checked(self):
        with pytest.raises(ValueError, match="up label"):
            TriangularRegion(4, frozenset({m(2, 0, 0)}), frozenset())
        with pytest.raises(ValueError, match="down label"):
            TriangularRegion(4, frozenset(), frozenset({m(3, 0, 0)}))

    def test_side_capped(self):
        # Every region routine allocates O(d^2) or more, so the constructor
        # refuses a side past the cap instead of leaving it to them.
        cap = triregion.monomials.DEGREE_CAP
        assert TriangularRegion(cap, frozenset(), frozenset()).d == cap
        with pytest.raises(ValueError, match="safety cap"):
            TriangularRegion(cap + 1, frozenset(), frozenset())


def region_keys(region):
    """The keys c*d + b of the region's up and down labels, in descending revlex order."""
    d = region.d
    return [m.c * d + m.b for m in region.up_sorted()], [m.c * d + m.b for m in region.down_sorted()]


class TestCells:
    """``_cells`` reads the keys of ``build_region``'s labels, in the same
    order, off the ideal's staircase."""

    def test_reference_region(self):
        # up x^3, x^2z, xz^2, yz^2 and down x^2, xz, z^2, yz at d = 4
        assert _cells(parse_ideal("xy, y^2, z^3"), 4) == ([0, 4, 8, 9], [0, 4, 5, 8])

    @pytest.mark.parametrize("text", ["0", "1", "xy, y^2, z^3", "x, y, z^2", TOUCHING_IDEAL])
    def test_small_and_non_artinian_ideals(self, text):
        ideal = parse_ideal(text)
        for d in range(1, 10):
            assert _cells(ideal, d) == region_keys(build_region(ideal, d)), d

    def test_corpus_around_its_side(self, corpus):
        for ideal, d in corpus:
            for side in (d - 1, d, d + 1):
                assert _cells(ideal, side) == region_keys(build_region(ideal, side)), (str(ideal), side)

    @settings(derandomize=True, deadline=None)
    @given(artinian_ideals())
    def test_random_ideals(self, drawn):
        ideal, d = drawn
        assert _cells(ideal, d) == region_keys(build_region(ideal, d))

    def test_invalid_sides(self):
        with pytest.raises(ValueError, match="side length must be positive"):
            _cells(ZERO, 0)
        with pytest.raises(ValueError, match="safety cap"):
            _cells(ZERO, triregion.monomials.DEGREE_CAP + 1)


class TestTriangleCounts:
    def test_balanced_reference(self):
        assert triangle_counts(build_region(parse_ideal("xy, y^2, z^3"), 4)) == (
            4, 4, Balance.BALANCED,
        )

    def test_full_region_up_heavy(self):
        assert triangle_counts(build_region(ZERO, 4)) == (6, 10, Balance.UP_HEAVY)

    def test_touching_ideal_balanced(self):
        down, up, cls = triangle_counts(build_region(parse_ideal(TOUCHING_IDEAL), 8))
        assert cls is Balance.BALANCED

    def test_counts_match_hilbert(self):
        rng = random.Random(23)
        for _ in range(25):
            ideal, d = random_artinian_ideal(rng)
            down, up, _ = triangle_counts(build_region(ideal, d))
            assert down == ideal.hilbert_function(d - 2)
            assert up == ideal.hilbert_function(d - 1)

    @settings(derandomize=True, deadline=None)
    @given(artinian_ideals())
    def test_label_counts_are_hilbert_values(self, drawn):
        ideal, d = drawn
        region = build_region(ideal, d)
        assert len(region.up_labels) == ideal.hilbert_function(d - 1)
        assert len(region.down_labels) == ideal.hilbert_function(d - 2)

    @settings(derandomize=True, deadline=None)
    @given(artinian_ideals(max_d=12))
    def test_labels_are_standard_by_scan(self, drawn):
        ideal, d = drawn
        region = build_region(ideal, d)
        assert region.up_labels == set(standard_by_scan(ideal, d - 1))
        assert region.down_labels == set(standard_by_scan(ideal, d - 2))


class TestRegionIdeal:
    def test_degree_d_generator_dropped(self):
        region = build_region(parse_ideal(TOUCHING_IDEAL), 8)
        recovered = monomial_ideal_of_region(region)
        assert recovered == parse_ideal("x^6, y^7, xy^5z, xy^2z^3, x^3y^2z")
        assert all(g.degree() < 8 for g in recovered.generators)
        assert build_region(recovered, 8) == region

    def test_zero_ideal(self):
        assert monomial_ideal_of_region(build_region(ZERO, 5)) == ZERO

    def test_overlapping_punctures(self):
        region = build_region(parse_ideal("xy, yz"), 6)
        recovered = monomial_ideal_of_region(region)
        assert parse_ideal("xy, yz") == recovered
        assert build_region(recovered, 6) == region

    def test_empty_region_gives_unit_ideal(self):
        region = build_region(parse_ideal("1"), 3)
        assert monomial_ideal_of_region(region) == parse_ideal("1")

    def test_reconstruction_fixpoint_random(self):
        rng = random.Random(29)
        for _ in range(40):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            assert build_region(monomial_ideal_of_region(region), d) == region


class TestPunctures:
    def test_reference_side_lengths(self):
        region = build_region(parse_ideal(TOUCHING_IDEAL), 8)
        sides = {str(p.generator): p.side_length for p in puncture_list(region)}
        assert sides == {"x^6": 2, "y^7": 1, "x*y^5*z": 1, "x*y^2*z^3": 2, "x^3*y^2*z": 2}

    def test_single_floating_puncture(self):
        region = build_region(parse_ideal("xy^3z^2"), 10)
        (p,) = puncture_list(region)
        assert p.side_length == 4
        assert p.floating
        assert not p.boundary_contact

    def test_full_region_no_punctures(self):
        assert puncture_list(build_region(ZERO, 6)) == []

    def test_floating_classification_reference(self):
        region = build_region(parse_ideal(TOUCHING_IDEAL), 8)
        floating = {str(p.generator) for p in puncture_list(region) if p.floating}
        assert floating == {"x*y^5*z", "x*y^2*z^3", "x^3*y^2*z"}

    def test_corner_punctures_never_float(self):
        region = build_region(parse_ideal("x^3, y^4, z^2"), 6)
        assert all(not p.floating and p.boundary_contact for p in puncture_list(region))

    def test_fixpoint_order_independent(self):
        # the fixed point with shuffled orders gives the same set
        rng = random.Random(31)
        for _ in range(20):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            punctures = puncture_list(region)
            gens = [p.generator for p in punctures]
            expected = {p.generator for p in punctures if not p.floating}
            for _ in range(3):
                rng.shuffle(gens)
                assert non_floating_oracle(gens, d) == expected

    @staticmethod
    def assert_matches_fixed_point(region):
        punctures = puncture_list(region)
        gens = [p.generator for p in punctures]
        non_floating = {p.generator for p in punctures if not p.floating}
        assert non_floating == non_floating_oracle(gens, region.d)

    def test_breadth_first_matches_fixed_point_corpus(self, corpus):
        for ideal, d in corpus:
            self.assert_matches_fixed_point(build_region(ideal, d))

    @settings(derandomize=True, deadline=None)
    @given(label_sets(balanced=False))
    def test_breadth_first_matches_fixed_point_label_sets(self, region):
        self.assert_matches_fixed_point(region)

    def test_breadth_first_matches_fixed_point_interior_generators(self):
        rng = random.Random(20261020)
        floating = 0
        for _ in range(1500):
            region = build_region(*interior_ideal(rng))
            self.assert_matches_fixed_point(region)
            floating += sum(p.floating for p in puncture_list(region))
        assert floating == 310  # the input exercises floating punctures


class TestSubregions:
    def test_heavy_subregion_reference(self):
        region = build_region(parse_ideal(TOUCHING_IDEAL), 8)
        sub = monomial_subregion(region, m(1, 2, 1))
        down, up, cls = triangle_counts(sub)
        assert sub.d == 4
        assert cls is Balance.DOWN_HEAVY

    def test_second_reference(self):
        region = build_region(parse_ideal("x^6, y^7, z^7, xy^4z^2, xy^2z^4, x^2y^2z^2"), 8)
        sub = monomial_subregion(region, m(1, 2, 2))
        assert triangle_counts(sub)[2] is Balance.DOWN_HEAVY

    def test_unit_subregion_is_same_region(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        assert monomial_subregion(region, Monomial(0, 0, 0)) == region

    def test_matches_colon_construction(self):
        rng = random.Random(43)
        for _ in range(40):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            degree = rng.randint(0, d - 1)
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            q = m(a, b, degree - a - b)
            assert monomial_subregion(region, q) == build_region(colon(ideal, q), d - degree)

    def test_degree_bound(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        with pytest.raises(ValueError):
            monomial_subregion(region, m(4, 0, 0))


class TestOverpuncturing:
    def test_reference_values(self):
        assert overpuncturing(build_region(parse_ideal(TOUCHING_IDEAL), 8)) == 0
        assert overpuncturing(build_region(parse_ideal("xy^3z^2"), 10)) == -6
        assert overpuncturing(
            build_region(parse_ideal("x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"), 9)
        ) == 0

    def test_ideal_variant_bounds_region_variant(self):
        rng = random.Random(47)
        for _ in range(40):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            assert overpuncturing(region) <= overpuncturing_ideal(ideal, d)

    def test_perfectly_punctured_disjoint_is_balanced(self):
        # side lengths summing to d with pairwise disjoint punctures force balance
        rng = random.Random(53)
        seen = 0
        for _ in range(300):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            gens = monomial_ideal_of_region(region).generators
            if overpuncturing(region) != 0 or len(gens) < 2:
                continue
            if all(
                g.lcm(h).degree() >= d
                for i, g in enumerate(gens)
                for h in gens[i + 1:]
            ):
                assert triangle_counts(region)[2] is Balance.BALANCED
                seen += 1
        assert seen > 0


class TestRegionJson:
    def test_reference_dump(self):
        payload = region_json(build_region(parse_ideal("xy, y^2, z^3"), 4))
        assert payload == {
            "d": 4,
            "up": ["x^3", "x^2*z", "x*z^2", "y*z^2"],
            "down": ["x^2", "x*z", "y*z", "z^2"],
            "punctures": [
                {"generator": "x*y", "side": 2, "floating": False},
                {"generator": "y^2", "side": 2, "floating": False},
                {"generator": "z^3", "side": 1, "floating": False},
            ],
        }


def assert_label_order(region):
    """Both label orders and the adjacency equal a fresh revlex sort, and a
    region raw-built from the same labels is equal, with an equal hash."""
    downs = sorted(region.down_labels, key=revlex_key)
    ups = sorted(region.up_labels, key=revlex_key)
    raw = TriangularRegion(region.d, frozenset(region.up_labels), frozenset(region.down_labels))
    assert raw == region and hash(raw) == hash(region)  # raw has sorted nothing yet
    for r in (region, raw):
        assert r.up_sorted() == ups and r.down_sorted() == downs
        index = {nu: k for k, nu in enumerate(ups)}
        neighbors = [
            tuple(index[times(mu, v)] for v in (X, Y, Z) if times(mu, v) in index)
            for mu in downs
        ]
        assert _adjacency(r) == (downs, ups, neighbors)
    assert raw == region and hash(raw) == hash(region)


class TestLabelOrder:
    """Each side of a region is sorted once, or handed over already in
    order by ``build_region``; every reader sees a plain revlex sort."""

    def test_built_regions(self, corpus):
        for ideal, d in corpus:
            assert_label_order(build_region(ideal, d))

    @settings(max_examples=100, deadline=None)
    @given(artinian_ideals())
    def test_built_random(self, drawn):
        assert_label_order(build_region(*drawn))

    @settings(max_examples=100, deadline=None)
    @given(label_sets(balanced=False))
    def test_raw_labels(self, region):
        assert_label_order(region)

    def test_subregions(self, corpus):
        for ideal, d in corpus[:100]:
            region = build_region(ideal, d)
            for j in range(d):
                for mono in monomials_of_degree(j)[:4]:
                    assert_label_order(monomial_subregion(region, mono))

    def test_sorted_copies_are_fresh(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        region.up_sorted().clear()
        region.down_sorted().reverse()
        assert_label_order(region)
        assert region_json(region)["up"] == ["x^3", "x^2*z", "x*z^2", "y*z^2"]


#: The hexagon sides of the large-region benchmark workload.
LARGE_HEXAGON_DEGREES = (24, 30, 36, 42, 48)


class TestAdjacency:
    """The cell-keyed neighbour rule gives the exponent-triple adjacency."""

    @settings(max_examples=200, deadline=None)
    @given(label_sets(balanced=False))
    def test_raw_labels(self, region):
        assert _adjacency(region) == adjacency_oracle(region)

    def test_corpus(self, corpus):
        for ideal, d in corpus:
            region = build_region(ideal, d)
            assert _adjacency(region) == adjacency_oracle(region)

    @pytest.mark.parametrize("d", LARGE_HEXAGON_DEGREES)
    def test_large_hexagons(self, d):
        region = build_region(*hexagon(d // 3, d // 3, d // 3))
        assert _adjacency(region) == adjacency_oracle(region)

    def test_few_labels_on_a_large_side(self):
        # four labels a side at d = 500, all at the z corner
        region = build_region(parse_ideal("x^2, y^2, z^600"), 500)
        downs, ups, neighbors = _adjacency(region)
        assert (len(downs), len(ups)) == (4, 4)
        assert (downs, ups, neighbors) == adjacency_oracle(region)
