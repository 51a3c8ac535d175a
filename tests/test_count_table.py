"""The region routines against slow oracles that test every monomial
against every label: the region ideal read off the label staircase, the
structural scan over the streamed layers of the divisibility count table,
and the two-of-three witness.  The count table's layers are checked
against a brute-force count as well."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from triregion import (
    Monomial,
    MonomialIdeal,
    StructuralTileability,
    build_region,
    convenient_family,
    is_tileable_structural,
    monomial_ideal_of_region,
    overpuncturing,
    puncture_list,
    two_of_three,
)
from triregion.monomials import monomials_of_degree
from triregion.tilings import _divisor_counts
from conftest import (
    artinian_regions,
    colon,
    hexagon,
    label_sets,
    monomial_subregion,
    overpunctured_witness_oracle,
    region_ideal_oracle,
    structural_oracle,
)


def brute_force_counts(labels, degree):
    return [
        [
            [sum(1 for l in labels if Monomial(j - b - c, b, c).divides(l)) for b in range(j - c + 1)]
            for c in range(j + 1)
        ]
        for j in range(degree + 1)
    ]


def assert_matches_oracles(region):
    assert monomial_ideal_of_region(region) == region_ideal_oracle(region)
    assert is_tileable_structural(region) == structural_oracle(region)
    assert two_of_three(region).overpunctured_witness == overpunctured_witness_oracle(region)


def streamed_counts(labels, degree):
    """The count table's layers as streamed (degree first), put back in
    ascending degree."""
    return list(_divisor_counts(labels, degree))[::-1]


class TestCountTable:
    @settings(derandomize=True, deadline=None)
    @given(artinian_regions())
    def test_brute_force_counts(self, region):
        d = region.d
        assert streamed_counts(region.up_labels, d - 1) == brute_force_counts(region.up_labels, d - 1)
        assert streamed_counts(region.down_labels, d - 2) == brute_force_counts(region.down_labels, d - 2)

    def test_brute_force_counts_corpus(self, corpus):
        for ideal, d in corpus[:100]:
            region = build_region(ideal, d)
            assert streamed_counts(region.up_labels, d - 1) == brute_force_counts(region.up_labels, d - 1)
            assert streamed_counts(region.down_labels, d - 2) == brute_force_counts(region.down_labels, d - 2)

    def test_no_labels(self):
        assert list(_divisor_counts(frozenset(), -1)) == []
        assert list(_divisor_counts(frozenset(), 2)) == [[[0, 0, 0], [0, 0], [0]], [[0, 0], [0]], [[0]]]


class TestAgainstOracles:
    @settings(derandomize=True, deadline=None)
    @given(artinian_regions())
    def test_random_regions(self, region):
        assert_matches_oracles(region)

    @settings(derandomize=True, deadline=None)
    @given(label_sets())
    def test_balanced_label_sets(self, region):
        assert monomial_ideal_of_region(region) == region_ideal_oracle(region)
        assert is_tileable_structural(region) == structural_oracle(region)

    @settings(derandomize=True, deadline=None)
    @given(label_sets(balanced=False))
    def test_unbalanced_label_sets(self, region):
        assert monomial_ideal_of_region(region) == region_ideal_oracle(region)
        assert is_tileable_structural(region) == structural_oracle(region)

    def test_corpus(self, corpus):
        for ideal, d in corpus:
            assert_matches_oracles(build_region(ideal, d))

    @settings(derandomize=True, deadline=None)
    @given(artinian_regions())
    def test_subregion_ideal_is_truncated_colon(self, region):
        # q divides a label of the subregion at m iff m*q divides a label of
        # the region, so the subregion's ideal is (I : m) cut below d - deg m
        d = region.d
        region_ideal = monomial_ideal_of_region(region)
        for j in range(d):
            for m in monomials_of_degree(j):
                gens = colon(region_ideal, m).generators
                expected = MonomialIdeal.from_generators(g for g in gens if g.degree() < d - j)
                assert monomial_ideal_of_region(monomial_subregion(region, m)) == expected


@pytest.fixture(scope="module")
def hexagon_60():
    ideal, d = hexagon(20, 20, 20)
    return ideal, build_region(ideal, d)


class TestLargeHexagon:
    """The d = 60 hexagon x^40, y^40, z^40: 1200 triangles of each kind.
    Its ideal, and those of the d = 96 hexagon and the d = 25 family, are
    read back off their regions."""

    def test_structural_tileable(self, hexagon_60):
        _, region = hexagon_60
        assert is_tileable_structural(region) == StructuralTileability(True, False, None)

    def test_three_corner_punctures(self, hexagon_60):
        _, region = hexagon_60
        punctures = puncture_list(region)
        assert {p.generator for p in punctures} == {Monomial(40, 0, 0), Monomial(0, 40, 0), Monomial(0, 0, 40)}
        assert all(p.side_length == 20 and p.boundary_contact and not p.floating for p in punctures)
        assert overpuncturing(region) == 0

    @pytest.mark.parametrize(
        "ideal, d",
        [hexagon(20, 20, 20), hexagon(32, 32, 32), (convenient_family(8, 25), 25)],
        ids=["hexagon-60", "hexagon-96", "family-8-25"],
    )
    def test_ideal_rebuilds_region(self, ideal, d):
        region = build_region(ideal, d)
        region_ideal = monomial_ideal_of_region(region)
        assert region_ideal == ideal
        assert build_region(region_ideal, d) == region
