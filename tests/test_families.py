"""Family constructors: closed formulas, validation, and certified verdicts."""

from __future__ import annotations

import pytest

from triregion import (
    FamilyConstructionError,
    FamilySpec,
    Monomial,
    Semistability,
    convenient_family,
    criterion_check,
    decide_semistability,
    example_family,
    has_wlp,
    parse_ideal,
)
from triregion.families import convenient_degrees


EIGHT_GENERATOR_IDEAL = parse_ideal(
    "x^12, x^6y^2z^3, x^3y^2z^6, xy^5z^5, xyz^9, xy^9z, y^12, z^12"
)


class TestFamilySpec:
    def test_valid(self):
        spec = FamilySpec((12, 12, 12, 11, 11, 11, 11, 11))
        assert spec.d == 13 and spec.t == 8

    def test_sum_not_divisible(self):
        with pytest.raises(FamilyConstructionError, match="divisible"):
            FamilySpec((8, 8, 8, 8, 8, 8, 8))

    def test_degree_reaching_d(self):
        # sum 12 over t-1 = 3 gives d = 4, but one degree is 6
        with pytest.raises(FamilyConstructionError, match="below"):
            FamilySpec((6, 2, 2, 2))

    def test_parity_budget(self):
        with pytest.raises(FamilyConstructionError, match="odd"):
            FamilySpec((4, 4, 4, 4, 4))

    def test_too_few(self):
        with pytest.raises(FamilyConstructionError):
            FamilySpec((3, 3))


class TestExampleFamily:
    def test_reference_instance(self):
        ideal = example_family(FamilySpec((12, 12, 12, 11, 11, 11, 11, 11)))
        assert ideal == EIGHT_GENERATOR_IDEAL

    def test_three_pure_powers(self):
        assert example_family(FamilySpec((4, 3, 3))) == parse_ideal("x^4, y^3, z^3")

    def test_odd_gaps_funneled_to_corners(self):
        # d = 10; the two odd-gap degrees (the 7s) must land on corners
        ideal = example_family(FamilySpec((7, 8, 8, 7)))
        pure = sorted(g.degree() for g in ideal.generators if g.is_pure_power())
        assert pure == [7, 7, 8]

    def test_mixed_generator_degrees_match(self):
        spec = FamilySpec((10, 10, 10, 9, 9, 9, 9))
        ideal = example_family(spec)
        assert sorted(g.degree() for g in ideal.generators) == sorted(spec.degrees)


class TestConvenientFamily:
    def test_reference_instance(self):
        assert convenient_family(8, 13) == EIGHT_GENERATOR_IDEAL

    def test_agrees_with_example_constructor(self):
        assert convenient_family(8, 13) == example_family(
            FamilySpec((12, 12, 12, 11, 11, 11, 11, 11))
        )

    def test_degenerate_three_generators(self):
        assert convenient_family(3, 5) == parse_ideal("x^2, y^4, z^4")

    def test_zero_exponent_boundary_case(self):
        # t=5, d=7 puts the fifth generator on the boundary (x^3*y^2)
        ideal = convenient_family(5, 7)
        assert Monomial(3, 2, 0) in ideal.generators
        report = criterion_check(ideal)
        assert report.applicable_strong
        assert report.wlp_verdict is True

    def test_bounds_rejected(self):
        with pytest.raises(FamilyConstructionError):
            convenient_family(5, 6)
        with pytest.raises(FamilyConstructionError):
            convenient_family(2, 10)

    def test_degree_vector_helper(self):
        assert convenient_degrees(8, 13).degrees == (12, 12, 12, 11, 11, 11, 11, 11)


class TestFamilyGuarantees:
    GRID = [(t, d) for t in range(3, 9) for d in range(2 * t - 3, 16, 3)]

    @pytest.mark.parametrize("t,d", GRID)
    def test_strong_criterion_holds(self, t, d):
        for ideal in (convenient_family(t, d), example_family(convenient_degrees(t, d))):
            report = criterion_check(ideal)
            assert report.applicable_strong
            assert report.wlp_verdict is True
            assert report.semistable_verdict is True
            assert decide_semistability(ideal, d) is Semistability.SEMISTABLE

    def test_brute_force_agreement_sample(self):
        for t, d in ((4, 6), (5, 8), (6, 11)):
            ideal = convenient_family(t, d)
            assert has_wlp(ideal).verdict

    def test_regions_perfectly_punctured_without_heavy_subregions(self):
        from triregion import build_region, two_of_three

        for t, d in ((4, 6), (5, 9), (8, 13)):
            region = build_region(convenient_family(t, d), d)
            coupling = two_of_three(region)
            assert coupling.perfectly_punctured
            assert coupling.no_overpunctured_subregion
            assert coupling.tileable
