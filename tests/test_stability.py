"""Semistability criteria: condition reports and region-based verdicts."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from triregion import (
    Monomial,
    NotArtinianError,
    Semistability,
    biadjacency,
    build_region,
    criterion_check,
    convenient_family,
    decide_semistability,
    find_tiling,
    has_wlp,
    monomial_ideal_of_region,
    parse_ideal,
    puncture_list,
    two_of_three,
)
from triregion.regions import TriangularRegion
from conftest import fraction_determinant, fraction_rank

DISJOINT_SQUARE = "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"
TOUCHING_PAIR = "x^7, x^5yz, xy^3z^3, y^7, z^8"
TOUCHING_IDEAL = "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"


class TestCriterionCheck:
    def test_strong_path_on_family(self):
        report = criterion_check(convenient_family(8, 13))
        assert report.d == 13
        assert report.applicable_strong
        assert report.wlp_verdict is True
        assert report.semistable_verdict is True

    def test_parity_blocks_strong(self):
        report = criterion_check(parse_ideal(DISJOINT_SQUARE))
        assert report.d == Fraction(9)
        assert report.cond_integer and report.cond_degrees_below
        assert report.cond_lcm_strong and report.cond_lcm_weak
        assert not report.cond_parity
        assert report.parity_offenders == (Monomial(4, 2, 2),)
        assert not report.applicable_strong
        assert report.applicable_weak

    def test_weak_only_with_wlp(self):
        report = criterion_check(parse_ideal(TOUCHING_PAIR))
        assert report.d == Fraction(9)
        assert report.cond_lcm_weak and not report.cond_lcm_strong
        assert report.min_lcm_degree == 9
        assert not report.applicable_strong and report.applicable_weak
        assert report.wlp_verdict is True
        assert report.semistable_verdict is True

    def test_inapplicable_no_verdicts(self):
        report = criterion_check(parse_ideal(TOUCHING_IDEAL))
        # degree sum 45 over t-1 = 5 gives d = 9, but z^8 reaches d
        assert not report.applicable_weak
        assert report.wlp_verdict is None
        assert report.semistable_verdict is None

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            criterion_check(parse_ideal("xy, y^2, z^3"))

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            criterion_check(parse_ideal("1"))

    def test_json_shape(self):
        payload = criterion_check(parse_ideal(DISJOINT_SQUARE)).to_json()
        assert payload["d"] == "9"
        assert payload["cond_parity"] is False
        assert payload["parity_offenders"] == ["x^4*y^2*z^2"]
        assert payload["min_lcm_degree"] >= 10

    def test_min_lcm_pair_is_the_first_least_lcm(self, corpus):
        families = [convenient_family(t, d) for t in (4, 6, 8) for d in (13, 17, 21, 25)]
        for ideal in [ideal for ideal, _ in corpus] + families:
            pairs = list(combinations(ideal.generators, 2))
            degrees = [g.lcm(h).degree() for g, h in pairs]
            report = criterion_check(ideal)
            assert report.min_lcm_degree == min(degrees), str(ideal)
            assert report.min_lcm_pair == pairs[degrees.index(min(degrees))], str(ideal)

    def test_applicable_strong_implies_weak(self):
        for t, d in ((3, 4), (4, 6), (5, 8), (6, 10)):
            report = criterion_check(convenient_family(t, d))
            assert not report.applicable_strong or report.applicable_weak


class TestStrongCriterionConsequences:
    def test_disjoint_punctures_and_socle_bound(self):
        # strong applicability forces pairwise disjoint punctures and a
        # socle living in degrees >= d-1
        for t, d in ((4, 6), (5, 8), (6, 9), (8, 13)):
            ideal = convenient_family(t, d)
            report = criterion_check(ideal)
            assert report.applicable_strong
            region = build_region(ideal, d)
            gens = monomial_ideal_of_region(region).generators
            for i, g in enumerate(gens):
                for h in gens[i + 1:]:
                    assert g.lcm(h).degree() >= d + 1
            degrees = ideal.socle_degrees()
            assert degrees and min(degrees) >= d - 1

    def test_even_floating_punctures_when_tileable(self):
        for t, d in ((5, 8), (6, 10), (8, 13)):
            ideal = convenient_family(t, d)
            region = build_region(ideal, d)
            assert find_tiling(region) is not None
            for p in puncture_list(region):
                if p.floating:
                    assert p.side_length % 2 == 0

    def test_fast_verdict_matches_rank_scan(self):
        for t, d in ((3, 5), (4, 7), (5, 9), (8, 13)):
            ideal = convenient_family(t, d)
            report = criterion_check(ideal)
            assert report.applicable_strong
            assert report.wlp_verdict == has_wlp(ideal).verdict


class TestStrongCriterionWithoutTiling:
    """Strong-criterion ideals whose side-d regions do not tile.

    The criterion applies to both, so tileability alone decides the
    verdicts, and both are negative: the square degree-d matrix is
    singular, and ``has_wlp`` fails at d.  Every convenient family tiles,
    so only ideals like these tell the tileability test from a constant.
    """

    # degrees 6, 6, 7, 6, 7 give d = 8; least lcm degree 9, mixed gaps 2
    GAPPED = "x^6, x^3y^3, y^7, x^3z^3, z^7"
    # one floating puncture, of even side 4, at d = 13
    FLOATING = "x^12, y^11, x^3y^2z^4, y^6z^5, z^9"

    @pytest.mark.parametrize(
        "text, d, size, witness",
        [(GAPPED, 8, 25, Monomial(3, 0, 0)), (FLOATING, 13, 64, Monomial(0, 0, 4))],
    )
    def test_verdicts_negative(self, text, d, size, witness):
        ideal = parse_ideal(text)
        report = criterion_check(ideal)
        assert report.d == d and report.min_lcm_degree == d + 1
        assert report.applicable_strong
        assert report.wlp_verdict is False and report.semistable_verdict is False
        assert has_wlp(ideal).failing_degree == d
        region = build_region(ideal, d)
        matrix = biadjacency(region)
        assert (matrix.rows, matrix.cols) == (size, size)
        assert fraction_rank(matrix) == size - 1
        assert fraction_determinant(matrix) == 0
        assert find_tiling(region) is None
        assert two_of_three(region).overpunctured_witness == witness
        assert decide_semistability(ideal, d) is Semistability.NOT_SEMISTABLE

    def test_gaps_and_floating_puncture(self):
        gapped = parse_ideal(self.GAPPED)
        assert [g.degree() for g in gapped.generators] == [6, 6, 7, 6, 7]
        assert all(8 - g.degree() == 2 for g in gapped.generators if not g.is_pure_power())
        floating = [p for p in puncture_list(build_region(parse_ideal(self.FLOATING), 13)) if p.floating]
        assert [(p.generator, p.side_length) for p in floating] == [(Monomial(3, 2, 4), 4)]


class TestDecideSemistability:
    def test_perfectly_punctured_tileable(self):
        assert (
            decide_semistability(parse_ideal(DISJOINT_SQUARE), 9)
            is Semistability.SEMISTABLE
        )

    def test_perfectly_punctured_non_tileable(self):
        assert (
            decide_semistability(parse_ideal(TOUCHING_IDEAL), 8)
            is Semistability.NOT_SEMISTABLE
        )

    def test_under_punctured_undetermined(self):
        assert (
            decide_semistability(parse_ideal("xy^3z^2, x^10, y^10, z^10"), 10)
            is Semistability.UNDETERMINED
        )

    def test_not_perfectly_punctured_but_tileable(self):
        # tileability together with semistability would force perfect
        # puncturing, so a tileable over-punctured presentation refutes it
        ideal = parse_ideal("x^2, xy, y^2, z^4")
        assert decide_semistability(ideal, 4) is Semistability.NOT_SEMISTABLE

    def test_generator_degree_above_d_rejected(self):
        with pytest.raises(ValueError):
            decide_semistability(parse_ideal(TOUCHING_IDEAL), 7)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            decide_semistability(parse_ideal("1"), 3)

    def test_empty_region_message(self):
        with pytest.raises(ValueError, match=r"^the side-d region is empty$"):
            decide_semistability(parse_ideal("x, y, z"), 3)

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            decide_semistability(parse_ideal("xy, y^2, z^3"), 5)


class TestNoRegionBuilt:
    """The strong criterion and the semistability decision read tileability
    off the ideal's staircase; neither builds a ``TriangularRegion``."""

    @pytest.fixture(autouse=True)
    def refuse_regions(self, monkeypatch):
        def refuse(region):
            raise AssertionError("a TriangularRegion was built")

        monkeypatch.setattr(TriangularRegion, "__post_init__", refuse)

    @pytest.mark.parametrize("t, d", [(4, 13), (8, 25), (6, 25)])
    def test_family(self, t, d):
        ideal = convenient_family(t, d)
        report = criterion_check(ideal)
        assert report.applicable_strong and report.wlp_verdict is True
        assert decide_semistability(ideal, d) is Semistability.SEMISTABLE

    def test_strong_ideal_without_tiling(self):
        ideal = parse_ideal(TestStrongCriterionWithoutTiling.GAPPED)
        assert criterion_check(ideal).wlp_verdict is False
        assert decide_semistability(ideal, 8) is Semistability.NOT_SEMISTABLE

    def test_refusal_is_armed(self):
        with pytest.raises(AssertionError, match="TriangularRegion"):
            build_region(convenient_family(4, 13), 13)
