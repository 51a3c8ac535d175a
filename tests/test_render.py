"""SVG output: bytes against the per-vertex oracle, counts, well-formedness."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings

from triregion import (
    Lozenge,
    Monomial,
    MonomialIdeal,
    RenderOptions,
    Tiling,
    TriangularRegion,
    build_region,
    find_tiling,
    parse_ideal,
    region_svg,
    tiling_svg,
)
from conftest import (
    _down_vertices,
    _up_vertices,
    artinian_regions,
    region_svg_oracle,
    tiling_svg_oracle,
)

#: Units whose coordinates round differently.  At 2.345 and 0.003 many x
#: values fall on a rounding boundary of the 3-decimal format, so a table
#: keyed or computed by another float expression than the per-vertex one
#: changes some byte there.
UNITS = (40.0, 17.3, 0.7, 1 / 3, 2.345, 0.003)

#: Every flag on or off at least once; the labels add float centroids.
FLAGS = (
    {},
    {"show_labels": True, "mark_floating": True},
    {"shade_punctures": False, "show_labels": True},
)


def assert_oracle_bytes(region, options_list):
    tiling = find_tiling(region)
    for options in options_list:
        assert region_svg(region, options) == region_svg_oracle(region, options)
        if tiling is not None:
            assert tiling_svg(region, tiling, options) == tiling_svg_oracle(region, tiling, options)
            # a tiling built from its lozenge set alone sorts them itself
            rebuilt = Tiling(frozenset(tiling.lozenges))
            assert tiling_svg(region, rebuilt, options) == tiling_svg_oracle(region, tiling, options)


def polygon_count(svg: str, cls: str) -> int:
    return svg.count(f'class="{cls}"')


class TestRegionSvg:
    def test_full_region_triangle_count(self):
        svg = region_svg(build_region(MonomialIdeal(()), 4))
        assert polygon_count(svg, "up") == 10
        assert polygon_count(svg, "down") == 6

    def test_punctured_region(self):
        svg = region_svg(build_region(parse_ideal("xy, y^2, z^3"), 4))
        assert polygon_count(svg, "up") + polygon_count(svg, "down") == 8
        assert polygon_count(svg, "puncture") == 3

    def test_empty_region_valid(self):
        svg = region_svg(build_region(parse_ideal("1"), 3), RenderOptions(shade_punctures=False))
        assert "<polygon" not in svg
        ET.fromstring(svg)

    def test_byte_deterministic(self):
        region = build_region(parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"), 8)
        options = RenderOptions(show_labels=True, mark_floating=True)
        assert region_svg(region, options) == region_svg(region, options)

    def test_well_formed_xml(self):
        region = build_region(parse_ideal("x^3, y^4, z^2"), 6)
        ET.fromstring(region_svg(region, RenderOptions(show_labels=True)))

    def test_floating_marks(self):
        region = build_region(parse_ideal("xy^3z^2"), 10)
        marked = region_svg(region, RenderOptions(mark_floating=True))
        plain = region_svg(region, RenderOptions(mark_floating=False))
        assert "stroke-dasharray" in marked
        assert "stroke-dasharray" not in plain

    def test_options_validated(self):
        for unit in (0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                RenderOptions(unit=unit)


class TestEmbedding:
    def test_adjacency_matches_shared_edges(self):
        # the algebraic rule "up = variable * down" must coincide with the
        # two triangles sharing exactly one edge in the lattice embedding
        from triregion import monomials_of_degree

        d, unit, height = 6, 40.0, 34.641016
        ups = {
            tuple(sorted((round(x, 4), round(y, 4)) for x, y in _up_vertices(m, d, unit, height))): m
            for m in monomials_of_degree(d - 1)
        }
        for mu in monomials_of_degree(d - 2):
            down_pts = {
                (round(x, 4), round(y, 4)) for x, y in _down_vertices(mu, d, unit, height)
            }
            neighbors = set()
            for key, nu in ups.items():
                if len(down_pts & set(key)) == 2:
                    neighbors.add(nu)
            expected = {
                mu * v
                for v in (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1))
            }
            assert neighbors == expected

    def test_corner_labels_positioned(self):
        # x^{d-1} at the top, y^{d-1} bottom-left, z^{d-1} bottom-right
        d, unit, height = 5, 10.0, 8.6602540378
        top = _up_vertices(Monomial(d - 1, 0, 0), d, unit, height)
        left = _up_vertices(Monomial(0, d - 1, 0), d, unit, height)
        right = _up_vertices(Monomial(0, 0, d - 1), d, unit, height)
        assert min(y for _, y in top) == 0.0
        assert min(x for x, _ in left) == 0.0
        assert max(x for x, _ in right) == d * unit
        assert max(y for _, y in left) == max(y for _, y in right) == d * height


class TestTilingSvg:
    def test_rhombus_count(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        svg = tiling_svg(region, find_tiling(region))
        assert polygon_count(svg, "lozenge") == 4
        ET.fromstring(svg)

    def test_hexagon_three_rhombi(self):
        region = build_region(parse_ideal("x^2, y^2, z^2"), 3)
        svg = tiling_svg(region, find_tiling(region))
        assert polygon_count(svg, "lozenge") == 3

    def test_empty(self):
        region = build_region(parse_ideal("1"), 3)
        svg = tiling_svg(region, Tiling(frozenset()))
        assert polygon_count(svg, "lozenge") == 0
        ET.fromstring(svg)

    def test_mismatch_rejected(self):
        region = build_region(parse_ideal("xy, y^2, z^3"), 4)
        stray = Tiling(frozenset({Lozenge(Monomial(0, 0, 0), Monomial(1, 0, 0))}))
        with pytest.raises(ValueError):
            tiling_svg(region, stray)

    def test_deterministic(self):
        region = build_region(parse_ideal("x^4, y^4, z^4"), 6)
        tiling = find_tiling(region)
        assert tiling_svg(region, tiling) == tiling_svg(region, tiling)


class TestOracleBytes:
    """``region_svg`` and ``tiling_svg`` write the oracle's bytes exactly."""

    @pytest.mark.parametrize("unit", UNITS)
    def test_corpus(self, corpus, unit):
        options_list = [RenderOptions(unit=unit, **flags) for flags in FLAGS]
        for ideal, d in corpus:
            assert_oracle_bytes(build_region(ideal, d), options_list)

    @settings(max_examples=60, deadline=None)
    @given(artinian_regions(max_d=14))
    def test_artinian_regions(self, region):
        assert_oracle_bytes(region, [RenderOptions(unit=u, **flags) for u in UNITS for flags in FLAGS])

    def test_floating_and_labels(self):
        # a floating puncture, marked, with labels, at an odd unit
        options = RenderOptions(unit=17.3, show_labels=True, mark_floating=True)
        floating = build_region(parse_ideal("xy^3z^2"), 10)
        assert "stroke-dasharray" in region_svg(floating, options)
        assert_oracle_bytes(floating, [options])

    def test_raw_region(self):
        # labels not cut out by an ideal, without a staircase order to hand over
        region = TriangularRegion(
            4,
            frozenset({Monomial(3, 0, 0), Monomial(1, 1, 1), Monomial(0, 0, 3)}),
            frozenset({Monomial(2, 0, 0), Monomial(0, 1, 1)}),
        )
        assert_oracle_bytes(region, [RenderOptions(unit=u, **flags) for u in UNITS for flags in FLAGS])
