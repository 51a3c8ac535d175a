"""The README's library tour runs under ``from triregion import *`` and
gives the values its comments state; the package exports exactly the
names the tour and the command line need."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import triregion

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "Balance", "CriterionReport", "DegreeRecord", "FamilyConstructionError", "FamilySpec",
    "IdealSyntaxError", "IntegerMatrix", "Lozenge", "Monomial", "MonomialIdeal",
    "NotArtinianError", "Puncture", "RenderOptions", "Semistability", "StructuralTileability",
    "Tiling", "TilingCount", "TriangularRegion", "TwoOfThreeReport", "WlpReport",
    "biadjacency", "build_region", "convenient_family", "criterion_check",
    "decide_semistability", "determinant", "enumerate_tilings", "example_family",
    "find_tiling", "has_wlp", "is_tileable_structural", "monomial_ideal_of_region",
    "overpuncturing", "overpuncturing_ideal", "parse_ideal", "permanent", "puncture_list",
    "rank", "region_json", "region_svg", "tiling_json", "tiling_svg", "triangle_counts",
    "truncate", "two_of_three", "validate_tiling", "wlp_in_degree",
]

#: Helpers that live in their modules and are not re-exported.
MODULE_ONLY = {
    "monomials": ["DEGREE_CAP", "monomials_of_degree", "revlex_key"],
    "tilings": ["ENUMERATION_CAP"],
    "families": ["FIFTH_GENERATOR_NOTE", "convenient_degrees"],
    "matrices": ["matrix_json"],
}


def tour_code() -> str:
    """The ``python`` block under "## Library tour"."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.fixture(scope="module")
def tour():
    """The tour's namespace, and the value of each of its bare expressions
    keyed by its source text."""
    code = tour_code()
    namespace: dict = {}
    values = {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(code, node)] = eval(expression, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_public_names():
    assert triregion.__all__ == PUBLIC


@pytest.mark.parametrize("module, names", sorted(MODULE_ONLY.items()))
def test_helpers_stay_in_their_modules(module, names):
    for name in names:
        assert hasattr(getattr(triregion, module), name)
        assert not hasattr(triregion, name)


def test_star_import_binds_the_public_names(tour):
    namespace, _ = tour
    assert set(namespace) == set(PUBLIC) | {"__builtins__", "ideal", "region", "Z"}


def test_commented_values(tour):
    namespace, values = tour
    Monomial = namespace["Monomial"]
    witness = Monomial(1, 2, 1)
    assert str(witness) == "x*y^2*z"
    assert values["triangle_counts(region)"] == (25, 25, namespace["Balance"].BALANCED)
    punctures = values["puncture_list(region)"]
    assert (len(punctures), sum(p.floating for p in punctures)) == (5, 3)
    assert values["overpuncturing(region)"] == 0
    assert values["find_tiling(region)"] is None
    assert values["is_tileable_structural(region)"].heavy_witness == witness
    assert values["two_of_three(region)"].overpunctured_witness == witness
    Z = namespace["Z"]
    assert (Z.rows, Z.cols) == (25, 25)
    assert values["determinant(Z), permanent(Z)"] == (0, 0)
    report = values["has_wlp(ideal)"]
    assert (report.verdict, report.failing_degree) == (False, 8)
    assert values["decide_semistability(ideal, 8)"] is namespace["Semistability"].NOT_SEMISTABLE
    assert len(values["convenient_family(8, 13)"].generators) == 8
    assert values["region_svg(region)"].startswith("<?xml")
