"""triregion: monomial ideals in three variables through lozenge tilings.

The package decides the weak Lefschetz property and syzygy-bundle
semistability for Artinian monomial ideals in K[x, y, z] by way of
punctured triangular regions: construction and analysis of the regions,
tiling existence and exact enumeration, exact integer linear algebra on
bi-adjacency matrices, family constructors, and SVG rendering.
"""

from .monomials import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    parse_ideal,
)
from .regions import (
    Balance,
    Puncture,
    TriangularRegion,
    build_region,
    monomial_ideal_of_region,
    overpuncturing,
    overpuncturing_ideal,
    puncture_list,
    region_json,
    triangle_counts,
)
from .tilings import (
    Lozenge,
    StructuralTileability,
    Tiling,
    TilingCount,
    TwoOfThreeReport,
    enumerate_tilings,
    find_tiling,
    is_tileable_structural,
    tiling_json,
    two_of_three,
    validate_tiling,
)
from .matrices import (
    IntegerMatrix,
    biadjacency,
    determinant,
    permanent,
    rank,
)
from .lefschetz import DegreeRecord, WlpReport, has_wlp, truncate, wlp_in_degree
from .stability import (
    CriterionReport,
    Semistability,
    criterion_check,
    decide_semistability,
)
from .families import (
    FamilyConstructionError,
    FamilySpec,
    convenient_family,
    example_family,
)
from .render import RenderOptions, region_svg, tiling_svg

__version__ = "0.1.0"

__all__ = [
    "Balance",
    "CriterionReport",
    "DegreeRecord",
    "FamilyConstructionError",
    "FamilySpec",
    "IdealSyntaxError",
    "IntegerMatrix",
    "Lozenge",
    "Monomial",
    "MonomialIdeal",
    "NotArtinianError",
    "Puncture",
    "RenderOptions",
    "Semistability",
    "StructuralTileability",
    "Tiling",
    "TilingCount",
    "TriangularRegion",
    "TwoOfThreeReport",
    "WlpReport",
    "biadjacency",
    "build_region",
    "convenient_family",
    "criterion_check",
    "decide_semistability",
    "determinant",
    "enumerate_tilings",
    "example_family",
    "find_tiling",
    "has_wlp",
    "is_tileable_structural",
    "monomial_ideal_of_region",
    "overpuncturing",
    "overpuncturing_ideal",
    "parse_ideal",
    "permanent",
    "puncture_list",
    "rank",
    "region_json",
    "region_svg",
    "tiling_json",
    "tiling_svg",
    "triangle_counts",
    "truncate",
    "two_of_three",
    "validate_tiling",
    "wlp_in_degree",
]
