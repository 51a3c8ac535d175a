#!/usr/bin/env python3
"""Construct validated ideal families with the weak Lefschetz property.

Given admissible generator degrees (sum divisible by t-1, every degree
below the quotient d, at most three odd gaps d - d_i), the constructors
build ideals whose punctures are pairwise disjoint, perfectly punctured,
and even where floating.  The strong criterion then applies, and the
families' regions tile, so ``criterion_check`` certifies both the weak
Lefschetz property and semistability by one tileability check.
"""

import os

from triregion import (
    FamilySpec,
    RenderOptions,
    build_region,
    convenient_family,
    criterion_check,
    example_family,
    region_svg,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# The simple closed form, for growing generator counts.
for t, d in [(3, 5), (4, 7), (5, 9), (6, 11), (7, 13), (8, 13)]:
    ideal = convenient_family(t, d)
    report = criterion_check(ideal)
    print(f"t={t} d={d:2}: ({ideal})")
    print(
        f"        strong criterion: {report.applicable_strong}; "
        f"wlp={report.wlp_verdict} semistable={report.semistable_verdict}"
    )

# The general constructor on an explicit degree vector reproduces the
# eight-generator instance of the convenient form.
vector = FamilySpec((12, 12, 12, 11, 11, 11, 11, 11))
general = example_family(vector)
simple = convenient_family(8, 13)
print(f"degree vector {vector.degrees} -> ({general})")
print(f"constructors agree: {general == simple}")

with open(os.path.join(OUT, "eight_generator_region.svg"), "w") as fh:
    fh.write(
        region_svg(build_region(simple, 13), RenderOptions(unit=28, mark_floating=True))
    )
print(f"wrote {OUT}/eight_generator_region.svg")
