"""Deterministic SVG renderings of regions, punctures, and tilings.

The lattice embedding puts x^{d-1} at the top, y^{d-1} bottom-left and
z^{d-1} bottom-right, with the y-axis pointing down: the up triangle
labelled x^a y^b z^c spans (a/2 + c, d - a) .. (a/2 + c + 1, d - a) with
apex half a step above, and the down triangle with the same label hangs
from ((a+1)/2 + c, d - 1 - a) with apex half a step below.  Coordinates
are emitted with fixed 3-decimal formatting, so identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .monomials import Monomial, X, Y, revlex_key
from .regions import TriangularRegion, puncture_list
from .tilings import Tiling, validate_tiling

UP_FILL = "#f4f4f4"
DOWN_FILL = "#d9d9d9"
PUNCTURE_FILL = "#8c8c8c"
FLOATING_STROKE = "#c0392b"
STROKE = "#333333"
LOZENGE_FILLS = {"x": "#4e79a7", "y": "#f28e2b", "z": "#76b7b2"}


@dataclass(frozen=True)
class RenderOptions:
    unit: float = 40.0
    show_labels: bool = False
    shade_punctures: bool = True
    mark_floating: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.unit) and self.unit > 0):
            raise ValueError("unit must be positive and finite")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _points(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _up_vertices(m: Monomial, d: int, u: float, h: float) -> list[tuple[float, float]]:
    x0 = (m.a / 2 + m.c) * u
    return [
        (x0, (d - m.a) * h),
        (x0 + u, (d - m.a) * h),
        (x0 + u / 2, (d - 1 - m.a) * h),
    ]


def _down_vertices(m: Monomial, d: int, u: float, h: float) -> list[tuple[float, float]]:
    x0 = ((m.a + 1) / 2 + m.c) * u
    return [
        (x0, (d - 1 - m.a) * h),
        (x0 + u, (d - 1 - m.a) * h),
        (x0 + u / 2, (d - m.a) * h),
    ]


def _document(d: int, u: float, h: float, body: list[str]) -> str:
    margin = u / 2
    width = d * u + 2 * margin
    height = d * h + 2 * margin
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f'<g transform="translate({_fmt(margin)},{_fmt(margin)})">\n'
    )
    return head + "".join(line + "\n" for line in body) + "</g>\n</svg>\n"


def _label_text(m: Monomial, cx: float, cy: float, u: float) -> str:
    return (
        f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="{_fmt(u / 5)}" '
        f'text-anchor="middle" fill="{STROKE}">{m}</text>'
    )


def region_svg(region: TriangularRegion, options: RenderOptions = RenderOptions()) -> str:
    """SVG of the surviving triangles, with punctures shaded on request."""
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    body: list[str] = []
    for m in region.up_sorted():
        pts = _up_vertices(m, d, u, h)
        body.append(
            f'<polygon class="up" points="{_points(pts)}" '
            f'fill="{UP_FILL}" stroke="{STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            cx = sum(p[0] for p in pts) / 3
            cy = sum(p[1] for p in pts) / 3 + u / 10
            body.append(_label_text(m, cx, cy, u))
    for m in region.down_sorted():
        pts = _down_vertices(m, d, u, h)
        body.append(
            f'<polygon class="down" points="{_points(pts)}" '
            f'fill="{DOWN_FILL}" stroke="{STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            cx = sum(p[0] for p in pts) / 3
            cy = sum(p[1] for p in pts) / 3 + u / 10
            body.append(_label_text(m, cx, cy, u))
    if options.shade_punctures:
        for p in sorted(puncture_list(region), key=lambda p: revlex_key(p.generator)):
            g, s = p.generator, p.side_length
            x0 = (g.a / 2 + g.c) * u
            pts = [
                (x0, (d - g.a) * h),
                (x0 + s * u, (d - g.a) * h),
                (x0 + s * u / 2, (d - g.a - s) * h),
            ]
            extra = ""
            if options.mark_floating and p.floating:
                extra = f' stroke="{FLOATING_STROKE}" stroke-width="2" stroke-dasharray="4 2"'
            body.append(
                f'<polygon class="puncture" points="{_points(pts)}" '
                f'fill="{PUNCTURE_FILL}" fill-opacity="0.6"{extra}/>'
            )
    return _document(d, u, h, body)


def tiling_svg(
    region: TriangularRegion,
    tiling: Tiling,
    options: RenderOptions = RenderOptions(),
) -> str:
    """SVG of a tiling: one rhombus per lozenge, colored by direction."""
    validate_tiling(region, tiling)
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    body: list[str] = []
    for loz in tiling.sorted_lozenges():
        mu = loz.down_label
        down = _down_vertices(mu, d, u, h)
        direction = loz.direction()
        up = _up_vertices(loz.up_label, d, u, h)
        if direction == X:
            # up sits on the top edge of the down triangle
            quad = [up[2], up[1], down[2], down[0]]
            fill = LOZENGE_FILLS["x"]
        elif direction == Y:
            # up hangs off the lower-left edge
            quad = [down[1], down[2], up[0], up[2]]
            fill = LOZENGE_FILLS["y"]
        else:
            # up hangs off the lower-right edge
            quad = [down[0], down[2], up[1], up[2]]
            fill = LOZENGE_FILLS["z"]
        body.append(
            f'<polygon class="lozenge" points="{_points(quad)}" '
            f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            cx = sum(p[0] for p in quad) / 4
            cy = sum(p[1] for p in quad) / 4 + u / 10
            body.append(_label_text(mu, cx, cy, u))
    return _document(d, u, h, body)
