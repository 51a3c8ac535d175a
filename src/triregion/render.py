"""Deterministic SVG renderings of regions, punctures, and tilings.

The lattice embedding puts x^{d-1} at the top, y^{d-1} bottom-left and
z^{d-1} bottom-right, with the y-axis pointing down: the up triangle
labelled x^a y^b z^c spans (a/2 + c, d - a) .. (a/2 + c + 1, d - a) with
apex half a step above, and the down triangle with the same label hangs
from ((a+1)/2 + c, d - 1 - a) with apex half a step below.  Coordinates
are emitted with fixed 3-decimal formatting, so identical inputs give
byte-identical documents.  Each call formats every coordinate once, into
tables of one y per row and one x triple (x0, x0 + u, x0 + u/2) per
half-integer column, and writes each triangle or lozenge as one string
from them; the bytes are those of formatting each vertex on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .monomials import Monomial
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
    mark_floating: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.unit) and self.unit > 0):
            raise ValueError("unit must be positive and finite")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _points(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _lattice(d: int, u: float, h: float):
    """Per-call coordinate tables, as floats and as text.

    Column k (half-integer position k/2) holds (x0, x0 + u, x0 + u/2) with
    x0 = (k/2)*u, the x values of a triangle whose left corner is there;
    row r holds the y value r*h.  The up triangle of x^a y^b z^c has
    column a + 2c and base row d - a, apex on the row above; the down
    triangle of the same label has column a + 2c + 1 and base row
    d - 1 - a, apex on the row below.
    """
    xs = [(x0, x0 + u, x0 + u / 2) for x0 in (k / 2 * u for k in range(2 * d))]
    ys = [r * h for r in range(d + 1)]
    return xs, ys, [tuple(map(_fmt, x)) for x in xs], [_fmt(y) for y in ys]


def _document(d: int, u: float, h: float, body: list[str]) -> str:
    margin = u / 2
    width = d * u + 2 * margin
    height = d * h + 2 * margin
    if not math.isfinite(width):  # every vertex coordinate, height included, is below width
        raise ValueError(f"a side-{d} canvas at unit {u} overflows")
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f'<g transform="translate({_fmt(margin)},{_fmt(margin)})">\n'
    )
    return head + "".join(line + "\n" for line in body) + "</g>\n</svg>\n"


def _label_text(m: Monomial, cx: float, cy: float, u: float) -> str:
    # a centre sums three or four vertex coordinates before dividing, so it
    # can overflow on a canvas whose width is still finite
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"a label centre at unit {u} overflows")
    return (
        f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="{_fmt(u / 5)}" '
        f'text-anchor="middle" fill="{STROKE}">{m}</text>'
    )


def region_svg(region: TriangularRegion, options: RenderOptions = RenderOptions()) -> str:
    """SVG of the surviving triangles, with the punctures shaded."""
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    xs, ys, xt, yt = _lattice(d, u, h)
    body: list[str] = []
    # the down triangle of a label sits half a column right of, and one row
    # above, its up triangle, with the apex below the base instead of above
    for cls, fill, labels, down in (
        ("up", UP_FILL, region.up_sorted(), 0),
        ("down", DOWN_FILL, region.down_sorted(), 1),
    ):
        for m in labels:
            k, r = m.a + 2 * m.c + down, d - m.a - down
            apex = r + 1 if down else r - 1
            (x0, x1, xm), y, ya = xt[k], yt[r], yt[apex]
            body.append(
                f'<polygon class="{cls}" points="{x0},{y} {x1},{y} {xm},{ya}" '
                f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>'
            )
            if options.show_labels:
                (x0, x1, xm), y, ya = xs[k], ys[r], ys[apex]
                body.append(_label_text(m, (x0 + x1 + xm) / 3, (y + y + ya) / 3 + u / 10, u))
    for p in puncture_list(region):  # in generator order, descending revlex
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
    """SVG of a tiling: one rhombus per lozenge, colored by direction.

    Each rhombus is four (column, x slot, row) corners of ``_lattice``:
    its down triangle's and its up triangle's corners off their shared edge.
    """
    validate_tiling(region, tiling)
    u = options.unit
    h = math.sqrt(3) / 2 * u
    d = region.d
    xs, ys, xt, yt = _lattice(d, u, h)
    body: list[str] = []
    for loz in tiling.sorted_lozenges():
        mu, nu = loz.down_label, loz.up_label
        k, r = mu.a + 2 * mu.c + 1, d - 1 - mu.a  # the down triangle's column and base row
        if nu.a != mu.a:
            # up sits on the top edge of the down triangle
            quad, fill = ((k, 2, r - 1), (k, 1, r), (k, 2, r + 1), (k, 0, r)), LOZENGE_FILLS["x"]
        elif nu.b != mu.b:
            # up hangs off the lower-left edge
            quad, fill = ((k, 1, r), (k, 2, r + 1), (k - 1, 0, r + 1), (k - 1, 2, r)), LOZENGE_FILLS["y"]
        else:
            # up hangs off the lower-right edge
            quad, fill = ((k, 0, r), (k, 2, r + 1), (k + 1, 1, r + 1), (k + 1, 2, r)), LOZENGE_FILLS["z"]
        (k0, s0, r0), (k1, s1, r1), (k2, s2, r2), (k3, s3, r3) = quad
        body.append(
            f'<polygon class="lozenge" points="{xt[k0][s0]},{yt[r0]} {xt[k1][s1]},{yt[r1]} '
            f'{xt[k2][s2]},{yt[r2]} {xt[k3][s3]},{yt[r3]}" '
            f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            cx = sum(xs[k][s] for k, s, _ in quad) / 4
            cy = sum(ys[r] for _, _, r in quad) / 4 + u / 10
            body.append(_label_text(mu, cx, cy, u))
    return _document(d, u, h, body)
