"""Command-line interface: one subcommand per capability, JSON or text output.

Each subcommand is declared once, in ``COMMANDS``: its help, its arguments
and one handler that returns the JSON payload.  The parser depends on that
table alone and is built once per process; ``main`` reads
``$TRIREGION_FORMAT`` on each call (any value but ``text`` means JSON).

Exit codes: 0 success, 1 usage or ideal-syntax errors, 2 precondition
violations (``ValueError``) and failed file writes (``OSError``), with a
machine-readable error object on stderr.  No algorithm behind a command
recurses, so no input is too deep.  Output is fully deterministic; big
integers are serialized as decimal strings so downstream JSON consumers
cannot lose precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .families import FIFTH_GENERATOR_NOTE, FamilySpec, convenient_family, example_family
from .lefschetz import has_wlp
from .matrices import biadjacency, determinant, matrix_json, permanent, rank
from .monomials import IdealSyntaxError, parse_ideal
from .regions import TriangularRegion, build_region, region_json, triangle_counts
from .render import RenderOptions, region_svg, tiling_svg
from .stability import criterion_check, decide_semistability
from .tilings import find_tiling, tiling_json

FORMAT_ENV = "TRIREGION_FORMAT"


def _region(args: argparse.Namespace) -> TriangularRegion:
    return build_region(parse_ideal(args.ideal), args.degree)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _hilbert(args: argparse.Namespace) -> dict:
    ideal = parse_ideal(args.ideal)
    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    values = ideal._hilbert_values(args.max_degree)
    return {
        "ideal": str(ideal),
        "values": [{"degree": j, "value": v} for j, v in enumerate(values)],
    }


def _region_command(args: argparse.Namespace) -> dict:
    region = _region(args)
    payload = region_json(region)
    payload["classification"] = triangle_counts(region)[2].value
    if args.svg:
        _write(args.svg, region_svg(region))
        payload["svg_written"] = args.svg
    return payload


def _tile(args: argparse.Namespace) -> dict:
    tiling = find_tiling(_region(args))
    return {
        "tileable": tiling is not None,
        "tiling": tiling_json(tiling) if tiling is not None else None,
    }


def _count(args: argparse.Namespace) -> dict:
    region = _region(args)
    balanced = len(region.up_labels) == len(region.down_labels)
    return {"count": str(permanent(biadjacency(region)) if balanced else 0), "exact": True}


def _semistable(args: argparse.Namespace) -> dict:
    verdict = decide_semistability(parse_ideal(args.ideal), args.degree)
    return {"d": args.degree, "verdict": verdict.value}


def _family(args: argparse.Namespace) -> dict:
    try:
        params = [int(part) for part in args.params.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"--params must be integers, got {args.params!r}")
    if args.kind == "example":
        ideal = example_family(FamilySpec(tuple(params)))
    elif len(params) != 2:
        raise ValueError("convenient families take exactly two parameters: t,d")
    else:
        ideal = convenient_family(*params)
    return {
        "ideal": str(ideal),
        "degrees": sorted((g.degree() for g in ideal.generators), reverse=True),
        "validation": criterion_check(ideal).to_json(),
        "notes": [FIFTH_GENERATOR_NOTE] if len(ideal.generators) >= 5 else [],
    }


def _render(args: argparse.Namespace) -> dict:
    region = _region(args)
    options = RenderOptions(
        unit=args.unit, show_labels=args.labels, mark_floating=args.mark_floating
    )
    if args.tiling:
        tiling = find_tiling(region)
        if tiling is None:
            raise ValueError("the region has no tiling to render")
        document = tiling_svg(region, tiling, options)
    else:
        document = region_svg(region, options)
    _write(args.out, document)
    return {"svg_written": args.out}


def _matrix(args: argparse.Namespace) -> dict:
    matrix = biadjacency(_region(args))
    payload = matrix_json(matrix)
    payload["rank"] = rank(matrix)
    if matrix.is_square():
        payload["determinant"] = str(determinant(matrix))
        payload["permanent"] = str(permanent(matrix))
    return payload


_IDEAL = ("--ideal", {"required": True, "help": "ideal text, e.g. 'x^2, y^2, z^2'"})
_DEGREE = ("--degree", {"type": int, "required": True})

#: name -> (help, ((flag, argparse keywords), ...), handler returning the payload)
COMMANDS = {
    "hilbert": ("Hilbert function values of the quotient",
                (_IDEAL, ("--max-degree", {"type": int, "required": True})), _hilbert),
    "region": ("label sets and punctures of the side-d region",
               (_IDEAL, _DEGREE, ("--svg", {"help": "also write an SVG rendering to this path"})),
               _region_command),
    "tile": ("find one lozenge tiling if any exists", (_IDEAL, _DEGREE), _tile),
    "count": ("exact number of lozenge tilings", (_IDEAL, _DEGREE), _count),
    "wlp": ("weak Lefschetz property decision with per-degree ranks", (_IDEAL,),
            lambda args: has_wlp(parse_ideal(args.ideal)).to_json()),
    "criterion": ("generator-degree criteria and verdicts", (_IDEAL,),
                  lambda args: criterion_check(parse_ideal(args.ideal)).to_json()),
    "semistable": ("syzygy-bundle semistability via tileability", (_IDEAL, _DEGREE), _semistable),
    "family": ("construct a validated family ideal", (
        ("--kind", {"choices": ("example", "convenient"), "required": True}),
        ("--params", {"required": True, "help": "comma-separated integers: the degree vector "
                      "(example) or t,d (convenient)"}),
    ), _family),
    "render": ("write an SVG of the region or of one tiling", (
        _IDEAL,
        _DEGREE,
        ("--out", {"required": True}),
        ("--tiling", {"action": "store_true", "help": "render a tiling instead of the region"}),
        ("--unit", {"type": float, "default": 40.0}),
        ("--labels", {"action": "store_true"}),
        ("--mark-floating", {"action": "store_true"}),
    ), _render),
    "matrix": ("bi-adjacency matrix of the side-d region", (_IDEAL, _DEGREE), _matrix),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triregion",
        description="Triangular regions, lozenge tilings, weak Lefschetz and semistability decisions.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        help="output format (default json, or $TRIREGION_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _as_text(payload: dict) -> str:
    """Flatten the JSON payload into deterministic ``key.path = value`` lines;
    an empty list or dict is one ``key = []`` or ``key = {}`` line."""
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict) and value:
            items = ((f"{prefix}{k}" if not prefix else f"{prefix}.{k}", v) for k, v in value.items())
        elif isinstance(value, list) and value:
            items = ((f"{prefix}.{i}" if prefix else str(i), v) for i, v in enumerate(value))
        else:
            lines.append(f"{prefix} = {value}")
            return
        for key, v in items:
            emit(key, v)

    emit("", payload)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        payload = args.handler(args)
    except IdealSyntaxError as exc:
        json.dump({"error": {"type": "syntax", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except (ValueError, OSError) as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr
        )
        sys.stderr.write("\n")
        return 2
    if (args.format or os.environ.get(FORMAT_ENV)) == "text":
        print(_as_text(payload))
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
