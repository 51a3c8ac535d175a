"""Command-line interface: one subcommand per capability, JSON or text output.

Exit codes: 0 success, 1 usage or ideal-syntax errors, 2 precondition
violations (``ValueError``) and failed file writes (``OSError``), with a
machine-readable error object on stderr.  No algorithm behind a command
recurses, so no input is too deep.  Output is fully deterministic; big
integers are serialized as decimal strings so downstream JSON consumers
cannot lose precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import (
    FIFTH_GENERATOR_NOTE,
    FamilySpec,
    convenient_family,
    example_family,
)
from .lefschetz import has_wlp
from .matrices import biadjacency, determinant, matrix_json, permanent, rank
from .monomials import IdealSyntaxError, _check_degree, parse_ideal
from .regions import build_region, region_json, triangle_counts
from .render import RenderOptions, region_svg, tiling_svg
from .stability import criterion_check, decide_semistability
from .tilings import ENUMERATION_CAP, enumerate_tilings, find_tiling, tiling_json

FORMAT_ENV = "TRIREGION_FORMAT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triregion",
        description="Triangular regions, lozenge tilings, weak Lefschetz and semistability decisions.",
    )
    env_format = os.environ.get(FORMAT_ENV, "json")
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default=env_format if env_format in ("json", "text") else "json",
        help="output format (default json, or $TRIREGION_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ideal(p):
        p.add_argument("--ideal", required=True, help="ideal text, e.g. 'x^2, y^2, z^2'")

    p = sub.add_parser("hilbert", help="Hilbert function values of the quotient")
    add_ideal(p)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("region", help="label sets and punctures of the side-d region")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--svg", help="also write an SVG rendering to this path")

    p = sub.add_parser("tile", help="find one lozenge tiling if any exists")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("count", help="exact number of lozenge tilings")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)

    p = sub.add_parser("wlp", help="weak Lefschetz property decision with per-degree ranks")
    add_ideal(p)

    p = sub.add_parser("criterion", help="generator-degree criteria and verdicts")
    add_ideal(p)

    p = sub.add_parser("semistable", help="syzygy-bundle semistability via tileability")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("family", help="construct a validated family ideal")
    p.add_argument("--kind", choices=("example", "convenient"), required=True)
    p.add_argument(
        "--params",
        required=True,
        help="comma-separated integers: the degree vector (example) or t,d (convenient)",
    )

    p = sub.add_parser("render", help="write an SVG of the region or of one tiling")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tiling", action="store_true", help="render a tiling instead of the region")
    p.add_argument("--unit", type=float, default=40.0)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--mark-floating", action="store_true")

    p = sub.add_parser("matrix", help="bi-adjacency matrix of the side-d region")
    add_ideal(p)
    p.add_argument("--degree", type=int, required=True)

    return parser


def _parse_params(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"--params must be integers, got {text!r}")


def _run_command(args: argparse.Namespace) -> dict:
    if args.command == "hilbert":
        ideal = parse_ideal(args.ideal)
        if args.max_degree < 0:
            raise ValueError("--max-degree must be nonnegative")
        _check_degree(args.max_degree)
        return {
            "ideal": str(ideal),
            "values": [
                {"degree": j, "value": ideal.hilbert_function(j)}
                for j in range(args.max_degree + 1)
            ],
        }
    if args.command == "region":
        ideal = parse_ideal(args.ideal)
        region = build_region(ideal, args.degree)
        payload = region_json(region)
        down, up, balance = triangle_counts(region)
        payload["classification"] = balance.value
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(region_svg(region))
            payload["svg_written"] = args.svg
        return payload
    if args.command == "tile":
        ideal = parse_ideal(args.ideal)
        region = build_region(ideal, args.degree)
        tiling = find_tiling(region)
        return {
            "tileable": tiling is not None,
            "tiling": tiling_json(tiling) if tiling is not None else None,
        }
    if args.command == "count":
        ideal = parse_ideal(args.ideal)
        region = build_region(ideal, args.degree)
        result = enumerate_tilings(region, cap=args.cap)
        return {"count": str(result.count), "exact": result.exact}
    if args.command == "wlp":
        ideal = parse_ideal(args.ideal)
        return has_wlp(ideal).to_json()
    if args.command == "criterion":
        ideal = parse_ideal(args.ideal)
        return criterion_check(ideal).to_json()
    if args.command == "semistable":
        ideal = parse_ideal(args.ideal)
        verdict = decide_semistability(ideal, args.degree)
        return {"d": args.degree, "verdict": verdict.value}
    if args.command == "family":
        params = _parse_params(args.params)
        if args.kind == "example":
            ideal = example_family(FamilySpec(tuple(params)))
            degrees = params
        else:
            if len(params) != 2:
                raise ValueError("convenient families take exactly two parameters: t,d")
            t, d = params
            ideal = convenient_family(t, d)
            degrees = [g.degree() for g in ideal.generators]
        report = criterion_check(ideal)
        notes = [FIFTH_GENERATOR_NOTE] if len(ideal.generators) >= 5 else []
        return {
            "ideal": str(ideal),
            "degrees": sorted(degrees, reverse=True),
            "validation": report.to_json(),
            "notes": notes,
        }
    if args.command == "render":
        ideal = parse_ideal(args.ideal)
        region = build_region(ideal, args.degree)
        options = RenderOptions(
            unit=args.unit,
            show_labels=args.labels,
            mark_floating=args.mark_floating,
        )
        if args.tiling:
            tiling = find_tiling(region)
            if tiling is None:
                raise ValueError("the region has no tiling to render")
            document = tiling_svg(region, tiling, options)
        else:
            document = region_svg(region, options)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(document)
        return {"svg_written": args.out}
    if args.command == "matrix":
        ideal = parse_ideal(args.ideal)
        matrix = biadjacency(build_region(ideal, args.degree))
        payload = matrix_json(matrix)
        payload["rank"] = rank(matrix)
        if matrix.is_square():
            payload["determinant"] = str(determinant(matrix))
            payload["permanent"] = str(permanent(matrix))
        return payload
    raise AssertionError(f"unhandled command {args.command}")


def _as_text(payload: dict) -> str:
    """Flatten the JSON payload into deterministic ``key.path = value`` lines."""
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            items = ((f"{prefix}{k}" if not prefix else f"{prefix}.{k}", v) for k, v in value.items())
        elif isinstance(value, list):
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
        payload = _run_command(args)
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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_as_text(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
