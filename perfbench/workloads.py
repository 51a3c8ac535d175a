"""The benchmark's workloads: inputs, operations and output checks.

A workload is a list of instances.  An instance holds named operations,
each a zero-argument call into ``triregion``, and a ``verify`` function
that checks one pass's results against the oracles.  Operations look the
library function up by name at call time, so a traced run goes through
the tracer's wrappers.  Everything built here (ideals, regions, matrices,
argument lists) is set-up; only the operations are timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import triregion
from triregion import cli

from oracles import (
    WrongAnswer,
    macmahon,
    multiplication_determinant,
    overpuncturing,
    parse_monomial,
    require,
    standard,
)

#: Seed of the 500-ideal corpus, as in the test suite.
CORPUS_SEED = 20260811
CORPUS_SIZE = 500

REFERENCE_IDEALS = {
    # text: (has_wlp verdict, failing degree,
    #        criterion (applicable_weak, applicable_strong, wlp_verdict, semistable_verdict))
    "x^7, x^5yz, xy^3z^3, y^7, z^8": (True, None, (True, False, True, True)),
    "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7": (True, None, (True, False, True, True)),
    "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z": (False, 8, (False, False, None, None)),
    "x^6, y^7, z^7, xy^4z^2, xy^2z^4, x^2y^2z^2": (False, 8, (True, False, False, None)),
    "x^12, x^6y^2z^3, x^3y^2z^7, xy^7z^3, xy^5z^5, xyz^9, y^12, z^12": (
        False, 13, (False, False, None, None)),
}
#: Degree-9 determinant of the square map of the second reference ideal.
SQUARE_IDEAL, SQUARE_DEGREE, SQUARE_DETERMINANT = "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7", 9, 196

FAMILY_GRID = [(t, d) for t in (4, 6, 8) for d in (13, 17, 21, 25)]
# (3, 3, 4) is left out: its 4-6 s enumeration would make a tiling_counts
# pass 20 s, and two passes would no longer fit a run.
HEXAGON_BOXES = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 3, 4), (2, 4, 4)]
LARGE_HEXAGON_DEGREES = (24, 30, 36, 42, 48)
LARGE_FAMILIES = ((8, 20), (6, 25))


@dataclass
class Instance:
    """One input with its timed operations and the check of their results.

    ``facts`` holds what the check needs besides the results: the region,
    the expected answers, and oracle values computed on first use.
    """

    name: str
    gens: list[tuple[int, int, int]]
    ops: dict[str, Callable[[], object]]
    check: Callable[[Instance, dict[str, object]], None]
    facts: dict = field(default_factory=dict)

    def verify(self, results: dict[str, object]) -> None:
        self.check(self, results)

    def labels(self, d: int):
        """Oracle (downs, ups) of the side-d region."""
        key = ("labels", d)
        if key not in self.facts:
            self.facts[key] = (standard(self.gens, d - 2), standard(self.gens, d - 1))
        return self.facts[key]


def _lib(function: str, *args):
    return getattr(triregion, function)(*args)


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"triregion {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _exponents(ideal) -> list[tuple[int, int, int]]:
    return [g.exponents() for g in ideal.generators]


def _check_tiling(region, tiling, downs, where: str) -> None:
    try:
        triregion.validate_tiling(region, tiling)
    except ValueError as exc:
        raise WrongAnswer(f"{where}: invalid tiling: {exc}") from None
    require(len(tiling) == len(downs), f"{where}: tiling has {len(tiling)} lozenges")


# --- wlp_families -----------------------------------------------------------


def _check_scan(inst: Instance, report) -> None:
    for r in report.records:
        downs, ups = inst.labels(r.d)
        require(
            (r.rows, r.cols) == (len(downs), len(ups)),
            f"{inst.name}: degree {r.d} map is {r.rows}x{r.cols}, oracle {len(downs)}x{len(ups)}",
        )
        require(r.maximal == (r.rank == min(r.rows, r.cols)), f"{inst.name}: maximal flag at {r.d}")


def _check_family(inst: Instance, results) -> None:
    report = results.get("has_wlp")
    if report is not None:
        _check_scan(inst, report)
        require(report.verdict is True and report.failing_degree is None,
                f"{inst.name}: has_wlp gave {report.verdict}")
    crit = results.get("criterion_check")
    if crit is not None:
        require(crit.applicable_strong and crit.wlp_verdict is True
                and crit.semistable_verdict is True,
                f"{inst.name}: criterion_check gave {crit.wlp_verdict}")


def _check_reference(inst: Instance, results) -> None:
    text = inst.facts["text"]
    verdict, failing, criterion = REFERENCE_IDEALS[text]
    report = results.get("has_wlp")
    if report is not None:
        _check_scan(inst, report)
        require((report.verdict, report.failing_degree) == (verdict, failing),
                f"{inst.name}: has_wlp gave {report.verdict} at {report.failing_degree}")
        square = [r for r in report.records if r.d == SQUARE_DEGREE] if text == SQUARE_IDEAL else []
        for record in square:
            if "det" not in inst.facts:
                inst.facts["det"] = multiplication_determinant(inst.gens, SQUARE_DEGREE)
            require(inst.facts["det"] == SQUARE_DETERMINANT, "degree-9 determinant oracle")
            require(record.rank == record.rows == record.cols == 32,
                    f"{inst.name}: degree-9 rank {record.rank}, but the determinant is 196")
    crit = results.get("criterion_check")
    if crit is not None:
        got = (crit.applicable_weak, crit.applicable_strong, crit.wlp_verdict,
               crit.semistable_verdict)
        require(got == criterion, f"{inst.name}: criterion_check gave {got}")


def wlp_families(corpus_seed: int, workdir: str) -> list[Instance]:
    cases = [(f"family({t},{d})", triregion.convenient_family(t, d), _check_family, {})
             for t, d in FAMILY_GRID]
    cases += [(f"reference{k + 1}", triregion.parse_ideal(text), _check_reference, {"text": text})
              for k, text in enumerate(REFERENCE_IDEALS)]
    return [
        Instance(name, _exponents(ideal), {
            "has_wlp": partial(_lib, "has_wlp", ideal),
            "criterion_check": partial(_lib, "criterion_check", ideal),
        }, check, facts)
        for name, ideal, check, facts in cases
    ]


# --- tiling_counts ----------------------------------------------------------


def random_artinian_ideal(rng: random.Random):
    """A random Artinian ideal with a region side d <= 10 (the test corpus generator)."""
    d = rng.choice([2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10])
    gens = [
        triregion.Monomial(rng.randint(1, d), 0, 0),
        triregion.Monomial(0, rng.randint(1, d), 0),
        triregion.Monomial(0, 0, rng.randint(1, d)),
    ]
    for _ in range(rng.randint(0, 4)):
        degree = rng.randint(2, max(2, d - 1))
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        gens.append(triregion.Monomial(a, b, degree - a - b))
    return triregion.MonomialIdeal.from_generators(gens), d


def _check_counts(inst: Instance, results) -> None:
    region, d = inst.facts["region"], inst.facts["d"]
    downs, ups = inst.labels(d)
    payload = results.get("region_json")
    if payload is not None:
        require(payload["d"] == d, f"{inst.name}: region_json side")
        require([parse_monomial(m) for m in payload["up"]] == ups, f"{inst.name}: up labels")
        require([parse_monomial(m) for m in payload["down"]] == downs, f"{inst.name}: down labels")

    routes = {}
    if "find_tiling" in results:
        tiling = results["find_tiling"]
        if tiling is not None:
            _check_tiling(region, tiling, downs, inst.name)
        routes["find_tiling"] = tiling is not None
    if "is_tileable_structural" in results:
        routes["is_tileable_structural"] = results["is_tileable_structural"].tileable
    count = results.get("enumerate_tilings")
    if count is not None:
        require(count.exact, f"{inst.name}: enumeration hit its cap")
        routes["enumerate_tilings"] = count.count > 0
    if "two_of_three" in results:
        routes["two_of_three"] = results["two_of_three"].tileable
    require(len(set(routes.values())) <= 1, f"{inst.name}: tileability routes disagree: {routes}")
    tileable = next(iter(routes.values()), None)

    per = results.get("permanent")
    if per is not None:
        if count is not None:
            require(per == count.count, f"{inst.name}: permanent {per} != {count.count} tilings")
        if "determinant" in results:
            require(abs(results["determinant"]) <= per, f"{inst.name}: |det| > per")
    box = inst.facts.get("box")
    if box is not None:
        expected = macmahon(*box)
        for got in (per, count.count if count is not None else None):
            require(got in (None, expected), f"{inst.name}: {got} tilings, MacMahon gives {expected}")

    verdict = results.get("decide_semistability")
    if verdict is not None and tileable is not None:
        if overpuncturing(inst.gens, d) == 0:
            expected = "Semistable" if tileable else "NotSemistable"
        else:
            expected = "NotSemistable" if tileable else "Undetermined"
        require(verdict.value == expected, f"{inst.name}: semistability {verdict.value}")
    crit = results.get("criterion_check")
    if crit is not None:
        require(not crit.applicable_strong or crit.applicable_weak, f"{inst.name}: criteria")
        if crit.applicable_strong:
            require(crit.wlp_verdict is crit.semistable_verdict is not None,
                    f"{inst.name}: strong criterion verdicts differ")
            if crit.d == d and tileable is not None:
                require(crit.wlp_verdict == tileable, f"{inst.name}: strong criterion verdict")
        if crit.semistable_verdict is True:
            require(crit.wlp_verdict is True, f"{inst.name}: semistable without WLP")


def _count_instance(name: str, ideal, d: int, facts: dict, small: bool = True) -> Instance:
    """Operations on one region; ``small`` adds the routes that do not scale to d = 64."""
    region = triregion.build_region(ideal, d)
    ops = {
        "find_tiling": partial(_lib, "find_tiling", region),
        "enumerate_tilings": partial(_lib, "enumerate_tilings", region),
        "criterion_check": partial(_lib, "criterion_check", ideal),
    }
    if small:
        ops["region_json"] = partial(_lib, "region_json", region)
        if all(g.degree() <= d for g in ideal.generators) and not region.is_empty():
            ops["decide_semistability"] = partial(_lib, "decide_semistability", ideal, d)
        ops["is_tileable_structural"] = partial(_lib, "is_tileable_structural", region)
        ops["two_of_three"] = partial(_lib, "two_of_three", region)
        if len(region.up_labels) == len(region.down_labels):
            matrix = triregion.biadjacency(region)
            ops["permanent"] = partial(_lib, "permanent", matrix)
            ops["determinant"] = partial(_lib, "determinant", matrix)
    return Instance(name, _exponents(ideal), ops, _check_counts, {"region": region, "d": d, **facts})


def tiling_counts(corpus_seed: int, workdir: str) -> list[Instance]:
    rng = random.Random(corpus_seed)
    instances = [
        _count_instance(f"corpus{k}", *random_artinian_ideal(rng), {})
        for k in range(CORPUS_SIZE)
    ]
    M = triregion.Monomial
    for p, q, r in HEXAGON_BOXES:
        d = p + q + r
        ideal = triregion.MonomialIdeal.from_generators([M(d - p, 0, 0), M(0, d - q, 0), M(0, 0, d - r)])
        instances.append(_count_instance(f"hexagon{(p, q, r)}", ideal, d, {"box": (p, q, r)}))
    # The (32,32,0) parallelogram has exactly one tiling.  Puncture analysis
    # (region_json, decide_semistability), the structural scan and
    # two-of-three would take 4 s of the pass here; large_regions measures
    # those routes on big regions instead.
    ideal = triregion.parse_ideal("x^32, y^32, z^64")
    instances.append(_count_instance("parallelogram(32,32,0)", ideal, 64, {}, small=False))
    return instances


# --- large_regions ----------------------------------------------------------


def _svg_polygons(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    require(text.startswith("<?xml") and text.rstrip().endswith("</svg>"), f"{path}: not an SVG")
    return {cls: text.count(f'<polygon class="{cls}"') for cls in ("up", "down", "puncture", "lozenge")}


def _check_large(inst: Instance, results) -> None:
    region, d = inst.facts["region"], inst.facts["d"]
    downs, ups = inst.labels(d)
    out = results.get("cli tile")
    if out is not None:
        payload = json.loads(out)
        require(payload["tileable"] is True, f"{inst.name}: tile found no tiling")
        tiling = triregion.Tiling(frozenset(
            triregion.Lozenge(triregion.Monomial(*parse_monomial(l["down"])),
                              triregion.Monomial(*parse_monomial(l["up"])))
            for l in payload["tiling"]
        ))
        _check_tiling(region, tiling, downs, inst.name)
    out = results.get("cli region --svg")
    if out is not None:
        payload = json.loads(out)
        require([parse_monomial(m) for m in payload["up"]] == ups, f"{inst.name}: up labels")
        require([parse_monomial(m) for m in payload["down"]] == downs, f"{inst.name}: down labels")
        require(payload["classification"] == "balanced", f"{inst.name}: classification")
        punctures = sorted((parse_monomial(p["generator"]), p["side"]) for p in payload["punctures"])
        expected = sorted((g, d - sum(g)) for g in inst.gens if sum(g) < d)
        require(punctures == expected, f"{inst.name}: punctures {punctures}")
        if inst.facts["hexagon"]:
            require(not any(p["floating"] for p in payload["punctures"]),
                    f"{inst.name}: a corner puncture floats")
        shapes = _svg_polygons(inst.facts["region_svg"])
        require((shapes["up"], shapes["down"], shapes["puncture"]) == (len(ups), len(downs), len(expected)),
                f"{inst.name}: region SVG shapes {shapes}")
    if "cli render --tiling" in results:
        shapes = _svg_polygons(inst.facts["tiling_svg"])
        require(shapes["lozenge"] == len(downs), f"{inst.name}: tiling SVG has {shapes['lozenge']} lozenges")
    out = results.get("cli criterion")
    if out is not None:
        payload = json.loads(out)
        require(payload["d"] == str(d) and payload["applicable_strong"] is True
                and payload["wlp_verdict"] is True and payload["semistable_verdict"] is True,
                f"{inst.name}: criterion verdicts")
    structural = results.get("is_tileable_structural")
    if structural is not None:
        require(structural.tileable and structural.heavy_witness is None,
                f"{inst.name}: structural scan found {structural.heavy_witness}")
    report = results.get("two_of_three")
    if report is not None:
        require(report.perfectly_punctured and report.no_overpunctured_subregion and report.tileable,
                f"{inst.name}: two_of_three gave {report}")


def _large_instance(name: str, ideal, d: int, workdir: str, route: str, hexagon: bool) -> Instance:
    text, side = str(ideal), str(d)
    region = triregion.build_region(ideal, d)
    region_svg = os.path.join(workdir, f"{name}-region.svg")
    tiling_svg = os.path.join(workdir, f"{name}-tiling.svg")
    ops = {
        "cli tile": partial(_cli, ["tile", "--ideal", text, "--degree", side]),
        "cli region --svg": partial(_cli, ["region", "--ideal", text, "--degree", side, "--svg", region_svg]),
        "cli render --tiling": partial(
            _cli, ["render", "--ideal", text, "--degree", side, "--tiling", "--out", tiling_svg]),
        "cli criterion": partial(_cli, ["criterion", "--ideal", text]),
        route: partial(_lib, route, region),
    }
    facts = {"region": region, "d": d, "hexagon": hexagon,
             "region_svg": region_svg, "tiling_svg": tiling_svg}
    return Instance(name, _exponents(ideal), ops, _check_large, facts)


def large_regions(corpus_seed: int, workdir: str) -> list[Instance]:
    instances = []
    for d in LARGE_HEXAGON_DEGREES:
        k = 2 * d // 3
        ideal = triregion.parse_ideal(f"x^{k}, y^{k}, z^{k}")
        instances.append(_large_instance(f"hexagon-d{d}", ideal, d, workdir, "is_tileable_structural", True))
    for t, d in LARGE_FAMILIES:
        ideal = triregion.convenient_family(t, d)
        instances.append(_large_instance(f"family-{t}-{d}", ideal, d, workdir, "two_of_three", False))
    return instances


WORKLOADS = {
    "wlp_families": wlp_families,
    "tiling_counts": tiling_counts,
    "large_regions": large_regions,
}
