"""Benchmark of triregion: closed-loop workloads checked against oracles.

Run from the repository root:

    python3 perfbench/run.py --workload wlp_families --seed 1 --seconds 20 --trace 0

One client in one process and one thread runs the workload's fixed
operation list in passes.  Each pass runs every operation once, in an
order shuffled from ``--seed``.  Passes repeat until ``--seconds`` of
operations have been measured and at least ten latency samples lie beyond
p90; only whole passes count, so every run measures the same operation
mix.  Before each operation the collector is emptied and what exists is
frozen, so no operation pays for collecting the inputs or the results of
the operations before it.  After each pass every result is checked against
the oracles in ``oracles.py``: a wrong answer aborts the run with exit
code 3 and no result line.  An operation that raises is counted as failed
and the run goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one pass untraced, which also warms the process up,
then the same pass traced, and reports the per-layer metrics of the traced
pass and the tracing overhead (traced minus untraced wall time).  The last
line of standard output is the JSON result.

The corpus of ``tiling_counts`` comes from ``--corpus-seed`` (default
20260811, the test suite's corpus).  Its cost is dominated by a few
exponential counts, so it is kept apart from ``--seed``; re-check a
claimed gain on the held-out corpus with ``--corpus-seed 20261017``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("wlp_families", "tiling_counts", "large_regions")
MIN_BEYOND_P90 = 10
#: No new pass starts after this much measuring, so a run ends well within 180 s.
MAX_MEASURE_S = 100.0
#: Fresh processes that repeat the set-up, besides the measuring process itself.
SETUP_REPEATS = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import triregion from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import triregion

    if src.resolve() not in Path(triregion.__file__).resolve().parents:
        raise ImportError(f"triregion was imported from {triregion.__file__}, not {src}")
    import workloads

    return workloads


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "triregion").glob("*.py"))


def _run_pass(order, tracer=None):
    """Run each (instance, operation) once; return wall time, latencies, results, failures."""
    latencies, results, failures = [], {}, []
    start = perf_counter()
    for inst, op in order:
        # Every operation starts from the same collector state: what exists
        # already (inputs, earlier results) is frozen out of the collector
        # and its counters are reset, so an operation's time does not depend
        # on the order of the pass.  Collections the operation itself
        # triggers are timed with it.
        gc.collect()
        gc.freeze()
        t = perf_counter()
        try:
            result = inst.ops[op]()
        except Exception as exc:  # counted in failed_frac; the run goes on
            latencies.append(perf_counter() - t)
            failures.append(f"{inst.name} {op}: {type(exc).__name__}")
            continue
        latencies.append(perf_counter() - t)
        results.setdefault(inst.name, {})[op] = result
        if tracer is not None and isinstance(result, str):
            tracer.count("cli.json_bytes", len(result.encode()))
    wall = perf_counter() - start
    gc.unfreeze()
    return wall, latencies, results, failures


def _verify(instances, results) -> None:
    for inst in instances:
        inst.verify(results.get(inst.name, {}))


def _beyond_p90(latencies) -> int:
    if len(latencies) < 2:
        return 0
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return sum(1 for x in latencies if x > p90)


def _setup_samples(args) -> list[float]:
    """Set-up time of fresh processes that import triregion and build the inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--corpus-seed", str(args.corpus_seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _measure(args, instances, rng):
    order = [(inst, op) for inst in instances for op in inst.ops]
    latencies, failures, measured, passes = [], [], 0.0, 0
    while True:
        rng.shuffle(order)
        wall, lat, results, failed = _run_pass(order)
        _verify(instances, results)
        del results
        latencies += lat
        failures += failed
        measured += wall
        passes += 1
        enough = measured >= args.seconds and _beyond_p90(latencies) >= MIN_BEYOND_P90
        if enough or measured >= MAX_MEASURE_S:
            return latencies, failures, passes


def _trace(instances, rng):
    from tracer import LAYERS, Tracer

    order = [(inst, op) for inst in instances for op in inst.ops]
    rng.shuffle(order)
    tracer = Tracer()
    latencies, failures, walls = [], [], []
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            wall, lat, results, failed = _run_pass(order, tracer if traced else None)
        finally:
            tracer.uninstall()
        _verify(instances, results)
        del results
        latencies += lat
        failures += failed
        walls.append(wall)

    s, c = tracer.self_s, tracer.counts
    cells = c["matrices.cells"]
    scanned = c["lefschetz.degrees_scanned"]
    metrics = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS}
    metrics.update({
        "matrices.rank.self_s": s["matrices.rank"],
        "matrices.rank.calls": tracer.calls["matrices.rank"],
        "matrices.cells": cells,
        "matrices.nonzeros": c["matrices.nonzeros"],
        "matrices.density": c["matrices.nonzeros"] / cells if cells else 0.0,
        "lefschetz.degrees_scanned": scanned,
        "lefschetz.degrees_past_surjective": c["lefschetz.degrees_past_surjective"],
        "lefschetz.scan_useful_share":
            1 - c["lefschetz.degrees_past_surjective"] / scanned if scanned else 0.0,
        "matrices.permanent.self_s": s["matrices.permanent"],
        "matrices.determinant.self_s": s["matrices.determinant"],
        "tilings.enumerate.self_s": s["tilings.enumerate_tilings"],
        "tilings.enumerated": c["tilings.enumerated"],
        "regions.ideal_of_region.self_s": s["regions.monomial_ideal_of_region"],
        "tilings.two_of_three.self_s": s["tilings.two_of_three"],
        "tilings.structural.self_s": s["tilings.is_tileable_structural"],
        "tilings.find_tiling.self_s": s["tilings.find_tiling"],
        "render.region_svg.self_s": s["render.region_svg"],
        "render.tiling_svg.self_s": s["render.tiling_svg"],
        "render.svg_bytes": c["render.svg_bytes"],
        "cli.json_bytes": c["cli.json_bytes"],
        "regions.build_region.self_s": s["regions.build_region"],
        "regions.labels": c["regions.labels"],
        "failed_frac": len(failures) / len(latencies),
        "trace.overhead_s": walls[1] - walls[0],
        "trace.spans": tracer.span_count(),
    })
    return latencies, failures, metrics, walls


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = perf_counter()
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = _import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot set up in {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.corpus_seed is None:
        args.corpus_seed = workloads.CORPUS_SEED
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        instances = workloads.WORKLOADS[args.workload](args.corpus_seed, workdir)
        setup_s = perf_counter() - start
        if args.setup_only:
            print(setup_s)
            return 0
        rng = random.Random(f"{args.workload}:{args.seed}")
        try:
            if args.trace:
                latencies, failures, metrics, walls = _trace(instances, rng)
                passes = len(walls)
            else:
                latencies, failures, passes = _measure(args, instances, rng)
        except workloads.WrongAnswer as exc:
            print(f"perfbench: wrong answer in {args.workload}: {exc}", file=sys.stderr)
            return 3

    attempted, failed = len(latencies), len(failures)
    if not args.trace:
        setups = [setup_s] + _setup_samples(args)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed / attempted,
        }

    print(f"run: workload={args.workload} seed={args.seed} corpus_seed={args.corpus_seed} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} git={_git_sha()} "
          f"src_lines={_src_lines()} clients=1 loop=closed")
    print(f"samples: passes={passes} operations={attempted} failed={failed} "
          f"beyond_p90={_beyond_p90(latencies)}")
    if args.trace:
        print(f"trace: untraced_pass_s={walls[0]} traced_pass_s={walls[1]}")
    else:
        print(f"setup: samples_s={[round(x, 4) for x in setups]}")
    for failure in sorted(set(failures)):
        print(f"failed: {failure} (x{failures.count(failure)})")
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    for name, value in metrics.items():
        print(f"metric: {name} = {value} {units[name]}")

    section = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
