"""Mutation checks: each recorded mutant of the library must fail its tests.

Run from the repository root:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only the named ones

A mutant is four things: a file, an exact old text that occurs in it once,
the new text that replaces it, and the tests (files or pytest node ids)
that must fail.  For each mutant the repository is copied to a temporary
directory, that one edit is applied, and pytest runs the named tests in the
copy against the copy's ``src``.  A mutant whose tests pass survives: some
fast path or rule has lost the test that guards it.  An old text that no
longer occurs exactly once is an error, not a skip: the mutant has gone
stale and must be brought up to date with the code.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when one
is stale or its tests cannot run.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "z-neighbour-key",
        "src/triregion/regions.py",
        "near = (get(k), get(k + 1), get(k + d))",
        "near = (get(k), get(k + 1), get(k + d + 1))",
        ("tests/test_regions.py",),
    ),
    Mutant(
        "p0-largest-b",
        "src/triregion/regions.py",
        "starts = {min(hole, key=exponents_ab): hole for hole in holes.values()}",
        "starts = {min(hole, key=lambda v: (exponents_ab(v)[0], -(v % d))): hole for hole in holes.values()}",
        ("tests/test_kasteleyn.py",),
    ),
    Mutant(
        "ray-one-cell-short",
        "src/triregion/regions.py",
        "range(v0 - d, v0 - v0 % d - v0 // d)",
        "range(v0 - d, v0 - v0 % d - v0 // d - 1)",
        ("tests/test_kasteleyn.py",),
    ),
    Mutant(
        "joins-counted-as-faces",
        "src/triregion/regions.py",
        "faces += first == root",
        "faces += first != root",
        ("tests/test_kasteleyn.py::TestHoleFreeFastPath",),
    ),
    Mutant(
        "kasteleyn-unsigned",
        "src/triregion/regions.py",
        "rows[i] = tuple((j, -1) if (j, v) == z else (j, v) for j, v in rows[i])",
        "rows[i] = tuple((j, v) for j, v in rows[i])",
        ("tests/test_kasteleyn.py::TestKasteleynFaces::test_large_regions",),
    ),
    Mutant(
        "kasteleyn-one-entry-flipped",
        "src/triregion/regions.py",
        "    rows = _neighbours(column, d, keys)\n",
        "    rows = _neighbours(column, d, keys)\n"
        "    mid = len(rows) // 2\n"
        "    rows[mid] = ((rows[mid][0][0], -1),) + rows[mid][1:]\n",
        ("tests/test_kasteleyn.py::TestKasteleynFaces::test_large_regions",),
    ),
    Mutant(
        "puncture-lcm-below-d",
        "src/triregion/regions.py",
        "(queue if g.lcm(h).degree() <= region.d else left).append(h)",
        "(queue if g.lcm(h).degree() < region.d else left).append(h)",
        ("tests/test_regions.py",),
    ),
    Mutant(
        "rank-without-exact-prime",
        "src/triregion/matrices.py",
        "    p = _exact_prime(rows)\n    return found if p == _RANK_PRIME else _eliminate(rows, cols, p)[0]\n",
        "    return found\n",
        ("tests/test_matrices.py",),
    ),
    Mutant(
        "wlp-in-degree-unchecked",
        "src/triregion/lefschetz.py",
        "    _check_degree(d)\n    return _ranked(ideal._staircase(d - 1), d)\n",
        "    return _ranked(ideal._staircase(d - 1), d)\n",
        ("tests/test_lefschetz.py",),
    ),
    Mutant(
        "staircase-without-prefix-over-c",
        "src/triregion/monomials.py",
        "                if above and above[b] < least:\n                    least = above[b]\n",
        "",
        ("tests/test_monomials.py::TestHilbert::test_staircase_matches_contains_scan",),
    ),
]


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply the mutant to a copy of the repository and run its tests there:
    ``("killed" | "survived" | "error", detail)``."""
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found != 1:
        return "error", f"stale: its old text occurs {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="triregion-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".perfbench-*", "build"
            ),
        )
        (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        paths = [str(copy / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test failed; 0 when all passed; anything else is
    # a collection, usage or internal error
    if done.returncode == 1:
        return "killed", ""
    if done.returncode == 0:
        return "survived", "; ".join(mutant.tests)
    return "error", f"pytest exited {done.returncode}: {done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = set(argv) - names
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        start = perf_counter()
        outcome, detail = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8} {mutant.name} ({perf_counter() - start:.1f} s){': ' + detail if detail else ''}", flush=True)
    if "error" in outcomes:
        return 2
    return 1 if "survived" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
