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

Dropping the sign (-1)^c of a generator's restriction to the line x+y+z = 0
in `triregion.lefschetz` is an equivalent mutant, so none is recorded: it
restricts to x+y-z = 0 instead, and z -> -z maps a monomial ideal to
itself, so every rank is unchanged.

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
        "_eliminate(rows, matrix.cols, _exact_prime(rows))[0]",
        "_eliminate(rows, matrix.cols, (1 << 61) - 1)[0]",
        ("tests/test_matrices.py",),
    ),
    Mutant(
        "wlp-in-degree-unchecked",
        "src/triregion/lefschetz.py",
        "    _check_degree(d)\n    h = [0, *ideal._hilbert_values(d - 1)]",
        "    h = [0, *ideal._hilbert_values(d - 1)]",
        ("tests/test_lefschetz.py",),
    ),
    Mutant(
        "line-rank-trusted",
        "src/triregion/lefschetz.py",
        "    if r < min(rows, cols) and (q := _prime_above(3 ** min(rows, cols))) != p:\n"
        "        r = cols - d + _line_rank(_restricted(ideal, q, d - 1), d - 1, q)\n",
        "",
        ("tests/test_lefschetz.py::TestDisjointPuncturesSquareIdeal::test_weak_certificate_ranked_exactly",),
    ),
    Mutant(
        "restricted-without-degree-filter",
        "src/triregion/lefschetz.py",
        "        if g.degree() > t:\n            continue\n",
        "",
        ("tests/test_lefschetz.py::TestRecordsPastSurjectivity::test_generators_past_every_side_not_restricted",),
    ),
    Mutant(
        "line-without-binomials",
        "src/triregion/lefschetz.py",
        "(-1) ** g.c * comb(g.c, k) % p",
        "(-1) ** g.c % p",
        ("tests/test_lefschetz.py::TestRecordsPastSurjectivity::test_corpus",),
    ),
    Mutant(
        "line-without-x-offset",
        "src/triregion/lefschetz.py",
        "tuple((a + i + k, v) for k, v in coefficients)",
        "tuple((i + k, v) for k, v in coefficients)",
        ("tests/test_lefschetz.py::TestLineIdentity",),
    ),
    Mutant(
        "staircase-without-prefix-over-c",
        "src/triregion/monomials.py",
        "                if above and above[b] < least:\n                    least = above[b]\n",
        "",
        ("tests/test_monomials.py::TestHilbert::test_staircase_matches_contains_scan",),
    ),
    Mutant(
        "hilbert-box-corner-sign",
        "src/triregion/monomials.py",
        "                diff[a + b1 + c1] -= 1\n",
        "                diff[a + b1 + c1] += 1\n",
        ("tests/test_monomials.py::TestHilbert::test_hilbert_values_match_hilbert_function",),
    ),
    Mutant(
        "hilbert-front-unpruned",
        "src/triregion/monomials.py",
        "            for b, a in steps:\n                if a < least:\n",
        "            for b, a in steps:\n                if True:\n",
        ("tests/test_monomials.py::TestHilbert::test_hilbert_values_match_hilbert_function",),
    ),
    Mutant(
        "hilbert-values-unchecked",
        "src/triregion/monomials.py",
        "        _check_degree(n)\n        layers:",
        "        layers:",
        ("tests/test_monomials.py::TestHilbert::test_hilbert_values_vanish_past_socle",),
    ),
    Mutant(
        "minimal-order-not-strict",
        "src/triregion/monomials.py",
        "if i and revlex_key(gens[i - 1]) >= revlex_key(g):",
        "if i and revlex_key(gens[i - 1]) > revlex_key(g):",
        ("tests/test_monomials.py::TestIdeal::test_raw_constructor_names_offender",),
    ),
    Mutant(
        "minimal-from-unsorted",
        "src/triregion/monomials.py",
        "for m in sorted(set(gens), key=revlex_key):",
        "for m in set(gens):",
        ("tests/test_monomials.py::TestIdeal::test_from_generators_matches_pairwise_oracle",),
    ),
    Mutant(
        "strong-criterion-skips-tiling",
        "src/triregion/stability.py",
        "tileable = _tiles(*_cells(ideal, int(d)), int(d))\n        wlp_verdict",
        "tileable = True\n        wlp_verdict",
        ("tests/test_stability.py::TestStrongCriterionWithoutTiling",),
    ),
    Mutant(
        "tileable-ignores-balance",
        "src/triregion/tilings.py",
        "    if len(downs) != len(ups):\n        return False\n",
        "",
        ("tests/test_tilings.py::TestTileable",),
    ),
    Mutant(
        "cells-up-test-inclusive",
        "src/triregion/regions.py",
        "ups += [k + b for b, a in enumerate(row) if top - b < a]",
        "ups += [k + b for b, a in enumerate(row) if top - b <= a]",
        ("tests/test_tilings.py::TestTileable::test_staircase_on_corpora",),
    ),
    Mutant(
        "cells-down-admits-degree-d-1",
        "src/triregion/regions.py",
        "downs += [k + b for b, a in enumerate(row[:-1]) if top - 1 - b < a]",
        "downs += [k + b for b, a in enumerate(row) if top - 1 - b < a]",
        ("tests/test_tilings.py::TestTileable::test_staircase_on_families",),
    ),
    Mutant(
        "lcm-degree-sums-z",
        "src/triregion/stability.py",
        "max(g.a, h.a) + max(g.b, h.b) + max(g.c, h.c)",
        "max(g.a, h.a) + max(g.b, h.b) + g.c + h.c",
        ("tests/test_stability.py::TestCriterionCheck",),
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
