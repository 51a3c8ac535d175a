"""Spans around the public functions of every ``triregion`` module.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public function in every ``triregion.*`` namespace that binds it (the
package re-exports everything, ``lefschetz`` imports ``rank`` by name and
``cli`` imports every command by name), so calls between modules pass
through the same wrapper.  A span stack turns wall time into self time,
and counters are computed from return values after each span closes.
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "monomials",
    "regions",
    "tilings",
    "matrices",
    "lefschetz",
    "stability",
    "families",
    "render",
    "cli",
)

# Methods of the ideal class carry most of the monomial layer's work, so
# they are traced too.  ``contains`` and the methods of ``Monomial`` are
# O(1)-to-O(generators) steps of inner loops, where a span would cost more
# than the call it measures.
TRACED_CLASS = "MonomialIdeal"
UNTRACED_METHODS = {"contains"}


def _scan_counts(report):
    first = next((r.d for r in report.records if r.rank == r.cols), None)
    past = 0 if first is None else sum(1 for r in report.records if r.d > first)
    return {"lefschetz.degrees_scanned": len(report.records),
            "lefschetz.degrees_past_surjective": past}


def _matrix_counts(matrix):
    return {
        "matrices.cells": matrix.rows * matrix.cols,
        "matrices.nonzeros": sum(len(row) - row.count(0) for row in matrix.entries),
    }


# Counters read from a span's return value once the span has closed.
COUNTERS = {
    "matrices.biadjacency": _matrix_counts,
    "lefschetz.has_wlp": _scan_counts,
    "tilings.enumerate_tilings": lambda count: {"tilings.enumerated": count.count},
    "regions.build_region": lambda region: {
        "regions.labels": len(region.up_labels) + len(region.down_labels)
    },
    "render.region_svg": lambda svg: {"render.svg_bytes": len(svg.encode())},
    "render.tiling_svg": lambda svg: {"render.svg_bytes": len(svg.encode())},
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
            if counter is not None:
                for key, amount in counter(result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "triregion"]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith("triregion."):
                    continue
                if id(value) not in wrappers:
                    layer = origin.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap(f"{layer}.{value.__name__}", value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        cls = getattr(sys.modules["triregion.monomials"], TRACED_CLASS)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or attr in UNTRACED_METHODS:
                continue
            name = f"monomials.{TRACED_CLASS}.{attr}"
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self._wrap(name, value.__func__))
            elif isinstance(value, types.FunctionType):
                wrapped = self._wrap(name, value)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def span_count(self) -> int:
        return sum(self.calls.values())
