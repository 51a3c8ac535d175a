"""The weak Lefschetz property decision for Artinian monomial quotients.

The quotient has the property exactly when every bi-adjacency matrix of its
triangular regions has maximal rank, which identifies the multiplication
map by x+y+z degree by degree.  No generic linear form search is needed:
for monomial ideals in characteristic zero this single choice is complete.

Ranks come from ``matrices.rank``: full rank modulo the prime 2^61 - 1
proves full rank over Q, and anything less is recomputed modulo a prime
above Hadamard's bound, where the rank mod p is the rank over Q, so every
verdict is exact.  Once the map by x+y+z is onto some degree it is onto
every later degree, so ``has_wlp`` computes no rank past the first
surjective degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import biadjacency, rank
from .monomials import Monomial, MonomialIdeal, _check_degree
from .regions import build_region


@dataclass(frozen=True)
class DegreeRecord:
    """Rank diagnostics of the multiplication map into degree d-1."""

    d: int
    rows: int
    cols: int
    rank: int
    maximal: bool


@dataclass(frozen=True)
class WlpReport:
    verdict: bool
    failing_degree: int | None
    records: tuple[DegreeRecord, ...]
    scanned_through: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_degree": self.failing_degree,
            "scanned_through": self.scanned_through,
            "records": [
                {
                    "d": r.d,
                    "rows": r.rows,
                    "cols": r.cols,
                    "rank": r.rank,
                    "maximal": r.maximal,
                }
                for r in self.records
            ],
        }


def wlp_in_degree(ideal: MonomialIdeal, d: int) -> DegreeRecord:
    """Rank record of the side-d bi-adjacency matrix; empty-sided maps are maximal."""
    ideal.require_artinian()
    if d < 1:
        raise ValueError("degree must be positive")
    matrix = biadjacency(build_region(ideal, d))
    r = rank(matrix)
    return DegreeRecord(
        d=d,
        rows=matrix.rows,
        cols=matrix.cols,
        rank=r,
        maximal=r == min(matrix.rows, matrix.cols),
    )


def has_wlp(ideal: MonomialIdeal) -> WlpReport:
    """Scan side lengths 1, 2, ... until the up side empties out.

    The scan short-circuits at the first non-maximal degree but still
    reports every record computed on the way.  Termination is guaranteed
    for Artinian ideals because the Hilbert function eventually vanishes.

    Once a record has ``rank == cols``, multiplication by l = x+y+z maps
    A_{d-2} onto A_{d-1}; then A_d = A_1*A_{d-1} = A_1*l*A_{d-2} lies in
    l*A_{d-1}, so every later map is onto as well.  Those later records
    are filled in from the Hilbert function without building a matrix, and
    they equal what ``wlp_in_degree`` would return.
    """
    ideal.require_artinian()
    records: list[DegreeRecord] = []
    d = 0
    while True:
        d += 1
        if records and records[-1].rank == records[-1].cols:
            rows, cols = records[-1].cols, ideal.hilbert_function(d - 1)
            record = DegreeRecord(d=d, rows=rows, cols=cols, rank=cols, maximal=True)
        else:
            record = wlp_in_degree(ideal, d)
        records.append(record)
        if not record.maximal:
            return WlpReport(False, d, tuple(records), d)
        if record.cols == 0:
            return WlpReport(True, None, tuple(records), d)


def truncate(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """The ideal enlarged by the three pure d-th powers, minimalized."""
    if d < 1:
        raise ValueError("degree must be positive")
    _check_degree(d)
    extra = (Monomial(d, 0, 0), Monomial(0, d, 0), Monomial(0, 0, d))
    return MonomialIdeal.from_generators(ideal.generators + extra)
