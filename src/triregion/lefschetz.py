"""The weak Lefschetz property decision for Artinian monomial quotients.

The quotient has the property exactly when every bi-adjacency matrix of its
triangular regions has maximal rank, which identifies the multiplication
map by x+y+z degree by degree.  No generic linear form search is needed:
for monomial ideals in characteristic zero this single choice is complete.

Each matrix's rows are read straight off the ideal's staircase, with the
neighbour rule of `triregion.regions`, and ranked by the elimination behind
``matrices.rank``: full rank modulo the prime 2^61 - 1 proves full rank
over Q, and anything less is recomputed modulo a prime above Hadamard's
bound, where the rank mod p is the rank over Q, so every verdict is exact.
``has_wlp`` computes ranks only where the map can fail.  While some
variable divides no generator of degree below d, the map into degree d-1
is one-to-one (Migliore, Miro-Roig and Nagel, Trans. AMS 2011, Prop. 2.1),
so no rank is computed in that injective prefix.  Once the map is onto
some degree it is onto every later degree, so none is computed past the
first surjective degree either.  Every Hilbert value and every ranked side
the scan needs comes from one staircase of the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import _rank
from .monomials import Monomial, MonomialIdeal, _check_degree, _hilbert_of
from .regions import _neighbours


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
    """Rank record of the side-d bi-adjacency matrix; empty-sided maps are maximal.

    The rows of ``biadjacency(build_region(ideal, d))`` are read off the
    ideal's staircase through degree d-1; no region is built.
    """
    ideal.require_artinian()
    if d < 1:
        raise ValueError("degree must be positive")
    _check_degree(d)
    return _ranked(ideal._staircase(d - 1), d)


def _ranked(h: list[list[int]], d: int) -> DegreeRecord:
    """The side-d record, ranked from rows read off the ideal's staircase h
    through degree d-1 or beyond.

    x^a y^b z^c is standard iff a < h[c][b].  Cell (b, c) holds the up label
    with a = d-1-b-c, standard iff h[c][b] > a, and, if b + c <= d-2, the
    down label with a one less, standard iff h[c][b] >= a.  Cells go in
    descending revlex order, so the rows and columns are ``biadjacency``'s.
    """
    column: dict[int, tuple[int, int]] = {}
    downs = []
    for c in range(d):
        row, key, top = h[c], c * d, d - 1 - c
        if not row[0]:
            break  # the staircase is 0 from here on
        for b in range(max(0, top - row[0]), d - c):  # h[c][b] <= h[c][0]
            slack = row[b] + b - top  # h[c][b] minus the up label's a
            if slack > 0:
                column[key + b] = (len(column), 1)
            if slack >= 0 and b < top:
                downs.append(key + b)
    rows = _neighbours(column, d, downs)
    r = _rank(rows, len(column))
    return DegreeRecord(d=d, rows=len(rows), cols=len(column), rank=r,
                        maximal=r == min(len(rows), len(column)))


def has_wlp(ideal: MonomialIdeal) -> WlpReport:
    """Scan side lengths 1, 2, ... until the up side empties out.

    The scan short-circuits at the first non-maximal degree but still
    reports every record computed on the way.  Termination is guaranteed
    for Artinian ideals because the Hilbert function eventually vanishes.
    Ranks are computed only between an injective prefix and a surjective
    suffix, where the map by l = x+y+z can fail; both ends are filled in
    from the Hilbert function without building a matrix, and their records
    equal what ``wlp_in_degree`` would return.

    Injective prefix: let e_v be the least degree of a generator divisible
    by the variable v, and let d <= max_v e_v.  Then some v, say z, divides
    no generator of degree <= d-1, so the ideal J those generators span is
    extended from K[x,y] and R/J = (K[x,y]/J')[z].  There l is monic in z,
    hence a nonzerodivisor, in every characteristic.  I and J agree in
    degrees <= d-1, so l: A_{d-2} -> A_{d-1} is one-to-one: its rank is
    rows = h(d-2).

    Surjective suffix: once a record has ``rank == cols``, l maps A_{d-2}
    onto A_{d-1}; then A_d = A_1*A_{d-1} = A_1*l*A_{d-2} lies in
    l*A_{d-1}, so every later map is onto as well: its rank is cols.

    One staircase through ``_quotient_degree`` gives every Hilbert value
    and the rows of every ranked side, which lie at or below that degree;
    every side is checked against the cap before its record is made.
    """
    ideal.require_artinian()
    gens = ideal.generators
    injective_through = max(
        min((g.degree() for g in gens if g.exponents()[v]), default=0) for v in range(3)
    )
    staircase = ideal._staircase(ideal._quotient_degree())
    values = _hilbert_of(staircase)

    def h(j: int) -> int:
        return values[j] if 0 <= j < len(values) else 0

    records: list[DegreeRecord] = []
    d = 0
    while True:
        d += 1
        _check_degree(d)
        rows, cols = h(d - 2), h(d - 1)
        if records and records[-1].rank == records[-1].cols:
            record = DegreeRecord(d=d, rows=rows, cols=cols, rank=cols, maximal=True)
        elif d <= injective_through:
            record = DegreeRecord(d=d, rows=rows, cols=cols, rank=rows, maximal=True)
        else:
            record = _ranked(staircase, d)
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
