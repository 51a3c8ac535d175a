"""Syzygy-bundle semistability through tileability of triangular regions.

No slope or subsheaf computation happens here.  Semistability is only ever
concluded through the coupling of three conditions on the side-d region of
an Artinian ideal (perfectly punctured, tileable, semistable: any two
imply the third) and through the numeric generator-degree criteria that
link it to the weak Lefschetz property.  Outside those hypotheses the
verdict is an honest ``Undetermined``.  Tileability is decided on the
region's cell keys, read straight off the ideal's staircase by
``regions._cells``: no label, ``Monomial`` or ``TriangularRegion`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .lefschetz import has_wlp
from .monomials import Monomial, MonomialIdeal
from .regions import _cells, overpuncturing_ideal
from .tilings import _tiles


class Semistability(Enum):
    SEMISTABLE = "Semistable"
    NOT_SEMISTABLE = "NotSemistable"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CriterionReport:
    """Condition breakdown of the generator-degree criteria.

    ``d`` is the exact rational (d_1 + ... + d_t) / (t - 1).  The weak
    criterion (integer d, all degrees below d, pairwise lcm degrees >= d)
    yields "weak Lefschetz implies semistable"; adding the strict lcm bound
    d+1 and the parity condition upgrades it to an equivalence decided by
    tileability alone.
    """

    d: Fraction
    cond_integer: bool
    cond_degrees_below: bool
    cond_lcm_weak: bool
    cond_lcm_strong: bool
    cond_parity: bool
    applicable_weak: bool
    applicable_strong: bool
    wlp_verdict: bool | None
    semistable_verdict: bool | None
    min_lcm_degree: int | None
    min_lcm_pair: tuple[Monomial, Monomial] | None
    parity_offenders: tuple[Monomial, ...]

    def to_json(self) -> dict:
        return {
            "d": str(self.d),
            "cond_integer": self.cond_integer,
            "cond_degrees_below": self.cond_degrees_below,
            "cond_lcm_weak": self.cond_lcm_weak,
            "cond_lcm_strong": self.cond_lcm_strong,
            "cond_parity": self.cond_parity,
            "applicable_weak": self.applicable_weak,
            "applicable_strong": self.applicable_strong,
            "wlp_verdict": self.wlp_verdict,
            "semistable_verdict": self.semistable_verdict,
            "min_lcm_degree": self.min_lcm_degree,
            "min_lcm_pair": [str(m) for m in self.min_lcm_pair] if self.min_lcm_pair else None,
            "parity_offenders": [str(m) for m in self.parity_offenders],
        }


def criterion_check(ideal: MonomialIdeal) -> CriterionReport:
    """Evaluate the numeric criteria and, where applicable, both verdicts.

    Under the strong criterion the verdicts are decided by tileability of
    the side-d region: tileable means the quotient has the weak Lefschetz
    property and the syzygy bundle is semistable, non-tileable negates
    both.  Tileability is the matching on the region's cell keys off the
    ideal's staircase, with no region built.  Under the weak criterion
    only, the weak Lefschetz property is decided by the full rank scan, and
    a positive verdict implies semistability; a negative one leaves
    semistability open.  Each pair's lcm degree is the sum of the larger
    exponents, and the first pair of least degree, in generator order, is
    reported.
    """
    ideal.require_artinian()
    gens = ideal.generators
    t = len(gens)
    if t < 2:
        raise ValueError("criterion requires at least two minimal generators")
    degrees = [g.degree() for g in gens]
    d = Fraction(sum(degrees), t - 1)
    cond_integer = d.denominator == 1
    cond_degrees_below = all(d > deg for deg in degrees)

    min_lcm_degree = None
    min_lcm_pair = None
    for g, h in combinations(gens, 2):
        deg = max(g.a, h.a) + max(g.b, h.b) + max(g.c, h.c)  # the degree of lcm(g, h)
        if min_lcm_degree is None or deg < min_lcm_degree:
            min_lcm_degree = deg
            min_lcm_pair = (g, h)
    cond_lcm_weak = min_lcm_degree is None or min_lcm_degree >= d
    cond_lcm_strong = min_lcm_degree is None or min_lcm_degree >= d + 1

    parity_offenders: tuple[Monomial, ...] = ()
    if cond_integer:
        parity_offenders = tuple(
            g for g in gens if not g.is_pure_power() and (int(d) - g.degree()) % 2 != 0
        )
        cond_parity = not parity_offenders
    else:
        cond_parity = False

    applicable_weak = cond_integer and cond_degrees_below and cond_lcm_weak
    applicable_strong = applicable_weak and cond_lcm_strong and cond_parity

    wlp_verdict: bool | None = None
    semistable_verdict: bool | None = None
    if applicable_strong:
        tileable = _tiles(*_cells(ideal, int(d)), int(d))
        wlp_verdict = tileable
        semistable_verdict = tileable
    elif applicable_weak:
        wlp_verdict = has_wlp(ideal).verdict
        semistable_verdict = True if wlp_verdict else None

    return CriterionReport(
        d=d,
        cond_integer=cond_integer,
        cond_degrees_below=cond_degrees_below,
        cond_lcm_weak=cond_lcm_weak,
        cond_lcm_strong=cond_lcm_strong,
        cond_parity=cond_parity,
        applicable_weak=applicable_weak,
        applicable_strong=applicable_strong,
        wlp_verdict=wlp_verdict,
        semistable_verdict=semistable_verdict,
        min_lcm_degree=min_lcm_degree,
        min_lcm_pair=min_lcm_pair,
        parity_offenders=parity_offenders,
    )


def decide_semistability(ideal: MonomialIdeal, d: int) -> Semistability:
    """Semistability of the syzygy bundle via the side-d region.

    With the ideal perfectly punctured in degree d, tileability decides the
    question both ways.  When it is not perfectly punctured, a tileable
    region still refutes semistability (semistable and tileable together
    would force perfect puncturing); nothing else can be concluded and the
    verdict is ``Undetermined``.  Tileability, and emptiness (no up and no
    down cell, a ``ValueError``), come from one scan of the region's cell
    keys off the ideal's staircase, with no region built.
    """
    ideal.require_artinian()
    if any(g.degree() > d for g in ideal.generators):
        raise ValueError(f"all generator degrees must be at most {d}")
    ups, downs = _cells(ideal, d)
    if not ups and not downs:
        raise ValueError("the side-d region is empty")
    perfectly = overpuncturing_ideal(ideal, d) == 0
    tileable = _tiles(ups, downs, d)
    if perfectly:
        return Semistability.SEMISTABLE if tileable else Semistability.NOT_SEMISTABLE
    if tileable:
        return Semistability.NOT_SEMISTABLE
    return Semistability.UNDETERMINED
