"""Independent answers that the benchmark checks the program's outputs against.

Nothing here calls into ``triregion``: monomials are exponent triples,
counts come from closed formulas or brute-force loops, and determinants
from Fraction elimination.  A mismatch raises :class:`WrongAnswer`, which
aborts the run.
"""

from __future__ import annotations

from fractions import Fraction


class WrongAnswer(AssertionError):
    """An operation returned a result that disagrees with an oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def monomials(j: int) -> list[tuple[int, int, int]]:
    """Exponent triples of degree j."""
    return [(j - b - c, b, c) for c in range(j + 1) for b in range(j - c + 1)]


def divides(g: tuple[int, int, int], m: tuple[int, int, int]) -> bool:
    return g[0] <= m[0] and g[1] <= m[1] and g[2] <= m[2]


def standard(gens: list[tuple[int, int, int]], j: int) -> list[tuple[int, int, int]]:
    """Degree-j monomials outside the ideal generated by ``gens``."""
    if j < 0:
        return []
    return [m for m in monomials(j) if not any(divides(g, m) for g in gens)]


def parse_monomial(text: str) -> tuple[int, int, int]:
    """Exponents of a monomial printed as ``x^3*y*z^2`` (``1`` is the unit)."""
    exps = {"x": 0, "y": 0, "z": 0}
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            exps[var] = int(power) if power else 1
    return exps["x"], exps["y"], exps["z"]


def macmahon(p: int, q: int, r: int) -> int:
    """Lozenge tilings of the p, q, r, p, q, r hexagon (MacMahon's box formula)."""
    value = Fraction(1)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            for k in range(1, r + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    require(value.denominator == 1, "MacMahon product is not an integer")
    return int(value)


def multiplication_determinant(gens: list[tuple[int, int, int]], d: int) -> Fraction:
    """Determinant of the down-to-up adjacency of the side-d region.

    Rows are the degree d-2 standard monomials and columns the degree d-1
    ones, both in descending revlex order, by Fraction elimination.
    """
    rows = standard(gens, d - 2)
    cols = standard(gens, d - 1)
    require(len(rows) == len(cols), "determinant oracle needs a square matrix")
    index = {m: k for k, m in enumerate(cols)}
    a = []
    for m in rows:
        row = [Fraction(0)] * len(cols)
        for shifted in ((m[0] + 1, m[1], m[2]), (m[0], m[1] + 1, m[2]), (m[0], m[1], m[2] + 1)):
            if shifted in index:
                row[index[shifted]] = Fraction(1)
        a.append(row)
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def overpuncturing(gens: list[tuple[int, int, int]], d: int) -> int:
    """Side lengths of the degree < d generators' punctures, minus d."""
    return sum(d - sum(g) for g in gens if sum(g) < d) - d
