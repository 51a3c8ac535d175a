"""Monomials and monomial ideals in the polynomial ring K[x, y, z].

Everything here is exact integer arithmetic on exponent triples.  An ideal
is stored by its minimal generators.  Standard monomials and socle degrees
are read off one staircase per call, built from the generators in O(n^2)
for the highest degree n asked for: a monomial is standard when its
x-exponent lies below the staircase, and the socle sits at the staircase's
outer corners.  Hilbert values skip the staircase: they come from the boxes
that the generators' Pareto fronts cut the standard set into, a few corners
per generator.  All values are immutable, so they are safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable

VARIABLES = ("x", "y", "z")

#: Largest degree any degree-indexed operation accepts.  This is a guard
#: against accidental blow-up from malformed input, not a performance
#: promise; rebind the module attribute if a computation genuinely needs
#: larger degrees.
DEGREE_CAP = 512


class IdealSyntaxError(ValueError):
    """Malformed ideal text; ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotArtinianError(ValueError):
    """Raised when an operation requires an Artinian ideal."""


def _check_degree(j: int) -> None:
    if j > DEGREE_CAP:
        raise ValueError(f"degree {j} exceeds the safety cap {DEGREE_CAP}")


@dataclass(frozen=True)
class Monomial:
    """A monomial x^a y^b z^c, stored as its exponent triple."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise ValueError(f"negative exponent in {(self.a, self.b, self.c)}")

    def degree(self) -> int:
        return self.a + self.b + self.c

    def divides(self, other: Monomial) -> bool:
        return self.a <= other.a and self.b <= other.b and self.c <= other.c

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(max(self.a, other.a), max(self.b, other.b), max(self.c, other.c))

    def divide_by(self, other: Monomial) -> Monomial:
        """Exact quotient self / other; raises unless other divides self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.a - other.a, self.b - other.b, self.c - other.c)

    def is_pure_power(self) -> bool:
        """True iff at most one exponent is positive (the unit counts)."""
        return sum(1 for e in (self.a, self.b, self.c) if e > 0) <= 1

    def exponents(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        text = _factor("x", self.a) + _factor("y", self.b) + _factor("z", self.c)
        return text[1:] or "1"

    def __repr__(self) -> str:
        return f"Monomial({self.a}, {self.b}, {self.c})"


def _factor(v: str, e: int) -> str:
    """``*v^e``, ``*v`` or nothing: a monomial's text is its factors joined,
    less the first ``*``, or ``1`` when there are none."""
    return f"*{v}^{e}" if e > 1 else f"*{v}" if e else ""


def _texts(monomials: Iterable[Monomial], n: int) -> list[str]:
    """``[str(m) for m in monomials]`` for exponents up to n, from per-call
    tables of each variable's factors."""
    xs, ys, zs = ([_factor(v, e) for e in range(n + 1)] for v in VARIABLES)
    return [(xs[m.a] + ys[m.b] + zs[m.c])[1:] or "1" for m in monomials]


def revlex_key(m: Monomial) -> tuple[int, int, int]:
    """Sort key realising descending reverse-lexicographic order.

    m precedes n exactly when the last nonzero entry of the exponent
    difference m - n (variables ordered x, y, z) is negative.  In degree
    two this reads x^2, x*y, y^2, x*z, y*z, z^2.
    """
    return (m.c, m.b, m.a)


@lru_cache(maxsize=None)
def monomials_of_degree(j: int) -> tuple[Monomial, ...]:
    """All degree-j monomials, already in descending revlex order."""
    if j < 0:
        return ()
    out = []
    for c in range(j + 1):
        for b in range(j - c + 1):
            out.append(Monomial(j - c - b, b, c))
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators in canonical order.

    Construct through :meth:`from_generators`, which minimalizes; the raw
    constructor takes distinct, strictly ascending, minimal generators.  The
    zero ideal (no generators) and the unit ideal (generator 1) are both valid.
    """

    generators: tuple[Monomial, ...]

    def __post_init__(self):
        gens = self.generators
        for i, g in enumerate(gens):
            if i and revlex_key(gens[i - 1]) >= revlex_key(g):
                raise ValueError(f"generator {g} does not strictly follow {gens[i - 1]}")
            for h in gens[:i]:
                if h.divides(g):
                    raise ValueError(f"generator {g} is divisible by {h}")

    @staticmethod
    def from_generators(gens: Iterable[Monomial]) -> MonomialIdeal:
        """Minimalize a generator collection, order-insensitively: canonical order
        puts every proper divisor first, so each monomial is tested only against those kept."""
        kept: list[Monomial] = []
        for m in sorted(set(gens), key=revlex_key):
            if not any(k.divides(m) for k in kept):
                kept.append(m)
        return MonomialIdeal(tuple(kept))

    def is_artinian(self) -> bool:
        """True iff the ideal contains a pure power of each of x, y and z."""
        return (
            any(g.b == 0 and g.c == 0 for g in self.generators)
            and any(g.a == 0 and g.c == 0 for g in self.generators)
            and any(g.a == 0 and g.b == 0 for g in self.generators)
        )

    def require_artinian(self) -> None:
        if not self.is_artinian():
            raise NotArtinianError(
                f"ideal ({self}) is not Artinian: it lacks a pure power of some variable"
            )

    def _staircase(self, n: int) -> list[list[int]]:
        """The staircase h[c][b], for b + c <= n, of the ideal.

        h[c][b] is the least a with x^a y^b z^c in the ideal, capped at
        n + 1: each generator with b + c <= n sets its own cell, and prefix
        minima over b, then over c, extend it to every multiple.  So
        x^a y^b z^c with a + b + c <= n is standard iff a < h[c][b], for
        every ideal, Artinian or not.  Rows run over c and cells over b, the
        order of ``monomials_of_degree``.  The table costs O(n^2).
        """
        h = [[n + 1] * (n + 1 - c) for c in range(n + 1)]
        for g in self.generators:
            if g.b + g.c <= n and g.a < h[g.c][g.b]:
                h[g.c][g.b] = g.a
        above: list[int] = []
        for row in h:
            least = n + 1
            for b, a in enumerate(row):
                if a < least:
                    least = a
                if above and above[b] < least:
                    least = above[b]
                row[b] = least
            above = row
        return h

    def _standard_in(self, *degrees: int) -> list[list[Monomial]]:
        """The standard monomials of each degree, in descending revlex order,
        all read off one staircase through the highest of the degrees."""
        h = self._staircase(max(degrees))
        return [[m for m in monomials_of_degree(j) if m.a < h[m.c][m.b]] for j in degrees]

    def _quotient_degree(self) -> int:
        """The degree through which the Hilbert values or the staircase show
        all of an Artinian quotient: A+B+C-2 for the pure powers x^A, y^B,
        z^C, where it vanishes, capped at ``DEGREE_CAP``."""
        vanishing = sum(g.degree() for g in self.generators if g.is_pure_power()) - 2
        return min(max(vanishing, 0), DEGREE_CAP)

    def _hilbert_values(self, n: int) -> list[int]:
        """``[hilbert_function(j) for j in range(n + 1)]`` from the boxes of
        the standard set.

        Only generators of degree at most n matter through degree n.  Their
        distinct c-values cut z into layers [c0, c1), the last up to
        c1 = n + 1.  Over a layer the staircase is the Pareto front of
        (b, a) over those generators with c <= c0: b ascending, a strictly
        decreasing, from a sentinel a = n + 1 at b = 0 that stands where no
        generator bounds the front yet, so zero, unit and non-Artinian ideals
        stay exact through degree n.  The step [b0, b1) of height a, the last
        one up to b1 = n + 1, gives the box [0, a) x [b0, b1) x [c0, c1) of
        standard monomials, whose series is
        (1 - t^a)(t^b0 - t^b1)(t^c0 - t^c1) / (1 - t)^3: a +-1 at the degree
        of each of its 8 corners, and three prefix sums.  Each layer merges
        its generators into the front once, so this costs O(n + g log g)
        plus the sizes of the fronts, never more than the
        O(n^2) staircase.
        """
        _check_degree(n)
        layers: dict[int, list[tuple[int, int]]] = {}
        for g in self.generators:  # canonical order: c, then b, ascending
            if g.a + g.b + g.c <= n:
                layers.setdefault(g.c, []).append((g.b, g.a))
        cuts = sorted({0, *layers}) + [n + 1]
        diff = [0] * (3 * n + 4)  # every corner's degree is at most 3(n + 1)
        front = [(0, n + 1)]
        for c0, c1 in zip(cuts, cuts[1:]):
            steps, front, least = sorted(front + layers.get(c0, [])), [], n + 2
            for b, a in steps:
                if a < least:
                    front.append((b, a))
                    least = a
            for (b0, a), (b1, _) in zip(front, front[1:] + [(n + 1, 0)]):
                diff[b0 + c0] += 1
                diff[b1 + c1] += 1
                diff[a + b1 + c0] += 1
                diff[a + b0 + c1] += 1
                diff[b1 + c0] -= 1
                diff[b0 + c1] -= 1
                diff[a + b0 + c0] -= 1
                diff[a + b1 + c1] -= 1
        return list(accumulate(accumulate(accumulate(diff[:n + 1]))))

    def hilbert_function(self, j: int) -> int:
        """Number of degree-j monomials outside the ideal (0 for j < 0)."""
        return self._hilbert_values(j)[j] if j >= 0 else 0

    def socle_degrees(self) -> list[int]:
        """Degrees of the monomial socle basis of the quotient, sorted.

        A standard monomial m lies in the socle when x*m, y*m and z*m all
        fall inside the ideal: each staircase cell a = h[c][b] above both
        neighbours h[c][b+1] and h[c+1][b] (0 past the edge) gives the socle
        monomial x^(a-1) y^b z^c.  The staircase runs through
        ``_quotient_degree``.  Requires an Artinian ideal; raises
        ``ValueError`` when the quotient reaches degree ``DEGREE_CAP``, where
        the cut-off staircase has a corner of degree at least the cap.
        """
        self.require_artinian()
        h = [row + [0] for row in self._staircase(self._quotient_degree())] + [[0]]
        degrees = sorted(
            a - 1 + b + c
            for c, (row, below) in enumerate(zip(h, h[1:]))
            for b, a in enumerate(row[:-1])
            if a > row[b + 1] and a > below[b]
        )
        _check_degree(min(degrees[-1] if degrees else -1, DEGREE_CAP) + 1)
        return degrees

    def __str__(self) -> str:
        if not self.generators:
            return "0"
        return ", ".join(str(g) for g in self.generators)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse comma-separated monomial terms such as ``x^6, y^7, x*y^5*z``.

    Factors inside a term may be separated by ``*`` or whitespace; a bare
    ``1`` denotes the unit monomial.  A variable may appear at most once
    per term.  The parsed generators are minimalized.  A lone ``0`` is the
    zero ideal, as ``str`` prints it.
    """
    if text.strip() == "0":
        return MonomialIdeal(())
    gens: list[Monomial] = []
    i, n = 0, len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse_uint(i: int) -> tuple[int, int]:
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise IdealSyntaxError("expected an exponent", start)
        return int(text[start:i]), i

    def parse_term(i: int) -> tuple[Monomial, int]:
        exps = {v: 0 for v in VARIABLES}
        seen: set[str] = set()
        saw_factor = False
        while True:
            i = skip_ws(i)
            if i < n and text[i] == "*":
                if not saw_factor:
                    raise IdealSyntaxError("'*' without a preceding factor", i)
                i = skip_ws(i + 1)
            if i >= n or text[i] == ",":
                break
            ch = text[i]
            if ch == "1":
                i += 1
                if i < n and text[i] == "^":
                    _, i = parse_uint(i + 1)
                saw_factor = True
                continue
            if ch not in VARIABLES:
                if saw_factor:
                    break
                raise IdealSyntaxError(f"expected a variable, found {ch!r}", i)
            if ch in seen:
                raise IdealSyntaxError(f"variable {ch!r} repeated within a term", i)
            seen.add(ch)
            i += 1
            if i < n and text[i] == "^":
                e, i = parse_uint(i + 1)
            else:
                e = 1
            exps[ch] = e
            saw_factor = True
        if not saw_factor:
            raise IdealSyntaxError("expected a monomial term", i)
        return Monomial(exps["x"], exps["y"], exps["z"]), i

    i = skip_ws(i)
    while True:
        m, i = parse_term(i)
        gens.append(m)
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != ",":
            raise IdealSyntaxError(f"expected ',' between terms, found {text[i]!r}", i)
        i += 1
    return MonomialIdeal.from_generators(gens)
