"""Sparse bi-adjacency matrices and exact integer linear algebra.

A matrix is stored by rows of its nonzero entries, the form the elimination
reads; a bi-adjacency row has at most three.  Everything is computed over
the integers with Python's arbitrary-precision arithmetic; there is no
floating point anywhere.  Rank and determinant come from one sparse row
elimination over GF(p), from the last row up, in which every bi-adjacency
row with an x-neighbour is a pivot as it stands.  Modulo a prime above
Hadamard's bound no minor vanishes that is nonzero over Q, so the rank mod
p is exact and the determinant is its symmetric residue.  The rank is
first computed modulo 2^61 - 1, which proves full rank when it finds it.
The permanent is taken of 0/1 matrices only, the kind ``biadjacency``
builds: it is the number of perfect matchings.  For a matrix that
``biadjacency`` built it is |det K|, the determinant of the Kasteleyn
signing that `triregion.regions` reads off the region's holes; any other
0/1 matrix goes to the backtracking matching counter, which lives here
too and also serves ``enumerate_tilings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .monomials import Monomial
from .regions import TriangularRegion, _adjacency, _kasteleyn_rows

#: A sparse row: its nonzero ``(column, value)`` entries in ascending column order.
_Row = tuple[tuple[int, int], ...]

# Modulus of the rank certificate, the Mersenne prime 2^61 - 1.
_RANK_PRIME = (1 << 61) - 1

# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 on.  The last one
# is exact for every bi-adjacency matrix within ``DEGREE_CAP``: 130,816 rows
# of at most three ones give Hadamard's bound 3^130816, which needs e >= 103,672.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503,
)


@dataclass(frozen=True)
class IntegerMatrix:
    """A sparse integer matrix with optional monomial row/column labels.

    ``row_entries[i]`` holds the nonzero entries of row i as ``(column,
    value)`` pairs in ascending column order; zeros are not stored.
    """

    rows: int
    cols: int
    row_entries: tuple[_Row, ...]
    row_labels: tuple[Monomial, ...] | None = None
    col_labels: tuple[Monomial, ...] | None = None

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.row_entries) != self.rows:
            raise ValueError("row count does not match the declared shape")
        for i, row in enumerate(self.row_entries):
            previous = -1
            for j, v in row:
                if not 0 <= j < self.cols:
                    raise ValueError(f"row {i}: column {j} out of range")
                if j <= previous:
                    raise ValueError(f"row {i}: columns not strictly ascending")
                if not v:
                    raise ValueError(f"row {i}: stored zero in column {j}")
                previous = j
        if self.row_labels is not None and len(self.row_labels) != self.rows:
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and len(self.col_labels) != self.cols:
            raise ValueError("column label count mismatch")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> IntegerMatrix:
        """The matrix of a dense grid given row by row; no rows give 0x0."""
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("entry grid does not match the declared shape")
        return IntegerMatrix(n, m, tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense grid, zeros included, built on each access."""
        grid = []
        for row in self.row_entries:
            dense = [0] * self.cols
            for j, v in row:
                dense[j] = v
            grid.append(tuple(dense))
        return tuple(grid)

    def is_square(self) -> bool:
        return self.rows == self.cols


def biadjacency(region: TriangularRegion) -> IntegerMatrix:
    """0/1 matrix of down-label/up-label adjacency, both sides in descending revlex.

    Entry (mu, nu) is 1 exactly when nu is x*mu, y*mu or z*mu; transposing
    gives the multiplication-by-(x+y+z) matrix between the two monomial
    bases.  The matrix records its region, not as a field, so ``permanent``
    counts its tilings as |det K|; any new matrix made from it does not.
    """
    downs, ups, neighbors = _adjacency(region)
    rows = tuple(tuple((k, 1) for k in near) for near in neighbors)
    matrix = IntegerMatrix(len(downs), len(ups), rows, tuple(downs), tuple(ups))
    vars(matrix)["_region"] = region  # the source region, not a field
    return matrix


def determinant(matrix: IntegerMatrix) -> int:
    """Exact determinant by elimination modulo ``_exact_prime``; 0x0 gives 1."""
    if not matrix.is_square():
        raise ValueError("determinant requires a square matrix")
    rows = matrix.row_entries
    p = _exact_prime(rows)
    residue = _eliminate(rows, matrix.cols, p)[1]
    return residue - p if residue > p // 2 else residue


def rank(matrix: IntegerMatrix) -> int:
    """Exact rank over the rationals.

    Reduction mod p never creates rank, so full rank modulo 2^61 - 1 is the
    rank over Q.  A smaller rank is recomputed modulo the ``_exact_prime``
    of the matrix when that prime is wider.
    """
    return _rank(matrix.row_entries, matrix.cols)


def _rank(rows: Sequence[_Row], cols: int) -> int:
    """``rank`` of the matrix with these rows and ``cols`` columns."""
    found = _eliminate(rows, cols, _RANK_PRIME)[0]
    if found == min(len(rows), cols):
        return found
    p = _exact_prime(rows)
    return found if p == _RANK_PRIME else _eliminate(rows, cols, p)[0]


def _exact_prime(rows: Sequence[_Row]) -> int:
    """The least Mersenne prime p = 2^e - 1 with 2^(2e-2) > 4B, where B is
    Hadamard's bound on the square of every minor of the matrix with these
    rows.  Every minor lies strictly between -p/2 and p/2, so mod p it
    vanishes only when it is 0, and the symmetric residue of the
    determinant is the determinant."""
    bound = 1
    for row in rows:
        bound *= max(1, sum(v * v for _, v in row))
    for e in _MERSENNE_EXPONENTS:
        if 1 << (2 * e - 2) > 4 * bound:
            return (1 << e) - 1
    raise ValueError("matrix entries are too large: Hadamard's bound passes the prime table")


def _eliminate(rows: Sequence[_Row], cols: int, p: int) -> tuple[int, int]:
    """Rank over GF(p) and the determinant mod p of the matrix with these
    rows and ``cols`` columns; the determinant is 0 unless the matrix is
    square and of full rank.

    Each row is reduced, as a sparse ``{column: value}`` dict, into an
    echelon basis.  Reducing only subtracts other rows, so the determinant
    is the product of the pivots times the sign of the permutation that
    sends each row to its leading column.  The rows go in from the last
    up: a bi-adjacency row's least column is its down label's x-neighbour,
    which no later row holds, so every row that has one is a pivot as it
    stands and only the others are reduced.
    """
    # Leading column -> basis row, scaled to a leading 1; keys in reversed row order.
    basis: dict[int, dict[int, int]] = {}
    det = 1
    for entries in reversed(rows):
        row = {j: v % p for j, v in entries if v % p}
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                value = row[lead]
                if value != 1:
                    det = det * value % p
                    inverse = pow(value, -1, p)
                    row = {j: v * inverse % p for j, v in row.items()}
                basis[lead] = row
                break
            factor = row[lead]
            for j, v in pivot.items():
                w = (row.get(j, 0) - factor * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    found = len(basis)
    if found != len(rows) or found != cols:
        return found, 0
    # Every row gave a pivot, so row i's is the (found - 1 - i)-th key.
    leads = list(basis)[::-1]
    for i in range(found):
        while leads[i] != i:
            k = leads[i]
            leads[i], leads[k] = leads[k], leads[i]
            det = -det
    return found, det % p


def permanent(matrix: IntegerMatrix) -> int:
    """Exact permanent of a square 0/1 matrix; 0x0 gives 1.

    It counts the matrix's perfect matchings.  A matrix that ``biadjacency``
    built counts its region's tilings as |det K|, for the Kasteleyn signing
    K that `triregion.regions` reads off the region's holes, in polynomial
    time.  Any other 0/1 matrix goes to the backtracking matching counter,
    which is exponential in general.  Any other entry raises ``ValueError``.
    """
    if not matrix.is_square():
        raise ValueError("permanent requires a square matrix")
    rows = matrix.row_entries
    if any(v != 1 for row in rows for _, v in row):
        raise ValueError("permanent requires a 0/1 matrix")
    region = vars(matrix).get("_region")
    if region is None:
        return _count_perfect_matchings([tuple(j for j, _ in row) for row in rows]).count
    return abs(determinant(IntegerMatrix(matrix.rows, matrix.cols, tuple(_kasteleyn_rows(region)))))


class TilingCount(NamedTuple):
    count: int
    exact: bool


def _count_perfect_matchings(candidates: Sequence[Sequence[int]], cap: int | None = None) -> TilingCount:
    """Number of ways to match every row i to its own column in ``candidates[i]``.

    Each row lists its columns in ascending order.  The problem must be
    square: the columns are drawn from ``range(len(candidates))``, so a
    perfect matching covers every column too, and a column with one free
    row left must take it just as a row with one free column must.  After
    each placement every such forced pair is placed, so the search branches
    only where nothing is forced: on the unmatched row with the fewest free
    columns, trying them in ascending order (for a region the x, y, z
    neighbour order), and it rarely meets a dead end.  Free counts are
    undone from a trail and the branches live on an explicit stack, so
    depth costs no recursion.  Once the count passes ``cap`` the search
    stops with ``(cap + 1, False)``.
    """
    n = len(candidates)
    # One bipartite graph on 2n vertices: row i is vertex i and column j is
    # vertex n + j.  adj[v] lists v's neighbours in ascending order, free[v]
    # counts those still unmatched while v is, and mate[v] is v's partner or -1.
    adj = [[n + j for j in row] for row in candidates] + [[] for _ in range(n)]
    for i, row in enumerate(candidates):
        for j in row:
            adj[n + j].append(i)
    free = [len(near) for near in adj]
    mate = [-1] * (2 * n)
    # Unmatched vertices seen with at most one free neighbour, and one end
    # of every placed pair in placement order.
    waiting = [v for v, f in enumerate(free) if f < 2]
    trail: list[int] = []

    def place(u: int, v: int) -> None:
        mate[u], mate[v] = v, u
        trail.append(u)
        for end in (u, v):
            for w in adj[end]:
                free[w] -= 1
                if free[w] < 2 and mate[w] < 0:
                    waiting.append(w)

    def propagate() -> bool:
        """Place every forced pair; False once a vertex has no free neighbour left."""
        while waiting:
            v = waiting.pop()
            if mate[v] < 0:
                for w in adj[v]:
                    if mate[w] < 0:
                        place(v, w)
                        break
                else:
                    return False
        return True

    def undo(mark: int) -> None:
        """Take back every placement after the first ``mark``."""
        waiting.clear()
        while len(trail) > mark:
            u = trail.pop()
            v = mate[u]
            for end in (u, v):
                for w in adj[end]:
                    free[w] += 1
            mate[u] = mate[v] = -1

    # One frame per branch: (row, its free columns, index of the one in
    # use, trail length before the branch).
    stack: list[tuple[int, tuple[int, ...], int, int]] = []
    count = 0
    alive = propagate()
    while True:
        if alive and len(trail) < n:
            # Every unmatched row has at least two free columns now.
            row = -1
            for i in range(n):
                if mate[i] < 0 and (row < 0 or free[i] < free[row]):
                    row = i
                    if free[i] == 2:
                        break
            columns = tuple(v for v in adj[row] if mate[v] < 0)
            stack.append((row, columns, -1, len(trail)))
        elif alive:
            count += 1
            if cap is not None and count > cap:
                return TilingCount(count, False)
        # Place the next column of the deepest branch that has one left: the
        # first of a new branch, or after a dead end or a complete matching
        # the next one, dropping the exhausted branches above it.
        while stack:
            row, columns, k, mark = stack.pop()
            undo(mark)
            if k + 1 < len(columns):
                stack.append((row, columns, k + 1, mark))
                place(row, columns[k + 1])
                alive = propagate()
                break
        else:
            return TilingCount(count, True)


def matrix_json(matrix: IntegerMatrix) -> dict:
    """JSON-ready dump with labels; entries stay plain integers."""

    def labels(monomials):
        return None if monomials is None else [str(m) for m in monomials]

    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [list(r) for r in matrix.entries],
        "row_labels": labels(matrix.row_labels),
        "col_labels": labels(matrix.col_labels),
    }
