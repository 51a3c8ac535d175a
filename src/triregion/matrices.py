"""Bi-adjacency matrices and exact integer linear algebra.

Everything is computed over the integers with Python's arbitrary-precision
arithmetic; there is no floating point anywhere.  The determinant uses
fraction-free elimination.  The rank is first computed modulo a large prime,
which proves full rank when it finds it, and falls back to the same
fraction-free elimination otherwise.  The permanent of a 0/1 matrix is its
number of perfect matchings, counted by the backtracking tiling counter;
other matrices use Ryser's inclusion-exclusion with Gray-code subset
updates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import Monomial, VARIABLE_MONOMIALS
from .regions import TriangularRegion
from .tilings import _count_perfect_matchings

#: Largest column count for Ryser's permanent, which takes 2^n steps.
PERMANENT_COLUMN_LIMIT = 24

# Modulus of the rank certificate, the Mersenne prime 2^61 - 1.
_RANK_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class IntegerMatrix:
    """A dense integer matrix with optional monomial row/column labels."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[Monomial, ...] | None = None
    col_labels: tuple[Monomial, ...] | None = None

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        if self.row_labels is not None and len(self.row_labels) != self.rows:
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and len(self.col_labels) != self.cols:
            raise ValueError("column label count mismatch")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> IntegerMatrix:
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return IntegerMatrix(n, m, tuple(tuple(r) for r in rows))

    def transpose(self) -> IntegerMatrix:
        flipped = tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )
        return IntegerMatrix(self.cols, self.rows, flipped, self.col_labels, self.row_labels)

    def is_square(self) -> bool:
        return self.rows == self.cols


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(
        n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    )


def biadjacency(region: TriangularRegion) -> IntegerMatrix:
    """0/1 matrix of down-label/up-label adjacency, both sides in descending revlex.

    Entry (mu, nu) is 1 exactly when nu is x*mu, y*mu or z*mu; transposing
    gives the multiplication-by-(x+y+z) matrix between the two monomial
    bases.
    """
    downs = region.down_sorted()
    ups = region.up_sorted()
    up_index = {u: k for k, u in enumerate(ups)}
    grid = []
    for mu in downs:
        row = [0] * len(ups)
        for v in VARIABLE_MONOMIALS:
            k = up_index.get(mu * v)
            if k is not None:
                row[k] = 1
        grid.append(tuple(row))
    return IntegerMatrix(len(downs), len(ups), tuple(grid), tuple(downs), tuple(ups))


def determinant(matrix: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination; 0x0 gives 1."""
    if not matrix.is_square():
        raise ValueError("determinant requires a square matrix")
    full_rank, signed_pivot = _bareiss(matrix)
    return signed_pivot if full_rank == matrix.rows else 0


def rank(matrix: IntegerMatrix) -> int:
    """Exact rank over the rationals.

    The rank is first computed over GF(p), p = 2^61 - 1, by sparse row
    elimination.  Reduction mod p can only lose rank, never create it, so
    a full rank mod p, ``min(rows, cols)``, is the rank over Q.  A smaller
    rank mod p may be an artefact of the prime, and the rank is then
    recomputed exactly by fraction-free (Bareiss) elimination.
    """
    full = min(matrix.rows, matrix.cols)
    if _rank_mod_p(matrix) == full:
        return full
    return _bareiss(matrix)[0]


def _rank_mod_p(matrix: IntegerMatrix) -> int:
    """Rank over GF(_RANK_PRIME): each sparse row is reduced into an echelon basis."""
    p = _RANK_PRIME
    # Leading column -> basis row as {column: value}, scaled to a leading 1.
    basis: dict[int, dict[int, int]] = {}
    for entries in matrix.entries:
        row = {j: v % p for j, v in enumerate(entries) if v % p}
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                inverse = pow(row[lead], -1, p)
                basis[lead] = {j: v * inverse % p for j, v in row.items()}
                break
            factor = row[lead]
            for j, v in pivot.items():
                w = (row.get(j, 0) - factor * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(basis)


def _bareiss(matrix: IntegerMatrix) -> tuple[int, int]:
    """Rank over the rationals and the signed last pivot, by fraction-free
    (Bareiss) elimination.

    Each column's pivot is its first nonzero entry in row order, so the
    result is bit-reproducible.  After k pivots the last one is a k x k
    minor, so a square matrix of full rank ends on its determinant.
    """
    a = [list(r) for r in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    r = 0
    prev = 1
    sign = 1
    for col in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        pivot = a[r][col]
        for i in range(r + 1, nrows):
            row_i, row_r = a[i], a[r]
            head = row_i[col]
            for j in range(col + 1, ncols):
                q, rem = divmod(row_i[j] * pivot - head * row_r[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[col] = 0
        prev = pivot
        r += 1
    return r, sign * prev


def _ryser_permanent(rows: list[tuple[int, ...]]) -> int:
    """Ryser's inclusion-exclusion permanent with Gray-code column updates."""
    n = len(rows)
    if n == 0:
        return 1
    col_entries = [
        [(i, rows[i][j]) for i in range(n) if rows[i][j]] for j in range(n)
    ]
    row_sum = [0] * n
    zero_rows = n
    total = 0
    size = 0
    gray = 0
    for s in range(1, 1 << n):
        bit = (s & -s).bit_length() - 1
        mask = 1 << bit
        gray ^= mask
        if gray & mask:
            size += 1
            for i, v in col_entries[bit]:
                old = row_sum[i]
                new = old + v
                row_sum[i] = new
                if old == 0:
                    zero_rows -= 1
                if new == 0:
                    zero_rows += 1
        else:
            size -= 1
            for i, v in col_entries[bit]:
                old = row_sum[i]
                new = old - v
                row_sum[i] = new
                if old == 0:
                    zero_rows -= 1
                if new == 0:
                    zero_rows += 1
        if zero_rows == 0:
            prod = 1
            for v in row_sum:
                prod *= v
            total += prod if (n - size) % 2 == 0 else -prod
    return total


def permanent(matrix: IntegerMatrix) -> int:
    """Exact permanent; 0x0 gives 1.

    The permanent of a 0/1 matrix counts its perfect matchings (for a
    bi-adjacency matrix, the region's tilings), and the tiling counter of
    `triregion.tilings` finds them.  Any other matrix is evaluated by Ryser's
    formula, in 2^n steps, and rejected above ``PERMANENT_COLUMN_LIMIT``
    columns.
    """
    if not matrix.is_square():
        raise ValueError("permanent requires a square matrix")
    entries = matrix.entries
    if all(v in (0, 1) for row in entries for v in row):
        candidates = [frozenset(j for j, v in enumerate(row) if v) for row in entries]
        return _count_perfect_matchings(candidates).count
    if matrix.cols > PERMANENT_COLUMN_LIMIT:
        raise ValueError(
            f"matrix has {matrix.cols} columns, above the exact evaluation limit "
            f"{PERMANENT_COLUMN_LIMIT} for entries other than 0 and 1"
        )
    return _ryser_permanent(list(entries))


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


def matrix_grid(matrix: IntegerMatrix) -> str:
    """Plain-text grid of the entries, for debugging."""
    return "\n".join(" ".join(str(v) for v in row) for row in matrix.entries)
