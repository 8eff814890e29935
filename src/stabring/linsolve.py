"""Exact rational linear algebra by Gaussian elimination.

Used for the bounded causality searches, for the gap systems of the
generalized elementary factors over a monomial ring, and as the independent
bounded-degree ideal-membership oracle in the test suite.  Deterministic:
pivots are chosen as the first nonzero entry in column order, free variables
are set to 0 in a solution, and the nullspace basis has one vector per free
column, in column order.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(aug: list[list[Fraction]], n: int) -> list[tuple[int, int]]:
    """Reduce the first n columns of `aug` to reduced row echelon form in place.

    Returns the pivots as (row, column) pairs; the rows below the last pivot
    are zero in the first n columns.
    """
    m = len(aug)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Under-determined systems return the solution with all free variables 0.
    """
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _reduce(aug, n)
    if any(aug[i][n] != 0 for i in range(len(pivots), len(aug))):
        return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """A basis of {x in Q^n : rows * x = 0}: one vector per free column.

    The vector of free column f has x_f = 1 and 0 at every other free column.
    """
    aug = [[Fraction(v) for v in row] for row in rows]
    pivots = _reduce(aug, n)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, col in pivots:
            x[col] = -aug[row][f]
        basis.append(x)
    return basis
