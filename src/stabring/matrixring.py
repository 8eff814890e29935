"""Dense exact matrices over ring scalars, selection matrices, and minors.

Matrices are immutable, rectangular, row-major, and homogeneous in scalar
kind.  Arithmetic needs +, -, * and the zero_like/one_like protocol of
Polynomial; a matrix of PolyFractions, as files are read, is only built,
indexed and compared.  Determinants, and the minors of adjugates, are
computed by one exact algorithm, fraction-free Gaussian elimination
(Bareiss), whose every division is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .poly import Polynomial, divide_exact


class MatrixError(Exception):
    pass


class Mat:
    """Immutable rectangular matrix of a single scalar kind."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise MatrixError(f"shape ({rows},{cols}) does not match {len(entries)} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Mat is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise MatrixError("ragged rows")
        return Mat(r, c, [x for row in rows for x in row])

    @staticmethod
    def build(rows: int, cols: int, fn: Callable[[int, int], object]) -> "Mat":
        return Mat(rows, cols, [fn(i, j) for i in range(rows) for j in range(cols)])

    @staticmethod
    def scalar_matrix(n: int, value, zero) -> "Mat":
        return Mat.build(n, n, lambda i, j: value if i == j else zero)

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise MatrixError(f"index ({i},{j}) out of range for ({self.rows},{self.cols})")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        return f"Mat({self.to_rows()!r})"

    def map(self, fn: Callable) -> "Mat":
        return Mat(self.rows, self.cols, [fn(x) for x in self.entries])

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return self.map(lambda x: -x)

    def _same_shape(self, other: "Mat"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch ({self.rows},{self.cols}) vs "
                              f"({other.rows},{other.cols})")

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise MatrixError(f"cannot multiply ({self.rows},{self.cols}) by "
                              f"({other.rows},{other.cols})")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self[i, k] * other[k, j]
                    acc = term if acc is None else acc + term
                out.append(acc)
        return Mat(self.rows, other.cols, out)

    def scale(self, scalar) -> "Mat":
        return self.map(lambda x: x * scalar)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise MatrixError("row mismatch in hstack")
        return Mat.from_rows([self.row(i) + other.row(i) for i in range(self.rows)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise MatrixError("column mismatch in vstack")
        return Mat(self.rows + other.rows, self.cols, list(self.entries) + list(other.entries))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat.build(len(row_idx), len(col_idx),
                         lambda i, j: self[row_idx[i], col_idx[j]])

    def take_rows(self, row_idx: Sequence[int]) -> "Mat":
        return self.submatrix(list(row_idx), list(range(self.cols)))

    # -- determinant / adjugate --------------------------------------------

    def det(self):
        """Exact determinant of a square matrix of polynomials."""
        if not self.is_square():
            raise MatrixError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            raise MatrixError("determinant of an empty matrix")
        if n == 1:
            return self.entries[0]
        return self._det_bareiss()

    def _det_bareiss(self) -> Polynomial:
        # fraction-free elimination: after step k each entry right of and
        # below the pivot is a (k+2)-minor of the matrix, so the division by
        # the previous pivot is exact over a domain; at n = 2 it is the one
        # cross product a00*a11 - a10*a01
        n = self.rows
        a = self.to_rows()
        sign = 1
        prev = None
        for k in range(n - 1):
            pivot_row = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
            if pivot_row is None:
                return self.entries[0].zero_like()
            if pivot_row != k:
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                    a[i][j] = num if prev is None else divide_exact(num, prev)
            prev = a[k][k]
        result = a[n - 1][n - 1]
        return result if sign > 0 else -result

    def adjugate(self) -> "Mat":
        """Matrix adj with self*adj = det(self)*E."""
        if not self.is_square():
            raise MatrixError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return Mat(1, 1, [self.entries[0].one_like()])
        idx = list(range(n))
        out = []
        for i in range(n):
            for j in range(n):
                rows = idx[:j] + idx[j + 1:]
                cols = idx[:i] + idx[i + 1:]
                minor = self.submatrix(rows, cols).det()
                out.append(minor if (i + j) % 2 == 0 else -minor)
        return Mat(n, n, out)


# ---------------------------------------------------------------------------
# index sets and selection matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class IndexSet:
    """Strictly ascending 1-based row indices selecting m of m+n rows."""

    members: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.members, self.members[1:])):
            raise MatrixError(f"index set {self.members!r} not strictly ascending")
        if self.members and self.members[0] < 1:
            raise MatrixError("index sets are 1-based")

    def validate(self, m: int, n: int):
        if len(self.members) != m or (self.members and self.members[-1] > m + n):
            raise MatrixError(f"index set {self.members!r} invalid for (m={m}, n={n})")

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.members)

    def __str__(self):
        return "{" + ",".join(str(i) for i in self.members) + "}"


def enumerate_index_sets(m: int, n: int) -> list[IndexSet]:
    """All C(m+n, m) index sets, lexicographic."""
    if m < 1 or n < 1:
        raise MatrixError("need m, n >= 1")
    return [IndexSet(c) for c in combinations(range(1, m + n + 1), m)]


_ZERO = Polynomial.zero(())
_ONE = Polynomial.one(())


def selection(index_set: IndexSet, m: int, n: int) -> Mat:
    """The m x (m+n) row selector: a 1 in entry (k, i_k) for the k-th member i_k.

    Its entries are 0/1 polynomial constants.
    """
    index_set.validate(m, n)
    return Mat.build(m, m + n,
                     lambda k, j: _ONE if j == index_set.members[k] - 1 else _ZERO)

