"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free elimination in the style of Bareiss: the
working matrix stays integral, every division is exact, and the final pivot
of the elimination is the determinant.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .curves import _ints
from .errors import DomainError


def _copy_int_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    out = []
    for row in rows:
        if len(row) != n:
            raise DomainError("matrix must be square")
        out.append(_ints(row, "matrix entries"))
    return out


def _eliminate(aug: list[list[int]], n: int) -> tuple[int, bool]:
    """Fraction-free forward elimination on an augmented matrix, in place.

    Returns (sign from row swaps, singular flag).  After a non-singular run
    the left n x n block is upper triangular and sign * aug[n-1][n-1] is the
    determinant of the original left block.
    """
    sign = 1
    prev = 1
    cols = len(aug[0]) if aug else 0
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot_row is None:
            return sign, True
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, cols):
                # exact by the Sylvester identity driving Bareiss elimination
                aug[i][j] = (aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = aug[k][k]
    return sign, False


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix."""
    m = _copy_int_matrix(rows)
    n = len(m)
    if n == 0:
        return 1
    sign, singular = _eliminate(m, n)
    if singular:
        return 0
    return sign * m[n - 1][n - 1]


def solve_exact(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[Fraction] | None:
    """Solve M x = rhs exactly; None when M is singular.

    The elimination is integral; only the back substitution produces
    fractions.
    """
    m = _copy_int_matrix(rows)
    n = len(m)
    if len(rhs) != n:
        raise DomainError("right-hand side length must match the matrix size")
    aug = [row + [b] for row, b in zip(m, _ints(rhs, "right-hand side entries"))]
    _, singular = _eliminate(aug, n)
    if singular:
        return None
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def leading_principal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the top-left k x k blocks, k = 1 .. n."""
    m = _copy_int_matrix(rows)
    n = len(m)
    return [determinant([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
