"""Exact linear algebra over the integers and rationals.

One fraction-free elimination in the style of Bareiss (1968, Math. Comp. 22)
serves every dense integer matrix here and the rank test of the homology
search and verifier: the working rows stay integral, every division is
exact, and the last pivot is the determinant up to a sign the pivot order
fixes.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import operator
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


def _pivots(rows, width: int) -> tuple[list[tuple[int, list[int]]], int]:
    """Bareiss elimination driven by the rows: (pivots, signed last pivot).

    Each step takes the last row left and pivots on its first nonzero entry
    p among the first ``width`` columns, in column j, negating the row first
    when p < 0; each other row r becomes (p r - r_j pivot) / q, q the
    previous pivot (at first 1).  Every entry is then a minor, so the
    division is exact and no entry passes the Hadamard bound; as every pivot
    is positive, a row with r_j = 0 is kept exactly when p = q.  pivots
    lists each pivot's (column, row) and stops at a row with no such entry,
    so the rows are independent on those columns exactly when every row
    gets one; the last pivot, times -1 per row negated, is then the
    determinant of the rows and columns in pivot order.
    """
    rows, pivots, last, sign = list(rows), [], 1, 1
    while rows:
        row = rows.pop()
        p = next(filter(None, row), 0)
        if not p or (j := row.index(p)) >= width:
            break
        if p < 0:
            row, p, sign = [-x for x in row], -p, -sign
        keep = p == last
        rows = [
            r if keep and not c else [(p * x - c * y) // last for x, y in zip(r, row)]
            for r in rows
            for c in (r[j],)
        ]
        pivots.append((j, row))
        last = p
    return pivots, sign * last


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix."""
    m = _copy_int_matrix(rows)
    pivots, last = _pivots(m, len(m))
    if len(pivots) < len(m):
        return 0
    # m's rows are pivoted last first, so columns[i] is row i's pivot column
    columns = [j for j, _ in reversed(pivots)]
    return (-1) ** sum(a > b for a, b in itertools.combinations(columns, 2)) * last


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
    pivots, _ = _pivots(aug, n)
    if len(pivots) < n:
        return None
    # a pivot row is 0 on the columns of the pivots before it, and x is 0
    # on those until they are solved
    x: list[Fraction] = [Fraction(0)] * n
    for j, row in reversed(pivots):
        x[j] = (row[n] - sum(map(operator.mul, row, x))) / row[j]
    return x


def leading_principal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the top-left k x k blocks, k = 1 .. n."""
    m = _copy_int_matrix(rows)
    n = len(m)
    return [determinant([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
