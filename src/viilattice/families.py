"""Reference configuration families used across the solver and its checks."""

from __future__ import annotations

from .curves import (
    ELLIPTIC,
    NODAL_RATIONAL,
    SMOOTH_RATIONAL,
    Curve,
    CurveConfig,
    _ints,
)
from .errors import DomainError


def singrat_config(n: int, p: int) -> CurveConfig:
    """Singular-rational-curve family: a nodal curve with a chain hanging off it.

    Curve 0 is nodal with self-intersection -(n-1); curves 1 .. p are smooth
    (-2)-curves forming a chain attached to it.  The surface rank is b2 = n,
    so the configuration only carries all of its rational curves when
    p = n - 1.
    """
    _ints((n, p), "family parameters")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if not 0 <= p <= n - 1:
        raise DomainError(f"p must lie in [0, {n - 1}], got {p}")
    curves = [Curve(0, NODAL_RATIONAL, -(n - 1))]
    meets = []
    for i in range(1, p + 1):
        curves.append(Curve(i, SMOOTH_RATIONAL, -2))
        meets.append((i - 1, i, 1))
    return CurveConfig(n, tuple(curves), tuple(meets))


def enoki_cycle_config(n: int, with_elliptic: bool = False) -> CurveConfig:
    """Cycle of rational curves with class square zero, rank b2 = n.

    For n = 1 the cycle is a single nodal curve of self-intersection 0, for
    n = 2 two (-2)-curves meeting twice, and for n >= 3 a closed chain of
    (-2)-curves.  ``with_elliptic`` adds the disjoint elliptic curve of
    self-intersection -n carried by the parabolic degeneration, whose class
    together with the cycle exhausts the anticanonical class.
    """
    _ints((n,), "family parameters")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if n == 1:
        curves = [Curve(0, NODAL_RATIONAL, 0)]
        meets: list[tuple[int, int, int]] = []
    elif n == 2:
        curves = [Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)]
        meets = [(0, 1, 2)]
    else:
        curves = [Curve(i, SMOOTH_RATIONAL, -2) for i in range(n)]
        meets = [(i, (i + 1) % n, 1) for i in range(n)]
    if with_elliptic:
        curves.append(Curve(n, ELLIPTIC, -n))
    return CurveConfig(n, tuple(curves), tuple(meets))
