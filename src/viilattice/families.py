"""Reference configuration families used across the solver and its checks."""

from __future__ import annotations

from collections import Counter

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


def gss_config(word: str) -> CurveConfig:
    """The b2 = len(word) rational curves of a surface with a global spherical
    shell, built from its blow-up word (Dloussky 1984, Structure des surfaces
    de Kato).

    The word is read cyclically.  Step i blows up the point O_{i-1} and
    creates the curve C_i, and letter i places O_i on C_i: "g" at a general
    point, "a" at the crossing with C_{i-1}, "b" at the crossing with the other
    curve through O_{i-1}.  So "b" never follows "g", and the all-"b" word is
    refused.  Five periods of the tower run on the universal cover, and curve
    a is the image of C_a of the middle period: blown up h times it has square
    -1 - h, a meeting with its own translate is a node, which adds 2, and the
    intersection numbers count the meetings by residue mod b2.  sigma is
    3 * b2 minus the number of "g"s.
    """
    if type(word) is not str or not word or set(word) - set("gab"):
        raise DomainError(f"a blow-up word is a non-empty string over g, a and b, got {word!r}")
    if "gb" in word + word[0] or set(word) == {"b"}:
        raise DomainError(f"{word!r} is no blow-up word: a b follows a g, or every letter is b")
    n = len(word)
    # the curves through O_{i-1}, C_{i-1} first, and each crossing as (older,
    # newer); two stand-in curves start the tower
    point, crossings, hits = (-1, -2), set(), Counter()
    for i in range(5 * n):
        hits.update(point)
        crossings.discard(point[::-1])
        crossings.update((curve, i) for curve in point)
        letter = word[i % n]
        point = (i,) if letter == "g" else (i, i - 1) if letter == "a" else (i, point[1])
    kinds = [SMOOTH_RATIONAL] * n
    self_ints = [-1 - hits[x] for x in range(2 * n, 3 * n)]
    meets: dict[tuple[int, int], int] = {}
    for pair in crossings:
        for x, y in (pair, pair[::-1]):
            a, b = x % n, y % n
            if not 2 * n <= x < 3 * n or a > b:
                continue
            if a == b:
                # one of the two meetings with a translate at each node
                kinds[a] = NODAL_RATIONAL
                self_ints[a] += 1
            else:
                meets[a, b] = meets.get((a, b), 0) + 1
    curves = tuple(Curve(a, kinds[a], self_ints[a]) for a in range(n))
    return CurveConfig(n, curves, tuple((a, b, m) for (a, b), m in sorted(meets.items())))
