"""Contracting germs at the origin and the surfaces they trace out.

A germ here is the data of a polynomial contraction of (C^2, 0).  The
validation rules are inequalities between moduli of the parameters plus one
polynomial resonance identity, so everything can be decided exactly when
the parameters are rational complex numbers.  Floating-point parameters are
accepted too; only the resonance identity then gets a tolerance, the strict
modulus inequalities are evaluated as given.

Moduli are never extracted: all modulus comparisons are done on squared
moduli, which are rational for exact inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .curves import CurveConfig
from .errors import DomainError
from .families import enoki_cycle_config

FLOAT_TOL = 1e-12


@dataclass(frozen=True)
class ExactComplex:
    """Gaussian rational: real and imaginary parts are Fractions."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, k: int) -> "ExactComplex":
        if k < 0:
            raise ValueError("negative powers are not needed here")
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def reciprocal(self) -> "ExactComplex":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return ExactComplex(self.re / d, -self.im / d)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}j"


Number = Union[int, Fraction, ExactComplex, float, complex]


def _is_exact(x: Number) -> bool:
    return not isinstance(x, (float, complex))


def _lift_exact(x: Number) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    return ExactComplex(Fraction(x))


def _lift_float(x: Number) -> complex:
    if isinstance(x, ExactComplex):
        return complex(float(x.re), float(x.im))
    return complex(x)


class _Arith:
    """Uniform exact/float arithmetic over a germ's parameter list."""

    def __init__(self, values: list[Number]):
        self.exact = all(_is_exact(v) for v in values)
        self.lift = _lift_exact if self.exact else _lift_float

    def abs2(self, x: Number):
        v = self.lift(x)
        return v.abs2() if self.exact else (v.real * v.real + v.imag * v.imag)

    def sub(self, x, y):
        return self.lift(x) - self.lift(y)

    def mul(self, x, y):
        return self.lift(x) * self.lift(y)

    def pow(self, x, k: int):
        return self.lift(x) ** k

    def is_zero(self, v) -> bool:
        if self.exact:
            return v.is_zero()
        return abs(v) <= FLOAT_TOL

    def render(self, v) -> str:
        return str(v)


def _refuse_unprintable(s, p, q) -> None:
    """Refuse s * (b^k - c^j), for p = (b, k) and q = (c, j), before computing
    it when it could not be printed within the interpreter's int/str limit.

    The height H(z) = N(denominator ideal) * max(1, |z|^2) on Q(i) has
    H(z^k) = H(z)^k, H(1/z) = H(z), H(zw) <= H(z)H(w) and H(z + w) <=
    4H(z)H(w).  A result that prints within L digits has common denominator
    D < 10^(2L), so N(denominator ideal) <= D^2 < 10^(4L), and modulus below
    2 * 10^L, so H < 4 * 10^(6L); then H(b)^k <= 16 * 10^(6L) * H(s) *
    H(c)^j, and the same with p and q swapped.  H is computed exactly, so
    the bounds on log2 H differ only by the float error of the logs, which
    the slack of _log2_height covers; one spare bit covers the float log
    of 10.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or _lift_exact(s).is_zero():
        return
    budget = 5 + 6 * limit * Fraction(math.log2(10)) + _log2_height(s, upper=True)
    for (b, k), (c, j) in ((p, q), (q, p)):
        if k * _log2_height(b, upper=False) > budget + j * _log2_height(c, upper=True):
            raise DomainError(
                f"the resonance term would have more than {limit} digits, "
                "beyond the interpreter's int/str limit"
            )


def _log2_height(x, upper: bool) -> Fraction:
    """An upper or lower bound on log2 H(x), apart from it by the slack alone.

    Write x = (A + Bi)/D with D the common denominator, so gcd(A, B, D) = 1.
    The denominator ideal is D / gcd(A + Bi, D) in the Gaussian integers.
    That gcd ideal is the lattice spanned by A + Bi, i(A + Bi), D and iD,
    whose index is the gcd of its 2 x 2 minors, gcd(A^2 + B^2, AD, BD, D^2)
    = gcd(A^2 + B^2, D).  So N(denominator ideal) = D^2 / gcd(A^2 + B^2, D)
    exactly.  The float logs err by far less than the slack.
    """
    z = _lift_exact(x)
    den = math.lcm(z.re.denominator, z.im.denominator)
    ideal = den * den // math.gcd(int(z.abs2() * den * den), den)
    value = ideal * max(Fraction(1), z.abs2())
    log = Fraction(math.log2(value.numerator) - math.log2(value.denominator))
    return log + Fraction(1, 2**30) if upper else log - Fraction(1, 2**30)


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    detail: str
    gating: bool = True


@dataclass(frozen=True)
class GermVerdict:
    valid: bool
    exact: bool
    conditions: tuple[Condition, ...]
    invariants: tuple[tuple[str, str], ...] = ()

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class HopfGermStrong:
    """z -> (alpha*z1 + s*z2^m, a*z2) with a single eigenvalue datum a."""

    alpha: Number
    a: Number
    s: Number
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("the twisting degree m must be at least 1")


@dataclass(frozen=True)
class HopfGermPrimary:
    """z -> (alpha1*z1 + s*z2^m, alpha2*z2), the two-eigenvalue form."""

    alpha1: Number
    alpha2: Number
    s: Number
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("the twisting degree m must be at least 1")


@dataclass(frozen=True)
class EnokiGerm:
    """Degree-n contraction t*z*w^n plus a polynomial tail in w.

    ``a_coeffs`` are the tail coefficients; the germ is parabolic exactly
    when all of them vanish.
    """

    t: Number
    n: int
    a_coeffs: tuple[Number, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("the cycle length n must be at least 1")
        object.__setattr__(self, "a_coeffs", tuple(self.a_coeffs))


def validate_strong(germ: HopfGermStrong) -> GermVerdict:
    ar = _Arith([germ.alpha, germ.a, germ.s])
    a2 = ar.abs2(germ.alpha)
    t2 = ar.abs2(germ.a)
    conditions = [
        Condition("alpha-nonzero", a2 > 0, f"|alpha|^2 = {ar.render(a2)}"),
        # |alpha|^2 <= |a| compared as |alpha|^4 <= |a|^2
        Condition(
            "alpha-square-below-a",
            a2 * a2 <= t2,
            f"|alpha|^4 = {ar.render(a2 * a2)}, |a|^2 = {ar.render(t2)}",
        ),
        Condition(
            "modulus-chain",
            t2 < a2 < 1,
            f"need |a|^2 < |alpha|^2 < 1, got {ar.render(t2)}, {ar.render(a2)}",
        ),
    ]
    if ar.exact:
        _refuse_unprintable(germ.s, (germ.a, germ.m), (germ.alpha, germ.m + 1))
    resonance = ar.sub(ar.pow(germ.a, germ.m), ar.pow(germ.alpha, germ.m + 1))
    obstruction = ar.mul(resonance, ar.lift(germ.s))
    conditions.append(
        Condition(
            "resonance",
            ar.is_zero(obstruction),
            f"(a^m - alpha^(m+1)) * s = {ar.render(obstruction)}",
        )
    )
    a_lift = ar.lift(germ.a)
    if ar.exact:
        real_positive = a_lift.im == 0 and a_lift.re > 0
    else:
        real_positive = abs(a_lift.imag) <= FLOAT_TOL and a_lift.real > 0
    conditions.append(
        Condition(
            "a-real-positive",
            real_positive,
            f"a = {ar.render(a_lift)}; reported only, not part of the verdict",
            gating=False,
        )
    )
    valid = all(c.ok for c in conditions if c.gating)
    return GermVerdict(valid, ar.exact, tuple(conditions))


def validate_primary(germ: HopfGermPrimary) -> GermVerdict:
    ar = _Arith([germ.alpha1, germ.alpha2, germ.s])
    m1 = ar.abs2(germ.alpha1)
    m2 = ar.abs2(germ.alpha2)
    conditions = [
        Condition("alpha1-nonzero", m1 > 0, f"|alpha1|^2 = {ar.render(m1)}"),
        Condition(
            "modulus-order",
            m1 <= m2 < 1,
            f"need |alpha1|^2 <= |alpha2|^2 < 1, got {ar.render(m1)}, {ar.render(m2)}",
        ),
    ]
    if ar.exact:
        _refuse_unprintable(germ.s, (germ.alpha2, germ.m), (germ.alpha1, 1))
    resonance = ar.sub(ar.pow(germ.alpha2, germ.m), ar.lift(germ.alpha1))
    obstruction = ar.mul(resonance, ar.lift(germ.s))
    conditions.append(
        Condition(
            "resonance",
            ar.is_zero(obstruction),
            f"(alpha2^m - alpha1) * s = {ar.render(obstruction)}",
        )
    )
    valid = all(c.ok for c in conditions if c.gating)
    invariants = []
    trace = ar.lift(germ.alpha1) + ar.lift(germ.alpha2)
    det = ar.mul(germ.alpha1, germ.alpha2)
    invariants.append(("trace", ar.render(trace)))
    invariants.append(("determinant", ar.render(det)))
    if valid:
        if ar.exact:
            factor = det.reciprocal()
        else:
            factor = 1 / det
        invariants.append(("expansion-factor", ar.render(factor)))
    return GermVerdict(valid, ar.exact, tuple(conditions), tuple(invariants))


def is_contracting(germ: EnokiGerm) -> bool:
    ar = _Arith([germ.t])
    t2 = ar.abs2(germ.t)
    return 0 < t2 < 1


def is_parabolic(germ: EnokiGerm) -> bool:
    """Exact vanishing of the whole tail; no tolerance on purpose."""
    out = True
    for a in germ.a_coeffs:
        if isinstance(a, ExactComplex):
            out = out and a.is_zero()
        else:
            out = out and a == 0
    return out


@dataclass(frozen=True)
class EnokiRealization:
    config: CurveConfig
    parabolic: bool
    has_nac: bool
    trace_modulus_squared: object


def realize_enoki(germ: EnokiGerm) -> EnokiRealization:
    """Curve configuration of the surface a contracting Enoki germ builds.

    The cycle of rational curves is always there; the parabolic case adds
    the disjoint elliptic curve, and only that case carries a numerically
    anticanonical divisor.
    """
    ar = _Arith([germ.t])
    t2 = ar.abs2(germ.t)
    if not (0 < t2 < 1):
        raise DomainError(
            f"not a contraction: |t|^2 = {ar.render(t2)} is outside (0, 1)"
        )
    parabolic = is_parabolic(germ)
    config = enoki_cycle_config(germ.n, with_elliptic=parabolic)
    return EnokiRealization(config, parabolic, has_nac=parabolic, trace_modulus_squared=t2)
