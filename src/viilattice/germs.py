"""Contracting germs at the origin and the surfaces they trace out.

A germ here is the data of a polynomial contraction of (C^2, 0).  The
validation rules are inequalities between moduli of the parameters plus one
polynomial resonance identity, so everything can be decided exactly when
the parameters are rational complex numbers, and they are exactly that: a
parameter is an int (not a bool), a Fraction or an ExactComplex, and
ExactComplex refuses any other type with DomainError rather than round it.
So the resonance identity is decided with no tolerance.

Moduli are never extracted: all modulus comparisons are done on squared
moduli, which are rational.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Union

from .curves import CurveConfig, _Frozen, _is_int
from .errors import DomainError
from .families import enoki_cycle_config


class ExactComplex(_Frozen):
    """Gaussian rational: real and imaginary parts are Fractions."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        # the one gate for a germ number: a Fraction is kept, an int (a bool
        # is not) wrapped, anything else refused rather than rounded
        for x in (re, im):
            if not isinstance(x, Fraction):
                if isinstance(x, ExactComplex):
                    raise DomainError("an ExactComplex part must be int or Fraction, got ExactComplex")
                if not _is_int(x):
                    what = "germ parameters must be int, Fraction or ExactComplex"
                    raise DomainError(f"{what}, got {type(x).__name__}")
        _set_re(self, re if isinstance(re, Fraction) else Fraction(re))
        _set_im(self, im if isinstance(im, Fraction) else Fraction(im))

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
        out = self if k else ExactComplex(1)
        for bit in bin(k)[3:]:  # square and multiply, from the second bit down
            out = out * out
            if bit == "1":
                out = out * self
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


Number = Union[int, Fraction, ExactComplex]
_set_re, _set_im = ExactComplex.re.__set__, ExactComplex.im.__set__


def _lift(x: Number) -> ExactComplex:
    """x as an ExactComplex; ExactComplex refuses what is not a germ number."""
    return x if isinstance(x, ExactComplex) else ExactComplex(x)


_LOG2_10 = Fraction(math.log2(10))


def _resonance(s: ExactComplex, p, q, formula: str) -> Condition:
    """The "resonance" condition s * (b^k - c^j) = 0, for p = (b, k) and
    q = (c, j); its detail reads ``formula`` = the term.  The term is refused
    with DomainError before it is computed when it could not be printed
    within the interpreter's int/str limit.

    The height H(z) = N(denominator ideal) * max(1, |z|^2) on Q(i) has
    H(z^k) = H(z)^k, H(1/z) = H(z), H(zw) <= H(z)H(w) and H(z + w) <=
    4H(z)H(w).  A result that prints within L digits has common denominator
    D < 10^(2L), so N(denominator ideal) <= D^2 < 10^(4L), and modulus below
    2 * 10^L, so H < 4 * 10^(6L); then H(b)^k <= 16 * 10^(6L) * H(s) *
    H(c)^j, and the same with p and q swapped.  H is computed exactly, so
    the bounds on log2 H differ only by the float error of the logs, which
    the slack of _log2_height covers; one spare bit covers the float log
    of 10.

    Those bounds run only when an integer bound cannot clear both pairs:
    log2 H(b) <= _bits(b), the lower bound of _log2_height lies below
    log2 H(b), and the right-hand side exceeds 5 + 6L * log2(10) > 19L, as
    log2 H is never negative.  So k * _bits(b) <= 19L for both pairs means
    that neither pair is refused, and every input the exact bounds refuse
    still reaches them.
    """
    if s.is_zero():
        # the term is 0 whatever the powers are, so they are not computed
        return Condition("resonance", True, f"{formula} = {s}")
    limit = sys.get_int_max_str_digits()
    if limit and any(k * _bits(b) > 19 * limit for b, k in (p, q)):
        budget = 5 + 6 * limit * _LOG2_10 + _log2_height(s, upper=True)
        for (b, k), (c, j) in ((p, q), (q, p)):
            if k * _log2_height(b, upper=False) > budget + j * _log2_height(c, upper=True):
                raise DomainError(
                    f"the resonance term would have more than {limit} digits, "
                    "beyond the interpreter's int/str limit"
                )
    (b, k), (c, j) = p, q
    obstruction = (b**k - c**j) * s
    return Condition("resonance", obstruction.is_zero(), f"{formula} = {obstruction}")


def _gaussian(x: ExactComplex) -> tuple[int, int]:
    """(D, A^2 + B^2) for x = (A + Bi)/D with D the common denominator."""
    re, im = x.re, x.im
    den = math.lcm(re.denominator, im.denominator)
    a = re.numerator * (den // re.denominator)
    b = im.numerator * (den // im.denominator)
    return den, a * a + b * b


def _bits(x: ExactComplex) -> int:
    """An integer at least log2 H(x): for x = (A + Bi)/D as in _log2_height,
    H(x) <= D^2 * max(1, (A^2 + B^2)/D^2) = max(D^2, A^2 + B^2), and an
    integer n >= 1 has log2 n < n.bit_length()."""
    den, norm = _gaussian(x)
    return max(2 * den.bit_length(), norm.bit_length())


def _log2_height(x: ExactComplex, upper: bool) -> Fraction:
    """An upper or lower bound on log2 H(x), apart from it by the slack alone.

    Write x = (A + Bi)/D with D the common denominator, so gcd(A, B, D) = 1.
    The denominator ideal is D / gcd(A + Bi, D) in the Gaussian integers.
    That gcd ideal is the lattice spanned by A + Bi, i(A + Bi), D and iD,
    whose index is the gcd of its 2 x 2 minors, gcd(A^2 + B^2, AD, BD, D^2)
    = gcd(A^2 + B^2, D).  So N(denominator ideal) = D^2 / gcd(A^2 + B^2, D)
    exactly.  The float logs err by far less than the slack.
    """
    den, norm = _gaussian(x)
    ideal = den * den // math.gcd(norm, den)
    value = Fraction(ideal * norm, den * den) if norm > den * den else Fraction(ideal)
    log = Fraction(math.log2(value.numerator) - math.log2(value.denominator))
    return log + Fraction(1, 2**30) if upper else log - Fraction(1, 2**30)


class Condition(NamedTuple):
    name: str
    ok: bool
    detail: str
    gating: bool = True


class GermVerdict(NamedTuple):
    valid: bool
    conditions: tuple[Condition, ...]
    invariants: tuple[tuple[str, str], ...] = ()

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _require_count(value, name: str) -> None:
    """DomainError unless value is an int (a bool is not) of at least 1."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise DomainError(f"{name} must be at least 1")


class HopfGermStrong(_Frozen):
    """z -> (alpha*z1 + s*z2^m, a*z2) with a single eigenvalue datum a."""

    __slots__ = _fields = ("alpha", "a", "s", "m")

    def __init__(self, alpha: Number, a: Number, s: Number, m: int):
        _require_count(m, "the twisting degree m")
        self._set(alpha, a, s, m)


class HopfGermPrimary(_Frozen):
    """z -> (alpha1*z1 + s*z2^m, alpha2*z2), the two-eigenvalue form."""

    __slots__ = _fields = ("alpha1", "alpha2", "s", "m")

    def __init__(self, alpha1: Number, alpha2: Number, s: Number, m: int):
        _require_count(m, "the twisting degree m")
        self._set(alpha1, alpha2, s, m)


class EnokiGerm(_Frozen):
    """Degree-n contraction t*z*w^n plus a polynomial tail in w.

    ``a_coeffs`` are the tail coefficients; the germ is parabolic exactly
    when all of them vanish.
    """

    __slots__ = _fields = ("t", "n", "a_coeffs")

    def __init__(self, t: Number, n: int, a_coeffs: tuple[Number, ...] = ()):
        _require_count(n, "the cycle length n")
        self._set(t, n, tuple(a_coeffs))


def validate_strong(germ: HopfGermStrong) -> GermVerdict:
    alpha, a, s = _lift(germ.alpha), _lift(germ.a), _lift(germ.s)
    a2 = alpha.abs2()
    t2 = a.abs2()
    conditions = [
        Condition("alpha-nonzero", a2 > 0, f"|alpha|^2 = {a2}"),
        # |alpha|^2 <= |a| compared as |alpha|^4 <= |a|^2
        Condition(
            "alpha-square-below-a",
            a2 * a2 <= t2,
            f"|alpha|^4 = {a2 * a2}, |a|^2 = {t2}",
        ),
        Condition(
            "modulus-chain",
            t2 < a2 < 1,
            f"need |a|^2 < |alpha|^2 < 1, got {t2}, {a2}",
        ),
        _resonance(s, (a, germ.m), (alpha, germ.m + 1), "(a^m - alpha^(m+1)) * s"),
        Condition(
            "a-real-positive",
            a.im == 0 and a.re > 0,
            f"a = {a}; reported only, not part of the verdict",
            gating=False,
        ),
    ]
    valid = all(c.ok for c in conditions if c.gating)
    return GermVerdict(valid, tuple(conditions))


def validate_primary(germ: HopfGermPrimary) -> GermVerdict:
    alpha1, alpha2, s = _lift(germ.alpha1), _lift(germ.alpha2), _lift(germ.s)
    m1 = alpha1.abs2()
    m2 = alpha2.abs2()
    conditions = [
        Condition("alpha1-nonzero", m1 > 0, f"|alpha1|^2 = {m1}"),
        Condition(
            "modulus-order",
            m1 <= m2 < 1,
            f"need |alpha1|^2 <= |alpha2|^2 < 1, got {m1}, {m2}",
        ),
        _resonance(s, (alpha2, germ.m), (alpha1, 1), "(alpha2^m - alpha1) * s"),
    ]
    valid = all(c.ok for c in conditions if c.gating)
    det = alpha1 * alpha2
    invariants = [("trace", str(alpha1 + alpha2)), ("determinant", str(det))]
    if valid:
        invariants.append(("expansion-factor", str(det.reciprocal())))
    return GermVerdict(valid, tuple(conditions), tuple(invariants))


def is_contracting(germ: EnokiGerm) -> bool:
    return 0 < _lift(germ.t).abs2() < 1


def is_parabolic(germ: EnokiGerm) -> bool:
    """Exact vanishing of the whole tail; no tolerance on purpose."""
    tail = [_lift(a) for a in germ.a_coeffs]
    return all(a.is_zero() for a in tail)


class EnokiRealization(NamedTuple):
    config: CurveConfig
    parabolic: bool
    has_nac: bool
    trace_modulus_squared: Fraction


def realize_enoki(germ: EnokiGerm) -> EnokiRealization:
    """Curve configuration of the surface a contracting Enoki germ builds.

    The cycle of rational curves is always there; the parabolic case adds
    the disjoint elliptic curve, and only that case carries a numerically
    anticanonical divisor.
    """
    t2 = _lift(germ.t).abs2()
    if not (0 < t2 < 1):
        raise DomainError(f"not a contraction: |t|^2 = {t2} is outside (0, 1)")
    parabolic = is_parabolic(germ)
    config = enoki_cycle_config(germ.n, with_elliptic=parabolic)
    return EnokiRealization(config, parabolic, has_nac=parabolic, trace_modulus_squared=t2)
