import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viilattice import (
    DomainError,
    EnokiGerm,
    ExactComplex,
    HopfGermPrimary,
    HopfGermStrong,
    is_contracting,
    is_parabolic,
    realize_enoki,
    validate_primary,
    validate_strong,
)
from viilattice import germs

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)
exacts = st.builds(ExactComplex, rationals, rationals)


# --- exact complex numbers ----------------------------------------------------


def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
    b = ExactComplex(Fraction(2), Fraction(-1))
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(-2, 3))
    assert a - a == ExactComplex(0)
    assert a * b == ExactComplex(
        Fraction(1, 2) * 2 - Fraction(1, 3) * -1,
        Fraction(1, 2) * -1 + Fraction(1, 3) * 2,
    )
    assert b**0 == ExactComplex(1)
    assert b**3 == b * b * b
    power = ExactComplex(1)
    for k in range(40):
        assert a**k == power, k
        power = power * a
    assert (a * a.reciprocal()) == ExactComplex(1)
    assert ExactComplex(0, 0).is_zero()
    assert not a.is_zero()


def test_exact_complex_rendering():
    assert str(ExactComplex(Fraction(3, 4))) == "3/4"
    assert str(ExactComplex(Fraction(0), Fraction(-1, 2))) == "0-1/2j"
    assert str(ExactComplex(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3j"


def test_exact_complex_zero_has_no_reciprocal():
    with pytest.raises(ZeroDivisionError):
        ExactComplex(0).reciprocal()


@given(exacts, exacts)
def test_abs2_is_multiplicative(x, y):
    assert (x * y).abs2() == x.abs2() * y.abs2()


@given(exacts, exacts, exacts)
def test_mul_distributes_over_add(x, y, z):
    assert x * (y + z) == x * y + x * z


# --- the single-eigenvalue contraction ----------------------------------------


def test_strong_reference_case():
    verdict = validate_strong(
        HopfGermStrong(Fraction(3, 5), Fraction(2, 5), 0, 1)
    )
    assert verdict.valid
    below = verdict.condition("alpha-square-below-a")
    assert below.ok
    assert "81/625" in below.detail
    assert verdict.condition("a-real-positive").ok


def test_strong_rejects_zero_alpha():
    verdict = validate_strong(HopfGermStrong(0, Fraction(2, 5), 0, 1))
    assert not verdict.valid
    assert not verdict.condition("alpha-nonzero").ok


def test_strong_rejects_shallow_a():
    # alpha^4 = 81/256 exceeds a^2 = 64/256 while the modulus chain holds
    verdict = validate_strong(
        HopfGermStrong(Fraction(3, 4), Fraction(1, 2), 0, 1)
    )
    assert not verdict.valid
    assert not verdict.condition("alpha-square-below-a").ok
    assert verdict.condition("modulus-chain").ok


def test_strong_rejects_reversed_moduli():
    verdict = validate_strong(
        HopfGermStrong(Fraction(2, 5), Fraction(3, 5), 0, 1)
    )
    assert not verdict.valid
    assert not verdict.condition("modulus-chain").ok


def test_strong_resonance_obstruction():
    bad = validate_strong(HopfGermStrong(Fraction(1, 2), Fraction(1, 3), 1, 1))
    assert not bad.valid
    assert not bad.condition("resonance").ok
    assert "1/12" in bad.condition("resonance").detail

    # a = alpha^2 kills the obstruction whatever the twist coefficient is
    good = validate_strong(HopfGermStrong(Fraction(1, 2), Fraction(1, 4), 7, 1))
    assert good.valid
    assert good.condition("resonance").ok


def test_strong_complex_a_reported_not_gating():
    verdict = validate_strong(
        HopfGermStrong(
            Fraction(3, 5), ExactComplex(Fraction(0), Fraction(2, 5)), 0, 1
        )
    )
    assert verdict.valid
    cond = verdict.condition("a-real-positive")
    assert not cond.ok
    assert not cond.gating


def test_strong_degree_bound():
    with pytest.raises(DomainError):
        HopfGermStrong(Fraction(1, 2), Fraction(1, 4), 0, 0)


# --- the two-eigenvalue contraction -------------------------------------------


def test_primary_reference_case_fails_resonance():
    verdict = validate_primary(
        HopfGermPrimary(Fraction(3, 10), Fraction(3, 5), 1, 2)
    )
    assert not verdict.valid
    res = verdict.condition("resonance")
    assert not res.ok
    assert "3/50" in res.detail
    # invariants are reported even for an invalid germ
    assert ("trace", "9/10") in verdict.invariants
    assert ("determinant", "9/50") in verdict.invariants
    assert all(k != "expansion-factor" for k, _ in verdict.invariants)


def test_primary_valid_case_reports_expansion():
    verdict = validate_primary(
        HopfGermPrimary(Fraction(1, 4), Fraction(1, 2), 5, 2)
    )
    assert verdict.valid
    assert verdict.invariants == (
        ("trace", "3/4"),
        ("determinant", "1/8"),
        ("expansion-factor", "8"),
    )


def test_primary_modulus_order():
    verdict = validate_primary(
        HopfGermPrimary(Fraction(1, 2), Fraction(1, 4), 0, 1)
    )
    assert not verdict.valid
    assert not verdict.condition("modulus-order").ok


# --- degree-n contractions ------------------------------------------------------


def test_contracting_boundaries():
    assert is_contracting(EnokiGerm(Fraction(1, 2), 3))
    assert is_contracting(EnokiGerm(ExactComplex(0, Fraction(1, 2)), 3))
    assert not is_contracting(EnokiGerm(0, 3))
    assert not is_contracting(EnokiGerm(1, 3))
    assert not is_contracting(EnokiGerm(Fraction(3, 2), 3))


def test_parabolic_is_exact_vanishing():
    assert is_parabolic(EnokiGerm(Fraction(1, 2), 2))
    assert is_parabolic(EnokiGerm(Fraction(1, 2), 2, (0, Fraction(0), ExactComplex(0))))
    assert not is_parabolic(EnokiGerm(Fraction(1, 2), 2, (0, Fraction(1, 7))))


def test_realize_parabolic():
    real = realize_enoki(EnokiGerm(Fraction(1, 2), 3))
    assert real.parabolic
    assert real.has_nac
    assert real.trace_modulus_squared == Fraction(1, 4)
    assert real.config.b2 == 3
    assert len(real.config.curves) == 4
    kinds = sorted(c.kind for c in real.config.curves)
    assert kinds.count("elliptic") == 1


def test_realize_generic_tail():
    for n in (1, 2, 6):
        real = realize_enoki(EnokiGerm(Fraction(1, 2), n, (Fraction(1),)))
        assert not real.parabolic
        assert not real.has_nac
        assert real.config.b2 == n
        assert len(real.config.curves) == n


def test_realize_rejects_non_contractions():
    for t in (0, 1, Fraction(3, 2)):
        with pytest.raises(DomainError, match="not a contraction"):
            realize_enoki(EnokiGerm(t, 2))


def test_cycle_length_bound():
    with pytest.raises(DomainError):
        EnokiGerm(Fraction(1, 2), 0)


# --- exact inputs only ----------------------------------------------------------


@pytest.mark.parametrize("bad", [0.5, 1e-20, 0.5 + 0.25j, "1/2", (1, 2)])
def test_inexact_parameters_are_refused(bad):
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    calls = [
        lambda: validate_strong(HopfGermStrong(bad, quarter, 0, 1)),
        lambda: validate_strong(HopfGermStrong(half, bad, 0, 1)),
        lambda: validate_strong(HopfGermStrong(half, quarter, bad, 1)),
        lambda: validate_primary(HopfGermPrimary(bad, half, 0, 1)),
        lambda: validate_primary(HopfGermPrimary(quarter, bad, 0, 1)),
        lambda: validate_primary(HopfGermPrimary(quarter, half, bad, 1)),
        lambda: is_contracting(EnokiGerm(bad, 2)),
        lambda: is_parabolic(EnokiGerm(half, 2, (1, bad))),
        lambda: realize_enoki(EnokiGerm(bad, 2)),
        lambda: realize_enoki(EnokiGerm(half, 2, (0, bad))),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be int, Fraction or ExactComplex"):
            call()


@pytest.mark.parametrize("bad", [1.0, 2.0, Fraction(2), True, "2", None])
def test_integer_fields_are_refused_unless_int(bad):
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for build in (
        lambda: HopfGermStrong(half, quarter, 0, bad),
        lambda: HopfGermPrimary(quarter, half, 0, bad),
    ):
        with pytest.raises(DomainError, match="twisting degree m must be an int"):
            build()
    with pytest.raises(DomainError, match="cycle length n must be an int"):
        EnokiGerm(half, bad)


def test_integer_fields_refuse_the_inputs_that_used_to_leak():
    # a float degree used to raise TypeError deep in the power, and a float
    # cycle length used to be accepted
    with pytest.raises(DomainError):
        validate_strong(HopfGermStrong(Fraction(1, 2), Fraction(1, 4), 0, 1.0))
    with pytest.raises(DomainError):
        realize_enoki(EnokiGerm(Fraction(1, 2), 2.0))


# an oracle on plain (re, im) pairs of Fractions


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _mul(out, x)
    return out


def _abs2(x):
    return x[0] * x[0] + x[1] * x[1]


def _render(x):
    re, im = x
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}j"


def _strong_oracle(alpha, a, s, m):
    a2, t2 = _abs2(alpha), _abs2(a)
    ok = {
        "alpha-nonzero": a2 > 0,
        "alpha-square-below-a": a2 * a2 <= t2,
        "modulus-chain": t2 < a2 < 1,
        "resonance": _mul(_sub(_pow(a, m), _pow(alpha, m + 1)), s) == (0, 0),
        "a-real-positive": a[1] == 0 and a[0] > 0,
    }
    valid = all(v for k, v in ok.items() if k != "a-real-positive")
    return ok, valid, ()


def _primary_oracle(alpha1, alpha2, s, m):
    m1, m2 = _abs2(alpha1), _abs2(alpha2)
    ok = {
        "alpha1-nonzero": m1 > 0,
        "modulus-order": m1 <= m2 < 1,
        "resonance": _mul(_sub(_pow(alpha2, m), alpha1), s) == (0, 0),
    }
    valid = all(ok.values())
    det = _mul(alpha1, alpha2)
    trace = (alpha1[0] + alpha2[0], alpha1[1] + alpha2[1])
    invariants = [("trace", _render(trace)), ("determinant", _render(det))]
    if valid:
        inverse = (det[0] / _abs2(det), -det[1] / _abs2(det))
        invariants.append(("expansion-factor", _render(inverse)))
    return ok, valid, tuple(invariants)


units = st.fractions(min_value=-1, max_value=1, max_denominator=12)
pairs = st.tuples(units, st.just(Fraction(0)) | units)
zero_or_pairs = st.just((Fraction(0), Fraction(0))) | pairs


def _draw_parameter(data, pair):
    """The pair as the library takes it: an ExactComplex, or an int or a
    Fraction when it is real."""
    re, im = pair
    if im == 0:
        forms = [ExactComplex(re), re] + ([int(re)] if re.denominator == 1 else [])
        return data.draw(st.sampled_from(forms))
    return ExactComplex(re, im)


@settings(max_examples=200)
@given(st.data())
def test_verdicts_match_a_gaussian_rational_oracle(data):
    m = data.draw(st.integers(1, 4))
    b, x, y = (data.draw(pairs) for _ in range(3))
    s = data.draw(zero_or_pairs)
    # half the time the eigenvalues are powers of one base, so the resonance
    # vanishes and, for 0 < |b| < 1, the germ is valid
    resonant = data.draw(st.booleans())
    cases = (
        (validate_strong, HopfGermStrong, _strong_oracle,
         (_pow(b, m), _pow(b, m + 1)) if resonant else (x, y)),
        (validate_primary, HopfGermPrimary, _primary_oracle,
         (_pow(b, m), b) if resonant else (x, y)),
    )
    for check, germ_type, oracle, (first, second) in cases:
        params = (_draw_parameter(data, v) for v in (first, second, s))
        germ = germ_type(*params, m)
        verdict = check(germ)
        ok, valid, invariants = oracle(first, second, s, m)
        assert {c.name: c.ok for c in verdict.conditions} == ok
        assert verdict.valid == valid
        assert verdict.invariants == invariants

    tail = data.draw(st.lists(zero_or_pairs, max_size=3))
    germ = EnokiGerm(
        _draw_parameter(data, x), m, [_draw_parameter(data, a) for a in tail]
    )
    assert is_contracting(germ) == (0 < _abs2(x) < 1)
    assert is_parabolic(germ) == all(a == (0, 0) for a in tail)


# --- the digit-limit refusal's height -------------------------------------------

def _divides(g, z) -> bool:
    """Whether the Gaussian integer g divides z, both as (re, im) pairs."""
    (a, b), (c, d) = g, z
    norm = a * a + b * b
    return norm > 0 and (c * a + d * b) % norm == 0 and (d * a - c * b) % norm == 0


@given(exacts)
def test_height_uses_the_exact_denominator_norm(x):
    # oracle: a gcd of A + Bi and D has the largest norm among their common
    # divisors, and every common divisor of D has norm at most D^2
    den = math.lcm(x.re.denominator, x.im.denominator)
    num = (int(x.re * den), int(x.im * den))
    gcd_norm = max(
        a * a + b * b
        for a in range(-den, den + 1)
        for b in range(-den, den + 1)
        if _divides((a, b), num) and _divides((a, b), (den, 0))
    )
    height = Fraction(den * den, gcd_norm) * max(1, x.abs2())
    for upper in (True, False):
        assert abs(germs._log2_height(x, upper) - math.log2(height)) < 1e-6


@pytest.mark.parametrize(
    "x, height",
    [
        # gcd(1 + i, 4) = 1 + i has norm 2, so the ideal norm is 16/2
        (ExactComplex(Fraction(1, 4), Fraction(1, 4)), 8),
        # gcd(3 + 4i, 5) = 2 + i has norm 5, not gcd(25, 5^2) = 25
        (ExactComplex(Fraction(3, 5), Fraction(4, 5)), 5),
        (ExactComplex(Fraction(3, 25), Fraction(4, 25)), 25),
    ],
)
def test_height_of_a_complex_base(x, height):
    for upper in (True, False):
        assert abs(germs._log2_height(x, upper) - math.log2(height)) < 1e-6
