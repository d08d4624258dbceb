"""Contracting germs: validity verdicts and realized configurations.

The three germ shapes are tested with exact rational (or exact complex)
data: every parameter is an int, a Fraction or an ExactComplex, so each
verdict is decided with no tolerance.
"""

from fractions import Fraction

from viilattice import (
    EnokiGerm,
    ExactComplex,
    HopfGermPrimary,
    HopfGermStrong,
    realize_enoki,
    sigma_classify,
    solve_nac,
    validate_primary,
    validate_strong,
)


def show(verdict):
    print(f"  valid={verdict.valid}")
    for c in verdict.conditions:
        mark = "ok " if c.ok else "BAD"
        note = "" if c.gating else "  [reported only]"
        print(f"    {mark} {c.name}: {c.detail}{note}")
    for key, value in verdict.invariants:
        print(f"    {key} = {value}")


def main():
    print("single-eigenvalue germ, untwisted (s=0):")
    show(validate_strong(HopfGermStrong(Fraction(3, 5), Fraction(2, 5), 0, 1)))

    print("\nsame moduli but a twist that misses the resonance:")
    show(validate_strong(HopfGermStrong(Fraction(1, 2), Fraction(1, 3), 1, 1)))

    print("\na purely imaginary eigenvalue is allowed; the reality of a is "
          "only reported:")
    show(validate_strong(
        HopfGermStrong(Fraction(3, 5), ExactComplex(0, Fraction(2, 5)), 0, 1)
    ))

    print("\ntwo-eigenvalue germ hitting the resonance exactly "
          "(alpha1 = alpha2^m):")
    show(validate_primary(HopfGermPrimary(Fraction(1, 4), Fraction(1, 2), 5, 2)))

    print("\ndegree-3 contraction with vanishing tail (parabolic):")
    real = realize_enoki(EnokiGerm(Fraction(1, 2), 3))
    cls = sigma_classify(real.config)
    sol = solve_nac(real.config, 1)
    print(f"  |t|^2 = {real.trace_modulus_squared}, parabolic = {real.parabolic}")
    print(f"  realized b2 = {real.config.b2}, curves = "
          f"{[(c.kind, c.self_int) for c in real.config.curves]}")
    print(f"  sigma = {cls.sigma} = 2n, verdict = {cls.verdict}")
    print(f"  anticanonical solution: k = {tuple(str(k) for k in sol.coeffs)}, "
          f"parabolic = {sol.parabolic}")

    print("\nsame contraction with a nonzero tail coefficient:")
    real = realize_enoki(EnokiGerm(Fraction(1, 2), 3, (Fraction(1, 7),)))
    sol = solve_nac(real.config, 1)
    print(f"  parabolic = {real.parabolic}, carries a divisor: {real.has_nac}")
    print(f"  solver verdict: {sol}")


if __name__ == "__main__":
    main()
