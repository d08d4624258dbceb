"""Built-in verification suites with their own independent oracles.

Each suite recomputes a family of results along two routes that share no
code: the library routine under test on one side, and either a closed
formula or a deliberately naive reference implementation on the other
(cofactor determinants instead of fraction-free elimination, unpruned
product search instead of the backtracking enumerator, the all-principal-
minors test instead of symmetric elimination).  A suite passes only
when the two routes agree everywhere.

Suites are deterministic: randomized ones draw from a seeded generator, so
a given seed always reproduces the same verdicts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .curves import (
    DEFINITE,
    ELLIPTIC,
    ENOKI_CLASS,
    NODAL_RATIONAL,
    SEMIDEFINITE,
    SMOOTH_RATIONAL,
    Curve,
    CurveConfig,
    find_cycles,
    intersection_matrix,
    is_negative_definite,
    sigma_classify,
    validate,
)
from .errors import DomainError
from .families import enoki_cycle_config, singrat_config
from .germs import EnokiGerm, is_contracting, is_parabolic, realize_enoki
from .homology import (
    Representation,
    canonical_form,
    enumerate_representations,
    verify_representation,
)
from .lattice import LatticeClass, type_a_class
from .linalg import determinant
from .nac import (
    NacSolution,
    NoSolution,
    index_of,
    singrat_closed_form,
    solve_nac,
    verify_star_recurrence,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str


# --- oracles -----------------------------------------------------------------


def det_cofactor(rows) -> int:
    """Laplace expansion along the first remaining row, memoized on the
    set of surviving columns.  Slower than elimination, structurally
    unrelated to it, and exact."""
    n = len(rows)
    if n == 0:
        return 1
    memo: dict[int, int] = {}

    def expand(mask: int) -> int:
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        r = n - bin(mask).count("1")
        total = 0
        sign = 1
        for j in range(n):
            if mask >> j & 1:
                a = rows[r][j]
                if a:
                    total += sign * a * expand(mask & ~(1 << j))
                sign = -sign
        memo[mask] = total
        return total

    return expand((1 << n) - 1)


def definiteness_oracle(matrix) -> str:
    """Classify by the signs of every principal minor, smallest first.

    Negative definite: every size-k principal minor has sign (-1)^k.
    Negative semidefinite: all of them, with >= in place of >.  The scan
    stops at the first wrong-signed minor.
    """
    n = len(matrix)
    strict = True
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            sub = [[matrix[a][b] for b in cols] for a in cols]
            d = det_cofactor(sub) * (-1) ** size  # det of -M on this subset
            if d < 0:
                return "neither"
            if d == 0:
                strict = False
    return DEFINITE if strict else SEMIDEFINITE


def brute_force_representations(
    config: CurveConfig,
) -> list[Representation]:
    """Unpruned search: the full product of per-curve candidate classes,
    filtered by the standalone constraint verifier, one representative per
    renumbering orbit.  The twisted pass runs only when the plain pass
    finds nothing and there is a single cycle.  That order loses nothing:
    the plain law (#C - C^2 = b2 on every cycle) and the twisted one
    (2*b2) exclude each other, so at most one pass finds anything."""
    n = config.b2
    pools = [_naive_candidates(n, c) for c in config.curves]

    def scan(odd: bool) -> list[Representation]:
        out = []
        for combo in itertools.product(*pools):
            rep = Representation(tuple(LatticeClass(v) for v in combo), odd_ih=odd)
            if verify_representation(config, rep).ok:
                out.append(rep)
        return out

    found = scan(False)
    if not found and len(find_cycles(config)) == 1:
        found = scan(True)
    canonical: dict[tuple, Representation] = {}
    for rep in found:
        canon = canonical_form(config, rep)
        canonical[_rep_fingerprint(canon)] = canon
    return [canonical[k] for k in sorted(canonical)]


def _naive_candidates(n: int, curve: Curve) -> list[tuple[int, ...]]:
    out = []
    if curve.kind == SMOOTH_RATIONAL:
        want = curve.self_int
        for signs in itertools.product((0, 1, -1), repeat=n):
            if signs.count(1) == 1 and -sum(x * x for x in signs) == want:
                out.append(signs)
    else:
        want = curve.self_int
        for signs in itertools.product((0, -1), repeat=n):
            if -sum(x * x for x in signs) == want:
                out.append(signs)
    return out


def _divisor_square(coeffs, matrix) -> Fraction:
    """k^T M k: the self-intersection of the divisor with coefficients k."""
    size = len(matrix)
    return sum(coeffs[i] * matrix[i][j] * coeffs[j] for i in range(size) for j in range(size))


def _rep_fingerprint(rep: Representation):
    return (rep.odd_ih,) + tuple(c.coeffs for c in rep.classes)


def random_definite_config(rng: random.Random) -> CurveConfig:
    """A valid configuration with negative definite intersection matrix,
    at most 6 curves, by rejection sampling.  Every tenth draw or so the
    caller is expected to want an accepted divisor, so mixing in the
    structured families is left to the suites."""
    while True:
        r = rng.randint(1, 6)
        curves = []
        elliptic_used = False
        for i in range(r):
            roll = rng.random()
            if roll < 0.70:
                curves.append(Curve(i, SMOOTH_RATIONAL, -rng.randint(2, 6)))
            elif roll < 0.95 or elliptic_used:
                curves.append(Curve(i, NODAL_RATIONAL, -rng.randint(0, 4)))
            else:
                curves.append(Curve(i, ELLIPTIC, -rng.randint(1, 4)))
                elliptic_used = True
        pairs = []
        for i in range(r):
            for j in range(i + 1, r):
                if rng.random() < 0.35:
                    pairs.append((i, j, 1 if rng.random() < 0.85 else 2))
        rational = sum(1 for c in curves if c.kind != ELLIPTIC)
        b2 = max(1, rational + (1 if rng.random() < 0.2 else 0))
        config = CurveConfig(b2, tuple(curves), tuple(pairs))
        if not validate(config).valid:
            continue
        if is_negative_definite(intersection_matrix(config)) == DEFINITE:
            return config


def _structured_accepted(rng: random.Random) -> CurveConfig:
    """A configuration known to carry an anticanonical divisor."""
    if rng.random() < 0.5:
        n = rng.randint(2, 6)
        return singrat_config(n, n - 1)
    r = rng.randint(3, 6)
    # ring of -3 curves: strictly dominant, solved by the constant vector m
    curves = tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(r))
    pairs = tuple((i, (i + 1) % r, 1) for i in range(r))
    return CurveConfig(r, curves, pairs)


def _nac_suite_configs(rng: random.Random, count: int) -> list[CurveConfig]:
    out = []
    for i in range(count):
        if i % 10 == 9:
            out.append(_structured_accepted(rng))
        else:
            out.append(random_definite_config(rng))
    return out


# --- fixtures shared by the representation suites ----------------------------


def triangle_config() -> CurveConfig:
    """Three (-3)-curves meeting pairwise once: the odd twisted case at rank 3."""
    curves = tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(3))
    return CurveConfig(3, curves, ((0, 1, 1), (0, 2, 1), (1, 2, 1)))


def nodal_loop_config(self_int: int = -1) -> CurveConfig:
    return CurveConfig(1, (Curve(0, NODAL_RATIONAL, self_int),), ())


def disjoint_pair_config() -> CurveConfig:
    """Two disjoint nodal (-1)-curves: the two-cycle case at rank 2."""
    curves = (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1))
    return CurveConfig(2, curves, ())


def representation_fixtures() -> list[tuple[str, CurveConfig]]:
    out = [
        ("singrat-2", singrat_config(2, 1)),
        ("singrat-3", singrat_config(3, 2)),
        ("singrat-4", singrat_config(4, 3)),
        ("cycle-1", enoki_cycle_config(1)),
        ("cycle-2", enoki_cycle_config(2)),
        ("cycle-3", enoki_cycle_config(3)),
        ("cycle-4", enoki_cycle_config(4)),
        ("parabolic-2", enoki_cycle_config(2, with_elliptic=True)),
        ("parabolic-3", enoki_cycle_config(3, with_elliptic=True)),
        ("twisted-loop-1", nodal_loop_config(-1)),
        ("triangle-3", triangle_config()),
        ("two-cycles-2", disjoint_pair_config()),
    ]
    return out


# --- the suites --------------------------------------------------------------
#
# A suite returns (checks, detail) when it passes and raises _SuiteFailed,
# with the checks counted so far, at its first failure.


class _SuiteFailed(Exception):
    def __init__(self, checks: int, detail: str):
        super().__init__(detail)
        self.checks = checks
        self.detail = detail


def _suite_determinant_grid(seed: int) -> tuple[int, str]:
    checks = 0
    for n in range(2, 11):
        for p in range(0, n):
            matrix = intersection_matrix(singrat_config(n, p))
            formula = (-1) ** (p + 1) * ((n - 1) * (p + 1) - p)
            if determinant(matrix) != formula or det_cofactor(matrix) != formula:
                raise _SuiteFailed(checks, f"determinant disagreement at n={n}, p={p}")
            checks += 2
    return checks, (
        "elimination and cofactor expansion both match the closed formula "
        "for n in [2,10]"
    )


def _suite_closed_form_grid(seed: int) -> tuple[int, str]:
    checks = 0
    for n in range(2, 11):
        for p in range(0, n):
            for m in (1, n - 1):
                config = singrat_config(n, p)
                cf = singrat_closed_form(n, p, m)
                sol = solve_nac(config, m)
                if isinstance(sol, NacSolution) != cf.consistent:
                    raise _SuiteFailed(
                        checks,
                        f"solver and closed form disagree on consistency at "
                        f"n={n}, p={p}, m={m}",
                    )
                checks += 1
                want = tuple(
                    Fraction(m * (n - 1) * (p + 1 - i), (n - 1) * (p + 1) - p)
                    for i in range(p + 1)
                )
                if cf.coeffs != want:
                    raise _SuiteFailed(
                        checks, f"closed-form coefficients drifted at n={n}, p={p}, m={m}"
                    )
                checks += 1
                if cf.consistent:
                    if sol.coeffs != want or not sol.effective:
                        raise _SuiteFailed(
                            checks, f"solver coefficients differ at n={n}, p={p}, m={m}"
                        )
                    checks += 1
        if index_of(singrat_config(n, n - 1)) != n - 1:
            raise _SuiteFailed(checks, f"index at n={n} is not n-1")
        checks += 1
    return checks, "solver output equals the closed form on the whole grid; index is n-1"


def _suite_worked_instance(seed: int) -> tuple[int, str]:
    config = singrat_config(3, 2)
    matrix = intersection_matrix(config)
    failures = []
    if matrix != [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]:
        failures.append("matrix")
    if determinant(matrix) != -4:
        failures.append("determinant")
    sol1 = solve_nac(config, 1)
    sol2 = solve_nac(config, 2)
    if not (
        isinstance(sol1, NacSolution)
        and sol1.coeffs == (Fraction(3, 2), Fraction(1), Fraction(1, 2))
        and sol1.index == 2
    ):
        failures.append("m=1 coefficients")
    if not (
        isinstance(sol2, NacSolution)
        and sol2.coeffs == (Fraction(3), Fraction(2), Fraction(1))
    ):
        failures.append("m=2 coefficients")
    for m, sol in ((1, sol1), (2, sol2)):
        if isinstance(sol, NacSolution):
            if _divisor_square(sol.coeffs, matrix) != -m * m * 3:
                failures.append(f"square at m={m}")
    if failures:
        raise _SuiteFailed(8, "failed: " + ", ".join(failures))
    return 8, "k=(3/2,1,1/2), k=(3,2,1), det=-4, squares -m^2*3"


def _suite_random_nac(seed: int) -> tuple[int, str]:
    rng = random.Random(seed)
    checks = 0
    accepted = 0
    for config in _nac_suite_configs(rng, 1000):
        matrix = intersection_matrix(config)
        for m in (1, 2):
            sol = solve_nac(config, m)
            if isinstance(sol, NoSolution):
                if not sol.reason:
                    raise _SuiteFailed(checks, "empty reason")
                continue
            accepted += 1
            square = _divisor_square(sol.coeffs, matrix)
            if square != -m * m * config.b2:
                raise _SuiteFailed(
                    checks, f"accepted divisor square {square} != {-m * m * config.b2}"
                )
            if any(k < 0 for k in sol.coeffs):
                raise _SuiteFailed(checks, "accepted divisor with a negative coefficient")
            if any((k * sol.index / m).denominator != 1 for k in sol.coeffs):
                raise _SuiteFailed(checks, "index does not clear the denominators")
            checks += 3
    if accepted == 0:
        raise _SuiteFailed(checks, "no solution accepted")
    return checks, (
        f"{accepted} accepted divisors recomputed against the matrix "
        "(square law, positivity, index)"
    )


def _suite_p0_impossibility(seed: int) -> tuple[int, str]:
    checks = 0
    for n in range(2, 11):
        if singrat_closed_form(n, 0, 1).consistent:
            raise _SuiteFailed(checks, f"p=0 consistent at n={n}")
        if not isinstance(solve_nac(singrat_config(n, 0), 1), NoSolution):
            raise _SuiteFailed(checks, f"solver accepts p=0 at n={n}")
        checks += 2
    for n in range(2, 61):
        # the obstruction in integers: n(n-1) is strictly between consecutive squares
        target = n * (n - 1)
        if isqrt(target) ** 2 == target:
            raise _SuiteFailed(checks, f"n(n-1) square at n={n}")
        checks += 1
    return checks, "p=0 inconsistent for n in [2,10]; n(n-1) never a square up to 60"


def _suite_enumerator_oracle(seed: int) -> tuple[int, str]:
    checks = 0
    for name, config in representation_fixtures():
        mine = enumerate_representations(config)
        naive = brute_force_representations(config)
        if sorted(_rep_fingerprint(r) for r in mine) != sorted(
            _rep_fingerprint(r) for r in naive
        ):
            raise _SuiteFailed(
                checks,
                f"pruned and unpruned enumerations differ on {name} "
                f"({len(mine)} vs {len(naive)})",
            )
        for rep in mine:
            if not verify_representation(config, rep).ok:
                raise _SuiteFailed(
                    checks, f"enumerated representation fails verification on {name}"
                )
        checks += 1 + len(mine)
    return checks, (
        "pruned enumeration matches the unpruned product search on every "
        "rank <= 4 fixture"
    )


def _suite_sharp_c_b2(seed: int) -> tuple[int, str]:
    checks = 0
    for name, config in representation_fixtures():
        reps = enumerate_representations(config)
        if not reps:
            raise _SuiteFailed(checks, f"no representation on {name}")
        cycles = find_cycles(config)
        pos = {c.id: i for i, c in enumerate(config.curves)}
        for rep in reps:
            for rec in cycles:
                total = [0] * config.b2
                for cid in rec.member_ids:
                    for t, x in enumerate(rep.classes[pos[cid]].coeffs):
                        total[t] += x
                square = -sum(x * x for x in total)
                want = (2 if rep.odd_ih else 1) * config.b2
                if rec.length - square != want:
                    raise _SuiteFailed(
                        checks,
                        f"{name}: #C - C^2 = {rec.length - square}, expected {want}",
                    )
                checks += 1
        rational_cycles = [rec for rec in cycles if rec.length >= 1]
        rational = sum(1 for c in config.curves if c.kind != ELLIPTIC)
        if len(rational_cycles) == 1 and rational == config.b2:
            # the intersection-data route must agree with the homology route
            crosscheck = sigma_classify(config).torsion_crosscheck
            if crosscheck != reps[0].odd_ih:
                raise _SuiteFailed(
                    checks, f"{name}: torsion cross-check disagrees with the enumeration"
                )
            checks += 1
    return checks, (
        "#C - C^2 equals b2 (2*b2 in the twisted case) on every fixture, "
        "and the sigma cross-check agrees"
    )


def _suite_representation_uniqueness(seed: int) -> tuple[int, str]:
    checks = 0
    for n in (2, 3, 4):
        config = singrat_config(n, n - 1)
        reps = enumerate_representations(config)
        if len(reps) != 1:
            raise _SuiteFailed(checks, f"{len(reps)} representations at n={n}, expected 1")
        rep = reps[0]
        expected = [LatticeClass(tuple(0 if t == 0 else -1 for t in range(n)))]
        for i in range(1, n):
            expected.append(type_a_class(n, i, frozenset({i - 1})))
        if rep.odd_ih or list(rep.classes) != expected:
            raise _SuiteFailed(
                checks, f"canonical representation at n={n} is not the chain pattern"
            )
        if not verify_representation(config, rep).ok:
            raise _SuiteFailed(
                checks, f"canonical representation at n={n} fails verification"
            )
        checks += 3
    return checks, (
        "exactly one representation for n in {2,3,4}: the tail class plus "
        "the difference chain"
    )


def _suite_enoki_pipeline(seed: int) -> tuple[int, str]:
    checks = 0
    for n in range(1, 7):
        for zeros in (True, False):
            tail = (0,) * n if zeros else tuple(1 if i == 0 else 0 for i in range(n))
            germ = EnokiGerm(Fraction(1, 2), n, tail)
            if not is_contracting(germ) or is_parabolic(germ) != zeros:
                raise _SuiteFailed(checks, f"germ flags wrong at n={n}")
            real = realize_enoki(germ)
            cls = sigma_classify(real.config)
            if cls.sigma != 2 * n or cls.verdict != ENOKI_CLASS:
                raise _SuiteFailed(
                    checks, f"sigma = {cls.sigma} (verdict {cls.verdict}) at n={n}"
                )
            sol = solve_nac(real.config, 1)
            if real.has_nac != isinstance(sol, NacSolution):
                raise _SuiteFailed(
                    checks, f"divisor verdict does not match the tail flag at n={n}"
                )
            if isinstance(sol, NacSolution):
                if not sol.parabolic or sol.index != 1 or set(sol.coeffs) != {
                    Fraction(1)
                }:
                    raise _SuiteFailed(
                        checks, f"parabolic divisor is not the unit vector at n={n}"
                    )
            checks += 4
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
        try:
            realize_enoki(EnokiGerm(bad, 2, (0, 0)))
        except DomainError:
            checks += 1
        else:
            raise _SuiteFailed(checks, f"non-contraction t={bad} accepted")
    return checks, (
        "germ to surface to trichotomy to divisor agrees with the tail flag "
        "for n in [1,6]"
    )


def _suite_star_recurrence(seed: int) -> tuple[int, str]:
    rng = random.Random(seed + 1)
    checks = 0
    accepted = 0
    for config in _nac_suite_configs(rng, 300):
        for m in (1, 2):
            sol = solve_nac(config, m)
            if isinstance(sol, NoSolution):
                continue
            accepted += 1
            report = verify_star_recurrence(config, sol)
            if not report.ok:
                raise _SuiteFailed(checks, "recurrence fails on an accepted divisor")
            checks += max(1, len(report.checks))
    config = singrat_config(4, 3)
    sol = solve_nac(config, 1)
    bumped = NacSolution(
        sol.m,
        sol.coeffs[:1] + (sol.coeffs[1] + 1,) + sol.coeffs[2:],
        sol.index,
        sol.effective,
        sol.self_int_check,
    )
    if verify_star_recurrence(config, bumped).ok:
        raise _SuiteFailed(checks, "perturbed divisor passes the recurrence")
    checks += 1
    if accepted == 0:
        raise _SuiteFailed(checks, "no accepted divisors")
    return checks, (
        f"recurrence holds at every interior curve across {accepted} accepted "
        "divisors and detects a perturbed one"
    )


def _suite_definiteness_oracle(seed: int) -> tuple[int, str]:
    rng = random.Random(seed + 2)
    checks = 0
    matrices = []
    for _ in range(10000):
        size = rng.randint(1, 4)
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        matrices.append(m)
    for _ in range(500):
        size = 8
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        matrices.append(m)
    for n in range(2, 7):
        matrices.append(intersection_matrix(singrat_config(n, n - 1)))
        matrices.append(intersection_matrix(enoki_cycle_config(n)))
    matrices.append([[0]])
    matrices.append([[-2, 2], [2, -2]])
    for m in matrices:
        mine = is_negative_definite(m)
        ref = definiteness_oracle(m)
        if mine != ref:
            raise _SuiteFailed(checks, f"disagreement on {m}: {mine} vs {ref}")
        checks += 1
    return checks, (
        "symmetric elimination agrees with the all-principal-minors oracle "
        "on every sampled matrix"
    )


_SUITES = {
    "singrat-determinant-grid": _suite_determinant_grid,
    "singrat-closed-form-grid": _suite_closed_form_grid,
    "singrat-worked-instance": _suite_worked_instance,
    "random-nac-self-intersection": _suite_random_nac,
    "singrat-p0-impossibility": _suite_p0_impossibility,
    "enumerator-oracle-equivalence": _suite_enumerator_oracle,
    "sharp-c-b2-law": _suite_sharp_c_b2,
    "singrat-representation-uniqueness": _suite_representation_uniqueness,
    "enoki-germ-pipeline": _suite_enoki_pipeline,
    "star-recurrence": _suite_star_recurrence,
    "definiteness-oracle": _suite_definiteness_oracle,
}

SUITE_NAMES = list(_SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    try:
        checks, detail = _SUITES[name](seed)
    except _SuiteFailed as exc:
        return SuiteResult(name, False, exc.checks, exc.detail)
    return SuiteResult(name, True, checks, detail)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, seed) for name in SUITE_NAMES]
