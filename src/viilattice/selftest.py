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
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

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
from .nac import (
    NacSolution,
    NoSolution,
    index_of,
    singrat_closed_form,
    solve_nac,
    verify_star_recurrence,
)


class SuiteResult(NamedTuple):
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
        if validate(config).valid and config.elimination[0] == DEFINITE:
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
# A suite states each check as one checks.require call and returns its pass
# detail.  The first failed check ends the suite, with the count so far.


class _SuiteFailed(Exception):
    pass


class _Checks:
    """The check count of one suite run: require adds weight to it when ok
    holds and fails the suite with detail otherwise.  Checks counted as one
    group carry the group's weight on the last of them."""

    def __init__(self):
        self.count = 0

    def require(self, ok: bool, detail: str, weight: int = 1) -> None:
        if not ok:
            raise _SuiteFailed(detail)
        self.count += weight


def _determinant(config: CurveConfig) -> int | None:
    """det M from the elimination the commands run (None unless definite):
    it holds det(-M), which is (-1)^size det M."""
    solved = config.elimination[1]
    return None if solved is None else (-1) ** len(config.curves) * solved[1]


def _suite_determinant_grid(seed: int, checks: _Checks) -> str:
    for n in range(2, 11):
        for p in range(0, n):
            config = singrat_config(n, p)
            formula = (-1) ** (p + 1) * ((n - 1) * (p + 1) - p)
            cofactor = det_cofactor(intersection_matrix(config))
            ok = _determinant(config) == formula == cofactor
            checks.require(ok, f"determinant disagreement at n={n}, p={p}", 2)
    return "elimination and cofactor expansion both match the closed formula for n in [2,10]"


def _suite_closed_form_grid(seed: int, checks: _Checks) -> str:
    for n in range(2, 11):
        for p in range(0, n):
            for m in (1, n - 1):
                cf = singrat_closed_form(n, p, m)
                sol = solve_nac(singrat_config(n, p), m)
                at = f"at n={n}, p={p}, m={m}"
                ok = isinstance(sol, NacSolution) == cf.consistent
                checks.require(ok, f"solver and closed form disagree on consistency {at}")
                want = tuple(
                    Fraction(m * (n - 1) * (p + 1 - i), (n - 1) * (p + 1) - p)
                    for i in range(p + 1)
                )
                checks.require(cf.coeffs == want, f"closed-form coefficients drifted {at}")
                if cf.consistent:
                    ok = sol.coeffs == want and sol.effective
                    checks.require(ok, f"solver coefficients differ {at}")
        checks.require(index_of(singrat_config(n, n - 1)) == n - 1, f"index at n={n} is not n-1")
    return "solver output equals the closed form on the whole grid; index is n-1"


def _suite_worked_instance(seed: int, checks: _Checks) -> str:
    config = singrat_config(3, 2)
    matrix = intersection_matrix(config)
    failures = []
    if matrix != [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]:
        failures.append("matrix")
    if _determinant(config) != -4:
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
    # the eight checks count whether they pass or fail
    checks.count += 8
    checks.require(not failures, "failed: " + ", ".join(failures), 0)
    return "k=(3/2,1,1/2), k=(3,2,1), det=-4, squares -m^2*3"


def _suite_random_nac(seed: int, checks: _Checks) -> str:
    rng = random.Random(seed)
    accepted = 0
    for config in _nac_suite_configs(rng, 1000):
        matrix = intersection_matrix(config)
        for m in (1, 2):
            sol = solve_nac(config, m)
            if isinstance(sol, NoSolution):
                checks.require(bool(sol.reason), "empty reason", 0)
                continue
            accepted += 1
            square, want = _divisor_square(sol.coeffs, matrix), -m * m * config.b2
            checks.require(square == want, f"accepted divisor square {square} != {want}", 0)
            ok = all(k >= 0 for k in sol.coeffs)
            checks.require(ok, "accepted divisor with a negative coefficient", 0)
            ok = all((k * sol.index / m).denominator == 1 for k in sol.coeffs)
            checks.require(ok, "index does not clear the denominators", 3)
    checks.require(accepted > 0, "no solution accepted", 0)
    return (
        f"{accepted} accepted divisors recomputed against the matrix "
        "(square law, positivity, index)"
    )


def _suite_p0_impossibility(seed: int, checks: _Checks) -> str:
    for n in range(2, 11):
        checks.require(not singrat_closed_form(n, 0, 1).consistent, f"p=0 consistent at n={n}", 0)
        ok = isinstance(solve_nac(singrat_config(n, 0), 1), NoSolution)
        checks.require(ok, f"solver accepts p=0 at n={n}", 2)
    for n in range(2, 61):
        # the obstruction in integers: n(n-1) is strictly between consecutive squares
        target = n * (n - 1)
        checks.require(isqrt(target) ** 2 != target, f"n(n-1) square at n={n}")
    return "p=0 inconsistent for n in [2,10]; n(n-1) never a square up to 60"


def _suite_enumerator_oracle(seed: int, checks: _Checks) -> str:
    for name, config in representation_fixtures():
        mine = enumerate_representations(config)
        naive = brute_force_representations(config)
        ok = sorted(map(_rep_fingerprint, mine)) == sorted(map(_rep_fingerprint, naive))
        counts = f"({len(mine)} vs {len(naive)})"
        checks.require(ok, f"pruned and unpruned enumerations differ on {name} {counts}", 0)
        ok = all(verify_representation(config, rep).ok for rep in mine)
        checks.require(ok, f"enumerated representation fails verification on {name}", 1 + len(mine))
    return "pruned enumeration matches the unpruned product search on every rank <= 4 fixture"


def _suite_sharp_c_b2(seed: int, checks: _Checks) -> str:
    for name, config in representation_fixtures():
        reps = enumerate_representations(config)
        checks.require(len(reps) > 0, f"no representation on {name}", 0)
        cycles = find_cycles(config)
        pos = {c.id: i for i, c in enumerate(config.curves)}
        for rep in reps:
            for rec in cycles:
                total = [0] * config.b2
                for cid in rec.member_ids:
                    for t, x in enumerate(rep.classes[pos[cid]].coeffs):
                        total[t] += x
                law = rec.length + sum(x * x for x in total)
                want = (2 if rep.odd_ih else 1) * config.b2
                checks.require(law == want, f"{name}: #C - C^2 = {law}, expected {want}")
        rational_cycles = [rec for rec in cycles if rec.length >= 1]
        rational = sum(1 for c in config.curves if c.kind != ELLIPTIC)
        if len(rational_cycles) == 1 and rational == config.b2:
            # the intersection-data route must agree with the homology route
            ok = sigma_classify(config).torsion_crosscheck == reps[0].odd_ih
            checks.require(ok, f"{name}: torsion cross-check disagrees with the enumeration")
    return (
        "#C - C^2 equals b2 (2*b2 in the twisted case) on every fixture, "
        "and the sigma cross-check agrees"
    )


def _suite_representation_uniqueness(seed: int, checks: _Checks) -> str:
    for n in (2, 3, 4):
        config = singrat_config(n, n - 1)
        reps = enumerate_representations(config)
        checks.require(len(reps) == 1, f"{len(reps)} representations at n={n}, expected 1", 0)
        rep = reps[0]
        expected = [LatticeClass(tuple(0 if t == 0 else -1 for t in range(n)))]
        for i in range(1, n):
            expected.append(type_a_class(n, i, frozenset({i - 1})))
        ok = not rep.odd_ih and list(rep.classes) == expected
        checks.require(ok, f"canonical representation at n={n} is not the chain pattern", 0)
        ok = verify_representation(config, rep).ok
        checks.require(ok, f"canonical representation at n={n} fails verification", 3)
    return "exactly one representation for n in {2,3,4}: the tail class plus the difference chain"


def _suite_enoki_pipeline(seed: int, checks: _Checks) -> str:
    for n in range(1, 7):
        for zeros in (True, False):
            tail = (0,) * n if zeros else tuple(1 if i == 0 else 0 for i in range(n))
            germ = EnokiGerm(Fraction(1, 2), n, tail)
            ok = is_contracting(germ) and is_parabolic(germ) == zeros
            checks.require(ok, f"germ flags wrong at n={n}", 0)
            real = realize_enoki(germ)
            cls = sigma_classify(real.config)
            ok = cls.sigma == 2 * n and cls.verdict == ENOKI_CLASS
            checks.require(ok, f"sigma = {cls.sigma} (verdict {cls.verdict}) at n={n}", 0)
            sol = solve_nac(real.config, 1)
            ok = real.has_nac == isinstance(sol, NacSolution)
            checks.require(ok, f"divisor verdict does not match the tail flag at n={n}", 0)
            ok = not isinstance(sol, NacSolution) or (
                sol.parabolic and sol.index == 1 and set(sol.coeffs) == {Fraction(1)}
            )
            checks.require(ok, f"parabolic divisor is not the unit vector at n={n}", 4)
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
        try:
            realize_enoki(EnokiGerm(bad, 2, (0, 0)))
            refused = False
        except DomainError:
            refused = True
        checks.require(refused, f"non-contraction t={bad} accepted")
    return "germ to surface to trichotomy to divisor agrees with the tail flag for n in [1,6]"


def _suite_star_recurrence(seed: int, checks: _Checks) -> str:
    rng = random.Random(seed + 1)
    accepted = 0
    for config in _nac_suite_configs(rng, 300):
        for m in (1, 2):
            sol = solve_nac(config, m)
            if isinstance(sol, NoSolution):
                continue
            accepted += 1
            report = verify_star_recurrence(config, sol)
            weight = max(1, len(report.checks))
            checks.require(report.ok, "recurrence fails on an accepted divisor", weight)
    config = singrat_config(4, 3)
    sol = solve_nac(config, 1)
    # k_1 + 1 at level 1
    scaled = sol.scaled[:1] + (sol.scaled[1] + sol.index,) + sol.scaled[2:]
    bumped = NacSolution(1, scaled, sol.index, sol.effective, sol.square)
    ok = not verify_star_recurrence(config, bumped).ok
    checks.require(ok, "perturbed divisor passes the recurrence")
    checks.require(accepted > 0, "no accepted divisors", 0)
    return (
        f"recurrence holds at every interior curve across {accepted} accepted "
        "divisors and detects a perturbed one"
    )


def _random_symmetric(rng: random.Random, size: int) -> list[list[int]]:
    """A symmetric matrix with entries in [-4, 4], drawn row by row from the diagonal."""
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def _suite_definiteness_oracle(seed: int, checks: _Checks) -> str:
    rng = random.Random(seed + 2)
    matrices = [_random_symmetric(rng, rng.randint(1, 4)) for _ in range(10000)]
    matrices += [_random_symmetric(rng, 8) for _ in range(500)]
    for n in range(2, 7):
        matrices.append(intersection_matrix(singrat_config(n, n - 1)))
        matrices.append(intersection_matrix(enoki_cycle_config(n)))
    matrices.append([[0]])
    matrices.append([[-2, 2], [2, -2]])
    for m in matrices:
        mine, ref = is_negative_definite(m), definiteness_oracle(m)
        checks.require(mine == ref, f"disagreement on {m}: {mine} vs {ref}")
    return (
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
    checks = _Checks()
    try:
        detail = _SUITES[name](seed, checks)
    except _SuiteFailed as exc:
        return SuiteResult(name, False, checks.count, str(exc))
    return SuiteResult(name, True, checks.count, detail)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, seed) for name in SUITE_NAMES]
