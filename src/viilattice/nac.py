"""Numerically anticanonical divisors supported on a curve configuration.

A divisor D_m = sum(k_i D_i) with m K + D_m numerically trivial must pair
against every curve the way -m K does, which pins the coefficient vector to
the exact linear system

    M k = rhs,    rhs_i = -m * (K . D_i),

where M is the intersection matrix and K . D_i comes from adjunction.  The
solution is accepted only when its square agrees with (m K)^2 = -m^2 b2;
a configuration that solves the system but misses that square cannot span
the anticanonical class and is rejected.

Degenerate (negative semidefinite) forms belong to the square-zero-cycle
surfaces, where such a divisor exists precisely in the parabolic case with
the elliptic curve present, at level m = 1 with every coefficient 1.

The solution is linear in m, so a :class:`NacSolution` holds it over the
integers, k_i = m * scaled[i] / index with index the least level at which
every k_i is an integer.  The structure checks and the command line read
those integers; ``coeffs`` builds the Fractions on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .curves import (
    DEFINITE,
    ELLIPTIC,
    SEMIDEFINITE,
    SMOOTH_RATIONAL,
    CurveConfig,
    CycleRecord,
    _Frozen,
    _cached,
    _is_int,
    _ints,
    find_cycles,
    require_valid,
)
from .errors import DomainError


class NacSolution(_Frozen):
    """An accepted solution at level m, over integers: the i-th listed curve
    has coefficient k_i = m * scaled[i] / index, and D_m^2 = m^2 * square."""

    _fields = ("m", "scaled", "index", "effective", "square", "parabolic")  # coeffs is cached

    def __init__(self, m: int, scaled: tuple[int, ...], index: int, effective: bool,
                 square: int, parabolic: bool = False):
        _check_level(m)
        if not all(type(v) is int for v in scaled):
            raise DomainError("NacSolution.scaled must hold ints")
        if type(index) is not int or index < 1:
            raise DomainError("NacSolution.index must be an int of at least 1")
        if not _is_int(square):
            raise DomainError(f"NacSolution.square must be an int, got {type(square).__name__}")
        for name, flag in (("effective", effective), ("parabolic", parabolic)):
            if type(flag) is not bool:
                raise DomainError(f"NacSolution.{name} must be a bool, got {type(flag).__name__}")
        self._set(m, scaled, index, effective, square, parabolic)

    @_cached
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients k_i of D_m, in curve listing order."""
        return tuple(Fraction(self.m * v, self.index) for v in self.scaled)

    @property
    def self_int_check(self) -> int:
        """D_m^2 = m^2 * square."""
        return self.m * self.m * self.square


class NoSolution(NamedTuple):
    reason: str


def solve_nac(config: CurveConfig, m: int) -> NacSolution | NoSolution:
    """Solve for the level-m numerically anticanonical divisor, exactly."""
    require_valid(config)
    _check_level(m)
    if not config.curves:
        return NoSolution("no curves: nothing can support an anticanonical divisor")
    verdict, solved = config.elimination

    # the coefficients are k = m * y / det, linear in m
    if verdict == DEFINITE:
        y, det = solved
    elif verdict == SEMIDEFINITE:
        if not any(c.kind == ELLIPTIC for c in config.curves):
            return NoSolution(
                "degenerate form without an elliptic curve: on the square-zero-cycle "
                "surfaces no numerically anticanonical divisor exists outside the "
                "parabolic case"
            )
        # parabolic candidate: every coefficient equal to m, index 1; it solves
        # the system when each row of M sums to -K.D_i
        row_sums = {c.id: c.self_int for c in config.curves}
        for i, j, v in config.intersections:
            row_sums[i] += v
            row_sums[j] += v
        if any(row_sums[c.id] != -d for c, d in zip(config.curves, config._kd_column)):
            return NoSolution(
                "degenerate form: the parabolic coefficient vector does not solve "
                "the pairing system"
            )
        y, det = (1,) * len(config.curves), 1
    else:
        return NoSolution("intersection form is not negative (semi)definite")
    # k^T M k = k^T rhs once M k = rhs, with rhs = -m K.D; (m K)^2 = -m^2 b2
    # therefore asks for y . (K.D) = b2 * det
    pairing = sum([v * d for v, d in zip(y, config._kd_column)])
    expected = -m * m * config.b2
    if pairing != config.b2 * det:
        return NoSolution(
            f"self-intersection defect: divisor square {Fraction(-m * m * pairing, det)} "
            f"!= {expected} (= -m^2 b2), so the curves cannot span the anticanonical class"
        )
    # det > 0, so dividing y / det by the gcd leaves the index as denominator
    g = math.gcd(det, *y)
    return NacSolution(
        m,
        tuple(v // g for v in y),
        det // g,
        all(v > 0 for v in y),
        -config.b2,
        verdict == SEMIDEFINITE,
    )


def _check_level(m) -> None:
    if not _is_int(m) or m < 1:
        raise DomainError(f"level m must be a positive integer, got {m!r}")


def index_of(config: CurveConfig) -> int | None:
    """Smallest level at which the coefficients clear denominators: the index
    :func:`solve_nac` reports, or None when no solution exists at level 1."""
    sol = solve_nac(config, 1)
    if isinstance(sol, NoSolution):
        return None
    return sol.index


# --- the singular-rational-curve family in closed form ----------------------


class SingratClosedForm(NamedTuple):
    coeffs: tuple[Fraction, ...]
    det: int
    consistent: bool
    detail: str


def singrat_closed_form(n: int, p: int, m: int) -> SingratClosedForm:
    """Closed-form solution on the nodal-curve-plus-chain family.

    The (p+1) x (p+1) intersection matrix (corner -(n-1), chain of -2) has

        det = (-1)^(p+1) * ((n-1)(p+1) - p)

    and the pairing system at level m is solved by

        k_i = m (n-1) (p+1-i) / ((n-1)(p+1) - p).

    The candidate divisor squares to -m^2 n only when p = n - 1; in
    particular for p = 0 the requirement m^2 n = k_0^2 (n-1) has no integer
    solution since n(n-1) is never a perfect square.
    """
    _ints((n, p), "family parameters")
    if n < 2:
        raise DomainError(f"family needs n >= 2, got {n}")
    if not 0 <= p <= n - 1:
        raise DomainError(f"p must lie in [0, {n - 1}], got {p}")
    _check_level(m)
    denom = (n - 1) * (p + 1) - p
    det = (-1) ** (p + 1) * denom
    coeffs = tuple(Fraction(m * (n - 1) * (p + 1 - i), denom) for i in range(p + 1))
    # only the nodal curve has a non-zero right-hand side, so the square is
    # k_0 * rhs_0 with rhs_0 = -m (n-1)
    square = coeffs[0] * (-m * (n - 1))
    consistent = square == -m * m * n
    if p == 0:
        detail = (
            f"single nodal curve: needs m^2 n = k_0^2 (n-1), i.e. {m * m * n} = "
            f"k_0^2 * {n - 1}, impossible in integers because n(n-1) is not a square"
        )
    elif consistent:
        detail = f"divisor square {square} matches -m^2 n"
    else:
        detail = f"divisor square {square} != {-m * m * n}; the family is consistent only at p = n-1"
    return SingratClosedForm(coeffs, det, consistent, detail)


# --- structural checks on an accepted solution ------------------------------


class StarCheck(NamedTuple):
    curve_id: int
    lhs: Fraction
    rhs: Fraction
    ok: bool


class StarRecurrenceReport(NamedTuple):
    checks: tuple[StarCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_star_recurrence(config: CurveConfig, sol: NacSolution) -> StarRecurrenceReport:
    """Chain recurrence satisfied by anticanonical coefficients.

    At any smooth rational curve whose total neighbor multiplicity is
    exactly 2 (a cycle curve without branches, or an interior curve of a
    branch chain), row i of the pairing system rearranges to

        (k_left - 1) + (k_right - 1) = (k_i - 1) * (-D_i^2)

    for the normalized coefficients k/m; a curve met twice by a single
    neighbor counts that neighbor on both sides.  A violation falsifies
    the solution.
    """
    require_valid(config)
    unit = sol.index
    return StarRecurrenceReport(
        tuple(
            StarCheck(cid, Fraction(lhs, unit), Fraction(rhs, unit), lhs == rhs)
            for cid, lhs, rhs in star_rows(config, sol)
        )
    )


def star_rows(config: CurveConfig, sol: NacSolution) -> list[tuple]:
    """(curve id, lhs, rhs) of each recurrence of :func:`verify_star_recurrence`,
    both sides times sol.index, so over the integers sol.scaled."""
    _check_length(config, sol)
    scaled, unit = sol.scaled, sol.index
    position, adj = config._position, config._adj
    rows = []
    for k, c in zip(scaled, config.curves):
        if c.kind != SMOOTH_RATIONAL:
            continue
        # multiplicities are positive, so they total 2 on one neighbor met
        # twice, which stands on both sides, or on two neighbors met once
        met = adj[c.id]
        if len(met) == 1 and met[0][1] == 2:
            lhs = 2 * scaled[position[met[0][0]]]
        elif len(met) == 2 and met[0][1] == met[1][1] == 1:
            lhs = scaled[position[met[0][0]]] + scaled[position[met[1][0]]]
        else:
            continue
        rows.append((c.id, lhs - 2 * unit, (k - unit) * -c.self_int))
    return rows


def _check_length(config: CurveConfig, sol: NacSolution) -> None:
    if len(sol.scaled) != len(config.curves):
        raise DomainError("solution length does not match the configuration")


class CycleStructure(NamedTuple):
    member_ids: tuple[int, ...]
    min_coeff: Fraction  # normalized by m
    max_coeff: Fraction
    unit_cycle: bool
    max_at_branch_root: bool | None
    violations: tuple[str, ...]


class NacStructureReport(NamedTuple):
    cycles: tuple[CycleStructure, ...]

    @property
    def ok(self) -> bool:
        return all(not c.violations for c in self.cycles)

    @property
    def inoue_ih_signature(self) -> bool:
        return any(c.unit_cycle and not c.violations for c in self.cycles)


def nac_structure_report(config: CurveConfig, sol: NacSolution) -> NacStructureReport:
    """Coefficient pattern on each cycle of rational curves.

    Two facts about anticanonical coefficients are checked per cycle:

    * if any cycle coefficient equals m, then all of them do and the cycle
      carries no branch (the signature of the square-zero and
      Inoue-Hirzebruch cases);
    * otherwise (all strictly above m) the largest cycle coefficient must
      be attained at the root of some branch, since a cycle with every
      coefficient >= 2m necessarily supports one.
    """
    require_valid(config)
    _check_length(config, sol)
    # the normalized coefficients k/m are scaled / unit
    scaled, unit = sol.scaled, sol.index
    position = config._position
    structures = []
    for rec in find_cycles(config):
        if rec.length < 1:
            continue  # elliptic 0-cycles carry no such pattern
        vals = {cid: scaled[position[cid]] for cid in rec.member_ids}
        lo, hi = min(vals.values()), max(vals.values())
        has_branch = bool(rec.branches)
        violations: list[str] = []
        unit_cycle = False
        max_at_root: bool | None = None
        if lo == unit:
            if hi != unit:
                violations.append(
                    "one cycle coefficient equals m but others exceed it; a unit "
                    "coefficient forces the whole cycle to be at the unit"
                )
            if has_branch:
                violations.append("cycle at the unit coefficient cannot carry a branch")
            unit_cycle = not violations
        elif lo > unit:
            if not has_branch:
                violations.append(
                    "every cycle coefficient exceeds m but no branch is attached; "
                    "such a cycle must support at least one branch"
                )
                max_at_root = False
            else:
                roots = {br.root_id for br in rec.branches}
                max_at_root = any(vals[r] == hi for r in roots)
                if not max_at_root:
                    violations.append(
                        "the maximal cycle coefficient is not attained at a branch root"
                    )
        else:
            violations.append(
                "cycle coefficient below the anticanonical unit; the cycle always "
                "sits in the divisor with coefficient at least m"
            )
        coeffs = Fraction(lo, unit), Fraction(hi, unit)
        structures.append(
            CycleStructure(rec.member_ids, *coeffs, unit_cycle, max_at_root, tuple(violations))
        )
    return NacStructureReport(tuple(structures))

