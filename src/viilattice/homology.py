"""Admissible homology classes for the curves of a configuration.

Every smooth rational curve on these surfaces represents a class of the
exceptional-blown-up pattern (a single +1 coefficient, the rest 0 or -1),
every nodal or elliptic curve a sum of -1 coefficients, and the classes of
the curves along a cycle add up to the class of the cycle.  That turns the
geometry into a finite constraint satisfaction problem over the rank-b2
lattice:

(a) all pairwise products and squares reproduce the intersection matrix;
(b) the +1 positions of the smooth curves are pairwise distinct, no lattice
    index appears in three different blowup sets, and two blowup sets share
    at most one index;
(c) each cycle's class sum is a 0/-1 vector whose number of zero entries
    equals the cycle length (so it is a full-cycle tail up to renumbering);
    in the twisted single-cycle case the sum is the full anticanonical
    pattern (no zero entries) instead;
(d) when the form is negative definite, the non-zero coefficient positions
    of all curve classes together cover the whole basis;
(e) per cycle, (number of curves) - (class-sum square) equals b2, or 2*b2
    in the twisted case.

The enumerator backtracks over candidate classes (cycle curves first, then
branches outward, then the rest), pruning on (a) and (b) as it goes.  Every
constraint above is invariant under renumbering the basis, so the search
walks orbits of that symmetry rather than labellings:

- An index's *column* is its entries in the classes placed so far.  A
  permutation of indices with equal columns fixes every placed class and
  maps completions to completions, so a candidate is tried only when, on
  each set of indices with one column, its entries in index order run +1
  first, then -1, then 0.  The untouched indices (all-zero columns) form one
  such set.  Each orbit of candidates under those permutations has exactly
  one such member, so every orbit of solutions keeps a representative (by
  induction on the depth: permute equal-column indices of a solution until
  the next class is of that form).
- Two complete assignments lie in one orbit exactly when their multisets
  of basis columns (one index's coefficients read down the curves) agree,
  so the raw solutions are deduplicated by that multiset.

Each remaining orbit is canonicalised once, to its least member by
normal-form keys among those whose cycle class sums fill right-aligned
blocks.  That form depends only on the orbit, so the output does not depend
on which member the search found.  It is built by ordered partition
refinement in O(curves x b2), not by trying the b2! renumberings: each
choice is forced by the key, so the refinement never branches (see
``_canonicalize``).  The twisted search runs only when the plain one comes
back empty and the configuration carries a single cycle.

The search is a pure function of the configuration: candidates and state
are immutable values, so independent subtrees could be explored in
parallel without coordination; the implementation here is sequential.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .curves import (
    DEFINITE,
    SMOOTH_RATIONAL,
    CurveConfig,
    CycleRecord,
    find_cycles,
    require_valid,
)
from .errors import DomainError, EnumerationCapError
from .lattice import LatticeClass, TypeA, classify_normal_form, type_b_class

DEFAULT_CAP = 8


@dataclass(frozen=True)
class Representation:
    """Curve classes in configuration order, plus the order-2 twist flag.

    ``odd_ih`` marks the twisted single-cycle case, where the cycle class
    sum is the anticanonical pattern twisted by an order-2 flat bundle.
    The twist lives on the representation (for cycles of length >= 2 it is
    invisible in the free lattice); a twisted 1-cycle additionally carries
    it on the curve's own class.
    """

    classes: tuple[LatticeClass, ...]
    odd_ih: bool = False


def enumerate_representations(
    config: CurveConfig, cap: int | None = None
) -> list[Representation]:
    """All admissible class assignments, one canonical form per orbit."""
    require_valid(config)
    n = config.b2
    if cap is None:
        cap = DEFAULT_CAP
    if n > cap:
        raise EnumerationCapError(n, cap)
    cycles = find_cycles(config)
    if not cycles:
        raise DomainError(
            "configuration carries no cycle; these surfaces always contain one"
        )
    if len(cycles) > 2:
        raise DomainError(
            f"{len(cycles)} cycles found; at most two can coexist (the rank "
            "splits between them)"
        )
    covering = bool(config.curves) and config.elimination[0] == DEFINITE
    order = _search_order(config, cycles)
    found = list(_search(config, cycles, order, covering, torsion=False))
    torsion = False
    if not found and len(cycles) == 1:
        found = list(_search(config, cycles, order, covering, torsion=True))
        torsion = True
    # the multiset of basis columns is an exact orbit invariant, so each
    # orbit is canonicalised once
    orbits = {tuple(sorted(zip(*vectors))): vectors for vectors in found}
    canonical = dict(
        _canonicalize(config, cycles, vectors, torsion) for vectors in orbits.values()
    )
    return [canonical[key] for key in sorted(canonical)]


def _search_order(config: CurveConfig, cycles: list[CycleRecord]) -> list[int]:
    """Positions into config.curves: cycle members, then branches, then the rest."""
    pos = {c.id: i for i, c in enumerate(config.curves)}
    order: list[int] = []
    taken: set[int] = set()

    def take(cid: int) -> None:
        if cid not in taken:
            taken.add(cid)
            order.append(pos[cid])

    for rec in cycles:
        for cid in rec.member_ids:
            take(cid)
    for rec in cycles:
        for br in rec.branches:
            frontier = [br.root_id]
            pool = set(br.member_ids)
            while frontier:
                nxt: list[int] = []
                for v in frontier:
                    for u, _ in sorted(config.neighbors(v)):
                        if u in pool and u not in taken:
                            take(u)
                            nxt.append(u)
                frontier = nxt
    for c in config.curves:
        take(c.id)
    return order


def _candidate_vectors(n: int, curve) -> list[tuple[int, ...]]:
    """Every lattice vector the curve's kind and self-intersection allow."""
    out: list[tuple[int, ...]] = []
    if curve.kind == SMOOTH_RATIONAL:
        size = -curve.self_int - 1
        if size > n - 1:
            return out
        for base in range(n):
            rest = [t for t in range(n) if t != base]
            for blowups in itertools.combinations(rest, size):
                v = [0] * n
                v[base] = 1
                for t in blowups:
                    v[t] = -1
                out.append(tuple(v))
    else:
        size = -curve.self_int
        if size > n:
            return out
        for support in itertools.combinations(range(n), size):
            v = [0] * n
            for t in support:
                v[t] = -1
            out.append(tuple(v))
    return out


_ENTRY_RANK = {1: 0, -1: 1, 0: 2}


def _search(config, cycles, order, covering, torsion):
    """Backtracking generator yielding complete vector assignments, at least
    one per orbit of the basis-renumbering symmetry."""
    n = config.b2
    curves = config.curves
    ids = [c.id for c in curves]
    candidates = {p: _candidate_vectors(n, curves[p]) for p in order}
    assigned: dict[int, tuple[int, ...]] = {}
    used_bases: set[int] = set()
    blowup_sets: list[tuple[int, frozenset[int]]] = []  # (position, set)
    index_load = [0] * n  # how many blowup sets contain each basis index
    column: list[tuple[int, ...]] = [()] * n  # each index's placed entries

    def ok_interchangeable(vec: tuple[int, ...]) -> bool:
        # indices with equal columns are interchangeable: keep only the
        # candidate whose entries on each such set run +1, then -1, then 0
        # in index order
        rank: dict[tuple[int, ...], int] = {}
        for t, x in enumerate(vec):
            r = _ENTRY_RANK[x]
            if r < rank.get(column[t], 0):
                return False
            rank[column[t]] = r
        return True

    def ok_pairwise(p: int, vec: tuple[int, ...]) -> bool:
        for q, other in assigned.items():
            want = config.mult(ids[p], ids[q])
            if -sum(x * y for x, y in zip(vec, other)) != want:
                return False
        return True

    def place(p: int, vec: tuple[int, ...]):
        assigned[p] = vec
        for t, x in enumerate(vec):
            column[t] += (x,)
        if curves[p].kind == SMOOTH_RATIONAL:
            base = vec.index(1)
            blow = frozenset(t for t, x in enumerate(vec) if x == -1)
            used_bases.add(base)
            blowup_sets.append((p, blow))
            for t in blow:
                index_load[t] += 1
            return base, blow
        return None

    def unplace(p: int, token) -> None:
        del assigned[p]
        for t in range(n):
            column[t] = column[t][:-1]
        if token is not None:
            base, blow = token
            used_bases.discard(base)
            blowup_sets.pop()
            for t in blow:
                index_load[t] -= 1

    def ok_blowups(vec: tuple[int, ...]) -> bool:
        base = vec.index(1)
        if base in used_bases:
            return False
        blow = frozenset(t for t, x in enumerate(vec) if x == -1)
        for _, other in blowup_sets:
            if len(blow & other) > 1:
                return False
        return all(index_load[t] < 2 for t in blow)

    def extend(depth: int):
        if depth == len(order):
            if _sums_admissible(config, cycles, assigned, covering, torsion, n):
                yield dict(assigned)
            return
        p = order[depth]
        smooth = curves[p].kind == SMOOTH_RATIONAL
        for vec in candidates[p]:
            if not ok_interchangeable(vec):
                continue
            if smooth and not ok_blowups(vec):
                continue
            if not ok_pairwise(p, vec):
                continue
            token = place(p, vec)
            yield from extend(depth + 1)
            unplace(p, token)

    for complete in extend(0):
        yield tuple(complete[i] for i in range(len(curves)))


def _sums_admissible(config, cycles, assigned, covering, torsion, n) -> bool:
    pos = {c.id: i for i, c in enumerate(config.curves)}
    supports: list[frozenset[int]] = []
    for rec in cycles:
        total = [0] * n
        for cid in rec.member_ids:
            for t, x in enumerate(assigned[pos[cid]]):
                total[t] += x
        if any(x not in (0, -1) for x in total):
            return False
        zeros = sum(1 for x in total if x == 0)
        if zeros != (0 if torsion else rec.length):
            return False
        square = -sum(x * x for x in total)
        if rec.length - square != (2 if torsion else 1) * n:
            return False
        supports.append(frozenset(t for t, x in enumerate(total) if x == -1))
    for a, b in itertools.combinations(supports, 2):
        if a & b:
            return False
    if covering:
        touched = set()
        for vec in assigned.values():
            touched.update(t for t, x in enumerate(vec) if x != 0)
        if touched != set(range(n)):
            return False
    return True


# --- canonical forms --------------------------------------------------------


def _canonicalize(config, cycles, vectors, torsion):
    """(key, form) of the orbit's least member, by ordered partition refinement.

    A cell pairs basis indices with an interval of as many targets (``low``
    is each index's least target): the cycle supports start on their
    right-aligned blocks, the other indices below them.  Curve by curve in
    listing order, a cell's indices carrying the curve's +1 entry, then its
    -1 entries, take the cell's least targets.  The key compares curve by
    curve, base before blowups, and a cell's indices are interchangeable for
    the curves fixed so far, so only that choice minimises the current key.
    Indices left sharing a cell have equal columns; each cell maps onto its
    targets in index order, as the first least renumbering would.
    """
    n = config.b2
    pos = {c.id: i for i, c in enumerate(config.curves)}
    ordered = sorted(cycles, key=lambda rec: (-rec.length, min(rec.member_ids)))
    supports = []
    for rec in ordered:
        total = map(sum, zip(*(vectors[pos[cid]] for cid in rec.member_ids)))
        supports.append([t for t, x in enumerate(total) if x == -1])
    low, hi = [0] * n, n
    for support in supports:
        hi -= len(support)
        for t in support:
            low[t] = hi
    if n - hi != len(set().union(*supports)):
        raise DomainError("cycle class sums overlap, so no canonical form exists")

    def split(picked: set[int]) -> None:
        taken = Counter(low[t] for t in picked)
        for t in range(n):
            if t not in picked:
                low[t] += taken[low[t]]

    for curve, vec in zip(config.curves, vectors):
        if curve.kind == SMOOTH_RATIONAL:
            if vec.count(1) != 1:
                raise DomainError(f"curve {curve.id} needs a class with one +1 entry")
            split({vec.index(1)})
        split({t for t, x in enumerate(vec) if x == -1})
    inverse = sorted(range(n), key=low.__getitem__)
    moved = [tuple(vec[t] for t in inverse) for vec in vectors]
    key = (torsion, tuple(_class_key(c, v) for c, v in zip(config.curves, moved)))
    twisted = {rec.member_ids[0] for rec in cycles if torsion and len(rec.member_ids) == 1}
    classes = tuple(
        LatticeClass(v, torsion2=c.id in twisted) for c, v in zip(config.curves, moved)
    )
    return key, Representation(classes, odd_ih=torsion)


def _class_key(curve, vec: tuple[int, ...]):
    if curve.kind == SMOOTH_RATIONAL:
        return ("A", vec.index(1), tuple(t for t, x in enumerate(vec) if x == -1))
    return ("S", tuple(t for t, x in enumerate(vec) if x == -1))


def canonical_form(config: CurveConfig, rep: Representation) -> Representation:
    """The canonical representative of ``rep``'s basis-renumbering orbit."""
    vectors = [c.coeffs for c in rep.classes]
    return _canonicalize(config, find_cycles(config), vectors, rep.odd_ih)[1]


# --- independent re-verification ---------------------------------------------


@dataclass(frozen=True)
class ConstraintResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[ConstraintResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def verify_representation(config: CurveConfig, rep: Representation) -> VerificationReport:
    """Recompute every admissibility constraint from the lattice primitives."""
    require_valid(config)
    n = config.b2
    if len(rep.classes) != len(config.curves):
        raise DomainError("representation length does not match the configuration")
    results = []
    vectors = [c.coeffs for c in rep.classes]
    ids = [c.id for c in config.curves]

    mismatches = []
    for i in range(len(ids)):
        if -sum(x * x for x in vectors[i]) != config.curve(ids[i]).self_int:
            mismatches.append(f"square of {ids[i]}")
        for j in range(i + 1, len(ids)):
            got = -sum(x * y for x, y in zip(vectors[i], vectors[j]))
            if got != config.mult(ids[i], ids[j]):
                mismatches.append(f"product {ids[i]}.{ids[j]} = {got}")
    results.append(
        ConstraintResult(
            "pairwise-products",
            not mismatches,
            "all squares and products match" if not mismatches else "; ".join(mismatches),
        )
    )

    problems = []
    bases = []
    blow_sets = []
    for cid, klass in zip(ids, rep.classes):
        if config.curve(cid).kind != SMOOTH_RATIONAL:
            continue
        form = classify_normal_form(klass)
        if not isinstance(form, TypeA):
            problems.append(f"curve {cid} does not carry an exceptional-curve pattern")
            continue
        bases.append(form.base)
        blow_sets.append(form.blowups)
    if len(set(bases)) != len(bases):
        problems.append("two smooth curves share a +1 position")
    for s, t in itertools.combinations(blow_sets, 2):
        if len(s & t) > 1:
            problems.append("two blowup sets share more than one index")
    for a, b, c in itertools.combinations(blow_sets, 3):
        if a & b & c:
            problems.append("a basis index appears in three blowup sets")
    results.append(
        ConstraintResult(
            "exceptional-multiplicities",
            not problems,
            "ok" if not problems else "; ".join(sorted(set(problems))),
        )
    )

    cycles = find_cycles(config)
    pos = {cid: i for i, cid in enumerate(ids)}
    sum_issues = []
    law_issues = []
    supports = []
    for rec in cycles:
        total = [0] * n
        for cid in rec.member_ids:
            for t, x in enumerate(vectors[pos[cid]]):
                total[t] += x
        zeros = sum(1 for x in total if x == 0)
        if any(x not in (0, -1) for x in total):
            sum_issues.append(f"cycle {rec.member_ids}: sum has entries outside 0/-1")
        elif zeros != (0 if rep.odd_ih else rec.length):
            sum_issues.append(
                f"cycle {rec.member_ids}: {zeros} zero entries, expected "
                f"{0 if rep.odd_ih else rec.length}"
            )
        supports.append(frozenset(t for t, x in enumerate(total) if x == -1))
        square = -sum(x * x for x in total)
        want = (2 if rep.odd_ih else 1) * n
        if rec.length - square != want:
            law_issues.append(
                f"cycle {rec.member_ids}: #C - C^2 = {rec.length - square}, expected {want}"
            )
    for a, b in itertools.combinations(supports, 2):
        if a & b:
            sum_issues.append("two cycle supports overlap")
    results.append(
        ConstraintResult(
            "cycle-class-sums",
            not sum_issues,
            "ok" if not sum_issues else "; ".join(sum_issues),
        )
    )

    if cycles and config.curves and config.elimination[0] == DEFINITE:
        touched = set()
        for vec in vectors:
            touched.update(t for t, x in enumerate(vec) if x != 0)
        ok = touched == set(range(n))
        results.append(
            ConstraintResult(
                "basis-covering",
                ok,
                "all basis indices are met"
                if ok
                else f"missing indices {sorted(set(range(n)) - touched)}",
            )
        )
    else:
        results.append(
            ConstraintResult(
                "basis-covering",
                True,
                "not applicable: the form is degenerate or there is no cycle",
            )
        )

    results.append(
        ConstraintResult(
            "cycle-count-square-law",
            not law_issues,
            "ok" if not law_issues else "; ".join(law_issues),
        )
    )
    return VerificationReport(tuple(results))


# --- diagnostic: why the -2L pattern never appears on cycle components -------


@dataclass(frozen=True)
class TypeBCurveCheck:
    curve_id: int
    candidate_count: int
    locally_consistent_count: int


@dataclass(frozen=True)
class TypeBExclusionReport:
    applicable: bool
    reason: str
    external_curve: int | None = None
    cycle_member_ids: tuple[int, ...] = ()
    checks: tuple[TypeBCurveCheck, ...] = ()

    @property
    def any_locally_consistent(self) -> bool:
        return any(c.locally_consistent_count for c in self.checks)


def type_b_exclusion_check(config: CurveConfig) -> TypeBExclusionReport:
    """Diagnostic sweep over -2L_i - L_I patterns on a cycle component.

    When some curve outside a cycle meets it with total multiplicity one,
    every curve of that cycle's component is known to carry the
    exceptional-curve pattern; the enumerator hard-codes this by only ever
    assigning such patterns to smooth rational curves.  This check tries
    the excluded patterns anyway and reports whether any of them could even
    satisfy the pairwise products with its neighbors' candidate classes.
    """
    require_valid(config)
    n = config.b2
    cycles = find_cycles(config)
    target = None
    external = None
    for rec in cycles:
        members = set(rec.member_ids)
        for c in config.curves:
            if c.id in members:
                continue
            if sum(config.mult(c.id, mid) for mid in members) == 1:
                target, external = rec, c.id
                break
        if target:
            break
    if target is None:
        return TypeBExclusionReport(
            False, "no curve outside a cycle meets it with total multiplicity 1"
        )
    component = set(target.member_ids)
    for br in target.branches:
        component.update(br.member_ids)
    checks = []
    for cid in sorted(component):
        curve = config.curve(cid)
        if curve.kind != SMOOTH_RATIONAL:
            continue
        cands = _type_b_candidates(n, curve.self_int)
        consistent = 0
        for vec in cands:
            if all(
                any(
                    -sum(x * y for x, y in zip(vec, other)) == mult
                    for other in _neighbor_pool(n, config.curve(u))
                )
                for u, mult in config.neighbors(cid)
            ):
                consistent += 1
        checks.append(TypeBCurveCheck(cid, len(cands), consistent))
    return TypeBExclusionReport(
        True,
        "external curve meets the cycle in exactly one point",
        external,
        target.member_ids,
        tuple(checks),
    )


def _type_b_candidates(n: int, self_int: int) -> list[tuple[int, ...]]:
    size = -self_int - 4
    if size < 0 or size > n - 1:
        return []
    out = []
    for base in range(n):
        rest = [t for t in range(n) if t != base]
        for blowups in itertools.combinations(rest, size):
            out.append(type_b_class(n, base, blowups).coeffs)
    return out


def _neighbor_pool(n: int, curve) -> list[tuple[int, ...]]:
    pool = _candidate_vectors(n, curve)
    if curve.kind == SMOOTH_RATIONAL:
        pool = pool + _type_b_candidates(n, curve.self_int)
    return pool
