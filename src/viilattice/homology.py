"""Admissible homology classes for the curves of a configuration.

The model assumes that every smooth rational curve represents a class of
the exceptional-blown-up pattern (a single +1 coefficient, the rest 0 or
-1); that is a hypothesis, not a fact about the surfaces.  Every nodal or
elliptic curve is a sum of -1 coefficients, and the classes of the curves
along a cycle add up to the class of the cycle.  That turns the geometry
into a finite constraint satisfaction problem over the rank-b2 lattice:

(a) all pairwise products and squares reproduce the intersection matrix;
(b) the +1 positions of the smooth curves are pairwise distinct, no lattice
    index appears in three different blowup sets, and two blowup sets share
    at most one index (a second hypothesis of the model);
(c) each cycle's class sum is a 0/-1 vector whose number of zero entries
    equals the cycle length (so it is a full-cycle tail up to renumbering);
    in the twisted single-cycle case the sum is the full anticanonical
    pattern (no zero entries) instead;
(d) when the form is negative definite, the non-zero coefficient positions
    of all curve classes together cover the whole basis;
(e) per cycle, (number of curves) - (class-sum square) equals b2, or 2*b2
    in the twisted case.

The enumerator backtracks over candidate classes (cycle curves first, then
branches outward, then the rest), pruning on (a) and (b) as it goes.  Its
state is integers.  A class is a pair of bitmasks over the basis indices,
``plus`` for its +1 entry and ``minus`` for its -1 entries, so a pairwise
product is four ``int.bit_count`` calls checked against the intersection
matrix.  The products refute the most candidates, so they are checked
before (b) and the interchangeability rule, first against the placed
classes the curve meets.  The candidates of one (kind, self-intersection)
are built once per search into one dict, as sums of
``itertools.combinations`` of the basis bits, grouped by base, and a used
base skips its whole group.  The blowup sets of the placed smooth curves
are kept with two masks, the indices in exactly one set (``load1``) and in
two (``load2``), so "no index in three blowup sets" reads
``minus & load2 == 0``.  Tuple vectors are built only at a leaf.

Two laws are checked at the root, before any candidate is built.  The
counting bound restates (b): each index lies in at most two blowup sets, so
the smooth curves' blowup sizes -C^2 - 1 add up to at most 2*b2 (with b2
smooth curves this is sigma <= 3*b2).  It needs no check below the root: a
placement that respects ``minus & load2 == 0`` lowers the free capacity
2*#free + #load-1 by exactly its blowup size, as much as it lowers the
demand of the curves left.  The companion bound, #smooth <= #unused bases,
holds at the root by validation (at most b2 rational curves) and keeps its
slack the same way.  The cycle law restates (e): by (a) a cycle's class sum
S has the square C^2 the matrix fixes (``curves._cycle_square``), so a plain
assignment needs #C - C^2 = b2 on every cycle, a twisted one #C - C^2 = 2*b2
with length b2 on a single cycle.  The two exclude each other, so the root
refuses the search when neither holds and otherwise fixes the twist; the
two cases share the candidates and every pruning rule, so the tree is
walked once.  Neither law removes a solution.

Past the root a complete assignment needs no test of (c) or (e), only of
(d), and only at a leaf whose classes miss a basis index.  There (a) gives
M = -V V^T for the matrix V of the class vectors, as H^2 is the diagonal
lattice -I_{b2} on the L_i (Donaldson), so M is definite exactly when the
classes are linearly independent: a rank test on them decides (d), and the
search never eliminates M.  With K the all-ones class, each candidate
has K.D = 2g - 2 - D^2 by construction, so K.S = -C^2: an r-cycle of
smooth curves has C^2 = sum D^2 + 2r, a nodal or elliptic curve g = 1.  At
a leaf (a) gives S^2 = C^2, so sum_t s_t (s_t + 1) = -(K.S + S^2) = 0, a
sum of terms >= 0: every entry of S is 0 or -1.  It has -C^2 entries -1, so
the root law fixes its zeros to #C (0 when twisted) and is (e) itself.
``curves.find_cycles`` refuses cycles that meet, so S_1.S_2 = 0 by (a) and
the supports are disjoint.

Every constraint above is invariant under renumbering the basis, so the
search walks orbits of that symmetry rather than labellings:

- An index's *column* is its entries in the classes placed so far.  A
  permutation of indices with equal columns fixes every placed class and
  maps completions to completions, so a candidate is tried only when, on
  each set of indices with one column, its entries in index order run +1
  first, then -1, then 0.  The untouched indices (all-zero columns) form one
  such set.  Each orbit of candidates under those permutations has exactly
  one such member, so every orbit of solutions keeps a representative (by
  induction on the depth: permute equal-column indices of a solution until
  the next class is of that form).  The sets are cell masks, split by each
  placed class; one mask per node bars every base that is not its cell's
  least index, a prefix test per cell checks ``plus | minus``, and
  one-index cells are dropped since they always pass.
- Two complete assignments lie in one orbit exactly when their multisets
  of basis columns (one index's coefficients read down the curves) agree,
  so the raw solutions are deduplicated by that multiset.

Each remaining orbit is canonicalised once, to its least member by
normal-form keys among those whose cycle class sums fill right-aligned
blocks.  That form depends only on the orbit, so the output does not depend
on which member the search found.  It is built by one stable sort of the
basis indices in O(curves x b2 log b2), not by trying the b2! renumberings:
each choice is forced by the key, and putting the forced indices first, curve
by curve, is a lexicographic sort on their entries (see ``_canonicalize``).
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .curves import (
    DEFINITE,
    SMOOTH_RATIONAL,
    CurveConfig,
    CycleRecord,
    _cycle_square,
    _is_int,
    _record,
    find_cycles,
    intersection_matrix,
    require_valid,
)
from .errors import DimensionMismatch, DomainError, EnumerationCapError
from .lattice import LatticeClass, _type_a
from .linalg import _pivots

DEFAULT_CAP = 8


class Representation(NamedTuple):
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
    elif not _is_int(cap) or cap < 0:
        raise DomainError(f"the cap must be a non-negative integer, got {cap!r}")
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
    found = list(_search(config, cycles))
    if not found:
        return []
    torsion = found[0][0]
    # the multiset of basis columns is an exact orbit invariant, so each
    # orbit is canonicalised once
    orbits = {tuple(sorted(zip(*vectors))): vectors for _, vectors in found}
    canonical = dict(
        _canonicalize(config, cycles, vectors, torsion) for vectors in orbits.values()
    )
    return [canonical[key] for key in sorted(canonical)]


def _search_order(config: CurveConfig, cycles: tuple[CycleRecord, ...]) -> list[int]:
    """Positions into config.curves: cycle members, then branches, then the rest."""
    taken = dict.fromkeys(cid for rec in cycles for cid in rec.member_ids)  # in order
    for rec in cycles:
        for br in rec.branches:
            frontier = [br.root_id]
            pool = set(br.member_ids)
            while frontier:
                nxt: list[int] = []
                for v in frontier:
                    for u, _ in sorted(config.neighbors(v)):
                        if u in pool and u not in taken:
                            taken[u] = None
                            nxt.append(u)
                frontier = nxt
    taken.update(dict.fromkeys(c.id for c in config.curves))
    return [config._position[cid] for cid in taken]


def _candidate_masks(n: int, smooth: bool, self_int: int) -> list[tuple[int, list[int]]]:
    """The curve's candidate classes as (plus mask, minus masks) groups, one
    group per base for a smooth curve, a single group with plus 0 otherwise.
    Bit t stands for basis index t; minus masks run in lexicographic order."""
    bits = [1 << t for t in range(n)]
    subsets = list(map(sum, itertools.combinations(bits, -self_int - 1 if smooth else -self_int)))
    if not smooth:
        return [(0, subsets)]
    return [(bit, [m for m in subsets if not m & bit]) for bit in bits]


def _search(config, cycles):
    """Backtracking generator over one tree, yielding (torsion, vectors) for
    complete assignments, at least one per orbit of the basis-renumbering
    symmetry; the root laws fix the twist and make (d) the only leaf test."""
    n = config.b2
    curves = config.curves
    # the counting bound and the cycle law, before the order or any candidate
    if sum(-c.self_int - 1 for c in curves if c.kind == SMOOTH_RATIONAL) > 2 * n:
        return
    excess = [rec.length - _cycle_square(config, rec) for rec in cycles]  # #C - C^2
    torsion = excess == [2 * n] and cycles[0].length == n
    if not torsion and any(e != n for e in excess):
        return
    order = _search_order(config, cycles)
    smooth = [curves[p].kind == SMOOTH_RATIONAL for p in order]
    keys = [(s, curves[p].self_int) for p, s in zip(order, smooth)]
    pool = {key: _candidate_masks(n, *key) for key in set(keys)}
    pools = [pool[key] for key in keys]
    mult = intersection_matrix(config)
    full = (1 << n) - 1
    placed: list[tuple[int, int, int]] = []  # (position, plus, minus) by depth
    blow_sets: list[int] = []  # minus masks of the placed smooth curves

    def fits(depth, cells, used, load1, load2):
        """(plus, minus) of each candidate for the curve at ``depth`` that
        passes (a), (b) and the interchangeability rule."""
        row = mult[order[depth]]
        # the placed classes the curve meets first: they refute the most
        checks = [(P, M, row[q]) for q, P, M in placed if row[q]]
        checks += [(P, M, 0) for q, P, M in placed if not row[q]]
        sets, load1, load2 = (blow_sets, load1, load2) if smooth[depth] else ((), 0, 0)
        # a base must be unused and the least index of its equal-column set:
        # barred holds every index that is neither (plus is 0 unless smooth)
        barred = used
        for c in cells:
            barred |= c & (c - 1)
        for plus, group in pools[depth]:
            if plus & barred:
                continue
            for minus in group:
                for P, M, want in checks:
                    if (
                        (plus & P).bit_count()
                        - (plus & M).bit_count()
                        - (minus & P).bit_count()
                        + (minus & M).bit_count()
                        + want
                    ):
                        break
                else:
                    # the set indices minus can meet lie in load1, as it misses load2
                    m1 = minus & load1
                    if minus & load2 or m1 & (m1 - 1) and any(
                        (d := minus & b) & (d - 1) for b in sets
                    ):
                        continue
                    bits = plus | minus
                    for c in cells:
                        # on each equal-column set the entries run +1, -1, 0 in
                        # index order: the indices the class misses lie above
                        # those it meets
                        rest = c & ~bits
                        if rest and (rest & -rest) < (c & bits):
                            break
                    else:
                        yield plus, minus

    def extend(depth, cells, used, load1, load2):
        # cells: the equal-column sets of two or more indices, as masks;
        # load1/load2: the indices in exactly one/two blowup sets
        if depth == len(order):
            touched = 0
            vectors = [None] * len(curves)
            for p, plus, minus in placed:
                touched |= plus | minus
                vectors[p] = _vector(n, plus, minus)
            # (d) asks for the rank only at a leaf that misses an index
            if touched != full and len(_pivots(vectors, n)[0]) == len(vectors):
                return
            yield torsion, tuple(vectors)
            return
        for plus, minus in fits(depth, cells, used, load1, load2):
            split = [
                part
                for c in cells
                for part in (c & minus, c & ~(plus | minus))
                if part & (part - 1)
            ]
            placed.append((order[depth], plus, minus))
            if smooth[depth]:
                blow_sets.append(minus)
                # minus misses load2, so its load-1 indices move to load 2
                # and the others to load 1
                yield from extend(
                    depth + 1, split, used | plus, load1 ^ minus, load2 | (load1 & minus)
                )
                blow_sets.pop()
            else:
                yield from extend(depth + 1, split, used, load1, load2)
            placed.pop()

    yield from extend(0, [full] if n > 1 else [], 0, 0, 0)


def _vector(n: int, plus: int, minus: int) -> tuple[int, ...]:
    vec = [0] * n
    if plus:
        vec[plus.bit_length() - 1] = 1
    while minus:
        vec[(minus & -minus).bit_length() - 1] = -1
        minus &= minus - 1
    return tuple(vec)


# --- canonical forms --------------------------------------------------------


def _canonicalize(config, cycles, vectors, torsion):
    """(key, form) of the orbit's least member, by one stable sort of the basis.

    ``low`` is each index's least target: the cycle supports start on their
    right-aligned blocks, the other indices below them.  The key compares
    curve by curve in listing order, base before blowups, so the least member
    puts the indices carrying each curve's +1, then its -1 entries, first
    among those still interchangeable (equal low and entries so far): a
    lexicographic sort by low, then per curve by "not +1" (smooth curves) and
    "not -1".  It is stable, so equal keys (equal columns) keep index order.
    """
    n = config.b2
    ordered = sorted(cycles, key=lambda rec: (-rec.length, min(rec.member_ids)))
    supports = []
    for rec in ordered:
        total = map(sum, zip(*(vectors[config._position[cid]] for cid in rec.member_ids)))
        supports.append([t for t, x in enumerate(total) if x == -1])
    low, hi = [0] * n, n
    for support in supports:
        hi -= len(support)
        for t in support:
            low[t] = hi
    if n - hi != len(set().union(*supports)):
        raise DomainError("cycle class sums overlap, so no canonical form exists")
    flags = [low]
    for curve, vec in zip(config.curves, vectors):
        if curve.kind == SMOOTH_RATIONAL:
            if vec.count(1) != 1:
                raise DomainError(f"curve {curve.id} needs a class with one +1 entry")
            flags.append(map((1).__ne__, vec))
        flags.append(map((-1).__ne__, vec))
    inverse = sorted(range(n), key=list(zip(*flags)).__getitem__)
    moved = [tuple(map(vec.__getitem__, inverse)) for vec in vectors]
    key = (torsion, tuple([_class_key(c, v) for c, v in zip(config.curves, moved)]))
    twisted = {rec.member_ids[0] for rec in cycles if torsion and len(rec.member_ids) == 1}
    classes = tuple([LatticeClass(v, c.id in twisted) for c, v in zip(config.curves, moved)])
    return key, Representation(classes, odd_ih=torsion)


def _class_key(curve, vec: tuple[int, ...]):
    minus = tuple([t for t, x in enumerate(vec) if x == -1])
    return ("A", vec.index(1), minus) if curve.kind == SMOOTH_RATIONAL else ("S", minus)


def canonical_form(config: CurveConfig, rep: Representation) -> Representation:
    """The canonical representative of ``rep``'s basis-renumbering orbit."""
    return _canonicalize(config, find_cycles(config), _vectors(config, rep), rep.odd_ih)[1]


def _vectors(config: CurveConfig, rep: Representation) -> list[tuple[int, ...]]:
    """The coefficient vectors of rep's classes, refused unless there is one
    class per curve and each has rank b2."""
    if len(rep.classes) != len(config.curves):
        raise DomainError("representation length does not match the configuration")
    for curve, klass in zip(config.curves, rep.classes):
        if klass.rank != config.b2:
            raise DimensionMismatch(
                f"class of curve {curve.id} has rank {klass.rank}, expected b2 = {config.b2}"
            )
    return [c.coeffs for c in rep.classes]


# --- independent re-verification ---------------------------------------------


class ConstraintResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class VerificationReport(NamedTuple):
    results: tuple[ConstraintResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def verify_representation(config: CurveConfig, rep: Representation) -> VerificationReport:
    """Recompute every admissibility constraint from the lattice primitives.

    "basis-covering" applies only to a negative definite form.  Once the
    squares and products match, M = -V V^T for the matrix V of the class
    vectors, as H^2 is the diagonal lattice -I_{b2} on the L_i (Donaldson):
    M is definite exactly when the classes are linearly independent, so
    never when there are more than b2, and a rank test decides.  When the
    products fail, ``config.elimination`` decides.
    """
    return _verify(config, rep)[0]


def _verify(config: CurveConfig, rep: Representation) -> tuple[VerificationReport, list]:
    """(report, forms): forms[i] is ``lattice._type_a`` of curve i's class
    when the curve is smooth, else None."""
    require_valid(config)
    n = config.b2
    vectors = _vectors(config, rep)
    results, curves, mult = [], config.curves, config._mult

    mismatches = []
    for i, (a, vec) in enumerate(zip(curves, vectors)):
        if -sum(map(operator.mul, vec, vec)) != a.self_int:
            mismatches.append(f"square of {a.id}")
        for b, other in zip(curves[i + 1 :], vectors[i + 1 :]):
            got = -sum(map(operator.mul, vec, other))
            if got != mult.get((a.id, b.id) if a.id < b.id else (b.id, a.id), 0):
                mismatches.append(f"product {a.id}.{b.id} = {got}")
    results.append(_outcome("pairwise-products", mismatches, "all squares and products match"))

    # bases, and the indices in one and in two blowup sets so far, as masks
    problems, bases, once, twice, blow_sets = [], 0, 0, 0, []
    forms = [_type_a(v) if c.kind == SMOOTH_RATIONAL else None for c, v in zip(curves, vectors)]
    for curve, form in zip(curves, forms):
        if curve.kind != SMOOTH_RATIONAL:
            continue
        if form is None:
            problems.append(f"curve {curve.id} does not carry an exceptional-curve pattern")
            continue
        base, blowups = form
        if bases >> base & 1:
            problems.append("two smooth curves share a +1 position")
        if any((d := blowups & s) & (d - 1) for s in blow_sets):
            problems.append("two blowup sets share more than one index")
        if blowups & twice:
            problems.append("a basis index appears in three blowup sets")
        bases, once, twice = bases | 1 << base, once | blowups, twice | (once & blowups)
        blow_sets.append(blowups)
    results.append(_outcome("exceptional-multiplicities", sorted(set(problems))))

    cycles, position = find_cycles(config), config._position
    sum_issues, law_issues, supports = [], [], []  # supports as masks
    for rec in cycles:
        total = list(map(sum, zip(*[vectors[position[cid]] for cid in rec.member_ids])))
        zeros = total.count(0)
        if zeros + total.count(-1) != n:
            sum_issues.append(f"cycle {rec.member_ids}: sum has entries outside 0/-1")
        elif zeros != (0 if rep.odd_ih else rec.length):
            sum_issues.append(
                f"cycle {rec.member_ids}: {zeros} zero entries, expected "
                f"{0 if rep.odd_ih else rec.length}"
            )
        supports.append(sum([1 << t for t, x in enumerate(total) if x == -1]))
        square = -sum(map(operator.mul, total, total))
        want = (2 if rep.odd_ih else 1) * n
        if rec.length - square != want:
            law_issues.append(
                f"cycle {rec.member_ids}: #C - C^2 = {rec.length - square}, expected {want}"
            )
    for a, b in itertools.combinations(supports, 2):
        if a & b:
            sum_issues.append("two cycle supports overlap")
    results.append(_outcome("cycle-class-sums", sum_issues))

    if cycles and curves and (
        config.elimination[0] == DEFINITE
        if mismatches
        else len(vectors) <= n and len(_pivots(vectors, n)[0]) == len(vectors)
    ):
        missing = [t for t, column in enumerate(zip(*vectors)) if not any(column)]
        issues = [f"missing indices {missing}"] if missing else []
        results.append(_outcome("basis-covering", issues, "all basis indices are met"))
    else:
        fine = "not applicable: the form is degenerate or there is no cycle"
        results.append(_outcome("basis-covering", [], fine))

    results.append(_outcome("cycle-count-square-law", law_issues))
    return _record(VerificationReport, (tuple(results),)), forms


def _outcome(name: str, issues: list[str], fine: str = "ok") -> ConstraintResult:
    """The result of one constraint: met when there are no issues, and then
    described by fine; otherwise described by the issues joined."""
    return _record(ConstraintResult, (name, not issues, "; ".join(issues) if issues else fine))
