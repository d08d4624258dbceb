"""Curve configurations and their intersection combinatorics.

A configuration records the curves a surface with second Betti number b2 is
known to carry: at most b2 rational curves (smooth or nodal) plus at most
one elliptic curve, together with pairwise intersection multiplicities.
The dual graph of such a configuration is a disjoint union of cycles with
trees attached:

* an elliptic curve is a 0-cycle,
* a nodal rational curve is a 1-cycle,
* two smooth rational curves meeting twice form a 2-cycle,
* r >= 3 smooth rational curves in a closed chain of simple intersections
  form an r-cycle,

and every smooth rational curve not on a cycle belongs to a tree hanging
off exactly one cycle member (a branch) or to no cycle at all (isolated).
Anything else, cycles sharing a curve, cycles touching each other, trees
tied to two cycle members, is structurally impossible and rejected.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import DomainError, InvalidConfigError, StructureError

SMOOTH_RATIONAL = "smooth_rational"
NODAL_RATIONAL = "nodal_rational"
ELLIPTIC = "elliptic"
# each kind: (largest self-intersection, arithmetic genus)
_KIND_RULES = {SMOOTH_RATIONAL: (-2, 0), NODAL_RATIONAL: (0, 1), ELLIPTIC: (0, 1)}
CURVE_KINDS = tuple(_KIND_RULES)

DEFINITE = "definite"
SEMIDEFINITE = "semidefinite"
NEITHER = "neither"
_record = tuple.__new__  # _record(Cls, fields): a NamedTuple without its generated __new__


class _Frozen:
    """Base of the immutable classes: ``_fields`` names the parameters of
    ``__init__``; equality, hashing, repr, pickling and ``_replace`` read them."""

    __slots__ = ()

    def _set(self, *values):  # for __init__ (a class built in hot loops sets its own fields)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    __replace__ = _replace


class _cached:
    """``functools.cached_property`` as from Python 3.12 on: the first read
    stores the value in the instance dict, where later reads find it, with
    no lock (up to 3.11 every instance shares one RLock)."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# not a tuple: every layer reads these fields, and a slot reads faster than a NamedTuple's
class Curve(_Frozen):
    """A curve: its id, its kind (one of CURVE_KINDS) and its self-intersection."""

    __slots__ = _fields = ("id", "kind", "self_int")

    def __init__(self, id: int, kind: str, self_int: int):
        _set_id(self, id)
        _set_kind(self, kind)
        _set_self_int(self, self_int)


_set_id, _set_kind, _set_self_int = (getattr(Curve, name).__set__ for name in Curve._fields)


class CurveConfig(_Frozen):
    """Immutable curve configuration.

    ``intersections`` holds one (low_id, high_id, mult) triple per meeting
    pair with mult > 0; self-intersections live on the curves themselves.
    A curve that is not a :class:`Curve`, a field that is not an ``int`` (a
    ``bool`` is not), a duplicate id or a bad pair raises
    :class:`InvalidConfigError`.  Validity is checked once,
    here, and stored for :func:`validate`: an invalid configuration is still
    built, and refused by each computation that needs it valid.  The facts
    derived from it are cached on first read, with no lock.
    """

    _fields = ("b2", "curves", "intersections")  # a __dict__ holds the caches

    def __init__(self, b2: int, curves: tuple[Curve, ...], intersections=()):
        curves = tuple(curves)
        if not (type(b2) is int or _is_int(b2)):
            raise InvalidConfigError(f"b2 must be an integer, got {b2!r}")
        issues = [ValidationIssue(f"b2 must be at least 1, got {b2}")] if b2 < 1 else []
        rational = elliptic = 0
        by_id = {}
        for c in curves:
            if not isinstance(c, Curve):
                raise InvalidConfigError(f"curve entry {c!r} is not a Curve")
            if not (type(c.id) is type(c.self_int) is int or _is_int(c.id) and _is_int(c.self_int)):
                raise InvalidConfigError(f"{c!r} needs an integer id and self-intersection")
            if c.id in by_id:
                raise InvalidConfigError(f"duplicate curve id {c.id}")
            by_id[c.id] = c
            if c.kind not in CURVE_KINDS:
                issues.append(ValidationIssue(f"unknown curve kind {c.kind!r}", c.id))
                continue
            elliptic += c.kind == ELLIPTIC
            rational += c.kind != ELLIPTIC
            if c.self_int > (bound := _KIND_RULES[c.kind][0]):
                rule = f"needs self-intersection <= {bound}, got {c.self_int}"
                issues.append(ValidationIssue(f"{c.kind.replace('_', ' ')} curve {rule}", c.id))
        if rational > b2:
            why = "these surfaces carry at most b2 rational curves"
            issues.append(ValidationIssue(f"{rational} rational curves exceed b2 = {b2}; {why}"))
        if elliptic > 1:
            issues.append(ValidationIssue(f"at most one elliptic curve allowed, got {elliptic}"))
        mult, triples = {}, []  # {(low id, high id): mult} and its (low, high, mult) triples
        met: dict[int, list[tuple[int, int]]] = {cid: [] for cid in by_id}  # in row order
        for entry in intersections:
            i, j, m = entry if isinstance(entry, (tuple, list)) and len(entry) == 3 else (None,) * 3
            if not (type(i) is type(j) is type(m) is int or _is_int(i) and _is_int(j) and _is_int(m)):
                raise InvalidConfigError(f"intersection entry {entry!r} needs three integers")
            if i == j:
                raise InvalidConfigError(
                    f"self-pairing for curve {i}: self-intersections belong on the curve"
                )
            if m < 0:
                raise InvalidConfigError(f"negative multiplicity for pair ({i}, {j})")
            if i not in by_id or j not in by_id:
                raise InvalidConfigError(f"intersection names unknown curve in ({i}, {j})")
            if m == 0:
                continue
            met[i].append((j, m))
            met[j].append((i, m))
            i, j = (i, j) if i < j else (j, i)
            if (i, j) in mult:
                raise InvalidConfigError(f"duplicate intersection entry for pair {(i, j)}")
            mult[i, j] = m
            triples.append((i, j, m))
        triples.sort()
        position = {cid: k for k, cid in enumerate(by_id)}
        # by the other curve's listing order: a bucket sort of all meeting ends
        adj: dict[int, list[tuple[int, int]]] = {cid: [] for cid in by_id}
        for cid in by_id:
            for other, m in met[cid]:
                adj[other].append((cid, m))
        self.__dict__.update(
            b2=b2, curves=curves, intersections=tuple(triples), _mult=mult, _by_id=by_id,
            _adj=adj, _position=position, _validation=_record(ValidationReport, (tuple(issues),)),
        )

    def mult(self, i: int, j: int) -> int:
        return self._mult.get((min(i, j), max(i, j)), 0)

    def curve(self, cid: int) -> Curve:
        try:
            return self._by_id[cid]
        except KeyError:
            raise DomainError(f"no curve with id {cid}") from None

    def neighbors(self, cid: int) -> list[tuple[int, int]]:
        """(other id, multiplicity) pairs for every curve meeting cid, in listing order."""
        return list(self._adj.get(cid, ()))

    @_cached
    def elimination(self) -> tuple[str, tuple[tuple[int, ...], int] | None]:
        """(definiteness verdict, (y, det) if definite, else None).

        det = det(-M) > 0 and y = det * x for the level-1 solution x of
        M x = -K.D, in listing order.  The rows of -M come straight from the
        stored triples in listing order, symmetric by construction; the
        elimination takes the leaves of every tree first, whatever that order.
        """
        require_valid(self)
        position = self._position
        rows = [{a: -c.self_int} if c.self_int else {} for a, c in enumerate(self.curves)]
        for i, j, v in self.intersections:
            a, b = position[i], position[j]
            if a > b:
                a, b = b, a
            rows[a][b] = -v
        return _symmetric_elimination(rows, self._kd_column)

    @_cached
    def _kd_column(self) -> tuple[int, ...]:
        """K.D_i of each curve by adjunction, in listing order."""
        return tuple([adjunction_degree(c) for c in self.curves])

    @_cached
    def _peel(self) -> tuple[dict[int, int | None], dict[int, int]]:
        """(stripped, core): the smooth rational curves stripped down to the
        2-core of their intersection graph, counting multiplicities, one
        curve of degree <= 1 at a time.  ``stripped`` maps each stripped
        curve, in stripping order, to the one curve left that it met then,
        or None; ``core`` maps each curve left to its degree among them."""
        adj, stripped = self._adj, {}
        core = {c.id: 0 for c in self.curves if c.kind == SMOOTH_RATIONAL}
        for i, j, m in self.intersections:
            if i in core and j in core:
                core[i] += m
                core[j] += m
        stack = [v for v, d in core.items() if d <= 1]
        while stack:
            v = stack.pop()
            if v in core:
                del core[v]
                stripped[v] = None
                for u, m in adj[v]:
                    if u in core:
                        stripped[v] = u
                        core[u] -= m
                        if core[u] <= 1:
                            stack.append(u)
        return stripped, core

    @_cached
    def cycles(self) -> tuple[CycleRecord, ...] | StructureError:
        """The cycle decomposition, or the StructureError refuting one; read
        it through :func:`find_cycles`."""
        try:
            return _decompose(self)
        except StructureError as exc:
            return exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(values, what: str) -> list[int]:
    """values as plain ints; DomainError unless each is an int (a bool is not)."""
    values = list(values)
    for x in values:
        if not _is_int(x):
            raise DomainError(f"{what} must be integers, got {x!r}")
    return [int(x) for x in values]


class ValidationIssue(NamedTuple):
    message: str
    curve_id: int | None = None


class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...]

    @property
    def valid(self) -> bool:
        return not self.issues


def validate(config: CurveConfig) -> ValidationReport:
    """The report on b2 >= 1, each curve's self-intersection bound, at most
    b2 rational and at most one elliptic curve.  It is made once per
    configuration, when it is built, which an invalid one is too; never raises."""
    return config._validation


def require_valid(config: CurveConfig) -> None:
    report = validate(config)
    if not report.valid:
        raise InvalidConfigError(
            "; ".join(i.message for i in report.issues), issues=report.issues
        )


def intersection_matrix(config: CurveConfig) -> list[list[int]]:
    """Symmetric integer matrix in the order the curves are listed."""
    require_valid(config)
    position = config._position
    m = [[0] * len(position) for _ in position]
    for a, c in enumerate(config.curves):
        m[a][a] = c.self_int
    for i, j, v in config.intersections:
        m[position[i]][position[j]] = m[position[j]][position[i]] = v
    return m


def is_negative_definite(matrix: list[list[int]]) -> str:
    """The exact verdict "definite", "semidefinite" or "neither", by the
    elimination :attr:`CurveConfig.elimination` runs."""
    return _symmetric_elimination(_upper_rows(matrix), [0] * len(matrix))[0]


def _upper_rows(matrix: list[list[int]]) -> list[dict[int, int]]:
    """The nonzero entries -M[i][j], j >= i, of a square symmetric M, row by row."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square")
    matrix = [_ints(row, "matrix entries") for row in matrix]
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise DomainError("matrix must be symmetric")
    return [{j: -row[j] for j in range(i, n) if row[j]} for i, row in enumerate(matrix)]


def _symmetric_elimination(rows: list[dict[int, int]], column: list[int]) -> tuple:
    """Definiteness verdict of M and, if definite, (y, det) with -M y = det * column.

    rows[i] maps j >= i to the entry -M[i][j] and stores no zero; det is
    det(-M) > 0 and y is integral.  First the leaves go: while a live row v
    has at most one nonzero off-diagonal entry a, to a live row u, it is
    folded into u.  Each live row holds integers N, R and P > 0 whose
    quotients N / P and R / P are its diagonal and column entries in the
    Schur complement of the rows taken; off-diagonal entries never change.
    With v's values when it is taken, the fold divides nothing:

        N_u <- N_u N_v - a^2 P_v P_u,  R_u <- R_u N_v - a R_v P_u,  P_u <- P_u N_v.

    A leaf fills no entry (Rose, Tarjan & Lueker 1976), and on a tree each
    N and P is a minor of -M.  The rows left form S, which is -M itself when
    no row is a leaf.  :func:`_bareiss` runs on Q S Q, with Q = diag(P),
    against Q times the column: the integer rows N_u P_u and a_uw P_u P_w
    and the column R_u.  That is a congruence, and -M is congruent to S
    beside the leaf pivots N_v / P_v, so the verdict is that of -M.
    det(-M) is the product of those pivots and det S, which comes to
    Bareiss's det times the N of each leaf that met nothing, over the
    product of the core's P.  y is back-substituted through the leaves in
    reverse order, y_v = (det R_v - a P_v y_u) / N_v, from
    y_u = det P_u z_u / det(Q S Q) on the core, for Bareiss's
    z = det(Q S Q) (Q S Q)^-1 R.  Each quotient is an entry of the integral
    y or det, so each division is exact.
    """
    n = len(rows)
    diag, rhs, scale = [row.get(i, 0) for i, row in enumerate(rows)], list(column), [1] * n
    # of each live row: how many live rows it meets, and the sum of their
    # indices, which names the one it meets when it is a leaf
    degree, links = [0] * n, [0] * n
    for i, row in enumerate(rows):
        for j in row:
            if j != i:
                degree[i] += 1
                degree[j] += 1
                links[i] += j
                links[j] += i
    stack = [i for i in range(n - 1, -1, -1) if degree[i] <= 1]
    if not stack:
        return _bareiss(rows, column)
    verdict, taken = DEFINITE, []
    while stack:
        v = stack.pop()
        d, met, degree[v] = diag[v], degree[v], -1
        if d < 0 or (d == 0 and met):  # the pivot rule of _bareiss
            return NEITHER, None
        if not met:  # with a = 0, u = v adds nothing below
            if d == 0:
                verdict = SEMIDEFINITE  # a null direction, dropped
            taken.append((v, v, 0))
            continue
        u = links[v]
        a = rows[v][u] if v < u else rows[u][v]
        degree[u] -= 1
        links[u] -= v
        p = scale[u]
        diag[u] = diag[u] * d - a * a * scale[v] * p
        rhs[u] = rhs[u] * d - a * rhs[v] * p
        scale[u] = p * d
        if degree[u] == 1:
            stack.append(u)
        taken.append((v, u, a))
    core = [i for i in range(n) if degree[i] >= 0]
    rank = {i: k for k, i in enumerate(core)}
    core_rows = []
    for i in core:
        p = scale[i]
        row = {rank[j]: v * p * scale[j] for j, v in rows[i].items() if j > i and degree[j] >= 0}
        if diag[i]:
            row[rank[i]] = diag[i] * p
        core_rows.append(row)
    core_verdict, solved = _bareiss(core_rows, [rhs[i] for i in core])
    if core_verdict != DEFINITE or verdict != DEFINITE:
        return (NEITHER if NEITHER in (core_verdict, verdict) else SEMIDEFINITE), None
    z, core_det = solved
    det = core_det * prod([diag[v] for v, _, a in taken if not a]) // prod([scale[i] for i in core])
    y = [0] * n
    for k, i in enumerate(core):
        y[i] = det * scale[i] * z[k] // core_det
    for v, u, a in reversed(taken):
        y[v] = (det * rhs[v] - a * scale[v] * y[u]) // diag[v]
    return DEFINITE, (tuple(y), det)


def _bareiss(rows: list[dict[int, int]], column: list[int]) -> tuple:
    """The answer of :func:`_symmetric_elimination` without its leaf phase:
    one symmetric fraction-free (Bareiss) elimination of [-M | column] in
    row order, on the nonzeros only; each pivot has the sign of a Schur
    complement's diagonal entry.  A negative pivot, or a zero pivot with a
    nonzero remaining row (a 2 x 2 principal minor is then negative),
    refutes semidefiniteness.  A zero pivot with a zero row is a null
    direction, dropped as semidefinite.  y is back-substituted only on a
    definite verdict.

    Rows that a step leaves alone are not rescaled.  After the steps with
    pivots p_0 .. p_k (and p_-1 = 1), entry (i, j) of a row not yet pivoted
    is the minor of [-M | column] on rows {0..k, i} and columns {0..k, j},
    skipped null directions left out (the Sylvester identity behind Bareiss
    elimination).  Step k takes it to (a_ij p_k - a_ki a_kj) / p_(k-1),
    which is a_ij p_k / p_(k-1) when a_ki = 0.  Over a run of steps that
    leave row i alone these factors telescope, so a row stored when the
    latest pivot was s (its stamp) holds stored * p / s at the latest pivot
    p.  That quotient is a minor, hence an integer, and the floor division
    computing it is exact.  A row is brought current only when a pivot row
    touches it or when it becomes the pivot row; a skipped zero pivot
    rescales nothing.
    """
    n = len(rows)
    a = list(rows)  # rows are replaced, never changed in place
    for i, c in enumerate(column):
        if c:
            a[i] = {**a[i], n: c}
    stamp = [1] * n
    verdict, prev = DEFINITE, 1
    for k in range(n):
        row = a[k]
        if stamp[k] != prev:
            row = a[k] = {j: v * prev // stamp[k] for j, v in row.items()}
        pivot = row.get(k, 0)
        if pivot < 0 or (pivot == 0 and any(j != n for j in row)):
            return NEITHER, None
        if pivot == 0:
            verdict = SEMIDEFINITE
            continue
        for i, a_ki in row.items():
            if i == k or i == n:
                continue
            s = stamp[i]
            if s == prev:
                new = {j: v * pivot for j, v in a[i].items()}
            else:
                new = {j: v * prev // s * pivot for j, v in a[i].items()}
            for j, a_kj in row.items():
                if j >= i:
                    new[j] = new.get(j, 0) - a_ki * a_kj
            a[i] = {j: v // prev for j, v in new.items() if v}
            stamp[i] = pivot
        prev = pivot
    if verdict != DEFINITE:
        return verdict, None
    # prev is now the last pivot det(-M), and det(-M) * x is integral by Cramer's rule
    y = [0] * n
    for i in range(n - 1, -1, -1):
        total = prev * a[i].get(n, 0)
        for j, v in a[i].items():
            if i < j < n:
                total -= v * y[j]
        y[i] = total // a[i][i]
    return verdict, (tuple(y), prev)


# --- cycle decomposition ---------------------------------------------------


class Branch(NamedTuple):
    root_id: int
    member_ids: tuple[int, ...]


class CycleRecord(NamedTuple):
    member_ids: tuple[int, ...]
    length: int
    branches: tuple[Branch, ...] = ()


def find_cycles(config: CurveConfig) -> tuple[CycleRecord, ...]:
    """Decompose the dual graph into cycles with their branches.

    The decomposition is computed once per configuration and cached on it;
    so is the StructureError of one that fails, raised again on each call.
    Smooth rational curves are pruned to the 2-core of their intersection
    graph (counting multiplicities); what survives must be a disjoint union
    of simple closed chains, each one an r-cycle with r >= 2.  Nodal and
    elliptic curves are 1- and 0-cycles on their own.  The leftover trees
    are assigned to the unique cycle member they touch; a tree touching no
    cycle (an isolated one) is in no record.
    """
    if isinstance(cycles := config.cycles, StructureError):
        raise cycles.with_traceback(None)
    return cycles


def _decompose(config: CurveConfig) -> tuple[CycleRecord, ...]:
    require_valid(config)
    stripped, core = config._peel
    adj = config._adj  # read, never copied: neighbors() copies per call
    starts = sorted(core)
    for v in starts:
        if core[v] != 2:
            raise StructureError(
                f"curve {v} lies on more than one cycle "
                "(its pruned intersection graph degree exceeds 2)"
            )

    # each core vertex has multiplicity-degree 2: it meets one core curve twice
    # (a 2-cycle, whose walk steps back) or two once each; a walk starts at its least member
    walks, cycle_of = [], {}  # walks as (member ids, length)
    for start in starts:
        if start in cycle_of:
            continue
        cycle_of[start] = k = len(walks)
        members, prev, cur = [start], start, min(u for u, _ in adj[start] if u in core)
        while cur != start:
            members.append(cur)
            cycle_of[cur] = k
            prev, cur = cur, next((u for u, _ in adj[cur] if u in core and u != prev), start)
        walks.append((tuple(members), len(members)))

    for c in config.curves:
        if c.kind != SMOOTH_RATIONAL:  # a nodal curve is a 1-cycle and the elliptic one a 0-cycle
            cycle_of[c.id] = len(walks)
            walks.append(((c.id,), int(c.kind == NODAL_RATIONAL)))

    if len(walks) > 1:
        # the triples are sorted, so the first offending pair is the least one
        for a, b, _ in config.intersections:
            if a in cycle_of and b in cycle_of and cycle_of[a] != cycle_of[b]:
                raise StructureError(f"curves {a} and {b} join two distinct cycles")
        walks.sort()  # by least member: the walks are disjoint, each led by its least

    # trees: the stripped curves.  Two of them meet only if the first one
    # stripped met the other, so a curve joins the tree of the curve it met
    # unless that one is on a cycle; last stripped first, that tree is known
    top, trees = {}, {}
    for v, met in reversed(stripped.items()):
        top[v] = t = top.get(met, v)
        trees.setdefault(t, []).append(v)
    assigned: dict[int, list[list[int]]] = {}
    for component in sorted(map(sorted, trees.values())):
        attachments = [u for v in component for u, m in adj[v] if u in cycle_of for _ in range(m)]
        if not attachments:
            continue  # isolated tree: in no record
        if len(attachments) > 1:
            raise StructureError(
                f"tree through curve {component[0]} attaches to a cycle more than once "
                f"(roots {sorted(set(attachments))})"
            )
        assigned.setdefault(attachments[0], []).append(component)

    return tuple([_record(CycleRecord, (ids, length, tuple([
        _record(Branch, (root, tuple(members))) for root in ids for members in assigned.get(root, ())
    ]))) for ids, length in walks])


# --- numerical classification ----------------------------------------------

ENOKI_CLASS = "enoki_class"
INTERMEDIATE = "intermediate"
INOUE_HIRZEBRUCH = "inoue_hirzebruch"
OUT_OF_RANGE = "out_of_range"


class SigmaClassification(NamedTuple):
    sigma: int
    verdict: str
    ih_parity: str | None = None
    torsion_crosscheck: bool | None = None
    notes: tuple[str, ...] = ()


def sigma_classify(config: CurveConfig) -> SigmaClassification:
    """Trichotomy by the total opposite self-intersection of the b2 rational curves.

    sigma adds 2 for each nodal curve: the square of an r-cycle satisfies
    C^2 = sum(D_i^2) + 2r with the node of a 1-cycle counting as its own
    adjacency, so the node contributes +2 to the cycle bookkeeping exactly
    as a chain intersection would.  With that convention every Enoki-type
    cycle gives sigma = 2n (its class has square zero) and the two
    Inoue-Hirzebruch families give sigma = 3n.

    For configurations carrying exactly one cycle of rational curves the
    verdict also reports the torsion cross-check #C - C^2 == 2*b2, the
    signature of the twisted single-cycle case.
    """
    require_valid(config)
    rational = [c for c in config.curves if c.kind != ELLIPTIC]
    if len(rational) < config.b2:
        raise DomainError(
            f"insufficient curves: sigma needs exactly b2 = {config.b2} rational "
            f"curves, found {len(rational)} (configuration is not known to be complete)"
        )
    n = config.b2
    nodal = sum(1 for c in rational if c.kind == NODAL_RATIONAL)
    sigma = sum(-c.self_int for c in rational) + 2 * nodal

    cycles = find_cycles(config)
    rational_cycles = [rec for rec in cycles if rec.length >= 1]

    crosscheck: bool | None = None
    notes: list[str] = []
    if len(rational_cycles) == 1:
        rec = rational_cycles[0]
        csq = _cycle_square(config, rec)
        crosscheck = (rec.length - csq) == 2 * n
        notes.append(
            f"single-cycle torsion cross-check: #C - C^2 = {rec.length - csq}, "
            f"2*b2 = {2 * n}"
        )

    if sigma == 2 * n:
        verdict, parity = ENOKI_CLASS, None
    elif 2 * n < sigma < 3 * n:
        verdict, parity = INTERMEDIATE, None
    elif sigma == 3 * n:
        verdict = INOUE_HIRZEBRUCH
        if len(rational_cycles) == 2:
            parity = "even"
        elif len(rational_cycles) == 1:
            parity = "odd"
        else:
            parity = None
            notes.append("sigma = 3*b2 but the cycle count matches neither parity")
    else:
        verdict, parity = OUT_OF_RANGE, None
    return SigmaClassification(sigma, verdict, parity, crosscheck, tuple(notes))


def _cycle_square(config: CurveConfig, rec: CycleRecord) -> int:
    """C^2 = sum D_i^2 + 2 sum_{i<j} D_i.D_j for a record of :func:`find_cycles`.
    An r-cycle with r >= 2 is one component of the 2-core, where each member
    has multiplicity-degree exactly 2, all of it to its walk neighbours: the
    meetings add up to r, and C^2 = sum D_i^2 + 2r.  A 1- or 0-cycle is one
    curve, with C^2 = D^2."""
    square = sum([config._by_id[cid].self_int for cid in rec.member_ids])
    return square + 2 * rec.length if rec.length >= 2 else square


def adjunction_degree(curve: Curve) -> int:
    """Degree 2g - 2 - c^2 of the canonical class on a curve of arithmetic
    genus g, from adjunction.  Non-negative for every valid curve."""
    if curve.kind not in CURVE_KINDS:
        raise DomainError(f"unknown curve kind {curve.kind!r}")
    return 2 * _KIND_RULES[curve.kind][1] - 2 - curve.self_int
