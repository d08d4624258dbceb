"""Leaves first: the elimination and the cycle decomposition against the
code they replaced, kept here as referees, and the answers that no
relabelling may change.

``listing_bareiss`` is the elimination as it stood before its leaf phase:
one Bareiss elimination of the rows in listing order, where
``_symmetric_elimination`` first folds every leaf of the matrix's graph
into its neighbour and hands only the rows left to Bareiss.
``listing_decompose`` strips the smooth curves down to their 2-core on its
own and then finds each tree again with a second search, where
``find_cycles`` follows the links the one peel records.
``two_pass_decompose`` reads that peel as ``find_cycles`` does, but walks
each cycle in a helper, maps every member to its cycle in a second pass,
scans every meeting for one across cycles and builds each record twice;
``scanned_cycle_square`` sums the squares and the meetings of a cycle's
members over every intersection, where ``curves._cycle_square`` reads the
2-core's degree 2 off the record.  The cached facts of a configuration are
each computed once per instance.  The corpus: seeded
random definite configurations, the two families, every blow-up word with
b2 <= 8, seeded random configurations that are often not definite or not
even a union of cycles with trees, stars and caterpillars of high degree
(a smooth centre meeting many nodal curves among them), each one also
shuffled; and, for the elimination alone, sparse random symmetric matrices
and forests and cycles with trees whose entries are not all +-1.
"""

import ast
import contextlib
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viilattice import (
    ELLIPTIC,
    NODAL_RATIONAL,
    SMOOTH_RATIONAL,
    Curve,
    CurveConfig,
    DomainError,
    NoSolution,
    StructureError,
    adjunction_degree,
    enoki_cycle_config,
    find_cycles,
    gss_config,
    index_of,
    nac_structure_report,
    require_valid,
    sigma_classify,
    singrat_config,
    solve_nac,
    validate,
)
from viilattice import curves
from viilattice.curves import (
    DEFINITE,
    NEITHER,
    SEMIDEFINITE,
    Branch,
    CycleRecord,
    _symmetric_elimination,
    _upper_rows,
)
from viilattice.nac import NacSolution, star_rows
from viilattice.selftest import _random_symmetric, random_definite_config

from test_gss import corpus

# --- the referees ------------------------------------------------------------


def listing_bareiss(rows, column):
    """The verdict and, if definite, (y, det) with -M y = det * column, by
    one symmetric fraction-free (Bareiss) elimination of [-M | column] in
    row order, on the nonzeros only; rows[i] maps j >= i to -M[i][j].  A row
    that a step leaves alone keeps the stamp of the pivot it was stored at,
    and is brought current, stored * pivot // stamp, when it is next read."""
    n = len(rows)
    a = list(rows)
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
    y = [0] * n
    for i in range(n - 1, -1, -1):
        total = prev * a[i].get(n, 0)
        for j, v in a[i].items():
            if i < j < n:
                total -= v * y[j]
        y[i] = total // a[i][i]
    return verdict, (tuple(y), prev)


def listing_elimination(config: CurveConfig):
    """config.elimination by listing_bareiss alone, in listing order."""
    require_valid(config)
    position = {c.id: a for a, c in enumerate(config.curves)}
    rows = [{a: -c.self_int} if c.self_int else {} for a, c in enumerate(config.curves)]
    for i, j, v in config.intersections:
        a, b = sorted((position[i], position[j]))
        rows[a][b] = -v
    return listing_bareiss(rows, [adjunction_degree(c) for c in config.curves])


def listing_decompose(config: CurveConfig):
    """find_cycles, with a strip of its own and a second search for the trees."""
    require_valid(config)
    smooth = [c.id for c in config.curves if c.kind == SMOOTH_RATIONAL]
    adj = {c.id: config.neighbors(c.id) for c in config.curves}
    core = set(smooth)
    degree = {v: sum(m for u, m in adj[v] if u in core) for v in smooth}
    stack = [v for v in smooth if degree[v] <= 1]
    while stack:
        v = stack.pop()
        if v not in core:
            continue
        core.remove(v)
        for u, m in adj[v]:
            if u in core:
                degree[u] -= m
                if degree[u] <= 1:
                    stack.append(u)
    for v in sorted(core):
        if degree[v] != 2:
            raise StructureError(
                f"curve {v} lies on more than one cycle "
                "(its pruned intersection graph degree exceeds 2)"
            )
    cycles, seen = [], set()
    for start in sorted(core):
        if start in seen:
            continue
        members, prev, cur = [start], start, min(u for u, _ in adj[start] if u in core)
        while cur != start:
            members.append(cur)
            prev, cur = cur, next((u for u, _ in adj[cur] if u in core and u != prev), start)
        seen.update(members)
        cycles.append(CycleRecord(tuple(members), len(members)))
    for c in config.curves:
        if c.kind == NODAL_RATIONAL:
            cycles.append(CycleRecord((c.id,), 1))
        elif c.kind == ELLIPTIC:
            cycles.append(CycleRecord((c.id,), 0))
    cycle_of = {cid: k for k, rec in enumerate(cycles) for cid in rec.member_ids}
    for a, b, _ in config.intersections:
        if a in cycle_of and b in cycle_of and cycle_of[a] != cycle_of[b]:
            raise StructureError(f"curves {a} and {b} join two distinct cycles")
    pool = set(smooth).difference(cycle_of)
    assigned, visited = {}, set()
    for start in sorted(pool):
        if start in visited:
            continue
        component, search = {start}, [start]
        while search:
            for u, _ in adj[search.pop()]:
                if u in pool and u not in component:
                    component.add(u)
                    search.append(u)
        visited.update(component)
        attachments = [
            u for v in sorted(component) for u, m in adj[v] if u in cycle_of for _ in range(m)
        ]
        if not attachments:
            continue
        if len(attachments) > 1:
            raise StructureError(
                f"tree through curve {start} attaches to a cycle more than once "
                f"(roots {sorted(set(attachments))})"
            )
        assigned.setdefault(attachments[0], []).append(sorted(component))
    out = []
    for rec in sorted(cycles, key=lambda r: min(r.member_ids)):
        branches = [Branch(root, tuple(members))
                    for root in rec.member_ids for members in sorted(assigned.get(root, []))]
        out.append(CycleRecord(rec.member_ids, rec.length, tuple(branches)))
    return tuple(out)


def two_pass_decompose(config: CurveConfig):
    """find_cycles as it stood before one walk per cycle: the walks in a
    helper, the cycle of each member mapped afterwards, every meeting scanned
    for one across cycles, and each record built twice."""
    require_valid(config)
    stripped, core = config._peel
    adj = config._adj
    for v in sorted(core):
        if core[v] != 2:
            raise StructureError(
                f"curve {v} lies on more than one cycle "
                "(its pruned intersection graph degree exceeds 2)"
            )
    cycles, seen = [], set()
    for start in sorted(core):
        if start in seen:
            continue
        members = _walk_cycle(config, core, start)
        seen.update(members)
        cycles.append(CycleRecord(tuple(members), len(members)))
    cycles += [CycleRecord((c.id,), int(c.kind == NODAL_RATIONAL))
               for c in config.curves if c.kind != SMOOTH_RATIONAL]
    cycle_of = {cid: k for k, rec in enumerate(cycles) for cid in rec.member_ids}
    for a, b, _ in config.intersections:
        if a in cycle_of and b in cycle_of and cycle_of[a] != cycle_of[b]:
            raise StructureError(f"curves {a} and {b} join two distinct cycles")
    top, trees = {}, {}
    for v, met in reversed(stripped.items()):
        top[v] = t = top.get(met, v)
        trees.setdefault(t, []).append(v)
    assigned = {}
    for component in sorted(map(sorted, trees.values())):
        attachments = [u for v in component for u, m in adj[v] if u in cycle_of for _ in range(m)]
        if not attachments:
            continue
        if len(attachments) > 1:
            raise StructureError(
                f"tree through curve {component[0]} attaches to a cycle more than once "
                f"(roots {sorted(set(attachments))})"
            )
        assigned.setdefault(attachments[0], []).append(component)
    out = []
    for rec in sorted(cycles, key=lambda r: min(r.member_ids)):
        branches = [Branch(root, tuple(members))
                    for root in rec.member_ids for members in assigned.get(root, ())]
        out.append(CycleRecord(rec.member_ids, rec.length, tuple(branches)))
    return tuple(out)


def _walk_cycle(config: CurveConfig, core: dict, start: int) -> list:
    adj = config._adj
    members, prev, cur = [start], start, min(u for u, _ in adj[start] if u in core)
    while cur != start:
        members.append(cur)
        prev, cur = cur, next((u for u, _ in adj[cur] if u in core and u != prev), start)
    return members


def scanned_cycle_square(config: CurveConfig, rec: CycleRecord) -> int:
    """C^2 of the record's cycle from every intersection of the configuration."""
    members = set(rec.member_ids)
    total = sum(config.curve(a).self_int for a in rec.member_ids)
    for i, j, v in config.intersections:
        if i in members and j in members:
            total += 2 * v
    return total


def decomposition(find, config):
    """find(config), or the text of the StructureError it raises."""
    try:
        return find(config)
    except StructureError as exc:
        return str(exc)


# --- the corpus --------------------------------------------------------------


def shuffled(config: CurveConfig, rng: random.Random) -> CurveConfig:
    curves = list(config.curves)
    rng.shuffle(curves)
    return CurveConfig(config.b2, tuple(curves), config.intersections)


def random_config(rng: random.Random) -> CurveConfig:
    """A valid configuration of up to 8 curves, often neither definite nor a
    union of cycles with trees: a ring, a chain or nothing, random trees
    hung anywhere, random extra meetings and an elliptic curve now and then."""
    r = rng.randint(1, 8)
    curves, pairs = [], {}
    for i in range(r):
        if rng.random() < 0.75:
            curves.append(Curve(i, SMOOTH_RATIONAL, -rng.randint(2, 5)))
        else:
            curves.append(Curve(i, NODAL_RATIONAL, -rng.randint(0, 3)))
    shape = rng.randrange(3)
    spine = rng.randint(1, r)
    for i in range(1, spine):
        pairs[(i - 1, i)] = 1
    if shape == 0 and spine >= 2:
        pairs[(0, spine - 1)] = pairs.get((0, spine - 1), 0) + 1
    for i in range(spine, r):
        pairs[(rng.randrange(i), i)] = 1
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j = sorted(rng.sample(range(r), 2)) if r > 1 else (0, 0)
        if i != j:
            pairs[(i, j)] = rng.randint(1, 2)
    if rng.random() < 0.15:
        curves.append(Curve(r, ELLIPTIC, -rng.randint(1, 4)))
        if rng.random() < 0.3:
            pairs[(rng.randrange(r), r)] = 1
    ids = rng.sample(range(-3, 3 * len(curves)), len(curves))
    curves = [Curve(ids[c.id], c.kind, c.self_int) for c in curves]
    pairs = tuple((ids[i], ids[j], m) for (i, j), m in pairs.items())
    config = CurveConfig(r, tuple(curves), pairs)
    assert validate(config).valid
    return config


def family_configs():
    for n in range(1, 61):
        for p in sorted({n - 1, n // 2, 0}):
            yield singrat_config(n, p)
    for n in range(1, 31):
        yield enoki_cycle_config(n)
        yield enoki_cycle_config(n, True)


def word_configs():
    for n in range(1, 9):
        for word in corpus(n):
            yield gss_config(word)


# a tree attached twice, touching cycles, a curve on two cycles; each is also
# listed in reverse and in a seeded shuffle
STRUCTURE_FIXTURES = {
    "tree-on-two-nodal-curves": CurveConfig(
        3,
        (Curve(0, NODAL_RATIONAL, -1), Curve(1, SMOOTH_RATIONAL, -2), Curve(2, NODAL_RATIONAL, -1)),
        ((0, 1, 1), (1, 2, 1)),
    ),
    "tree-on-a-nodal-curve-and-a-ring": CurveConfig(
        5,
        tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(4)) + (Curve(4, NODAL_RATIONAL, -1),),
        ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)),
    ),
    "tree-meeting-a-nodal-curve-twice": CurveConfig(
        3,
        (Curve(0, NODAL_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2))
        + (Curve(2, SMOOTH_RATIONAL, -4),),
        ((0, 2, 2), (1, 2, 1)),
    ),
    "chain-closing-a-second-cycle": CurveConfig(
        5,
        tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(5)),
        ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1), (2, 4, 1)),
    ),
    "touching-nodal-curves": CurveConfig(
        2, (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)), ((0, 1, 1),)
    ),
    "ring-touching-a-nodal-curve": CurveConfig(
        4,
        tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(3)) + (Curve(3, NODAL_RATIONAL, -1),),
        ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)),
    ),
    "two-triangles-sharing-a-curve": CurveConfig(
        5,
        tuple(Curve(i, SMOOTH_RATIONAL, -4) for i in range(5)),
        ((0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (0, 4, 1)),
    ),
}


def relistings(config: CurveConfig, seed: int):
    yield config
    yield CurveConfig(config.b2, config.curves[::-1], config.intersections)
    yield shuffled(config, random.Random(seed))


# --- differential: the same answers as the referees --------------------------


def assert_matches_referees(config: CurveConfig) -> None:
    # each stripped curve met its `met` curve, and no other smooth curve
    # stripped after it or left in the core
    stripped, core = config._peel
    later = dict.fromkeys([*stripped, *core])
    for v, met in stripped.items():
        del later[v]
        left = [u for u, m in config.neighbors(v) for _ in range(m) if u in later]
        assert left == ([] if met is None else [met]), (v, met)
    assert sorted(core) == sorted(
        c.id for c in config.curves if c.kind == SMOOTH_RATIONAL and c.id not in stripped
    )
    assert config.elimination == listing_elimination(config)
    assert decomposition(find_cycles, config) == decomposition(listing_decompose, config)
    assert_matches_the_two_pass_referee(config)


def assert_matches_the_two_pass_referee(config: CurveConfig) -> None:
    """The same records, of the same types, or the same StructureError text
    as two_pass_decompose; and each record's square as the full scan's."""
    expected, got = decomposition(two_pass_decompose, config), decomposition(find_cycles, config)
    assert got == expected
    if isinstance(got, str):
        return
    for rec in got:
        assert type(rec) is CycleRecord and all(type(b) is Branch for b in rec.branches)
        assert curves._cycle_square(config, rec) == scanned_cycle_square(config, rec), rec


def test_random_definite_configurations_match_the_referees():
    rng = random.Random(20261019)
    for _ in range(1000):
        config = random_definite_config(rng)
        for copy in (config, shuffled(config, rng)):
            assert_matches_referees(copy)


def test_random_configurations_match_the_referees():
    rng = random.Random(7)
    for _ in range(1000):
        config = random_config(rng)
        for copy in (config, shuffled(config, rng)):
            assert_matches_referees(copy)


def test_the_families_match_the_referees():
    rng = random.Random(1)
    for config in family_configs():
        for copy in (config, shuffled(config, rng)):
            assert_matches_referees(copy)


def test_every_word_up_to_b2_8_matches_the_referees():
    rng = random.Random(2)
    for config in word_configs():
        for copy in (config, shuffled(config, rng)):
            assert_matches_referees(copy)


def test_relabelled_corpora_match_the_two_pass_referee():
    # the corpora above, each configuration also renamed and reordered
    rng = random.Random(23)
    draw_definite, draw_random = random.Random(20261019), random.Random(7)
    configs = [random_definite_config(draw_definite) for _ in range(1000)]
    configs += [random_config(draw_random) for _ in range(1000)]
    configs += [*family_configs(), *word_configs(), centre_first_star(40)]
    configs += [nodal_star(40, *shape) for shape in NODAL_STARS]
    configs += [copy for c in STRUCTURE_FIXTURES.values() for copy in relistings(c, 3)]
    errors = 0
    for config in configs:
        for copy in (config, relabelled(config, rng)[0]):
            assert_matches_the_two_pass_referee(copy)
            errors += isinstance(decomposition(find_cycles, copy), str)
    assert errors > 100


@pytest.mark.parametrize("name", STRUCTURE_FIXTURES)
def test_structure_errors_match_the_referee(name):
    for seed, config in enumerate(relistings(STRUCTURE_FIXTURES[name], 3)):
        expected = decomposition(listing_decompose, config)
        assert isinstance(expected, str), (name, seed)
        assert decomposition(find_cycles, config) == expected, (name, seed)
        assert config.elimination == listing_elimination(config)
        assert decomposition(two_pass_decompose, config) == expected, (name, seed)


@st.composite
def caterpillars(draw):
    """A spine of smooth curves, each meeting a run of leaves, with the spine
    alone (a star when it is one curve), on a nodal curve, or on a ring;
    listed in a drawn order, or with the spine first."""
    spine = draw(st.integers(1, 4))
    leaves = draw(st.lists(st.integers(0, 24), min_size=spine, max_size=spine))
    square = st.integers(-6, -2)
    curves, pairs = [], []
    for k, count in enumerate(leaves):
        extra = draw(st.integers(0, 2))
        curves.append(Curve(k, SMOOTH_RATIONAL, -(count + 2 + extra)))
        if k:
            pairs.append((k - 1, k, 1))
    for k, count in enumerate(leaves):
        for _ in range(count):
            pairs.append((k, len(curves), 1))
            curves.append(Curve(len(curves), SMOOTH_RATIONAL, draw(square)))
    base = draw(st.sampled_from(["none", "nodal", "ring"]))
    if base == "nodal":
        pairs.append((0, len(curves), 1))
        curves.append(Curve(len(curves), NODAL_RATIONAL, -draw(st.integers(0, 3))))
    elif base == "ring":
        ring = range(len(curves), len(curves) + 3)
        curves += [Curve(r, SMOOTH_RATIONAL, draw(square)) for r in ring]
        pairs += [(ring[0], ring[1], 1), (ring[1], ring[2], 1), (ring[0], ring[2], 1)]
        pairs.append((0, ring[0], 1))
    if draw(st.booleans()):
        curves = draw(st.permutations(curves))
    return CurveConfig(len(curves), tuple(curves), tuple(pairs))


@given(caterpillars(), st.randoms(use_true_random=False))
def test_stars_and_caterpillars_match_the_referees(config, rng):
    for copy in (config, shuffled(config, rng)):
        assert_matches_referees(copy)


def centre_first_star(d: int) -> CurveConfig:
    """A nodal (-1)-curve, a centre of square -(d+2) meeting it and d
    (-2)-curves meeting the centre, the centre listed first: definite, and
    a dense block of size d when eliminated in listing order."""
    curves = (Curve(1, SMOOTH_RATIONAL, -(d + 2)), Curve(0, NODAL_RATIONAL, -1))
    curves += tuple(Curve(i, SMOOTH_RATIONAL, -2) for i in range(2, d + 2))
    return CurveConfig(d + 2, curves, ((0, 1, 1),) + tuple((1, i, 1) for i in range(2, d + 2)))


def test_the_centre_first_star_is_eliminated_leaves_first():
    # the peel, which the cycle decomposition reads, strips the leaves
    # first, then the centre while the last leaf is left
    config = centre_first_star(40)
    stripped, core = config._peel
    assert list(stripped.items()) == [(v, 1) for v in range(41, 2, -1)] + [(1, 2), (2, None)]
    assert core == {}
    assert config.elimination == listing_elimination(config)
    assert find_cycles(config) == (CycleRecord((0,), 1, (Branch(0, tuple(range(1, 42))),)),)


def test_a_large_centre_first_star_is_definite():
    config = centre_first_star(2000)
    verdict, (y, det) = config.elimination
    assert verdict == "definite" and det > 0 and len(y) == 2002
    assert [rec.length for rec in find_cycles(config)] == [1]


def nodal_star(k: int, between: bool = False, centre_last: bool = False) -> CurveConfig:
    """A smooth centre of square -(k+2) meeting k nodal (-3)-curves, each
    directly or, with ``between``, through a (-3)-curve of its own: definite,
    refused by find_cycles (a tree on k cycles), and a dense block of size k
    when the centre is eliminated before its neighbours."""
    centre = Curve(0, SMOOTH_RATIONAL, -(k + 2))
    curves = [Curve(i, NODAL_RATIONAL, -3) for i in range(1, k + 1)]
    if between:
        curves += [Curve(k + i, SMOOTH_RATIONAL, -3) for i in range(1, k + 1)]
        pairs = [(0, k + i, 1) for i in range(1, k + 1)] + [(i, k + i, 1) for i in range(1, k + 1)]
    else:
        pairs = [(0, i, 1) for i in range(1, k + 1)]
    curves = curves + [centre] if centre_last else [centre] + curves
    return CurveConfig(len(curves), tuple(curves), tuple(pairs))


NODAL_STARS = [(between, last) for between in (False, True) for last in (False, True)]


@pytest.mark.parametrize("between, centre_last", NODAL_STARS)
def test_nodal_stars_match_the_referees(between, centre_last):
    config = nodal_star(40, between, centre_last)
    assert config.elimination[0] == DEFINITE
    assert isinstance(decomposition(find_cycles, config), str)
    for copy in relistings(config, 4):
        assert_matches_referees(copy)


@contextlib.contextmanager
def bareiss_rows():
    """The number of rows of each matrix handed to the Bareiss core, while open."""
    sizes, bareiss = [], curves._bareiss

    def counting(rows, column):
        sizes.append(len(rows))
        return bareiss(rows, column)

    curves._bareiss = counting
    try:
        yield sizes
    finally:
        curves._bareiss = bareiss


def test_the_bareiss_core_sees_no_forest_and_every_ring():
    # a nodal curve is a leaf, and so is each of two curves meeting twice:
    # one off-diagonal entry each
    forests = [singrat_config(n, p) for n in range(1, 21) for p in range(n)]
    forests += [enoki_cycle_config(n, elliptic) for n in (1, 2) for elliptic in (False, True)]
    forests += [centre_first_star(40)] + [nodal_star(40, *shape) for shape in NODAL_STARS]
    for config in forests:
        for copy in relistings(config, 5):
            with bareiss_rows() as sizes:
                assert copy.elimination[0] != NEITHER
            assert sizes == [0]
    for n in range(3, 31):
        for elliptic in (False, True):
            with bareiss_rows() as sizes:
                assert enoki_cycle_config(n, elliptic).elimination == (SEMIDEFINITE, None)
            assert sizes == [n]


@pytest.mark.parametrize("between", [False, True])
def test_a_large_nodal_star_is_solved(between):
    config = nodal_star(2000, between)
    verdict, (y, det) = config.elimination
    assert verdict == DEFINITE and det > 0 and len(y) == len(config.curves)
    # -M y = det * K.D, row by row
    position = {c.id: a for a, c in enumerate(config.curves)}
    image = [-c.self_int * v for c, v in zip(config.curves, y)]
    for i, j, m in config.intersections:
        image[position[i]] -= m * y[position[j]]
        image[position[j]] -= m * y[position[i]]
    assert image == [det * adjunction_degree(c) for c in config.curves]


def sparsified(rng: random.Random, size: int) -> list[list[int]]:
    """selftest's random symmetric matrix with each off-diagonal pair kept
    with a drawn probability, so that most of them have leaves."""
    m = _random_symmetric(rng, size)
    keep = rng.random()
    for i in range(size):
        for j in range(i):
            if rng.random() > keep:
                m[i][j] = m[j][i] = 0
    return m


def test_random_symmetric_matrices_match_the_listing_referee():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(6000):
        m = sparsified(rng, rng.randint(0, 8))
        rows, column = _upper_rows(m), [rng.randint(-4, 4) for _ in m]
        expected = listing_bareiss(rows, column)
        assert _symmetric_elimination(rows, column) == expected, (m, column)
        verdicts.add(expected[0])
    assert verdicts == {DEFINITE, SEMIDEFINITE, NEITHER}


@st.composite
def trees_on_cycles(draw):
    """(M, column, ring rows): up to two rings of 3 to 5 rows, and rows that
    each meet one earlier row or none, so a forest with its trees hung on
    the rings; off-diagonal entries of M in +-2 .. +-4, each diagonal entry
    the negated sum of its row's magnitudes, less a shift of at most 2 and at
    least a drawn bound in -2 .. 0 (so every verdict occurs), rows listed in
    a drawn order."""
    size = draw(st.integers(1, 16))
    edges, start = [], 0
    for r in draw(st.lists(st.integers(3, 5), max_size=2)):
        if start + r <= size:
            edges += [(start + k, start + (k + 1) % r) for k in range(r)]
            start += r
    for v in range(max(start, 1), size):
        if draw(st.integers(0, 4)):
            edges.append((draw(st.integers(0, v - 1)), v))
    at = draw(st.permutations(range(size)))
    m = [[0] * size for _ in range(size)]
    for i, j in edges:
        m[at[i]][at[j]] = m[at[j]][at[i]] = draw(st.sampled_from([-4, -3, -2, 2, 3, 4]))
    low = draw(st.integers(-2, 0))
    for i, row in enumerate(m):
        row[i] = -sum(map(abs, row)) - draw(st.integers(low, 2))
    column = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
    return m, column, start


@given(trees_on_cycles())
def test_trees_on_cycles_match_the_listing_referee(case):
    m, column, ring_rows = case
    rows = _upper_rows(m)
    with bareiss_rows() as sizes:
        answer = _symmetric_elimination(rows, column)
    assert answer == listing_bareiss(rows, column)
    # every row off the rings is a leaf in turn, unless a leaf's pivot fails first
    assert sizes == [ring_rows] or (sizes == [] and answer[0] == NEITHER)


def test_index_and_nac_never_peel():
    configs = [singrat_config(6, 5), singrat_config(6, 2), enoki_cycle_config(4, True)]
    configs += [gss_config(word) for word in ("aab", "gaab", "aaaa", "abab")]
    configs += [nodal_star(5), centre_first_star(5)]
    for config in configs:
        index_of(config)
        assert "_peel" not in vars(config)
        solve_nac(config, 2)
        assert "_peel" not in vars(config)


CACHED = [(CurveConfig, name) for name in ("elimination", "_kd_column", "_peel", "cycles")]
CACHED += [(NacSolution, "coeffs")]


def cache_owners(cls):
    """Two equal instances of cls, built apart."""
    if cls is CurveConfig:
        return [gss_config("gaab"), gss_config("gaab")]
    return [solve_nac(singrat_config(5, 4), 2), solve_nac(singrat_config(5, 4), 2)]


@pytest.mark.parametrize("cls, name", CACHED)
def test_each_cached_fact_is_computed_once_per_instance(monkeypatch, cls, name):
    cache = vars(cls)[name]
    calls, compute = [], cache.func

    def counting(instance):
        calls.append(instance)
        return compute(instance)

    monkeypatch.setattr(cache, "func", counting)
    owners = cache_owners(cls)
    for owner in owners:
        first = getattr(owner, name)
        assert all(getattr(owner, name) is first for _ in range(3))
        assert vars(owner)[name] is first
    assert [id(owner) for owner in calls] == [id(owner) for owner in owners]


@pytest.mark.parametrize("cls, name", CACHED)
def test_a_cache_read_on_its_class_is_the_cache(cls, name):
    cache = getattr(cls, name)
    assert cache is vars(cls)[name]
    assert cache.__doc__ and cache.__doc__ == cache.func.__doc__


def test_no_module_caches_through_functools():
    # functools.cached_property takes a lock on each first read up to Python 3.11
    for path in sorted(Path(curves.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in getattr(node, "names", ())]
            names += [getattr(node, "attr", None), getattr(node, "id", None)]
            assert "cached_property" not in names, (path.name, node.lineno)


# --- metamorphic: no relabelling changes an answer ----------------------------


def relabelled(config: CurveConfig, rng: random.Random):
    """The configuration with its curves shuffled and renamed by a random
    injection of the ids, and the renaming."""
    ids = [c.id for c in config.curves]
    rename = dict(zip(ids, rng.sample(range(-5, 4 * len(ids) + 5), len(ids))))
    curves = [Curve(rename[c.id], c.kind, c.self_int) for c in config.curves]
    rng.shuffle(curves)
    pairs = tuple((rename[i], rename[j], m) for i, j, m in config.intersections)
    return CurveConfig(config.b2, tuple(curves), pairs[::-1]), rename


def cycle_shape(config: CurveConfig, name=lambda cid: cid):
    """The cycle records with every id renamed: each cycle as its least
    rotation or reflection, each branch as (root, member set), all sorted;
    or the exception type when there is no decomposition."""
    try:
        records = find_cycles(config)
    except StructureError:
        return StructureError
    shape = []
    for rec in records:
        ring = [name(cid) for cid in rec.member_ids]
        turns = [ring[k:] + ring[:k] for k in range(len(ring))] or [[]]
        turns += [turn[::-1] for turn in turns]
        branches = sorted((name(b.root_id), sorted(map(name, b.member_ids))) for b in rec.branches)
        shape.append((min(turns), rec.length, branches))
    return sorted(shape)


def structure_shape(config: CurveConfig, sol, name=lambda cid: cid):
    """nac_structure_report's cycles with every id renamed, each cycle's
    members as a sorted list, all sorted; or the exception type."""
    try:
        cycles = nac_structure_report(config, sol).cycles
    except StructureError:
        return StructureError
    return sorted(
        (sorted(map(name, c.member_ids)), c.min_coeff, c.max_coeff, c.unit_cycle,
         c.max_at_branch_root, c.violations)
        for c in cycles
    )


def answers(config: CurveConfig, name=lambda cid: cid):
    """Everything no relabelling may change, keyed by the renamed ids."""
    sol = solve_nac(config, 1)
    if isinstance(sol, NoSolution):
        nac = sol.reason
    else:
        nac = (
            sol.index,
            {name(c.id): k for c, k in zip(config.curves, sol.coeffs)},
            {name(cid): (lhs, rhs) for cid, lhs, rhs in star_rows(config, sol)},
            structure_shape(config, sol, name),
        )
    try:
        sigma = sigma_classify(config)
    except (DomainError, StructureError) as exc:
        sigma = type(exc)
    return config.elimination[0], nac, sigma, cycle_shape(config, name)


def assert_relabelling_changes_nothing(config: CurveConfig, rng: random.Random) -> None:
    moved, rename = relabelled(config, rng)
    assert answers(moved) == answers(config, rename.__getitem__)


@pytest.mark.parametrize("n", range(1, 9))
def test_relabelled_words_keep_every_answer(n):
    rng = random.Random(n)
    for word in corpus(n):
        assert_relabelling_changes_nothing(gss_config(word), rng)


def test_relabelled_random_configurations_keep_every_answer():
    rng = random.Random(11)
    for _ in range(500):
        assert_relabelling_changes_nothing(random_config(rng), rng)
        assert_relabelling_changes_nothing(random_definite_config(rng), rng)


@given(caterpillars(), st.randoms(use_true_random=False))
def test_relabelled_caterpillars_keep_every_answer(config, rng):
    assert_relabelling_changes_nothing(config, rng)
