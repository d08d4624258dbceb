"""One peel of the dual graph: the leaves-first elimination and the cycle
decomposition against the code they replaced, kept here as referees, and
the answers that no relabelling may change.

``listing_elimination`` eliminates the rows of -M in listing order, where
``CurveConfig.elimination`` takes the stripped curves first.
``listing_decompose`` strips the smooth curves down to their 2-core on its
own and then finds each tree again with a second search, where
``find_cycles`` follows the links the one peel records.  The corpus: seeded
random definite configurations, the two families, every blow-up word with
b2 <= 8, seeded random configurations that are often not definite or not
even a union of cycles with trees, and stars and caterpillars of high
degree, each one also shuffled.
"""

import random

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
    require_valid,
    sigma_classify,
    singrat_config,
    solve_nac,
    validate,
)
from viilattice.curves import Branch, CycleRecord, _symmetric_elimination
from viilattice.selftest import random_definite_config

from test_gss import corpus

# --- the referees ------------------------------------------------------------


def listing_elimination(config: CurveConfig):
    """config.elimination with the rows eliminated in listing order."""
    require_valid(config)
    position = {c.id: a for a, c in enumerate(config.curves)}
    rows = [{a: -c.self_int} if c.self_int else {} for a, c in enumerate(config.curves)]
    for i, j, v in config.intersections:
        a, b = sorted((position[i], position[j]))
        rows[a][b] = -v
    return _symmetric_elimination(rows, [adjunction_degree(c) for c in config.curves])


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


@pytest.mark.parametrize("name", STRUCTURE_FIXTURES)
def test_structure_errors_match_the_referee(name):
    for seed, config in enumerate(relistings(STRUCTURE_FIXTURES[name], 3)):
        expected = decomposition(listing_decompose, config)
        assert isinstance(expected, str), (name, seed)
        assert decomposition(find_cycles, config) == expected, (name, seed)
        assert config.elimination == listing_elimination(config)


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
    # the leaves go first, then the centre while the last leaf is left; the
    # centre joins that leaf to the nodal curve, the one entry it fills
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


def answers(config: CurveConfig, name=lambda cid: cid):
    """Everything no relabelling may change, keyed by the renamed ids."""
    sol = solve_nac(config, 1)
    if isinstance(sol, NoSolution):
        nac = sol.reason
    else:
        nac = (sol.index, {name(c.id): k for c, k in zip(config.curves, sol.coeffs)})
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
