import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viilattice import (
    ELLIPTIC,
    Curve,
    CurveConfig,
    DimensionMismatch,
    DomainError,
    EnumerationCapError,
    LatticeClass,
    NODAL_RATIONAL,
    NoSolution,
    Representation,
    SMOOTH_RATIONAL,
    StructureError,
    TypeA,
    canonical_form,
    classify_normal_form,
    enoki_cycle_config,
    enumerate_representations,
    index_of,
    sigma_classify,
    singrat_config,
    solve_nac,
    verify_representation,
)
from viilattice import curves as curves_module
from viilattice import homology
from viilattice.curves import DEFINITE, find_cycles
from viilattice.homology import _class_key
from viilattice.selftest import (
    _naive_candidates,
    brute_force_representations,
    representation_fixtures,
)


def coeff_table(rep):
    return [(c.coeffs, c.torsion2) for c in rep.classes]


def result(report, name):
    for r in report.results:
        if r.name == name:
            return r
    raise KeyError(name)


def triangle_config():
    return CurveConfig(
        3,
        tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(3)),
        ((0, 1, 1), (1, 2, 1), (2, 0, 1)),
    )


# --- frozen enumerations ------------------------------------------------------


def test_singrat_chain_pattern_is_unique():
    # the nodal class is minus the sum of the tail, each branch curve the
    # difference of consecutive basis vectors
    for n in (2, 3, 4):
        reps = enumerate_representations(singrat_config(n, n - 1))
        assert len(reps) == 1
        rep = reps[0]
        assert not rep.odd_ih
        expected_head = tuple(0 if i == 0 else -1 for i in range(n))
        assert rep.classes[0].coeffs == expected_head
        for i in range(1, n):
            want = tuple(
                1 if t == i else (-1 if t == i - 1 else 0) for t in range(n)
            )
            assert rep.classes[i].coeffs == want
        assert not any(c.torsion2 for c in rep.classes)


def test_cycle_differences():
    reps = enumerate_representations(enoki_cycle_config(2))
    assert [coeff_table(r) for r in reps] == [
        [((1, -1), False), ((-1, 1), False)]
    ]

    # a bare cycle of length >= 3 admits both orientations
    reps = enumerate_representations(enoki_cycle_config(3))
    assert len(reps) == 2
    tables = [coeff_table(r) for r in reps]
    assert [((1, -1, 0), False), ((0, 1, -1), False), ((-1, 0, 1), False)] in tables
    assert [((1, -1, 0), False), ((-1, 0, 1), False), ((0, 1, -1), False)] in tables


def test_parabolic_adds_forced_elliptic_class():
    reps = enumerate_representations(enoki_cycle_config(2, with_elliptic=True))
    assert len(reps) == 1
    assert coeff_table(reps[0]) == [
        ((1, -1), False),
        ((-1, 1), False),
        ((-1, -1), False),
    ]
    assert not reps[0].odd_ih


def test_twisted_loop():
    config = CurveConfig(1, (Curve(0, NODAL_RATIONAL, -1),), ())
    reps = enumerate_representations(config)
    assert len(reps) == 1
    assert reps[0].odd_ih
    assert coeff_table(reps[0]) == [((-1,), True)]


def test_triangle_needs_torsion():
    reps = enumerate_representations(triangle_config())
    assert len(reps) == 1
    assert reps[0].odd_ih
    assert coeff_table(reps[0]) == [
        ((1, -1, -1), False),
        ((-1, 1, -1), False),
        ((-1, -1, 1), False),
    ]


def test_two_disjoint_loops():
    config = CurveConfig(
        2, (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)), ()
    )
    reps = enumerate_representations(config)
    assert len(reps) == 1
    assert not reps[0].odd_ih
    assert coeff_table(reps[0]) == [((0, -1), False), ((-1, 0), False)]


def test_twisted_cycle_law_decides_a_nodal_two_curve():
    # the twisted class sum (-1, -1) fits a nodal (-2)-curve at rank 2, but
    # #C - C^2 = 1 + 2 misses 2 * b2 = 4; without that law the search returns
    # the class ((-1, -1), torsion2=True)
    config = CurveConfig(2, (Curve(0, NODAL_RATIONAL, -2),), ())
    assert enumerate_representations(config) == []


def test_unrepresentable_config_yields_empty_list():
    # a (-4) branch curve needs four basis slots; rank 2 has two
    config = CurveConfig(
        2,
        (Curve(0, NODAL_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -4)),
        ((0, 1, 1),),
    )
    assert enumerate_representations(config) == []


def _ring(r, self_int):
    return CurveConfig(
        r,
        tuple(Curve(i, SMOOTH_RATIONAL, self_int) for i in range(r)),
        tuple((i, (i + 1) % r, 1) for i in range(r)),
    )


def _signs(rep):
    """(odd_ih, one '+-0' row per class); none of the pinned classes is twisted."""
    assert not any(c.torsion2 for c in rep.classes)
    rows = ("".join("+-0"[(1, -1, 0).index(x)] for x in c.coeffs) for c in rep.classes)
    return (rep.odd_ih, tuple(rows))


# canonical outputs at b2 = 5 and 6, recorded before the search broke the
# basis symmetry; the listing order of the orbits is part of the output
PINNED = [
    (
        enoki_cycle_config(5, False),
        [
            (False, ("+-000", "0+-00", "00+-0", "000+-", "-000+")),
            (False, ("+-000", "-0+00", "00-+0", "000-+", "0+00-")),
        ],
    ),
    (
        enoki_cycle_config(5, True),
        [
            (False, ("+-000", "0+-00", "00+-0", "000+-", "-000+", "-----")),
            (False, ("+-000", "-0+00", "00-+0", "000-+", "0+00-", "-----")),
        ],
    ),
    (
        enoki_cycle_config(6, False),
        [
            (False, ("+-0000", "0+-000", "00+-00", "000+-0", "0000+-", "-0000+")),
            (False, ("+-0000", "-0+000", "00-+00", "000-+0", "0000-+", "0+000-")),
        ],
    ),
    (
        enoki_cycle_config(6, True),
        [
            (False, ("+-0000", "0+-000", "00+-00", "000+-0", "0000+-", "-0000+", "------")),
            (False, ("+-0000", "-0+000", "00-+00", "000-+0", "0000-+", "0+000-", "------")),
        ],
    ),
    (
        singrat_config(6, 5),
        [
            (False, ("0-----", "-+0000", "0-+000", "00-+00", "000-+0", "0000-+")),
        ],
    ),
    (
        _ring(5, -3),
        [
            (True, ("+--00", "0+0--", "-0-+0", "0-+0-", "-00-+")),
            (True, ("+--00", "-00+-", "0+--0", "--00+", "00+--")),
        ],
    ),
    (_ring(6, -3), []),
]


@pytest.mark.parametrize("config, expected", PINNED)
def test_pinned_outputs_at_rank_five_and_six(config, expected):
    assert [_signs(r) for r in enumerate_representations(config)] == expected


# --- guards -------------------------------------------------------------------


def test_cap_default_and_fields():
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_representations(singrat_config(9, 8))
    assert exc.value.b2 == 9
    assert exc.value.cap == 8


def test_cap_parameter():
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_representations(enoki_cycle_config(4), cap=3)
    assert exc.value.cap == 3
    # raising the cap admits the same size
    assert enumerate_representations(enoki_cycle_config(4), cap=4)


def test_no_cycle_rejected():
    config = CurveConfig(1, (Curve(0, SMOOTH_RATIONAL, -2),), ())
    with pytest.raises(DomainError, match="no cycle"):
        enumerate_representations(config)


def test_three_cycles_rejected():
    config = CurveConfig(
        3, tuple(Curve(i, NODAL_RATIONAL, -1) for i in range(3)), ()
    )
    with pytest.raises(DomainError, match="at most two"):
        enumerate_representations(config)


# --- constraint verification ----------------------------------------------


def test_verify_accepts_enumerated_representations():
    for config in (
        singrat_config(4, 3),
        enoki_cycle_config(3),
        enoki_cycle_config(2, with_elliptic=True),
        triangle_config(),
    ):
        for rep in enumerate_representations(config):
            report = verify_representation(config, rep)
            assert report.ok, [(r.name, r.detail) for r in report.results if not r.ok]
            assert [r.name for r in report.results] == [
                "pairwise-products",
                "exceptional-multiplicities",
                "cycle-class-sums",
                "basis-covering",
                "cycle-count-square-law",
            ]


def test_verify_flags_wrong_products():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    swapped = Representation((rep.classes[0], rep.classes[2], rep.classes[1]))
    report = verify_representation(config, swapped)
    assert not result(report, "pairwise-products").ok


def test_verify_flags_non_exceptional_smooth_class():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    # square -2 but with no +1 entry: not an exceptional-curve pattern
    classes = (rep.classes[0], LatticeClass((0, -1, -1)), rep.classes[2])
    report = verify_representation(config, Representation(classes))
    assert not result(report, "exceptional-multiplicities").ok
    assert "exceptional-curve pattern" in result(report, "exceptional-multiplicities").detail


def test_verify_flags_shared_base():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    classes = (rep.classes[0], rep.classes[1], LatticeClass((0, 1, -1)))
    report = verify_representation(config, Representation(classes))
    assert "+1 position" in result(report, "exceptional-multiplicities").detail


def test_verify_flags_cycle_sum_and_law():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    classes = (LatticeClass((0, 0, -1)), rep.classes[1], rep.classes[2])
    report = verify_representation(config, Representation(classes))
    assert not result(report, "cycle-class-sums").ok
    assert not result(report, "cycle-count-square-law").ok


def test_verify_flags_missed_basis_index():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    classes = (LatticeClass((0, -1, 0)), rep.classes[1], LatticeClass((1, -1, 0)))
    report = verify_representation(config, Representation(classes))
    covering = result(report, "basis-covering")
    assert not covering.ok
    assert "missing indices [2]" in covering.detail


def test_verify_covering_waived_on_degenerate_forms():
    config = enoki_cycle_config(3)
    rep = enumerate_representations(config)[0]
    report = verify_representation(config, rep)
    assert result(report, "basis-covering").ok
    assert "not applicable" in result(report, "basis-covering").detail


def three_blowup_config():
    """A nodal (-3)-curve and three disjoint smooth (-3)-curves at rank 4."""
    curves = (Curve(0, NODAL_RATIONAL, -3),) + tuple(
        Curve(i, SMOOTH_RATIONAL, -3) for i in range(1, 4)
    )
    return CurveConfig(4, curves, ())


def test_three_blowup_rule_decides_the_enumeration():
    # without the rule the search returns two orbits, each of which fails
    # re-verification because basis index 0 lies in all three blowup sets
    assert enumerate_representations(three_blowup_config()) == []


def test_verify_flags_index_in_three_blowup_sets():
    classes = ((0, -1, -1, -1), (-1, 1, -1, 0), (-1, 0, 1, -1), (-1, -1, 0, 1))
    rep = Representation(tuple(LatticeClass(v) for v in classes))
    report = verify_representation(three_blowup_config(), rep)
    assert [(r.name, r.detail) for r in report.results if not r.ok] == [
        ("exceptional-multiplicities", "a basis index appears in three blowup sets")
    ]


def shared_pair_config():
    """A (-4)-curve and a (-2)-curve meeting twice, and a disjoint (-4)-curve."""
    curves = tuple(Curve(i, SMOOTH_RATIONAL, s) for i, s in enumerate((-4, -2, -4)))
    return CurveConfig(4, curves, ((0, 1, 2),))


def test_shared_pair_rule_decides_the_enumeration():
    # without the rule the search returns one orbit, which fails
    # re-verification: the two (-4)-curves share blowup indices 2 and 3
    assert enumerate_representations(shared_pair_config()) == []


def test_verify_flags_blowup_sets_sharing_two_indices():
    classes = ((1, -1, -1, -1), (-1, 1, 0, 0), (-1, -1, 1, -1))
    rep = Representation(tuple(LatticeClass(v) for v in classes))
    report = verify_representation(shared_pair_config(), rep)
    assert [(r.name, r.detail) for r in report.results if not r.ok] == [
        ("exceptional-multiplicities", "two blowup sets share more than one index")
    ]


def test_verify_length_mismatch():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    with pytest.raises(DomainError):
        verify_representation(config, Representation(rep.classes[:2]))
    # canonical_form used to return a representation of the two classes given
    with pytest.raises(DomainError, match="representation length"):
        canonical_form(config, Representation(rep.classes[:2]))


@pytest.mark.parametrize("check", [verify_representation, canonical_form])
@pytest.mark.parametrize("resize", [lambda v: v[:-1], lambda v: v + (0,)], ids=["b2-1", "b2+1"])
def test_class_of_the_wrong_rank_is_refused(check, resize):
    # a trailing 0 used to raise IndexError from the cycle sums in
    # verify_representation and be dropped silently by canonical_form
    config = singrat_config(2, 1)
    rep = enumerate_representations(config)[0]
    classes = (rep.classes[0], LatticeClass(resize(rep.classes[1].coeffs)))
    with pytest.raises(DimensionMismatch, match="class of curve 1 has rank (1|3), expected b2 = 2"):
        check(config, Representation(classes))


# --- canonicalization ---------------------------------------------------------


def test_canonical_form_idempotent():
    for config in (singrat_config(4, 3), enoki_cycle_config(3), triangle_config()):
        for rep in enumerate_representations(config):
            once = canonical_form(config, rep)
            assert once == rep
            assert canonical_form(config, once) == once


def test_canonical_form_quotients_basis_renumbering():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]

    def permuted(klass, perm):
        out = [0] * len(klass.coeffs)
        for t, x in enumerate(klass.coeffs):
            out[perm[t]] = x
        return LatticeClass(tuple(out), klass.torsion2)

    perm = (2, 0, 1)
    twisted = Representation(tuple(permuted(c, perm) for c in rep.classes))
    assert twisted != rep
    assert verify_representation(config, twisted).ok
    assert canonical_form(config, twisted) == rep


def test_canonical_form_rejects_overlapping_cycle_supports():
    # two nodal loops on the same basis index: no renumbering separates them
    config = CurveConfig(
        2, (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)), ()
    )
    rep = Representation((LatticeClass((-1, 0)), LatticeClass((-1, 0))))
    with pytest.raises(DomainError, match="overlap"):
        canonical_form(config, rep)


def test_canonical_form_rejects_smooth_class_without_single_base():
    config = singrat_config(3, 2)
    rep = enumerate_representations(config)[0]
    for coeffs in ((0, -1, -1), (1, 1, -1)):
        classes = (rep.classes[0], LatticeClass(coeffs), rep.classes[2])
        with pytest.raises(DomainError, match="one \\+1 entry"):
            canonical_form(config, Representation(classes))


@pytest.fixture
def work(monkeypatch):
    """Count the search's raw solutions and the canonicaliser's calls."""
    counts = {"raw": 0, "canonical": 0}
    search, canonicalize = homology._search, homology._canonicalize

    def counting_search(*args, **kwargs):
        for vectors in search(*args, **kwargs):
            counts["raw"] += 1
            yield vectors

    def counting_canonicalize(*args):
        counts["canonical"] += 1
        return canonicalize(*args)

    monkeypatch.setattr(homology, "_search", counting_search)
    monkeypatch.setattr(homology, "_canonicalize", counting_canonicalize)
    return counts


@pytest.mark.parametrize(
    "config, orbits",
    # walking every relabelling gave 5! x 2 = 240 raw solutions and as many
    # canonicalisations on the first, 6! = 720 on the second
    [(enoki_cycle_config(5, True), 2), (singrat_config(6, 5), 1)],
)
def test_enumerate_canonicalises_once_per_orbit(work, config, orbits):
    assert len(enumerate_representations(config)) == orbits
    assert work == {"raw": orbits, "canonical": orbits}


def test_orbit_dedupe_absorbs_every_relabelling(work, monkeypatch):
    # fed every basis relabelling of each solution, the enumerator still
    # canonicalises once per orbit and reports the same forms
    config = enoki_cycle_config(5, True)
    expected = enumerate_representations(config)
    search = homology._search

    def every_labelling(*args, **kwargs):
        for torsion, vectors in search(*args, **kwargs):
            for perm in itertools.permutations(range(config.b2)):
                yield torsion, tuple(tuple(v[t] for t in perm) for v in vectors)

    monkeypatch.setattr(homology, "_search", every_labelling)
    work["canonical"] = 0
    assert enumerate_representations(config) == expected
    assert work["canonical"] == len(expected) == 2


@st.composite
def small_cycle_configs(draw, max_b2=4):
    """A cycle (nodal loop, double curve or ring) with trees and maybe an
    elliptic curve, rank at most max_b2."""
    b2 = draw(st.integers(1, max_b2))
    length = draw(st.integers(1, b2))
    smooth = st.sampled_from((2, 2, 3, 4))  # (-2)-curves are the likeliest to represent
    if length == 1:
        curves = [Curve(0, NODAL_RATIONAL, -draw(st.integers(0, 3)))]
        meets = []
    else:
        curves = [Curve(i, SMOOTH_RATIONAL, -draw(smooth)) for i in range(length)]
        meets = [(0, 1, 2)] if length == 2 else [(i, (i + 1) % length, 1) for i in range(length)]
    for i in range(length, draw(st.integers(length, b2))):
        curves.append(Curve(i, SMOOTH_RATIONAL, -draw(smooth)))
        meets.append((draw(st.integers(0, i - 1)), i, 1))
    if draw(st.booleans()):
        curves.append(Curve(len(curves), ELLIPTIC, -draw(st.integers(1, b2))))
    return CurveConfig(b2, tuple(curves), tuple(meets))


def _fingerprints(reps):
    return [(r.odd_ih,) + tuple((c.coeffs, c.torsion2) for c in r.classes) for r in reps]


# representable members, listed in a drawn order: the symmetry breaking
# depends on which basis indices the search order touches first
_ORACLE_FAMILIES = [singrat_config(n, p) for n in range(1, 5) for p in range(n)]
_ORACLE_FAMILIES += [enoki_cycle_config(n, e) for n in range(1, 4) for e in (False, True)]
_ORACLE_FAMILIES += [triangle_config()]


@settings(max_examples=100)
@given(
    st.one_of(
        small_cycle_configs(),
        st.tuples(
            st.sampled_from(_ORACLE_FAMILIES),
            st.randoms(use_true_random=False),
            st.integers(0, 50),
        ).map(lambda args: _relabelled(*args)),
    )
)
def test_enumeration_matches_unpruned_oracle(config):
    # the oracle walks the full product of candidate classes, with no pruning
    # and no symmetry breaking, and keeps one canonical form per orbit; the
    # budget on that product admits about nine random draws in ten
    assume(math.prod(len(_naive_candidates(config.b2, c)) for c in config.curves) <= 2000)
    assert sorted(_fingerprints(enumerate_representations(config))) == sorted(
        _fingerprints(brute_force_representations(config))
    )


def test_selftest_fixtures_stay_within_the_unpruned_oracle_rank():
    # the selftest runs every fixture through the unpruned product search and
    # reports that it covers "every rank <= 4 fixture", with no rank filter
    assert all(config.b2 <= 4 for _, config in representation_fixtures())


# --- canonicalisation by refinement against the permutation oracle ------------


# the oracle: the lexicographic minimum over every basis permutation, which
# is the definition the refinement in homology._canonicalize must reproduce
def _brute_force_canonicalize(config, cycles, vectors, torsion):
    """Rotate cycle supports into right-aligned blocks, then take the
    lexicographic minimum over the remaining basis permutations."""
    n = config.b2
    pos = {c.id: i for i, c in enumerate(config.curves)}
    ordered = sorted(cycles, key=lambda rec: (-rec.length, min(rec.member_ids)))
    raw_supports = []
    for rec in ordered:
        total = [0] * n
        for cid in rec.member_ids:
            for t, x in enumerate(vectors[pos[cid]]):
                total[t] += x
        raw_supports.append(frozenset(t for t, x in enumerate(total) if x == -1))
    blocks = []
    hi = n
    for support in raw_supports:
        blocks.append(frozenset(range(hi - len(support), hi)))
        hi -= len(support)

    best_key = None
    best_vectors = None
    for perm in itertools.permutations(range(n)):
        if any(
            frozenset(perm[t] for t in support) != block
            for support, block in zip(raw_supports, blocks)
        ):
            continue
        moved = []
        for vec in vectors:
            out = [0] * n
            for t, x in enumerate(vec):
                out[perm[t]] = x
            moved.append(tuple(out))
        key = (torsion, tuple(_class_key(c, v) for c, v in zip(config.curves, moved)))
        if best_key is None or key < best_key:
            best_key = key
            best_vectors = moved
    twisted_singletons = (
        {rec.member_ids[0] for rec in cycles if len(rec.member_ids) == 1}
        if torsion
        else set()
    )
    classes = tuple(
        LatticeClass(v, torsion2=c.id in twisted_singletons)
        for c, v in zip(config.curves, best_vectors)
    )
    return best_key, Representation(classes, odd_ih=torsion)


def _relabel_basis(vectors, perm):
    return tuple(tuple(vec[perm[t]] for t in range(len(vec))) for vec in vectors)


def _assert_matches_oracle(config, rng):
    cycles = find_cycles(config)
    reps = enumerate_representations(config)
    for rep in reps:
        perm = list(range(config.b2))
        rng.shuffle(perm)
        vectors = _relabel_basis([c.coeffs for c in rep.classes], perm)
        args = (config, cycles, vectors, rep.odd_ih)
        assert homology._canonicalize(*args) == _brute_force_canonicalize(*args)
    return reps


# representable members up to rank 6, the twisted (-3) rings among them;
# random cycles with trees rarely represent beyond rank 4
_RANK_SIX_FAMILIES = [singrat_config(n, p) for n in range(2, 7) for p in range(n)]
_RANK_SIX_FAMILIES += [enoki_cycle_config(n, e) for n in range(2, 7) for e in (False, True)]
_RANK_SIX_FAMILIES += [_ring(r, s) for r in range(3, 7) for s in (-2, -3)]


@settings(max_examples=200)
@given(
    st.one_of(
        small_cycle_configs(max_b2=6),
        st.tuples(
            st.sampled_from(_RANK_SIX_FAMILIES),
            st.randoms(use_true_random=False),
            st.integers(0, 50),
        ).map(lambda args: _relabelled(*args)),
    ),
    st.randoms(use_true_random=False),
)
def test_refinement_matches_permutation_oracle(config, rng):
    # every orbit under a random basis renumbering: same key, same form
    _assert_matches_oracle(config, rng)


@pytest.mark.parametrize(
    "config",
    [enoki_cycle_config(7, False), enoki_cycle_config(7, True), singrat_config(7, 6), _ring(7, -3)],
)
def test_refinement_matches_permutation_oracle_at_rank_seven(config):
    assert _assert_matches_oracle(config, random.Random(7))


@pytest.mark.parametrize(
    "config",
    [enoki_cycle_config(n, e) for n in (8, 9, 10) for e in (False, True)]
    + [singrat_config(n, n - 1) for n in (8, 9, 10)]
    + [_ring(9, -3)],
)
def test_canonical_form_idempotent_and_relabelling_invariant_beyond_the_cap(config):
    rng = random.Random(config.b2)
    reps = enumerate_representations(config, cap=10)
    assert reps
    for rep in reps:
        assert canonical_form(config, rep) == rep
        for _ in range(3):
            perm = list(range(config.b2))
            rng.shuffle(perm)
            vectors = _relabel_basis([c.coeffs for c in rep.classes], perm)
            moved = Representation(
                tuple(LatticeClass(v, c.torsion2) for v, c in zip(vectors, rep.classes)),
                rep.odd_ih,
            )
            assert canonical_form(config, moved) == rep


def test_enumerate_tries_no_basis_permutations(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("canonical forms are refined, not searched")

    monkeypatch.setattr(homology.itertools, "permutations", forbidden)
    config, expected = PINNED[3]
    assert config == enoki_cycle_config(6, True)
    assert [_signs(r) for r in enumerate_representations(config)] == expected


# --- the bitmask search against the tuple search it replaced ------------------


# the oracle: the tuple-vector search as it stood before the bitmask rewrite,
# copied verbatim (names prefixed), one traversal per torsion flag
def _reference_candidate_vectors(n: int, curve) -> list[tuple[int, ...]]:
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


_REFERENCE_ENTRY_RANK = {1: 0, -1: 1, 0: 2}


def _reference_search(config, cycles, order, covering, torsion):
    """Backtracking generator yielding complete vector assignments, at least
    one per orbit of the basis-renumbering symmetry."""
    n = config.b2
    curves = config.curves
    ids = [c.id for c in curves]
    candidates = {p: _reference_candidate_vectors(n, curves[p]) for p in order}
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
            r = _REFERENCE_ENTRY_RANK[x]
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
            if _reference_sums_admissible(config, cycles, assigned, covering, torsion, n):
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


def _reference_sums_admissible(config, cycles, assigned, covering, torsion, n) -> bool:
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


def _orbit_set(pairs):
    return {(torsion, tuple(sorted(zip(*vectors)))) for torsion, vectors in pairs}


def _assert_same_orbits(config):
    """The search's orbits, keyed by column multiset, equal the oracle's."""
    cycles = find_cycles(config)
    order = homology._search_order(config, cycles)
    covering = bool(config.curves) and config.elimination[0] == DEFINITE
    found = [(False, v) for v in _reference_search(config, cycles, order, covering, False)]
    if not found and len(cycles) == 1:
        found = [(True, v) for v in _reference_search(config, cycles, order, covering, True)]
    orbits = _orbit_set(homology._search(config, cycles))
    assert orbits == _orbit_set(found)
    return orbits


_SEARCH_FAMILIES = [singrat_config(n, p) for n in range(1, 7) for p in range(n)]
_SEARCH_FAMILIES += [enoki_cycle_config(n, e) for n in range(1, 7) for e in (False, True)]
_SEARCH_FAMILIES += [_ring(r, self_int) for r in range(3, 9) for self_int in (-2, -3, -4)]


@settings(max_examples=200)
@given(
    st.one_of(
        small_cycle_configs(max_b2=6),
        st.tuples(
            st.sampled_from(_SEARCH_FAMILIES),
            st.randoms(use_true_random=False),
            st.integers(0, 50),
        ).map(lambda args: _relabelled(*args)),
    )
)
def test_search_matches_reference_search(config):
    _assert_same_orbits(config)


def test_search_matches_reference_search_on_rings():
    torsions = set()
    for r in range(3, 9):
        for self_int in (-2, -3, -4):
            torsions |= {torsion for torsion, _ in _assert_same_orbits(_ring(r, self_int))}
    assert torsions == {False, True}  # both the plain and the twisted leaf test


def test_root_bound_refuses_before_any_candidate(monkeypatch):
    # twelve (-4)-curves need 36 blowup slots; twelve indices hold at most 24
    def forbidden(*args):
        raise AssertionError("candidate classes built")

    monkeypatch.setattr(homology, "_candidate_masks", forbidden)
    assert enumerate_representations(_ring(12, -4), cap=12) == []
    with pytest.raises(AssertionError, match="candidate classes built"):
        enumerate_representations(_ring(6, -3))


def _refused_by_the_cycle_law():
    """Configurations that pass the counting bound but fail the cycle law."""
    # a 3-ring of (-2, -2, -3) at b2 = 3: cycle square -1, not 0 or -3
    curves = tuple(Curve(i, SMOOTH_RATIONAL, s) for i, s in enumerate((-2, -2, -3)))
    ring = CurveConfig(3, curves, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    # the Enoki 4-cycle with its elliptic 0-cycle at -3 instead of -4
    enoki = enoki_cycle_config(4, True)
    elliptic = enoki.curves[:-1] + (Curve(4, ELLIPTIC, -3),)
    return [ring, CurveConfig(4, elliptic, enoki.intersections)]


def test_cycle_law_refuses_before_any_candidate_or_elimination(monkeypatch):
    def forbidden(what):
        def refuse(*args):
            raise AssertionError(what)

        return refuse

    # the plain law holds on the Enoki 5-cycle, the twisted one on the 5-ring;
    # their eliminations run first, so only the candidates are left to reach
    searched = [enoki_cycle_config(5, True), _ring(5, -3)]
    assert [config.elimination[0] for config in searched] == ["semidefinite", "definite"]
    monkeypatch.setattr(homology, "_candidate_masks", forbidden("candidate classes built"))
    monkeypatch.setattr(curves_module, "_symmetric_elimination", forbidden("elimination run"))
    for config in _refused_by_the_cycle_law():
        assert enumerate_representations(config) == []
    for config in searched:
        with pytest.raises(AssertionError, match="candidate classes built"):
            enumerate_representations(config)


def test_search_matches_reference_search_on_a_fixed_corpus():
    rng = random.Random(17)
    configs = [_cycle_with_trees(rng) for _ in range(300)] + _SEARCH_FAMILIES
    configs += [_relabelled(c, rng, rng.randint(1, 50)) for c in _refused_by_the_cycle_law()]
    for config in configs:
        _assert_same_orbits(config)


def _add_cycle(curves, meets, length, excess, rng):
    """Append a cycle of ``length`` curves with #C - C^2 = excess: a nodal
    curve, two curves meeting twice, or a ring."""
    start = len(curves)
    if length == 1:
        curves.append(Curve(start, NODAL_RATIONAL, 1 - excess))
        return
    sizes = [2] * length  # each curve's -D^2, adding up to excess + length
    for _ in range(excess - length):
        sizes[rng.randrange(length)] += 1
    curves += [Curve(start + k, SMOOTH_RATIONAL, -s) for k, s in enumerate(sizes)]
    if length == 2:
        meets.append((start, start + 1, 2))
    else:
        meets += [(start + k, start + (k + 1) % length, 1) for k in range(length)]


def _law_meeting_config(rng):
    """A configuration the cycle law lets through the root, b2 <= 8: one
    twisted cycle of b2 curves, or one or two plain cycles with trees and
    perhaps an elliptic curve at -b2."""
    b2 = rng.randint(1, 8)
    curves, meets = [], []
    if rng.random() < 0.25:
        _add_cycle(curves, meets, b2, 2 * b2, rng)
        return CurveConfig(b2, tuple(curves), tuple(meets))
    _add_cycle(curves, meets, rng.randint(1, b2), b2, rng)
    second = len(curves) < b2 and rng.random() < 0.3
    if second:
        _add_cycle(curves, meets, rng.randint(1, b2 - len(curves)), b2, rng)
    for i in range(len(curves), rng.randint(len(curves), b2)):
        curves.append(Curve(i, SMOOTH_RATIONAL, -rng.choice((2, 2, 3, 4))))
        meets.append((rng.randrange(i), i, 1))
    if not second and rng.random() < 0.3:
        curves.append(Curve(len(curves), ELLIPTIC, -b2))
    return CurveConfig(b2, tuple(curves), tuple(meets))


def test_search_matches_reference_search_on_law_meeting_configurations():
    # the other corpora mostly fail the cycle law at the root, so few of them
    # reach a leaf; every one of these gets past the root law
    rng = random.Random(18)
    reached = set()
    for _ in range(400):
        config = _relabelled(_law_meeting_config(rng), rng, rng.randint(0, 50))
        cycles = find_cycles(config)
        excess = [rec.length - curves_module._cycle_square(config, rec) for rec in cycles]
        assert excess in ([config.b2] * len(cycles), [2 * config.b2])
        orbits = _assert_same_orbits(config)
        reps = enumerate_representations(config)
        assert len(reps) == len(orbits)
        for rep in reps:
            assert verify_representation(config, rep).ok
        reached |= {(torsion, len(cycles)) for torsion, _ in orbits}
    assert reached == {(False, 1), (False, 2), (True, 1)}


@pytest.mark.parametrize("config, count", [(_ring(6, -3), 0), (_ring(5, -3), 2)])
def test_single_cycle_search_walks_the_tree_once(monkeypatch, config, count):
    # an empty plain search used to be followed by a second, twisted traversal
    calls = []
    search = homology._search

    def counting_search(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(homology, "_search", counting_search)
    assert len(find_cycles(config)) == 1
    assert len(enumerate_representations(config)) == count
    assert len(calls) == 1


# --- relabelling invariance -----------------------------------------------------


def _cycle_with_trees(rng):
    b2 = rng.randint(1, 5)
    length = rng.randint(1, b2)
    if length == 1:
        curves = [Curve(0, NODAL_RATIONAL, -rng.randint(0, 3))]
        meets = []
    else:
        curves = [Curve(i, SMOOTH_RATIONAL, -rng.randint(2, 4)) for i in range(length)]
        meets = [(0, 1, 2)] if length == 2 else [(i, (i + 1) % length, 1) for i in range(length)]
    # each tree curve meets exactly one earlier curve, so every tree hangs off one root
    for i in range(length, b2 - (rng.random() < 0.2)):
        curves.append(Curve(i, SMOOTH_RATIONAL, -rng.randint(2, 4)))
        meets.append((rng.randrange(i), i, 1))
    if rng.random() < 0.2:
        curves.append(Curve(len(curves), ELLIPTIC, -rng.randint(1, b2)))
    return CurveConfig(b2, tuple(curves), tuple(meets))


def _relabelled(config, rng, shift):
    order = list(config.curves)
    rng.shuffle(order)
    curves = tuple(Curve(c.id + shift, c.kind, c.self_int) for c in order)
    meets = [(i + shift, j + shift, m) for i, j, m in config.intersections]
    rng.shuffle(meets)
    return CurveConfig(config.b2, curves, tuple(meets))


def _outcome(compute):
    try:
        return compute()
    except (DomainError, StructureError) as exc:
        return type(exc).__name__


def _invariants(config, shift):
    sol = solve_nac(config, 1)
    coeffs = (
        None
        if isinstance(sol, NoSolution)
        else {c.id - shift: k for c, k in zip(config.curves, sol.coeffs)}
    )
    return (
        config.elimination[0],
        _outcome(lambda: sigma_classify(config).verdict),
        index_of(config),
        coeffs,
        _outcome(lambda: len(enumerate_representations(config))),
    )


def test_verdicts_invariant_under_relabelling():
    rng = random.Random(2004)
    configs = [singrat_config(n, p) for n in range(2, 6) for p in range(n)]
    configs += [enoki_cycle_config(n, e) for n in range(1, 7) for e in (False, True)]
    configs += [_ring(5, -3), _ring(6, -3)]
    configs += [_cycle_with_trees(rng) for _ in range(40)]
    for config in configs:
        shift = rng.randint(1, 50)
        moved = _relabelled(config, rng, shift)
        assert _invariants(moved, shift) == _invariants(config, 0), config


# --- the one-sort canonicaliser and the re-verifier against their referees ----


# the referee: homology._canonicalize as it read with ordered partition
# refinement by Counter-based splits, two per smooth curve
def _refinement_canonicalize(config, cycles, vectors, torsion):
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


def _key_form_or_error(compute):
    try:
        return compute()
    except DomainError as exc:
        return type(exc).__name__, str(exc)


def _assert_sort_matches_refinement(config, rng):
    """Every raw solution of the search, under a random basis renumbering,
    gets the same (key, form) from the sort and from the refinement; returns
    the number of solutions compared."""
    cycles = find_cycles(config)
    found = list(homology._search(config, cycles))
    for torsion, vectors in found:
        perm = list(range(config.b2))
        rng.shuffle(perm)
        for moved in (vectors, _relabel_basis(vectors, perm)):
            args = (config, cycles, moved, torsion)
            assert homology._canonicalize(*args) == _refinement_canonicalize(*args)
    return len(found)


_REFEREE_FAMILIES = [config for config, _ in PINNED] + _RANK_SIX_FAMILIES
_REFEREE_FAMILIES += [enoki_cycle_config(n, e) for n in (7, 8) for e in (False, True)]
_REFEREE_FAMILIES += [singrat_config(n, n - 1) for n in (7, 8)] + [_ring(7, -3), _ring(8, -3)]


def _referee_corpus(rng, copies=2):
    """The families above, each with relabelled copies, and law-meeting
    configurations of rank at most 8, each with a relabelled copy."""
    configs = []
    for config in _REFEREE_FAMILIES:
        configs += [config] + [_relabelled(config, rng, rng.randint(1, 50)) for _ in range(copies)]
    for _ in range(60):
        config = _law_meeting_config(rng)
        configs += [config, _relabelled(config, rng, rng.randint(1, 50))]
    return configs


def test_sort_matches_refinement_on_the_pinned_corpora():
    rng = random.Random(20)
    compared = sum(_assert_sort_matches_refinement(c, rng) for c in _referee_corpus(rng))
    assert compared > 250


@settings(max_examples=150)
@given(
    st.one_of(
        small_cycle_configs(max_b2=8),
        st.randoms(use_true_random=False).map(_law_meeting_config),
    ),
    st.randoms(use_true_random=False),
    st.integers(0, 50),
)
def test_sort_matches_refinement_on_random_cycles_with_trees(config, rng, shift):
    for candidate in (config, _relabelled(config, rng, shift)):
        _assert_sort_matches_refinement(candidate, rng)


def _stray_representations(config, rep):
    """rep with one coefficient set to -2, +1 or 2, for each class and index;
    the +1 lands on nodal and elliptic classes too."""
    for i, klass in enumerate(rep.classes):
        for t in range(config.b2):
            for value in (-2, 1, 2):
                if klass.coeffs[t] != value:
                    coeffs = list(klass.coeffs)
                    coeffs[t] = value
                    classes = list(rep.classes)
                    classes[i] = LatticeClass(tuple(coeffs), klass.torsion2)
                    yield config.curves[i].kind, Representation(tuple(classes), rep.odd_ih)


def test_sort_matches_refinement_on_stray_entries_through_canonical_form():
    outcomes = set()
    for config in (
        enoki_cycle_config(3, True),
        enoki_cycle_config(4, False),
        singrat_config(4, 3),
        singrat_config(3, 0),
        _ring(4, -3),
        triangle_config(),
    ):
        cycles = find_cycles(config)
        for rep in enumerate_representations(config):
            for kind, stray in _stray_representations(config, rep):
                got = _key_form_or_error(lambda: canonical_form(config, stray))
                want = _key_form_or_error(
                    lambda: _refinement_canonicalize(
                        config, cycles, [c.coeffs for c in stray.classes], stray.odd_ih
                    )[1]
                )
                assert got == want
                if isinstance(got, Representation):
                    outcomes.add(kind)
                else:
                    outcomes.add("overlap" if "overlap" in got[1] else "no single +1")
    # each kind of curve takes a stray entry that still has a form, and both
    # refusals occur
    assert outcomes == {SMOOTH_RATIONAL, NODAL_RATIONAL, ELLIPTIC, "overlap", "no single +1"}


# the referee: verify_representation as it read with generator products,
# config.mult and a pass over every triple of blowup sets
def _reference_verify(config, rep):
    curves_module.require_valid(config)
    n = config.b2
    vectors = homology._vectors(config, rep)
    results = []
    ids = [c.id for c in config.curves]

    mismatches = []
    for i in range(len(ids)):
        if -sum(x * x for x in vectors[i]) != config.curve(ids[i]).self_int:
            mismatches.append(f"square of {ids[i]}")
        for j in range(i + 1, len(ids)):
            got = -sum(x * y for x, y in zip(vectors[i], vectors[j]))
            if got != config.mult(ids[i], ids[j]):
                mismatches.append(f"product {ids[i]}.{ids[j]} = {got}")
    results.append(_result("pairwise-products", mismatches, "all squares and products match"))

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
    results.append(_result("exceptional-multiplicities", sorted(set(problems))))

    cycles = find_cycles(config)
    sum_issues = []
    law_issues = []
    supports = []
    for rec in cycles:
        total = [0] * n
        for cid in rec.member_ids:
            for t, x in enumerate(vectors[config._position[cid]]):
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
    results.append(_result("cycle-class-sums", sum_issues))

    if cycles and config.curves and config.elimination[0] == DEFINITE:
        touched = {t for vec in vectors for t, x in enumerate(vec) if x}
        missing = sorted(set(range(n)) - touched)
        issues = [f"missing indices {missing}"] if missing else []
        results.append(_result("basis-covering", issues, "all basis indices are met"))
    else:
        fine = "not applicable: the form is degenerate or there is no cycle"
        results.append(_result("basis-covering", [], fine))

    results.append(_result("cycle-count-square-law", law_issues))
    return homology.VerificationReport(tuple(results))


def _result(name, issues, fine="ok"):
    return homology.ConstraintResult(name, not issues, "; ".join(issues) if issues else fine)


def _perturbed(rep, rng):
    """rep with one coefficient of one class moved by -2, -1, +1 or +2."""
    i = rng.randrange(len(rep.classes))
    klass = rep.classes[i]
    coeffs = list(klass.coeffs)
    coeffs[rng.randrange(len(coeffs))] += rng.choice((-2, -1, 1, 2))
    classes = list(rep.classes)
    classes[i] = LatticeClass(tuple(coeffs), klass.torsion2)
    return Representation(tuple(classes), rep.odd_ih)


def test_verification_matches_the_reference_verifier():
    rng = random.Random(21)
    failed = set()
    # the hand-made breaches of the three-set and the shared-pair rules
    three = ((0, -1, -1, -1), (-1, 1, -1, 0), (-1, 0, 1, -1), (-1, -1, 0, 1))
    pair = ((1, -1, -1, -1), (-1, 1, 0, 0), (-1, -1, 1, -1))
    pairs = [
        (config, Representation(tuple(map(LatticeClass, classes))))
        for config, classes in ((three_blowup_config(), three), (shared_pair_config(), pair))
    ]
    enumerated = 0
    for config in _referee_corpus(rng, copies=1):
        for rep in enumerate_representations(config):
            enumerated += 1
            pairs += [(config, rep)] + [(config, _perturbed(rep, rng)) for _ in range(3)]
    for config, rep in pairs:
        report = verify_representation(config, rep)
        assert report == _reference_verify(config, rep)
        failed |= {r.name for r in report.results if not r.ok}
    assert enumerated > 150
    assert failed == {
        "pairwise-products",
        "exceptional-multiplicities",
        "cycle-class-sums",
        "basis-covering",
        "cycle-count-square-law",
    }
