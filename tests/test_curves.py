from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viilattice import (
    DEFINITE,
    ELLIPTIC,
    ENOKI_CLASS,
    INOUE_HIRZEBRUCH,
    INTERMEDIATE,
    NEITHER,
    NODAL_RATIONAL,
    OUT_OF_RANGE,
    SEMIDEFINITE,
    SMOOTH_RATIONAL,
    Curve,
    CurveConfig,
    DomainError,
    InvalidConfigError,
    StructureError,
    adjunction_degree,
    enoki_cycle_config,
    find_cycles,
    intersection_matrix,
    is_negative_definite,
    require_valid,
    sigma_classify,
    singrat_config,
    validate,
)
from viilattice import curves
from viilattice.curves import _symmetric_elimination, _upper_rows
from viilattice.selftest import definiteness_oracle


def ring(selfs, b2=None, kind=SMOOTH_RATIONAL):
    r = len(selfs)
    curves = tuple(Curve(i, kind, s) for i, s in enumerate(selfs))
    pairs = tuple((i, (i + 1) % r, 1) for i in range(r))
    return CurveConfig(b2 or r, curves, pairs)


# --- construction and validation -------------------------------------------


def test_duplicate_ids_rejected():
    with pytest.raises(InvalidConfigError):
        CurveConfig(2, (Curve(0, SMOOTH_RATIONAL, -2), Curve(0, SMOOTH_RATIONAL, -2)), ())


def test_self_pairing_rejected():
    with pytest.raises(InvalidConfigError):
        CurveConfig(1, (Curve(0, NODAL_RATIONAL, -1),), ((0, 0, 1),))


def test_unknown_pair_ids_rejected():
    with pytest.raises(InvalidConfigError):
        CurveConfig(1, (Curve(0, NODAL_RATIONAL, -1),), ((0, 3, 1),))


def test_negative_multiplicity_rejected():
    with pytest.raises(InvalidConfigError):
        CurveConfig(
            2,
            (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)),
            ((0, 1, -1),),
        )


@pytest.mark.parametrize(
    "b2, fields, pairs",
    [
        (2, ((0, -2), (1, -2)), ((0, 1, 1.7),)),
        (2, ((0, -2), (1, -2)), ((0.0, 1, 1),)),
        (2, ((0, -2), (1, -2)), ((0, 1, True),)),
        (2, ((0, -2), (1, -2)), ((0, 1),)),
        (1, ((0, -2.5),), ()),
        (1, ((0, True),), ()),
        (2, ((0, -2), (1.0, -2)), ()),
        (2, ((0, -2), (False, -2)), ()),
        (2, ((0, -2), ("1", -2)), ()),
        (2.0, ((0, -2), (1, -2)), ()),
        (True, ((0, -2),), ()),
    ],
    ids=[
        "float-multiplicity",
        "float-pair-id",
        "bool-multiplicity",
        "short-pair",
        "float-self-int",
        "bool-self-int",
        "float-id",
        "bool-id",
        "str-id",
        "float-b2",
        "bool-b2",
    ],
)
def test_non_integer_fields_rejected(b2, fields, pairs):
    # (0, 1, 1.7) would otherwise be read as multiplicity 1, and a
    # self-intersection of -2.5 would pass validation into the solver
    curves_ = tuple(Curve(cid, SMOOTH_RATIONAL, s) for cid, s in fields)
    with pytest.raises(InvalidConfigError, match="integer"):
        CurveConfig(b2, curves_, pairs)


@pytest.mark.parametrize("entry", [5, None, Fraction(1, 2)], ids=["int", "none", "fraction"])
def test_intersection_entry_that_is_not_a_sequence_rejected(entry):
    # len(entry) used to escape as a TypeError
    with pytest.raises(InvalidConfigError) as raised:
        CurveConfig(1, (Curve(0, SMOOTH_RATIONAL, -2),), (entry,))
    assert str(raised.value) == f"intersection entry {entry!r} needs three integers"


@pytest.mark.parametrize("member", [5, None, (0, SMOOTH_RATIONAL, -2)], ids=["int", "none", "tuple"])
def test_curve_that_is_not_a_curve_rejected(member):
    # reading member.id used to escape as an AttributeError
    with pytest.raises(InvalidConfigError) as raised:
        CurveConfig(2, (Curve(0, SMOOTH_RATIONAL, -2), member))
    assert str(raised.value) == f"curve entry {member!r} is not a Curve"


def test_duplicate_pair_rejected():
    with pytest.raises(InvalidConfigError):
        CurveConfig(
            2,
            (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)),
            ((0, 1, 1), (1, 0, 1)),
        )


def test_zero_multiplicity_dropped():
    config = CurveConfig(
        2,
        (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)),
        ((0, 1, 0),),
    )
    assert config.intersections == ()
    assert config.mult(0, 1) == 0


def test_validate_kind_bounds():
    report = validate(
        CurveConfig(
            3,
            (
                Curve(0, SMOOTH_RATIONAL, -1),
                Curve(1, NODAL_RATIONAL, 1),
                Curve(2, ELLIPTIC, 2),
            ),
            (),
        )
    )
    assert not report.valid
    assert len(report.issues) == 3
    assert {i.curve_id for i in report.issues} == {0, 1, 2}


def test_validate_counting_bounds():
    report = validate(
        CurveConfig(
            1,
            (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)),
            ((0, 1, 1),),
        )
    )
    assert not report.valid
    assert any("b2" in i.message for i in report.issues)

    two_elliptic = CurveConfig(
        2, (Curve(0, ELLIPTIC, -1), Curve(1, ELLIPTIC, -1)), ()
    )
    assert not validate(two_elliptic).valid
    with pytest.raises(InvalidConfigError):
        require_valid(two_elliptic)


def test_validation_is_stored_on_the_configuration():
    config = CurveConfig(1, (Curve(0, SMOOTH_RATIONAL, -1), Curve(1, ELLIPTIC, 1)))
    report = validate(config)
    assert validate(config) is report
    assert [i.curve_id for i in report.issues] == [0, 1]
    with pytest.raises(InvalidConfigError) as raised:
        require_valid(config)
    assert raised.value.issues is report.issues


def _referee_validate(config: CurveConfig) -> curves.ValidationReport:
    """The per-kind validation pass as it read before the rule table."""
    issues: list[curves.ValidationIssue] = []
    if config.b2 < 1:
        issues.append(curves.ValidationIssue(f"b2 must be at least 1, got {config.b2}"))
    rational = 0
    elliptic = 0
    for c in config.curves:
        if c.kind not in curves.CURVE_KINDS:
            issues.append(curves.ValidationIssue(f"unknown curve kind {c.kind!r}", c.id))
            continue
        if c.kind == SMOOTH_RATIONAL:
            rational += 1
            if c.self_int > -2:
                issues.append(
                    curves.ValidationIssue(
                        f"smooth rational curve needs self-intersection <= -2, got {c.self_int}",
                        c.id,
                    )
                )
        elif c.kind == NODAL_RATIONAL:
            rational += 1
            if c.self_int > 0:
                issues.append(
                    curves.ValidationIssue(
                        f"nodal rational curve needs self-intersection <= 0, got {c.self_int}",
                        c.id,
                    )
                )
        else:
            elliptic += 1
            if c.self_int > 0:
                issues.append(
                    curves.ValidationIssue(
                        f"elliptic curve needs self-intersection <= 0, got {c.self_int}",
                        c.id,
                    )
                )
    if rational > config.b2:
        issues.append(
            curves.ValidationIssue(
                f"{rational} rational curves exceed b2 = {config.b2}; "
                "these surfaces carry at most b2 rational curves"
            )
        )
    if elliptic > 1:
        issues.append(curves.ValidationIssue(f"at most one elliptic curve allowed, got {elliptic}"))
    return curves.ValidationReport(tuple(issues))


@given(
    st.integers(-1, 6),
    st.lists(
        st.tuples(
            st.sampled_from(curves.CURVE_KINDS) | st.text(max_size=12),
            st.integers(-4, 3),
        ),
        max_size=9,
    ),
)
def test_validation_matches_the_per_kind_referee(b2, specs):
    # unknown kinds and b2 <= 0 are reachable only through the library
    config = CurveConfig(b2, tuple(Curve(i, kind, s) for i, (kind, s) in enumerate(specs)))
    assert validate(config) == _referee_validate(config)


def test_neighbors_and_mult():
    config = singrat_config(4, 3)
    assert config.mult(0, 1) == 1
    assert config.mult(1, 0) == 1
    assert config.mult(0, 3) == 0
    assert config.neighbors(1) == [(0, 1), (2, 1)]
    # listing order rather than pair order, a fresh list, and [] for an unknown id
    listed = CurveConfig(
        3,
        tuple(Curve(i, SMOOTH_RATIONAL, -2) for i in (2, 0, 1)),
        ((0, 1, 1), (1, 2, 1)),
    )
    listed.neighbors(1).clear()
    assert listed.neighbors(1) == [(2, 1), (0, 1)]
    assert listed.neighbors(7) == []


# --- intersection matrix and definiteness -----------------------------------


def test_matrix_shape():
    m = intersection_matrix(singrat_config(3, 2))
    assert m == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]


def _matrix_by_pairs(config):
    """One mult() lookup per pair of listed curves."""
    return [
        [c.self_int if a == b else config.mult(c.id, d.id) for b, d in enumerate(config.curves)]
        for a, c in enumerate(config.curves)
    ]


@st.composite
def meeting_configs(draw):
    """Valid curve lists with arbitrary meetings, ids and listing order."""
    size = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(-20, 60), min_size=size, max_size=size, unique=True))
    kinds = [draw(st.sampled_from((SMOOTH_RATIONAL, NODAL_RATIONAL))) for _ in ids]
    if draw(st.booleans()):
        kinds[0] = ELLIPTIC
    curves = [
        Curve(cid, kind, -draw(st.integers(2 if kind == SMOOTH_RATIONAL else 0, 6)))
        for cid, kind in zip(ids, kinds)
    ]
    pairs = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] < p[1]),
            st.integers(0, 3),
        )
    )
    meets = [(j, i, m) if draw(st.booleans()) else (i, j, m) for (i, j), m in pairs.items()]
    return CurveConfig(size, tuple(curves), tuple(meets))


@given(meeting_configs(), st.randoms(use_true_random=False))
def test_matrix_matches_pairwise_construction(config, rng):
    matrix = intersection_matrix(config)
    assert matrix == _matrix_by_pairs(config)
    # a relabelled copy (listing order permuted, ids shifted) gives P M P^T
    order = list(range(len(config.curves)))
    rng.shuffle(order)
    listed = [config.curves[a] for a in order]
    moved = CurveConfig(
        config.b2,
        tuple(Curve(c.id + 100, c.kind, c.self_int) for c in listed),
        tuple((i + 100, j + 100, m) for i, j, m in reversed(config.intersections)),
    )
    assert intersection_matrix(moved) == _matrix_by_pairs(moved)
    assert intersection_matrix(moved) == [[matrix[a][b] for b in order] for a in order]
    # a fresh list per call
    matrix[0][0] += 1
    assert intersection_matrix(config) == _matrix_by_pairs(config)


def test_matrix_requires_valid_config():
    with pytest.raises(InvalidConfigError):
        intersection_matrix(CurveConfig(1, (Curve(0, SMOOTH_RATIONAL, -1),), ()))


def test_definiteness_fixed_points():
    assert is_negative_definite([[-1]]) == DEFINITE
    assert is_negative_definite([[0]]) == SEMIDEFINITE
    assert is_negative_definite([[1]]) == NEITHER
    assert is_negative_definite([[-2, 1], [1, -2]]) == DEFINITE
    assert is_negative_definite([[-2, 2], [2, -2]]) == SEMIDEFINITE
    assert is_negative_definite([[-1, 2], [2, -1]]) == NEITHER
    # a zero pivot in front: dropped when its row is zero, refuting when not
    assert is_negative_definite([[0, 0], [0, -1]]) == SEMIDEFINITE
    assert is_negative_definite([[0, 1], [1, 0]]) == NEITHER
    # zero pivots that appear only mid-elimination, after a nonzero first pivot
    mid_zero_row = [[-1, -1, -1], [-1, -1, -1], [-1, -1, -2]]
    mid_zero_pivot = [[-1, -1, 0], [-1, -1, -1], [0, -1, -1]]
    assert is_negative_definite(mid_zero_row) == SEMIDEFINITE
    assert is_negative_definite(mid_zero_pivot) == NEITHER
    assert definiteness_oracle(mid_zero_row) == SEMIDEFINITE
    assert definiteness_oracle(mid_zero_pivot) == NEITHER


# a triangle of smooth rational curves (-4, -4, -3) and a nodal (-1)-curve
# meeting the second one twice: folding the nodal leaf takes the second
# row's diagonal of -M from 4 to exactly 0, and that row then meets two others
FOLD_TO_ZERO = [[-4, 1, 1, 0], [1, -4, 1, 2], [1, 1, -3, 0], [0, 2, 0, -1]]


def fold_to_zero_config():
    kinds = [SMOOTH_RATIONAL] * 3 + [NODAL_RATIONAL]
    curves = tuple(Curve(i, kind, FOLD_TO_ZERO[i][i]) for i, kind in enumerate(kinds))
    pairs = tuple((i, j, FOLD_TO_ZERO[i][j]) for i in range(4) for j in range(i + 1, 4))
    return CurveConfig(4, curves, tuple(p for p in pairs if p[2]))


def test_a_diagonal_folded_to_zero_is_not_the_stored_one():
    assert definiteness_oracle(FOLD_TO_ZERO) == NEITHER
    assert is_negative_definite(FOLD_TO_ZERO) == NEITHER
    config = fold_to_zero_config()
    assert intersection_matrix(config) == FOLD_TO_ZERO
    assert config.elimination == (NEITHER, None)


@st.composite
def small_trees_on_a_cycle(draw):
    """M with b2 <= 7 rows: a cycle of 3 or more rows, or none, and every
    other row meeting one earlier row or none; diagonal entries in -4 .. 1,
    off-diagonal ones -1, 1 or 2, rows listed in a drawn order."""
    size = draw(st.integers(1, 7))
    ring = draw(st.sampled_from([0] + list(range(3, size + 1))))
    edges = [(k, (k + 1) % ring) for k in range(ring)]
    for v in range(max(ring, 1), size):
        if draw(st.booleans()) or not ring:
            edges.append((draw(st.integers(0, v - 1)), v))
    at = draw(st.permutations(range(size)))
    m = [[0] * size for _ in range(size)]
    for i, j in edges:
        m[at[i]][at[j]] = m[at[j]][at[i]] = draw(st.sampled_from([-1, 1, 2]))
    for i in range(size):
        m[i][i] = draw(st.integers(-4, 1))
    return m


@given(small_trees_on_a_cycle())
def test_trees_on_a_cycle_match_the_minor_oracle(m):
    assert is_negative_definite(m) == definiteness_oracle(m)


def test_definiteness_requires_symmetric_square():
    with pytest.raises(DomainError):
        is_negative_definite([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        is_negative_definite([[1, 2, 3], [4, 5, 6]])
    # a short later row used to leak an IndexError from the symmetry scan
    with pytest.raises(DomainError, match="square"):
        is_negative_definite([[1, 2], []])


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), 1.5, "1", True], ids=["fraction", "float", "str", "bool"]
)
def test_definiteness_refuses_non_integer_entries(bad):
    # [[-3/2, 1], [1, -1]] is negative definite, yet read as "neither"
    assert is_negative_definite([[-2, 1], [1, -1]]) == DEFINITE
    with pytest.raises(DomainError, match="integers"):
        is_negative_definite([[bad, 1], [1, -1]])


def test_enoki_matrices_semidefinite():
    for n in (*range(1, 7), 24, 40):
        m = intersection_matrix(enoki_cycle_config(n))
        assert is_negative_definite(m) == SEMIDEFINITE


def test_large_matrices_definite():
    assert is_negative_definite(intersection_matrix(singrat_config(160, 159))) == DEFINITE
    assert is_negative_definite(intersection_matrix(ring([-3] + [-2] * 39))) == DEFINITE


def _symmetric(size, entries):
    m = [[0] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    for (i, j), v in zip(pairs, entries):
        m[i][j] = m[j][i] = v
    return m


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=n * (n + 1) // 2,
                max_size=n * (n + 1) // 2,
            ).map(lambda entries: _symmetric(n, entries)),
            st.permutations(range(n)),
        )
    )
)
def test_definiteness_invariant_under_relabelling(case):
    # the verdict of P M P^T must not depend on which pivot comes first
    m, perm = case
    permuted = [[m[a][b] for b in perm] for a in perm]
    verdict = is_negative_definite(m)
    assert is_negative_definite(permuted) == verdict
    assert definiteness_oracle(m) == verdict


def _gram_form(size, entries, shifts):
    # -(B^T B + diag(shifts)): negative semidefinite, and definite for most draws
    b = [entries[i * size : (i + 1) * size] for i in range(size)]
    return [
        [-sum(b[t][i] * b[t][j] for t in range(size)) - (shifts[i] if i == j else 0)
         for j in range(size)]
        for i in range(size)
    ]


def _dense_elimination(matrix, column):
    """The dense symmetric Bareiss elimination the sparse one replaced, kept as
    its referee: (verdict, exact x with -M x = column if definite, else None).
    Every untouched row is rescaled at every step."""
    n = len(matrix)
    a = [[-v for v in row] + [c] for row, c in zip(matrix, column)]
    verdict, prev = DEFINITE, 1
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1 : n])):
            return NEITHER, None
        if pivot == 0:
            verdict = SEMIDEFINITE
            continue
        for i in range(k + 1, n):
            for j in range(i, n + 1):
                a[i][j] = (a[i][j] * pivot - a[k][i] * a[k][j]) // prev
        prev = pivot
    if verdict != DEFINITE:
        return verdict, None
    y = [0] * n
    for i in range(n - 1, -1, -1):
        y[i] = (prev * a[i][n] - sum(a[i][j] * y[j] for j in range(i + 1, n))) // a[i][i]
    return verdict, tuple(Fraction(v, prev) for v in y)


matrices_with_columns = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.one_of(
            st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=n * (n + 1) // 2,
                max_size=n * (n + 1) // 2,
            ).map(lambda entries: _symmetric(n, entries)),
            st.builds(
                lambda entries, shifts: _gram_form(n, entries, shifts),
                st.lists(st.integers(min_value=-2, max_value=2), min_size=n * n, max_size=n * n),
                st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            ),
        ),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
    )
)


@given(matrices_with_columns)
def test_elimination_solves_the_column_on_definite_forms(case):
    m, column = case
    verdict, solved = _symmetric_elimination(_upper_rows(m), column)
    assert verdict == definiteness_oracle(m)
    if verdict != DEFINITE:
        assert solved is None
        return
    y, det = solved
    assert all(type(v) is int for v in (*y, det)) and det > 0
    x = [Fraction(v, det) for v in y]
    assert [-sum(a * b for a, b in zip(row, x)) for row in m] == column


@given(matrices_with_columns)
def test_sparse_elimination_matches_the_dense_referee(case):
    m, column = case
    verdict, solved = _symmetric_elimination(_upper_rows(m), column)
    expected_verdict, expected_x = _dense_elimination(m, column)
    assert verdict == expected_verdict
    if solved is None:
        assert expected_x is None
    else:
        y, det = solved
        assert tuple(Fraction(v, det) for v in y) == expected_x


def _relisted(config, order):
    return CurveConfig(
        config.b2, tuple(config.curves[a] for a in order), config.intersections
    )


family_configs = st.one_of(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.integers(min_value=0, max_value=n - 1).map(
            lambda p: singrat_config(n, p)
        )
    ),
    st.tuples(st.integers(min_value=1, max_value=12), st.booleans()).map(
        lambda args: enoki_cycle_config(*args)
    ),
    st.lists(st.integers(min_value=-5, max_value=-2), min_size=3, max_size=12).map(ring),
)


@given(
    family_configs.flatmap(
        lambda config: st.tuples(st.just(config), st.permutations(range(len(config.curves))))
    )
)
def test_sparse_elimination_matches_the_dense_referee_in_any_listing_order(case):
    config, order = case
    relisted = _relisted(config, order)
    verdict, solved = relisted.elimination
    expected_verdict, expected_x = _dense_elimination(
        intersection_matrix(relisted), [adjunction_degree(c) for c in relisted.curves]
    )
    assert verdict == expected_verdict == config.elimination[0]
    if solved is None:
        assert expected_x is None
    else:
        y, det = solved
        assert tuple(Fraction(v, det) for v in y) == expected_x
        assert det == config.elimination[1][1]


def _sigma_outcome(config):
    try:
        return sigma_classify(config)
    except DomainError as exc:
        return str(exc)


@given(
    family_configs.flatmap(
        lambda config: st.tuples(
            st.just(config), st.permutations([c.id for c in config.curves])
        )
    )
)
def test_cycle_decomposition_invariant_under_any_id_relabelling(case):
    # a non-monotone relabelling changes the order the 2-core is pruned in
    config, new_ids = case
    rename = dict(zip((c.id for c in config.curves), new_ids))
    moved = CurveConfig(
        config.b2,
        tuple(Curve(rename[c.id], c.kind, c.self_int) for c in config.curves),
        tuple((rename[i], rename[j], m) for i, j, m in config.intersections),
    )

    def shape(cfg, name):
        return sorted(
            (
                sorted(name(cid) for cid in rec.member_ids),
                rec.length,
                sorted((name(br.root_id), sorted(map(name, br.member_ids))) for br in rec.branches),
            )
            for rec in find_cycles(cfg)
        )

    assert shape(moved, lambda cid: cid) == shape(config, rename.__getitem__)
    assert _sigma_outcome(moved) == _sigma_outcome(config)


def test_configuration_elimination_reads_no_dense_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the elimination builds its rows from the triples")

    monkeypatch.setattr(curves, "intersection_matrix", forbidden)
    monkeypatch.setattr(curves, "_upper_rows", forbidden)
    config = singrat_config(4, 3)
    assert config.elimination == ("definite", ((12, 9, 6, 3), 9))
    assert enoki_cycle_config(5, True).elimination == (SEMIDEFINITE, None)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=7))
def test_singrat_matrices_definite(n, p):
    if p > n - 1:
        p = n - 1
    m = intersection_matrix(singrat_config(n, p))
    assert is_negative_definite(m) == DEFINITE


# --- cycle decomposition ----------------------------------------------------


def test_singrat_cycle_and_branch():
    cycles = find_cycles(singrat_config(4, 3))
    assert len(cycles) == 1
    rec = cycles[0]
    assert rec.member_ids == (0,)
    assert rec.length == 1
    assert len(rec.branches) == 1
    assert rec.branches[0].root_id == 0
    assert rec.branches[0].member_ids == (1, 2, 3)


def test_ring_cycle():
    cycles = find_cycles(ring([-2, -2, -2, -2]))
    assert len(cycles) == 1
    assert cycles[0].length == 4
    assert set(cycles[0].member_ids) == {0, 1, 2, 3}
    assert cycles[0].branches == ()


def test_double_edge_is_a_two_cycle():
    config = enoki_cycle_config(2)
    cycles = find_cycles(config)
    assert cycles[0].member_ids == (0, 1)
    assert cycles[0].length == 2


def test_elliptic_is_a_zero_cycle():
    config = enoki_cycle_config(3, with_elliptic=True)
    cycles = find_cycles(config)
    lengths = sorted(rec.length for rec in cycles)
    assert lengths == [0, 3]


def test_isolated_tree_is_in_no_cycle_record():
    # a nodal loop plus a smooth curve touching nothing
    config = CurveConfig(
        2, (Curve(0, NODAL_RATIONAL, -1), Curve(5, SMOOTH_RATIONAL, -2)), ()
    )
    cycles = find_cycles(config)
    cycle_ids = {cid for rec in cycles for cid in rec.member_ids}
    branch_ids = {cid for rec in cycles for br in rec.branches for cid in br.member_ids}
    isolated = {c.id for c in config.curves} - cycle_ids - branch_ids
    assert cycle_ids == {0}
    assert branch_ids == set()
    assert isolated == {5}


def test_two_cycles_sharing_a_curve_rejected():
    # two triangles glued at curve 0: its pruned degree is 4
    curves = tuple(Curve(i, SMOOTH_RATIONAL, -4) for i in range(5))
    pairs = (
        (0, 1, 1),
        (1, 2, 1),
        (2, 0, 1),
        (0, 3, 1),
        (3, 4, 1),
        (4, 0, 1),
    )
    with pytest.raises(StructureError):
        find_cycles(CurveConfig(5, curves, pairs))


def test_touching_cycles_rejected():
    config = CurveConfig(
        2,
        (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)),
        ((0, 1, 1),),
    )
    with pytest.raises(StructureError):
        find_cycles(config)


def test_tree_with_two_attachments_rejected():
    # a chain joining two members of the same ring closes a second cycle
    curves = tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(5))
    pairs = (
        (0, 1, 1),
        (1, 2, 1),
        (2, 3, 1),
        (3, 0, 1),
        (0, 4, 1),
        (2, 4, 1),
    )
    with pytest.raises(StructureError):
        find_cycles(CurveConfig(5, curves, pairs))


def test_tree_attached_with_multiplicity_two_rejected():
    config = CurveConfig(
        2,
        (Curve(0, NODAL_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -4)),
        ((0, 1, 2),),
    )
    with pytest.raises(StructureError):
        find_cycles(config)


# --- sigma classification ---------------------------------------------------


def test_sigma_singrat_intermediate():
    cls = sigma_classify(singrat_config(3, 2))
    assert cls.sigma == 8
    assert cls.verdict == INTERMEDIATE
    assert cls.torsion_crosscheck is False


def test_sigma_enoki():
    for n in range(1, 7):
        cls = sigma_classify(enoki_cycle_config(n))
        assert cls.sigma == 2 * n
        assert cls.verdict == ENOKI_CLASS


def test_sigma_enoki_with_elliptic_unchanged():
    # the elliptic curve is not rational and contributes nothing to sigma
    cls = sigma_classify(enoki_cycle_config(3, with_elliptic=True))
    assert cls.sigma == 6
    assert cls.verdict == ENOKI_CLASS


def test_sigma_odd_inoue_hirzebruch():
    cls = sigma_classify(CurveConfig(1, (Curve(0, NODAL_RATIONAL, -1),), ()))
    assert cls.sigma == 3
    assert cls.verdict == INOUE_HIRZEBRUCH
    assert cls.ih_parity == "odd"
    assert cls.torsion_crosscheck is True


def test_sigma_even_inoue_hirzebruch():
    config = CurveConfig(
        2, (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)), ()
    )
    cls = sigma_classify(config)
    assert cls.sigma == 6
    assert cls.verdict == INOUE_HIRZEBRUCH
    assert cls.ih_parity == "even"
    assert cls.torsion_crosscheck is None


def test_sigma_out_of_range():
    cls = sigma_classify(CurveConfig(1, (Curve(0, NODAL_RATIONAL, -3),), ()))
    assert cls.sigma == 5
    assert cls.verdict == OUT_OF_RANGE
    assert cls.torsion_crosscheck is False


def test_sigma_needs_full_curve_count():
    # a lone (-2)-curve on a b2=2 surface says nothing about sigma
    config = CurveConfig(2, (Curve(0, SMOOTH_RATIONAL, -2),), ())
    with pytest.raises(DomainError, match="insufficient"):
        sigma_classify(config)


def test_sigma_range_bounds():
    # a ring of (-2)s with one (-3) lands strictly between 2n and 3n
    config = ring([-3, -2, -2])
    cls = sigma_classify(config)
    assert cls.sigma == 7
    assert cls.verdict == INTERMEDIATE


def test_adjunction_degree():
    assert adjunction_degree(Curve(0, SMOOTH_RATIONAL, -2)) == 0
    assert adjunction_degree(Curve(0, SMOOTH_RATIONAL, -5)) == 3
    assert adjunction_degree(Curve(0, NODAL_RATIONAL, -1)) == 1
    assert adjunction_degree(Curve(0, NODAL_RATIONAL, 0)) == 0
    assert adjunction_degree(Curve(0, ELLIPTIC, -3)) == 3
    with pytest.raises(DomainError, match="unknown curve kind 'cuspidal'"):
        adjunction_degree(Curve(0, "cuspidal", -1))


def test_curve_lookup_refuses_an_unknown_id():
    config = singrat_config(3, 2)
    assert config.curve(2) == Curve(2, SMOOTH_RATIONAL, -2)
    with pytest.raises(DomainError, match="no curve with id 7"):
        config.curve(7)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: singrat_config(0, 0), "n must be at least 1, got 0"),
        (lambda: singrat_config(3, 3), r"p must lie in \[0, 2\], got 3"),
        (lambda: enoki_cycle_config(0), "n must be at least 1, got 0"),
    ],
    ids=["singrat-n0", "singrat-p-too-large", "enoki-n0"],
)
def test_families_refuse_out_of_range_sizes(build, message):
    with pytest.raises(DomainError, match=message):
        build()
