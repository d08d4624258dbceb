import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viilattice import (
    DEFINITE,
    Curve,
    CurveConfig,
    DomainError,
    ELLIPTIC,
    NODAL_RATIONAL,
    NacSolution,
    NoSolution,
    SMOOTH_RATIONAL,
    StructureError,
    adjunction_degree,
    determinant,
    enoki_cycle_config,
    index_of,
    intersection_matrix,
    leading_principal_minors,
    nac_structure_report,
    singrat_closed_form,
    singrat_config,
    solve_exact,
    solve_nac,
    verify_star_recurrence,
)
from viilattice import cli
from viilattice.nac import star_rows
from viilattice.selftest import det_cofactor, definiteness_oracle, random_definite_config

from test_peel import caterpillars, random_config, relabelled, word_configs


# --- exact linear algebra ---------------------------------------------------


def test_determinant_refuses_a_non_square_matrix():
    with pytest.raises(DomainError, match="matrix must be square"):
        determinant([[1, 2]])


def test_determinant_knowns():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1, 2], [2, 4]]) == 0


def test_determinant_row_swap_sign():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_solve_exact_roundtrip():
    m = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    rhs = [-1, 0, -3]
    x = solve_exact(m, rhs)
    assert x is not None
    for i in range(3):
        assert sum(m[i][j] * x[j] for j in range(3)) == rhs[i]


def test_solve_exact_singular_is_none():
    assert solve_exact([[1, 2], [2, 4]], [1, 1]) is None


def test_solve_exact_rhs_length_checked():
    with pytest.raises(DomainError):
        solve_exact([[1]], [1, 2])


# entries that used to be truncated or parsed by int(): determinant([[Fraction(1, 2)]])
# read 0 and determinant([[1.5, 0], [0, 2]]) read 2
NON_INTEGERS = pytest.mark.parametrize(
    "bad", [Fraction(1, 2), 1.5, "1", True], ids=["fraction", "float", "str", "bool"]
)


@NON_INTEGERS
def test_determinant_refuses_non_integer_entries(bad):
    assert determinant([[1, 0], [0, 2]]) == 2
    with pytest.raises(DomainError, match="integers"):
        determinant([[bad, 0], [0, 2]])


@NON_INTEGERS
def test_solve_exact_refuses_non_integer_entries(bad):
    assert solve_exact([[2]], [1]) == [Fraction(1, 2)]
    with pytest.raises(DomainError, match="integers"):
        solve_exact([[bad]], [1])
    with pytest.raises(DomainError, match="integers"):
        solve_exact([[2]], [bad])


def test_leading_principal_minors():
    assert leading_principal_minors([[-2, 1], [1, -2]]) == [-2, 3]
    assert leading_principal_minors([[1]]) == [1]


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_determinant_matches_sarrus(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert determinant(rows) == expected


@st.composite
def square_matrices(draw):
    """Integer matrices of size n <= 6, entries in -3..3 and often 0,
    sometimes with a zero row, a zero column or a repeated row put in, and
    then with their rows permuted, so the pivots fall in any order."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-3, 3) | st.just(0)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    extra = draw(st.sampled_from([None, "zero row", "zero column", "repeat"]))
    if n and extra:
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if extra == "zero row":
            rows[i] = [0] * n
        elif extra == "zero column":
            rows = [row[:i] + [0] + row[i + 1 :] for row in rows]
        else:
            rows[i] = list(rows[k])
    return draw(st.permutations(rows))


@settings(max_examples=400)
@given(square_matrices(), st.data())
def test_elimination_matches_cofactors_and_solves(rows, data):
    # determinant and solve_exact share one elimination: its pivot order
    # decides the determinant's sign, its pivot rows the back substitution
    det = determinant(rows)
    assert det == det_cofactor(rows)
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    x = solve_exact(rows, rhs)
    assert (x is None) == (det == 0)
    if x is not None:
        assert [sum(map(operator.mul, row, x)) for row in rows] == rhs


# --- the anticanonical solver -----------------------------------------------


def test_worked_instance():
    config = singrat_config(3, 2)
    sol = solve_nac(config, 1)
    assert isinstance(sol, NacSolution)
    assert sol.coeffs == (Fraction(3, 2), Fraction(1), Fraction(1, 2))
    assert sol.index == 2
    assert sol.self_int_check == -3
    assert not sol.parabolic

    at_index = solve_nac(config, 2)
    assert at_index.coeffs == (Fraction(3), Fraction(2), Fraction(1))
    assert at_index.index == 2
    assert at_index.self_int_check == -12

    assert determinant(intersection_matrix(config)) == -4


def test_index_of():
    assert index_of(singrat_config(3, 2)) == 2
    assert index_of(CurveConfig(1, (), ())) is None


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
def test_solution_scales_linearly_in_m(n, m):
    config = singrat_config(n, n - 1)
    base = solve_nac(config, 1)
    scaled = solve_nac(config, m)
    assert scaled.coeffs == tuple(m * k for k in base.coeffs)
    assert scaled.index == base.index
    assert scaled.self_int_check == m * m * base.self_int_check


def test_level_must_be_positive():
    with pytest.raises(DomainError):
        solve_nac(singrat_config(3, 2), 0)
    with pytest.raises(DomainError):
        solve_nac(singrat_config(3, 2), -1)


@pytest.mark.parametrize("m", [True, False, 2.0, 1.5, "2", None])
@pytest.mark.parametrize(
    "config, parabolic", [(singrat_config(3, 2), False), (enoki_cycle_config(3, True), True)]
)
def test_level_must_be_an_int(config, parabolic, m):
    # the definite and the parabolic path both refuse the level
    assert solve_nac(config, 1).parabolic == parabolic
    with pytest.raises(DomainError, match="level m must be a positive integer"):
        solve_nac(config, m)
    with pytest.raises(DomainError, match="level m must be a positive integer"):
        singrat_closed_form(3, 2, m)


def test_solution_holds_integers():
    sol = NacSolution(2, (3, 2, 1), 2, True, -3)
    assert sol.coeffs == (Fraction(3), Fraction(2), Fraction(1))
    assert sol.self_int_check == -12
    assert sol == solve_nac(singrat_config(3, 2), 2)


@pytest.mark.parametrize(
    "fields, message",
    [
        # the old positional form, with Fraction coefficients, read as scaled
        ((1, (Fraction(3, 2), Fraction(1), Fraction(1, 2)), 2, True, -3), "scaled must hold ints"),
        ((1, (3, 2.0, 1), 2, True, -3), "scaled must hold ints"),
        ((1, (3, True, 1), 2, True, -3), "scaled must hold ints"),
        ((1, (3, 2, 1), 0, True, -3), "index must be an int of at least 1"),
        ((1, (3, 2, 1), -2, True, -3), "index must be an int of at least 1"),
        ((1, (3, 2, 1), Fraction(2), True, -3), "index must be an int of at least 1"),
        ((1, (3, 2, 1), True, True, -3), "index must be an int of at least 1"),
        ((0, (3, 2, 1), 2, True, -3), "level m must be a positive integer"),
        ((1.0, (3, 2, 1), 2, True, -3), "level m must be a positive integer"),
    ],
)
def test_solution_refuses_bad_integer_fields(fields, message):
    with pytest.raises(DomainError, match=message):
        NacSolution(*fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        # self_int_check used to read 0.5 for the first
        ((1, (2,), 1, True, 0.5), "square must be an int, got float"),
        ((1, (2,), 1, True, True), "square must be an int, got bool"),
        ((1, (2,), 1, True, Fraction(-3)), "square must be an int, got Fraction"),
        ((1, (2,), 1, "yes", -1), "effective must be a bool, got str"),
        ((1, (2,), 1, 1, -1), "effective must be a bool, got int"),
        ((1, (2,), 1, True, -1, 3), "parabolic must be a bool, got int"),
        ((1, (2,), 1, True, -1, None), "parabolic must be a bool, got NoneType"),
    ],
)
def test_solution_refuses_mistyped_square_and_flags(fields, message):
    with pytest.raises(DomainError, match=message):
        NacSolution(*fields)


def test_empty_config_has_no_solution():
    out = solve_nac(CurveConfig(1, (), ()), 1)
    assert isinstance(out, NoSolution)
    assert "no curves" in out.reason


def test_square_defect_rejected():
    # definite chain on a surface whose b2 exceeds what the curves span
    config = CurveConfig(
        3,
        (Curve(0, NODAL_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)),
        ((0, 1, 1),),
    )
    out = solve_nac(config, 1)
    assert isinstance(out, NoSolution)
    assert "self-intersection defect" in out.reason


def test_indefinite_rejected():
    # double edge between (-1)s: det of [[-1,2],[2,-1]] is -3
    config = CurveConfig(
        2,
        (Curve(0, NODAL_RATIONAL, -1), Curve(1, NODAL_RATIONAL, -1)),
        ((0, 1, 2),),
    )
    out = solve_nac(config, 1)
    assert isinstance(out, NoSolution)
    assert "not negative" in out.reason


def test_degenerate_without_elliptic_rejected():
    out = solve_nac(enoki_cycle_config(3), 1)
    assert isinstance(out, NoSolution)
    assert "parabolic" in out.reason


def test_parabolic_route():
    config = enoki_cycle_config(3, with_elliptic=True)
    sol = solve_nac(config, 2)
    assert isinstance(sol, NacSolution)
    assert sol.parabolic
    assert sol.coeffs == (Fraction(2),) * 4
    assert sol.index == 1
    assert sol.self_int_check == -2 * 2 * config.b2


def test_degenerate_with_elliptic_but_wrong_pairing():
    # square-zero elliptic plus a disjoint (-2): semidefinite, but the
    # all-m candidate leaves a residual of -2m on the smooth row
    config = CurveConfig(
        1, (Curve(0, ELLIPTIC, 0), Curve(1, SMOOTH_RATIONAL, -2)), ()
    )
    out = solve_nac(config, 1)
    assert isinstance(out, NoSolution)
    assert "does not solve" in out.reason


@st.composite
def valid_configs(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    curves = []
    for i in range(count):
        kind = draw(st.sampled_from((SMOOTH_RATIONAL,) * 3 + (NODAL_RATIONAL, ELLIPTIC)))
        if kind == ELLIPTIC and any(c.kind == ELLIPTIC for c in curves):
            kind = NODAL_RATIONAL
        top = -2 if kind == SMOOTH_RATIONAL else 0
        curves.append(Curve(i, kind, draw(st.integers(min_value=-6, max_value=top))))
    meets = [
        (i, j, draw(st.sampled_from((0, 0, 0, 1, 1, 2))))
        for i in range(count)
        for j in range(i + 1, count)
    ]
    rational = sum(1 for c in curves if c.kind != ELLIPTIC)
    b2 = max(1, rational + draw(st.integers(min_value=0, max_value=1)))
    return CurveConfig(b2, tuple(curves), tuple(meets))


def _minus_three_ring(r):
    curves = tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(r))
    return CurveConfig(r, curves, tuple((i, (i + 1) % r, 1) for i in range(r)))


@given(
    st.one_of(
        valid_configs(),
        st.integers(min_value=2, max_value=8).map(lambda n: singrat_config(n, n - 1)),
        st.integers(min_value=3, max_value=6).map(_minus_three_ring),
    ),
    st.integers(min_value=1, max_value=4),
)
def test_folded_solve_matches_general_elimination(config, m):
    # the verdict pass solves the system; solve_exact is the independent referee
    matrix = intersection_matrix(config)
    if definiteness_oracle(matrix) != DEFINITE:
        return
    rhs = [-m * adjunction_degree(c) for c in config.curves]
    expected = tuple(solve_exact(matrix, rhs))
    y, det = config.elimination[1]
    assert tuple(Fraction(m * v, det) for v in y) == expected
    sol = solve_nac(config, m)
    if isinstance(sol, NacSolution):
        assert sol.coeffs == expected
    else:
        assert "self-intersection defect" in sol.reason


def test_shuffled_singrat_in_the_hundreds_matches_the_closed_form():
    n = 200
    config = singrat_config(n, n - 1)
    order = list(range(n))
    random.Random(0).shuffle(order)
    shuffled = CurveConfig(n, tuple(config.curves[a] for a in order), config.intersections)
    form = singrat_closed_form(n, n - 1, 1)
    assert shuffled.elimination[1][1] == abs(form.det)
    sol = solve_nac(shuffled, 1)
    assert isinstance(sol, NacSolution)
    assert {c.id: k for c, k in zip(shuffled.curves, sol.coeffs)} == dict(enumerate(form.coeffs))
    assert sol.index == n - 1
    assert verify_star_recurrence(shuffled, sol).ok
    assert nac_structure_report(shuffled, sol).ok


@st.composite
def cycles_with_trees(draw):
    """A nodal loop, a double curve or a ring, with trees hanging off it and
    maybe an elliptic curve; b2 is the number of rational curves, or one more."""
    length = draw(st.integers(1, 5))
    if length == 1:
        curves = [Curve(0, NODAL_RATIONAL, -draw(st.integers(0, 3)))]
        meets = []
    else:
        curves = [Curve(i, SMOOTH_RATIONAL, -draw(st.integers(2, 5))) for i in range(length)]
        meets = [(0, 1, 2)] if length == 2 else [(i, (i + 1) % length, 1) for i in range(length)]
    for i in range(length, length + draw(st.integers(0, 4))):
        curves.append(Curve(i, SMOOTH_RATIONAL, -draw(st.integers(2, 4))))
        meets.append((draw(st.integers(0, i - 1)), i, 1))
    b2 = len(curves) + draw(st.integers(0, 1))
    if draw(st.booleans()):
        curves.append(Curve(len(curves), ELLIPTIC, -draw(st.integers(0, 2))))
    return CurveConfig(b2, tuple(curves), tuple(meets))


def _nac_outcome(config: CurveConfig, m: int):
    """What the NAC API says of config at level m, keyed by curve id."""
    sol = solve_nac(config, m)
    if isinstance(sol, NoSolution):
        return sol
    ids = [c.id for c in config.curves]
    structure = [
        (sorted(c.member_ids), c.min_coeff, c.max_coeff, c.unit_cycle, c.max_at_branch_root, c.violations)
        for c in nac_structure_report(config, sol).cycles
    ]
    stars = {c.curve_id: (c.lhs, c.rhs, c.ok) for c in verify_star_recurrence(config, sol).checks}
    return (
        (sol.m, sol.index, sol.effective, sol.parabolic, sol.square),
        dict(zip(ids, sol.coeffs)),
        structure,
        stars,
    )


# random cycles with trees mostly miss the square law, so the families that
# meet it (singrat p = n - 1, the (-3)-rings, the parabolic Enoki cycles) are
# drawn as often
@settings(max_examples=150)
@given(
    st.one_of(
        cycles_with_trees(),
        st.integers(2, 12).flatmap(lambda n: st.integers(0, n - 1).map(lambda p: singrat_config(n, p))),
        st.integers(2, 12).map(lambda n: singrat_config(n, n - 1)),
        st.integers(3, 6).map(_minus_three_ring),
        st.tuples(st.integers(1, 8), st.booleans()).map(lambda a: enoki_cycle_config(*a)),
    ),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_nac_answers_survive_relabelling_and_reordering(config, m, rng):
    ids = [c.id for c in config.curves]
    new = dict(zip(ids, rng.sample(range(-50, 1000), len(ids))))
    curves = [Curve(new[c.id], c.kind, c.self_int) for c in config.curves]
    rng.shuffle(curves)
    meets = [(new[i], new[j], v) for i, j, v in config.intersections]
    rng.shuffle(meets)
    relabelled = CurveConfig(config.b2, tuple(curves), tuple(meets))

    want = _nac_outcome(config, m)
    got = _nac_outcome(relabelled, m)
    if isinstance(want, NoSolution):
        assert got == want
        return
    (head, coeffs, structure, stars), (got_head, got_coeffs, got_structure, got_stars) = want, got
    assert got_head == head
    assert got_coeffs == {new[i]: k for i, k in coeffs.items()}
    # find_cycles may start a cycle at another member, so members compare as sets
    assert sorted(got_structure) == sorted((sorted(new[i] for i in c[0]), *c[1:]) for c in structure)
    assert got_stars == {new[i]: v for i, v in stars.items()}


# --- closed form on the nodal-plus-chain family ------------------------------


def test_closed_form_matches_solver():
    for n in range(2, 8):
        config = singrat_config(n, n - 1)
        form = singrat_closed_form(n, n - 1, 1)
        sol = solve_nac(config, 1)
        assert form.consistent
        assert form.coeffs == sol.coeffs
        assert form.det == determinant(intersection_matrix(config))


def test_closed_form_denominator():
    form = singrat_closed_form(5, 2, 1)
    assert form.det == -(4 * 3 - 2)
    assert form.coeffs[0] == Fraction(4 * 3, 10)
    assert not form.consistent


def test_closed_form_p0_never_consistent():
    for n in range(2, 11):
        form = singrat_closed_form(n, 0, 1)
        assert not form.consistent
        assert "impossible" in form.detail


def test_closed_form_argument_bounds():
    with pytest.raises(DomainError):
        singrat_closed_form(1, 0, 1)
    with pytest.raises(DomainError):
        singrat_closed_form(3, 3, 1)
    with pytest.raises(DomainError):
        singrat_closed_form(3, 2, 0)


# --- star recurrence ---------------------------------------------------------


def test_star_recurrence_on_worked_instance():
    config = singrat_config(3, 2)
    sol = solve_nac(config, 1)
    report = verify_star_recurrence(config, sol)
    assert report.ok
    # curve 1 is the interior chain curve: neighbors 0 and 2
    by_id = {c.curve_id: c for c in report.checks}
    assert 1 in by_id
    assert by_id[1].lhs == Fraction(1, 2) + Fraction(-1, 2)
    assert by_id[1].rhs == 0


def test_star_recurrence_rejects_perturbed_solution():
    config = singrat_config(4, 3)
    sol = solve_nac(config, 1)
    # the last coefficient plus 1, at level 1
    bad = NacSolution(
        m=sol.m,
        scaled=sol.scaled[:-1] + (sol.scaled[-1] + sol.index,),
        index=sol.index,
        effective=sol.effective,
        square=sol.square,
    )
    report = verify_star_recurrence(config, bad)
    assert not report.ok


def test_star_recurrence_counts_double_edges_twice():
    config = enoki_cycle_config(2, with_elliptic=True)
    sol = solve_nac(config, 1)
    report = verify_star_recurrence(config, sol)
    # both cycle curves have one neighbor of multiplicity 2
    assert len(report.checks) == 2
    assert report.ok


def test_star_recurrence_length_mismatch():
    config = singrat_config(3, 2)
    sol = solve_nac(config, 1)
    short = NacSolution(1, sol.scaled[:2], sol.index, True, -3)
    with pytest.raises(DomainError):
        verify_star_recurrence(config, short)


# --- coefficient structure on cycles -----------------------------------------


def test_structure_singrat_max_at_root():
    config = singrat_config(4, 3)
    sol = solve_nac(config, 1)
    report = nac_structure_report(config, sol)
    assert report.ok
    assert len(report.cycles) == 1
    entry = report.cycles[0]
    assert entry.member_ids == (0,)
    assert entry.min_coeff == entry.max_coeff == Fraction(4, 3)
    assert entry.max_at_branch_root is True
    assert not entry.unit_cycle
    assert not report.inoue_ih_signature


def test_structure_unit_cycle():
    config = CurveConfig(
        3,
        tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(3)),
        ((0, 1, 1), (1, 2, 1), (2, 0, 1)),
    )
    sol = solve_nac(config, 1)
    assert sol.coeffs == (Fraction(1),) * 3
    report = nac_structure_report(config, sol)
    assert report.ok
    assert report.cycles[0].unit_cycle
    assert report.inoue_ih_signature


def test_structure_flags_fabricated_violations():
    config = singrat_config(3, 2)
    # all-unit vector on a cycle that carries a branch
    fake = NacSolution(1, (1,) * 3, 1, True, -3)
    report = nac_structure_report(config, fake)
    assert not report.ok
    assert any("branch" in v for v in report.cycles[0].violations)

    # coefficient below the unit
    low = NacSolution(1, (1, 2, 2), 2, True, -3)
    report = nac_structure_report(config, low)
    assert any("below" in v for v in report.cycles[0].violations)


def _ring_with_branch():
    """The (-3)-triangle with a (-2)-curve meeting curve 0, at rank 4."""
    ring = _minus_three_ring(3)
    return CurveConfig(4, ring.curves + (Curve(3, SMOOTH_RATIONAL, -2),), ring.intersections + ((0, 3, 1),))


@pytest.mark.parametrize(
    "config, coeffs, violation, at_root",
    [
        (
            _minus_three_ring(3),
            (1, 2, 1),
            "one cycle coefficient equals m but others exceed it; a unit "
            "coefficient forces the whole cycle to be at the unit",
            None,
        ),
        (
            _minus_three_ring(3),
            (2, 2, 2),
            "every cycle coefficient exceeds m but no branch is attached; "
            "such a cycle must support at least one branch",
            False,
        ),
        (
            _ring_with_branch(),
            (2, 3, 2, 1),
            "the maximal cycle coefficient is not attained at a branch root",
            False,
        ),
    ],
    ids=["unit-not-everywhere", "no-branch", "max-off-root"],
)
def test_structure_pins_each_cycle_violation(config, coeffs, violation, at_root):
    fake = NacSolution(1, coeffs, 1, True, 0)
    report = nac_structure_report(config, fake)
    assert not report.ok
    assert not report.inoue_ih_signature
    (entry,) = report.cycles
    assert entry.violations == (violation,)
    assert entry.max_at_branch_root is at_root
    assert not entry.unit_cycle
    # the ring is curves 0, 1 and 2
    assert (entry.min_coeff, entry.max_coeff) == (min(coeffs[:3]), max(coeffs[:3]))


def test_structure_skips_elliptic_zero_cycles():
    config = enoki_cycle_config(2, with_elliptic=True)
    sol = solve_nac(config, 1)
    report = nac_structure_report(config, sol)
    assert len(report.cycles) == 1
    assert report.cycles[0].member_ids == (0, 1)
    assert report.cycles[0].unit_cycle


# --- the report's per-curve steps against the code they replaced -------------
#
# star_rows reads each smooth curve's one or two meetings once, _nac_section
# writes integers at a level the index divides, _structure_sections renders
# one ratio for a balanced row, and the K.D column is cached on the
# configuration.  The referees are the code each step replaced.  The corpus:
# singrat n <= 60 for every p, Enoki n <= 30 with and without the elliptic
# curve, test_peel's random configurations and caterpillars and every
# blow-up word with b2 <= 8, each also relabelled.  Each is checked at its own
# solution and at a drawn one, whose rows are mostly unbalanced.


def summed_star_rows(config: CurveConfig, sol: NacSolution) -> list[tuple]:
    """star_rows as it stood: two sums over each smooth curve's meetings."""
    scaled, unit = sol.scaled, sol.index
    position, adj = config._position, config._adj
    rows = []
    for c in config.curves:
        if c.kind != SMOOTH_RATIONAL or sum(mult for _, mult in adj[c.id]) != 2:
            continue
        lhs = sum(scaled[position[u]] * mult for u, mult in adj[c.id]) - 2 * unit
        rhs = (scaled[position[c.id]] - unit) * (-c.self_int)
        rows.append((c.id, lhs, rhs))
    return rows


def assert_fast_paths_match_the_referees(config: CurveConfig, rng: random.Random) -> None:
    for copy in (config, relabelled(config, rng)[0]):
        assert copy._kd_column == tuple(adjunction_degree(c) for c in copy.curves)
        sol = solve_nac(copy, 1)
        drawn = NacSolution(
            1, tuple(rng.randint(-9, 9) for _ in copy.curves), rng.randint(1, 5), False, -copy.b2
        )
        for candidate in ([] if isinstance(sol, NoSolution) else [sol]) + [drawn]:
            rows, unit = star_rows(copy, candidate), candidate.index
            assert rows == summed_star_rows(copy, candidate)
            for m in (1, 2, 3, unit, 2 * unit, 3 * unit):
                assert cli._nac_section(candidate, m)["coeffs"] == [
                    cli._ratio(m * v, unit) for v in candidate.scaled
                ]
            try:
                section = cli._structure_sections(copy, candidate)["star_recurrence"]
            except StructureError:
                continue
            assert section["checks"].rows == [
                (cid, cli._ratio(lhs, unit), cli._ratio(rhs, unit), lhs == rhs) for cid, lhs, rhs in rows
            ]
            assert section["ok"] == all(lhs == rhs for _, lhs, rhs in rows)


def test_fast_paths_match_the_referees_on_the_families():
    rng = random.Random(31)
    for n in range(1, 61):
        for p in range(n):
            assert_fast_paths_match_the_referees(singrat_config(n, p), rng)
    for n in range(1, 31):
        for with_elliptic in (False, True):
            assert_fast_paths_match_the_referees(enoki_cycle_config(n, with_elliptic), rng)


def test_fast_paths_match_the_referees_on_every_word_up_to_b2_8():
    rng = random.Random(32)
    for config in word_configs():
        assert_fast_paths_match_the_referees(config, rng)


def test_fast_paths_match_the_referees_on_random_configurations():
    rng = random.Random(33)
    for _ in range(300):
        assert_fast_paths_match_the_referees(random_config(rng), rng)
        assert_fast_paths_match_the_referees(random_definite_config(rng), rng)


@given(caterpillars(), st.randoms(use_true_random=False))
def test_fast_paths_match_the_referees_on_caterpillars(config, rng):
    assert_fast_paths_match_the_referees(config, rng)
