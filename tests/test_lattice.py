import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viilattice import (
    DimensionMismatch,
    DomainError,
    FullCycle,
    LatticeClass,
    Other,
    TypeA,
    TypeB,
    add,
    canonical_class,
    classify_normal_form,
    full_cycle_class,
    intersect,
    type_a_class,
    type_b_class,
)


def _basis(n: int, i: int) -> LatticeClass:
    """The exceptional class L_i in rank n, written out."""
    return LatticeClass(tuple(1 if j == i else 0 for j in range(n)))


def test_basis_pairing():
    n = 5
    for i in range(n):
        for j in range(n):
            got = intersect(_basis(n, i), _basis(n, j))
            assert got == (-1 if i == j else 0)


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), 1.5, "1", True], ids=["fraction", "float", "str", "bool"]
)
def test_class_refuses_non_integer_coefficients(bad):
    # LatticeClass((0.5, -1.9)).coeffs used to read (0, -1)
    assert LatticeClass([0, -1]).coeffs == (0, -1)
    with pytest.raises(DomainError, match="integers"):
        LatticeClass((bad, -1))


# L_i is the TypeA class with no blowups, and the zero class the empty cycle
CONSTRUCTOR_SLOTS = {
    "basis-rank": lambda v: type_a_class(v, 0, ()),
    "basis-index": lambda v: type_a_class(3, v, ()),
    "canonical-rank": canonical_class,
    "zero-rank": lambda v: full_cycle_class(v, v),
    "cycle-rank": lambda v: full_cycle_class(v, 0),
    "cycle-start": lambda v: full_cycle_class(3, v),
    "type-a-rank": lambda v: type_a_class(v, 0, []),
    "type-a-base": lambda v: type_a_class(3, v, [2]),
    "type-a-blowup": lambda v: type_a_class(3, 0, [v]),
    "type-b-rank": lambda v: type_b_class(v, 0, []),
    "type-b-base": lambda v: type_b_class(3, v, [2]),
    "type-b-blowup": lambda v: type_b_class(3, 0, [v]),
}


@pytest.mark.parametrize("slot", CONSTRUCTOR_SLOTS)
@pytest.mark.parametrize(
    "bad", [1.0, Fraction(3, 2), "1", True], ids=["float", "fraction", "str", "bool"]
)
def test_constructors_refuse_non_integer_ranks_and_indices(slot, bad):
    # L_i built at index 1.5 used to come out as the zero class and
    # type_b_class(3, 0, ["2"]) a class with L_2 as a blowup
    build = CONSTRUCTOR_SLOTS[slot]
    assert isinstance(build(1), LatticeClass)
    with pytest.raises(DomainError, match="must be an integer"):
        build(bad)


def test_canonical_square_and_degrees():
    for n in range(1, 9):
        k = canonical_class(n)
        assert intersect(k, k) == -n
        for i in range(n):
            assert intersect(k, _basis(n, i)) == -1


def test_rank_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        intersect(LatticeClass((0, 0)), LatticeClass((0, 0, 0)))
    with pytest.raises(DimensionMismatch):
        add(LatticeClass((0, 0)), LatticeClass((0, 0, 0)))


def test_rank_zero_rejected():
    with pytest.raises(DomainError):
        LatticeClass(())
    with pytest.raises(DomainError):
        LatticeClass([])


class _Int(int):
    pass


class _Tuple(tuple):
    pass


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("spot", [0, 2], ids=["first", "last"])
@pytest.mark.parametrize("box", [tuple, list, _Tuple], ids=["tuple", "list", "tuple-subclass"])
def test_class_refuses_a_stray_coefficient_in_any_container(bad, spot, box):
    coeffs = [0, -1, 1]
    coeffs[spot] = bad
    with pytest.raises(DomainError, match="integers"):
        LatticeClass(box(coeffs))


def test_class_keeps_or_converts_its_coefficients_to_a_tuple_of_ints():
    exact = (1, -1, 0)
    assert LatticeClass(exact).coeffs is exact
    for raw in ([1, -1, 0], _Tuple(exact), (_Int(1), -1, 0), iter(exact)):
        coeffs = LatticeClass(raw).coeffs
        assert coeffs == exact and type(coeffs) is tuple
        assert all(type(x) is int for x in coeffs)


def test_torsion_adds_mod_two():
    a = LatticeClass((1, 0), torsion2=True)
    b = LatticeClass((0, 1), torsion2=True)
    assert add(a, b).torsion2 is False
    # order-2: -b carries the twist of b, so a - b is untwisted too
    assert add(a, LatticeClass((0, -1), torsion2=True)).torsion2 is False
    assert add(a, LatticeClass((0, 0))).torsion2 is True
    # the twist never shows up in intersection numbers
    assert intersect(a, b) == intersect(LatticeClass((1, 0)), LatticeClass((0, 1)))


small_rank = st.integers(min_value=1, max_value=6)
coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def lattice_classes(draw, n=None):
    if n is None:
        n = draw(small_rank)
    return LatticeClass(tuple(draw(coeff) for _ in range(n)))


@given(st.data())
def test_intersect_bilinear(data):
    n = data.draw(small_rank)
    a = data.draw(lattice_classes(n=n))
    b = data.draw(lattice_classes(n=n))
    c = data.draw(lattice_classes(n=n))
    assert intersect(add(a, b), c) == intersect(a, c) + intersect(b, c)
    assert intersect(a, b) == intersect(b, a)


@given(st.data())
def test_square_minus_one_means_exceptional(data):
    # c.c = -1 forces a single coefficient of +-1: the exceptional classes
    # are exactly the (possibly negated) basis vectors
    n = data.draw(small_rank)
    c = data.draw(lattice_classes(n=n))
    if intersect(c, c) == -1:
        nonzero = [x for x in c.coeffs if x != 0]
        assert nonzero in ([1], [-1])


def test_normal_form_realize_and_classify_roundtrip():
    n = 6
    build = {
        TypeA: lambda f: type_a_class(n, f.base, f.blowups),
        TypeB: lambda f: type_b_class(n, f.base, f.blowups),
        FullCycle: lambda f: full_cycle_class(n, f.start),
    }
    cases = [
        TypeA(2, frozenset({0, 4})),
        TypeA(0, frozenset()),
        TypeB(1, frozenset({3})),
        TypeB(5, frozenset()),
        FullCycle(0),
        FullCycle(3),
        FullCycle(n),  # zero class
    ]
    for form in cases:
        c = build[type(form)](form)
        assert classify_normal_form(c) == form


@given(st.data())
def test_type_a_classify_roundtrip(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    base = data.draw(st.integers(min_value=0, max_value=n - 1))
    rest = [i for i in range(n) if i != base]
    blowups = frozenset(data.draw(st.sets(st.sampled_from(rest))))
    c = type_a_class(n, base, blowups)
    assert classify_normal_form(c) == TypeA(base, blowups)
    self_int, k_degree = intersect(c, c), intersect(canonical_class(n), c)
    assert self_int == -1 - len(blowups)
    assert k_degree == -1 + len(blowups)
    # adjunction, 2g - 2 = c.c + K.c: a smooth rational curve
    assert self_int + k_degree == -2


def test_lone_negative_basis_vector_is_a_tail_only_at_the_end():
    # -L_{n-1} is the one-curve tail; -L_j elsewhere matches no pattern
    n = 4
    assert classify_normal_form(LatticeClass((0, 0, 0, -1))) == FullCycle(3)
    assert classify_normal_form(LatticeClass((0, -1, 0, 0))) == Other()
    assert classify_normal_form(LatticeClass((0, 0, -1, -1))) == FullCycle(2)
    assert classify_normal_form(LatticeClass((-1, 0, 0, -1))) == Other()


def _four_pass_normal_form(c: LatticeClass):
    """classify_normal_form as it read with one comprehension per entry kind,
    the referee of the one-pass reading."""
    n = c.rank
    plus = [j for j, x in enumerate(c.coeffs) if x == 1]
    minus2 = [j for j, x in enumerate(c.coeffs) if x == -2]
    minus1 = [j for j, x in enumerate(c.coeffs) if x == -1]
    stray = [x for x in c.coeffs if x not in (0, 1, -1, -2)]
    if stray:
        return Other()
    if len(plus) == 1 and not minus2:
        return TypeA(plus[0], frozenset(minus1))
    if len(minus2) == 1 and not plus:
        return TypeB(minus2[0], frozenset(minus1))
    if not plus and not minus2:
        start = n - len(minus1)
        if minus1 == list(range(start, n)):
            return FullCycle(start)
    return Other()


def test_one_pass_normal_form_matches_the_four_pass_referee():
    seen = set()
    for n in range(1, 5):
        for coeffs in itertools.product(range(-3, 3), repeat=n):
            klass = LatticeClass(coeffs)
            form = classify_normal_form(klass)
            assert form == _four_pass_normal_form(klass), coeffs
            seen.add(type(form))
    assert seen == {TypeA, TypeB, FullCycle, Other}


def test_patterns_are_mutually_exclusive():
    # a few vectors that sit close to two patterns at once
    n = 3
    assert classify_normal_form(LatticeClass((-2, 0, 0))) == TypeB(0, frozenset())
    assert classify_normal_form(LatticeClass((-2, -2, 0))) == Other()
    assert classify_normal_form(LatticeClass((1, 1, 0))) == Other()
    assert classify_normal_form(LatticeClass((0,) * n)) == FullCycle(n)


def test_full_cycle_geometry():
    # the class of an r-cycle: square -(n - start), K-degree n - start
    n = 5
    for start in range(n + 1):
        c = full_cycle_class(n, start)
        self_int, k_degree = intersect(c, c), intersect(canonical_class(n), c)
        assert self_int == -(n - start)
        assert k_degree == n - start
        # adjunction, 2g - 2 = c.c + K.c: genus 1
        assert self_int + k_degree == 0


def test_type_b_geometry():
    n = 4
    c = type_b_class(n, 0, {1, 2})
    self_int, k_degree = intersect(c, c), intersect(canonical_class(n), c)
    assert self_int == -6
    assert k_degree == 4
    # adjunction, 2g - 2 = c.c + K.c: genus 0
    assert self_int + k_degree == -2


def test_base_inside_blowups_rejected():
    with pytest.raises(DomainError):
        type_a_class(4, 1, {1, 2})
    with pytest.raises(DomainError):
        type_b_class(4, 0, {0})
    with pytest.raises(DomainError):
        full_cycle_class(3, 5)
