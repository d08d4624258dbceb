"""Integer homology lattice of the surfaces under study.

The second integral cohomology of a minimal surface of class VII with
positive second Betti number n carries a basis E_0 .. E_{n-1} with

    E_i . E_j = -delta_ij

so the intersection form is the negative-definite diagonal form of rank n.
In that basis the canonical class is minus the sum of the duals; we work
throughout with the "line bundle" coordinates in which the canonical class
K has every coefficient equal to one, K . K = -n, and the exceptional
classes L_i (K . L_i = L_i . L_i = -1) are the basis vectors themselves.

Classes may also carry an order-2 twist by a flat line bundle.  The twist
is kept as a boolean tag: it takes part in equality but contributes nothing
to any intersection number.

Curve classes on these surfaces fall into three coefficient patterns (plus
"anything else"):

* ``TypeA(base, blowups)``   -- L_base - sum of L_j over the blowup set, the
  class of an exceptional curve blown up len(blowups) times;
* ``TypeB(base, blowups)``   -- -2 L_base - sum over the blowup set;
* ``FullCycle(start)``       -- -(L_start + ... + L_{n-1}), the class of the
  sum of a cycle of rational curves; start = n yields the zero class.

All indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .curves import _ints, _is_int
from .errors import DimensionMismatch, DomainError


@dataclass(frozen=True)
class LatticeClass:
    """A lattice vector in the L_i coordinates, plus an order-2 twist flag."""

    coeffs: tuple[int, ...]
    torsion2: bool = False

    def __post_init__(self):
        coeffs = self.coeffs
        # a tuple of exact ints is kept as it is (a bool is not an exact int)
        if type(coeffs) is not tuple or not all(type(x) is int for x in coeffs):
            coeffs = tuple(_ints(coeffs, "lattice coefficients"))
            object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise DomainError("lattice rank must be at least 1")

    @property
    def rank(self) -> int:
        return len(self.coeffs)


def canonical_class(n: int) -> LatticeClass:
    """The canonical class: every coefficient 1, square -n."""
    _check_rank(n)
    return LatticeClass((1,) * n)


def intersect(a: LatticeClass, b: LatticeClass) -> int:
    """Intersection number of two classes.

    The basis is orthogonal with square -1, so this is minus the dot
    product of the coefficient vectors.  Twist flags are ignored: flat
    bundles are numerically trivial.
    """
    if a.rank != b.rank:
        raise DimensionMismatch(f"rank {a.rank} vs rank {b.rank}")
    return -sum(x * y for x, y in zip(a.coeffs, b.coeffs))


def add(a: LatticeClass, b: LatticeClass) -> LatticeClass:
    """Sum of classes; order-2 twists add modulo 2."""
    if a.rank != b.rank:
        raise DimensionMismatch(f"rank {a.rank} vs rank {b.rank}")
    return LatticeClass(
        tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
        torsion2=a.torsion2 != b.torsion2,
    )


# --- normal forms ---------------------------------------------------------


@dataclass(frozen=True)
class TypeA:
    """c = L_base - sum(L_j for j in blowups), base not a blowup."""

    base: int
    blowups: frozenset[int]


@dataclass(frozen=True)
class TypeB:
    """c = -2 L_base - sum(L_j for j in blowups), base not a blowup."""

    base: int
    blowups: frozenset[int]


@dataclass(frozen=True)
class FullCycle:
    """c = -(L_start + ... + L_{n-1}); start = n is the zero class."""

    start: int


@dataclass(frozen=True)
class Other:
    """No recognised coefficient pattern."""


NormalForm = Union[TypeA, TypeB, FullCycle, Other]


def type_a_class(n: int, base: int, blowups, torsion2: bool = False) -> LatticeClass:
    return _base_minus_blowups(n, base, 1, blowups, torsion2)


def type_b_class(n: int, base: int, blowups) -> LatticeClass:
    return _base_minus_blowups(n, base, -2, blowups)


def full_cycle_class(n: int, start: int, torsion2: bool = False) -> LatticeClass:
    _check_rank(n)
    _check_index("cycle start", start, n)
    return LatticeClass(
        tuple(-1 if j >= start else 0 for j in range(n)), torsion2=torsion2
    )


def classify_normal_form(c: LatticeClass) -> NormalForm:
    """Match the coefficient pattern of c against the three curve-class forms.

    The patterns are mutually exclusive: TypeA requires a single +1, TypeB a
    single -2, FullCycle only -1 entries filling a tail [start, n-1].  A lone
    -1 entry is therefore FullCycle(n-1) when it sits at the last position
    and Other anywhere else, never TypeA.  The zero class is FullCycle(n).
    """
    n = c.rank
    plus, minus1, minus2 = [], [], []
    for j, x in enumerate(c.coeffs):
        if x == -1:
            minus1.append(j)
        elif x == 1:
            plus.append(j)
        elif x == -2:
            minus2.append(j)
        elif x:
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


def _check_rank(n: int) -> None:
    if not _is_int(n):
        raise DomainError(f"lattice rank must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"lattice rank must be at least 1, got {n}")


def _check_index(what: str, i: int, high: int) -> None:
    """DomainError unless i is an int (a bool is not) in [0, high]."""
    if not _is_int(i):
        raise DomainError(f"{what} must be an integer, got {i!r}")
    if not 0 <= i <= high:
        raise DomainError(f"{what} {i} outside [0, {high}]")


def _base_minus_blowups(
    n: int, base: int, lead: int, blowups, torsion2: bool = False
) -> LatticeClass:
    """lead * L_base - sum(L_j for j in blowups): the TypeA and TypeB classes."""
    _check_rank(n)
    _check_index("base index", base, n - 1)
    # every index is checked before the base is looked up: 1.0 would match base 1
    indices = list(blowups)
    for j in indices:
        _check_index("blowup index", j, n - 1)
    if base in indices:
        raise DomainError(f"base index {base} cannot be one of its own blowups")
    coeffs = [0] * n
    coeffs[base] = lead
    for j in indices:
        coeffs[j] = -1
    return LatticeClass(tuple(coeffs), torsion2=torsion2)
