"""Tour of the rank-n lattice primitives.

Everything downstream (curve assignments, cycle sums, the enumerator)
reduces to the handful of operations shown here.  In rank 4 the tour
prints, in order: the pairing L_i . L_j = -delta_ij on two basis classes
written as coefficient literals; the canonical class K and its square
-b2; one class of each normal form (exceptional, doubled base, full
cycle, a lone -L3) with its square, its degree against K, its arithmetic
genus from adjunction and what ``classify_normal_form`` makes of it; a
round trip from a TypeA form through ``type_a_class`` and back; how the
order-2 twist adds modulo 2 and stays out of the pairing; and the zero
class as the cycle that starts at n.
"""

from viilattice import (
    FullCycle,
    LatticeClass,
    TypeA,
    add,
    canonical_class,
    classify_normal_form,
    full_cycle_class,
    intersect,
    type_a_class,
    type_b_class,
)

N = 4


def show(label, c):
    form = classify_normal_form(c)
    square = intersect(c, c)
    k_degree = intersect(canonical_class(N), c)
    genus = (square + k_degree) // 2 + 1  # adjunction: 2g - 2 = c.c + K.c
    print(f"  {label:14s} coeffs={c.coeffs}  square={square}  "
          f"k_degree={k_degree}  genus={genus}  -> {form}")


def main():
    print(f"basis pairing in rank {N} (L_i . L_j = -delta_ij):")
    l0, l1 = LatticeClass((1, 0, 0, 0)), LatticeClass((0, 1, 0, 0))
    print(f"  L0.L0 = {intersect(l0, l0)},  L0.L1 = {intersect(l0, l1)}")

    k = canonical_class(N)
    print(f"\ncanonical class K = {k.coeffs}, K^2 = {intersect(k, k)} = -b2")

    print("\nnormal forms and their geometry:")
    show("exceptional", type_a_class(N, 2, {0, 3}))
    show("doubled base", type_b_class(N, 1, {2, 3}))
    show("full cycle", full_cycle_class(N, 1))
    show("plain -L3", LatticeClass((0, 0, 0, -1)))

    print("\nround trip through the classifier:")
    form = TypeA(base=1, blowups=frozenset({0, 2}))
    c = type_a_class(N, form.base, form.blowups)
    print(f"  {form} -> {c.coeffs} -> {classify_normal_form(c)}")

    print("\nthe order-2 twist rides along additively and is invisible "
          "to the pairing:")
    t = full_cycle_class(N, 2, torsion2=True)
    u = full_cycle_class(N, 2)
    print(f"  twisted:   {t.coeffs}, torsion2={t.torsion2}")
    print(f"  t + t:     torsion2={add(t, t).torsion2}  (twists cancel mod 2)")
    print(f"  t + u:     torsion2={add(t, u).torsion2}  (one twist survives)")
    print(f"  t.u = {intersect(t, u)} either way")

    print("\na start index of n encodes the zero class:")
    z = full_cycle_class(N, N)
    print(f"  FullCycle(start={N}) -> {z.coeffs}, "
          f"classified as {classify_normal_form(z)}")
    print(f"  while -L3 alone classifies as {classify_normal_form(LatticeClass((0, 0, 0, -1)))}")
    assert isinstance(classify_normal_form(LatticeClass((0, 0, 0, -1))), FullCycle)


if __name__ == "__main__":
    main()
