#!/usr/bin/env python3
"""From signed orbit counts back to the zeta function.

The good-orbit jump series records, per action level, the signed count of
good orbit covers there.  The Moebius product transform rebuilds the full
multiplicative zeta function from those counts alone:

    transform(a) = prod_A prod_n (1 - t^(n*A)) ** (-a(A) * mu(n))

The single-orbit cases are classical Moebius identities; with counts +1 on
every level d the product telescopes to 1/(1-t), and with counts +1 on odd
levels only it telescopes to 1+t.
"""

from reebzeta import (NovikovSeries, OrbitSet, SimpleOrbit, mobius,
                      mobius_product, zeta_good_orbits, zeta_product_form,
                      zeta_via_mobius)

print("mu(n) for n = 1..12:", [mobius(n) for n in range(1, 13)])

print()
print("== telescoping identities ==")
tower = NovikovSeries({d: 1 for d in range(1, 9)}, 8)
print("counts 1 at every level 1..8  ->", mobius_product(tower, 8))
odd = NovikovSeries({d: 1 for d in (1, 3, 5, 7)}, 8)
print("counts 1 at odd levels only   ->", mobius_product(odd, 8))

print()
print("== the four parity cases, single orbit of action 1, cutoff 6 ==")
names = {(0, 0): "elliptic           ",
         (1, 1): "positive hyperbolic",
         (0, 1): "negative hyperbolic",
         (1, 0): "parity pair (1,0)  "}
for parities, name in names.items():
    single = OrbitSet([SimpleOrbit("g", 1, *parities)])
    jumps = zeta_good_orbits(single, 6)
    direct = zeta_product_form(single, 6)
    assert zeta_via_mobius(single, 6) == direct
    print(f"  {name} jumps {str(jumps):<42} zeta {direct}")

print()
print("== transform is multiplicative over disjoint supports ==")
a = NovikovSeries({1: 2, 3: -1}, 6)
b = NovikovSeries({2: 1, 5: 1}, 6)
assert mobius_product(a + b, 6) == mobius_product(a, 6) * mobius_product(b, 6)
print("transform(a + b) == transform(a) * transform(b):",
      mobius_product(a + b, 6))
