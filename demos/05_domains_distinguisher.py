#!/usr/bin/env python3
"""Closed-form domains and the toric obstruction.

Star-shaped toric domains have zeta 1/((1-t^a)(1-t^b)): every coefficient
is a nonnegative orbit count.  Circle-invariant domains built from a Morse
function on the sphere have one factor per critical point, and a saddle
contributes (1 - t^action) with a bare minus sign.  When the saddle action
is not a sum of other orbit actions, that minus sign survives into the
zeta function, so the domain cannot be symplectomorphic to the interior of
any star-shaped toric domain, however close to a round ball it is.
"""

from fractions import Fraction as F

from reebzeta import (MorseData, OrbitSet, ToricDomain,
                      distinguish_from_toric, elliptic, mobius_product,
                      positive_hyperbolic, s1_invariant_zeta, toric_euler,
                      toric_zeta, zeta_ech_form, zeta_exp_form,
                      zeta_good_orbits, zeta_product_form, zeta_via_mobius)

print("== toric domains ==")
ball_like = ToricDomain(1, 1)
ellipsoid = ToricDomain(1, F(3, 2))
print("zeta of X(1,1)   mod t^>4:", toric_zeta(ball_like, 4))
print("zeta of X(1,3/2) mod t^>4:", toric_zeta(ellipsoid, 4))

print()
print("orbit count below off-spectrum levels of X(1,3/2):")
for level in (F(1, 2), F(7, 4), F(7, 2), F(23, 4)):
    print(f"  T = {str(level):>4}: {toric_euler(ellipsoid, level)}")

print()
print("the toric zeta is the zeta of two elliptic orbits:")
two = OrbitSet([elliptic("a", 1), elliptic("b", F(3, 2))])
assert toric_zeta(ellipsoid, 6) == zeta_product_form(two, 6)
print("  toric_zeta(1, 3/2) == zeta_product_form({elliptic 1, elliptic 3/2})")
print("and of its good-orbit counts through the Moebius transform:")
assert mobius_product(zeta_good_orbits(two, 6), 6) == toric_zeta(ellipsoid, 6)
print("  transform(jump series) == toric_zeta(1, 3/2)")

print()
# The torus of orbits over the boundary point w = (1/3, 1/2) with normal
# v = (3, 2) has action 3*(1/3) + 2*(1/2) = 2.  A Morse-Bott perturbation
# splits it into an elliptic and a positive hyperbolic orbit at action 2.
family = OrbitSet([*two, elliptic("f", 2), positive_hyperbolic("f_", 2)])
for route in (zeta_exp_form, zeta_product_form, zeta_ech_form,
              zeta_via_mobius):
    assert route(family, 6) == toric_zeta(ellipsoid, 6)
print("an orbit family is a birth-death pair: it cancels in all four zetas")

print()
print("== a circle-invariant domain that is provably not toric inside ==")
# Morse data: minima at actions 1 and 4, a saddle at 3/2, a maximum at 3.
morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                   ("max", 3, 2), ("min2", 4, 0)])
zeta = s1_invariant_zeta(morse, 2)
print("zeta mod t^>2:", zeta)
verdict = distinguish_from_toric(zeta)
print("verdict:", verdict)
assert verdict.witness == F(3, 2)

print()
print("toric domains themselves never trigger the obstruction:")
for a, b in ((1, 1), (F(3, 2), 2), (F(5, 3), F(7, 4))):
    print(f"  X({a},{b}):", distinguish_from_toric(toric_zeta(ToricDomain(a, b), 6)))
