#!/usr/bin/env python3
"""Tour of exact truncated series arithmetic.

Every series is a finite sum of rational coefficients times t^(rational
exponent), valid modulo terms above a cutoff.  All arithmetic is exact, so
equalities below are bit-for-bit, never approximate.
"""

from fractions import Fraction as F

from reebzeta import NovikovSeries, exp, log

cutoff = F(3)
one = NovikovSeries.one(cutoff)
t = NovikovSeries({1: 1}, cutoff)
t_half = NovikovSeries({F(1, 2): 1}, cutoff)

print("== building blocks ==")
print("1      :", one)
print("t      :", t)
print("t^(1/2):", t_half)

print()
print("== ring operations (cutoff = min of operands) ==")
a = one + t_half + t
b = one - t
print("a = 1 + t^(1/2) + t  :", a)
print("b = 1 - t            :", b)
print("a + b                :", a + b)
print("a * b                :", a * b)
print("b^2                  :", b ** 2)

print()
print("== units invert by geometric series ==")
inv = b.inverse()
print("(1 - t)^-1           :", inv)
print("check b * b^-1       :", b * inv)
print("(2 + 2t)^-1          :", (2 * (one + t)).inverse())

print()
print("== exp and log connect sums to products ==")
g = t_half + t
print("g = t^(1/2) + t      :", g)
print("exp(g)               :", exp(g))
print("log(exp(g))          :", log(exp(g)))
print("exp(log(1 + t))      :", exp(log(one + t)))

print()
print("== truncation semantics ==")
wide = NovikovSeries({1: 1, 2: 5, 3: -2}, 3)
print("series mod t^>3      :", wide)
print("same mod t^>2        :", wide.truncate(2))
print("ops commute with truncation:",
      (wide * wide).truncate(2) == wide.truncate(2) * wide.truncate(2))
