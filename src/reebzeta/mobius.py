"""The Moebius function and the Moebius product transform.

The transform turns an integer series of signed orbit counts (Euler
characteristic jumps, one term per action level) into the multiplicative
zeta function: for input a = sum_A a(A) t^A it forms the finite truncated
product over actions A in the support and integers n >= 1 of

    (1 - t^(n*A))^(-a(A) * mu(n)),

factors with n*A beyond the cutoff being 1.  Per single action with count
+1 this reproduces the classical identities

    prod_d prod_n (1 - z^(n*d))^(-mu(n)) = (1 - z)^(-1)        (all d)
    prod_{d odd} prod_n (1 - z^(n*d))^(-mu(n)) = 1 + z         (odd d)

which is exactly what makes the transform invert the orbit-iterate
bookkeeping of the zeta function.

Many factors share a level m = n*A, so ``mobius_product`` merges their
exponents first and applies one factor per level:

    prod_m (1 - t^m)^E(m),    E(m) = -sum_{n*A = m} mu(n) * a(A).

The merge runs on the input series' own integer grid of step 1/q (see
``novikov``), in int arithmetic on its keys and bound: sum_A
floor(cutoff / A) steps in all.  Only levels with E(m) != 0 cost a
binomial factor, and there are at most floor(q*cutoff) of them.
For one orbit of action 1/N the N*log(N) factors of the unmerged product
cancel to the single level m = 1/N.
"""

from __future__ import annotations

from fractions import Fraction

from . import orbits as _orbits
from .errors import NonIntegerCoefficients, NonPositiveSupport
from .novikov import NovikovSeries, RatioLike, as_ratio, binomial_product

_memo = {1: 1}


def mobius(n: int) -> int:
    """Moebius mu(n): 0 if a prime square divides n, else (-1)^(number of
    prime factors).  Trial division with memoization."""
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    cached = _memo.get(n)
    if cached is not None:
        return cached
    m = n
    factors = 0
    p = 2
    value = None
    while p * p <= m:
        if m % p == 0:
            m //= p
            factors += 1
            if m % p == 0:
                value = 0
                break
        else:
            p += 1 if p == 2 else 2
    if value is None:
        if m > 1:
            factors += 1
        value = -1 if factors % 2 else 1
    _memo[n] = value
    return value


def mobius_product(a: NovikovSeries, cutoff: RatioLike) -> NovikovSeries:
    """The Moebius product transform of an integer series supported on
    positive exponents; see the module docstring for the factor formula.

    Computed as prod_m (1 - t^m)^E(m) over levels m <= cutoff in
    ascending order, with E(m) = -sum_{n*A = m} mu(n) * a(A) merged first
    on the int keys of a's own grid, so each level is one factor of
    ``novikov.binomial_product`` however many pairs (A, n) reach it.

    The result is valid modulo min(cutoff, a.cutoff) and carries that
    cutoff; its constant term is 1.
    """
    cutoff = min(as_ratio(cutoff), a.cutoff)
    if not a.has_integer_coefficients:
        raise NonIntegerCoefficients(
            "transform input must have integer coefficients")
    if not a.is_positively_supported:
        raise NonPositiveSupport(
            "transform input must be supported on positive exponents")
    a = a.truncate(cutoff)
    merged = {}
    for key, coeff in a._terms.items():
        count = int(coeff)
        for n in range(1, a._bound // key + 1):
            mu = mobius(n)
            if mu:
                level = n * key
                merged[level] = merged.get(level, 0) - mu * count
    return binomial_product([(Fraction(level, a._q), 1, merged[level])
                             for level in sorted(merged) if merged[level]],
                            cutoff)


def zeta_via_mobius(orbit_set, cutoff: RatioLike) -> NovikovSeries:
    """Zeta of an orbit set through the good-orbit count series: the
    Moebius product transform applied to ``zeta_good_orbits``.  Agrees
    exactly with ``zeta_product_form``."""
    cutoff = as_ratio(cutoff)
    return mobius_product(_orbits.zeta_good_orbits(orbit_set, cutoff), cutoff)
