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

Many factors share a level m = n*A, and ``novikov._binomial_product``
merges factors of one exponent, so one factor per level is applied:

    prod_m (1 - t^m)^E(m),    E(m) = -sum_{n*A = m} mu(n) * a(A).

``mobius_product`` lists the pairs (A, n) as int keys on the input
series' own grid of step 1/q (see ``novikov``) for that merge's core:
sum_A floor(cutoff / A) pairs in all.  Only levels with E(m) != 0 cost a
binomial factor, and there are at most floor(q*cutoff) of them.
For one orbit of action 1/N the N*log(N) factors of the unmerged product
cancel to the single level m = 1/N.
"""

from __future__ import annotations

from functools import cache

from . import orbits as _orbits
from .errors import NonIntegerCoefficients, NotPositivelySupported
from .novikov import NovikovSeries, RatioLike, _binomial_product, as_ratio

@cache
def mobius(n: int) -> int:
    """Moebius mu(n): 0 if a prime square divides n, else (-1)^(number of
    prime factors).  Trial division with memoization."""
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        else:
            p += 1 if p == 2 else 2
    return -sign if n > 1 else sign


def mobius_product(a: NovikovSeries, cutoff: RatioLike) -> NovikovSeries:
    """The Moebius product transform of an integer series supported on
    positive exponents; see the module docstring for the factor formula.

    Computed as prod_m (1 - t^m)^E(m) over levels m <= cutoff, with
    E(m) = -sum_{n*A = m} mu(n) * a(A): one (n*A, 1, -mu(n) * a(A))
    triple per pair on the int keys of a's own grid, merged by
    ``novikov._binomial_product``, so each level is one factor however
    many pairs (A, n) reach it.

    The result is valid modulo min(cutoff, a.cutoff) and carries that
    cutoff; its constant term is 1.
    """
    cutoff = min(as_ratio(cutoff), a.cutoff)
    if not a.has_integer_coefficients:
        raise NonIntegerCoefficients(
            "transform input must have integer coefficients")
    if not a.is_positively_supported:
        raise NotPositivelySupported(
            "transform input must be supported on positive exponents")
    a = a.truncate(cutoff)
    return _binomial_product(
        a._q, [(n * key, 1, -mu * count) for key, count in a._terms.items()
               for n in range(1, a._bound // key + 1) if (mu := mobius(n))],
        cutoff)


def zeta_via_mobius(orbit_set, cutoff: RatioLike) -> NovikovSeries:
    """Zeta of an orbit set through the good-orbit count series: the
    Moebius product transform applied to ``zeta_good_orbits``.  Agrees
    exactly with ``zeta_product_form``."""
    return mobius_product(_orbits.zeta_good_orbits(orbit_set, cutoff), cutoff)
