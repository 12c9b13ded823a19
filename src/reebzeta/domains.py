"""Model domains as orbit sets, and the toric obstruction test.

Two families of star-shaped domains in R^4 perturb to finite orbit sets,
and their zetas are ``zeta_product_form`` of those sets:

* toric domains with axis actions a, b: the two elliptic axis orbits,
  zeta = 1 / ((1-t^a)(1-t^b)), and the orbit count below an off-spectrum
  level T is floor(T/a) + floor(T/b).  The orbit families over
  rational-slope boundary points cancel as birth-death pairs;
* circle-invariant domains from a Morse function on the 2-sphere: one
  orbit per critical point p, action supplied directly (standing for
  e^f(p)), positive hyperbolic at a saddle and elliptic otherwise:
  zeta = prod_p (1 - t^action)^((-1)^(index-1)).

Since every toric zeta has nonnegative coefficients, a single negative
coefficient certifies that a domain is not symplectomorphic to the
interior of any star-shaped toric domain; ``distinguish_from_toric``
returns the smallest such exponent, the witness, or None.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (BadMorseCounts, NonPositiveAction, OnSpectrum, echo,
                     refuse_repeats)
from .novikov import NovikovSeries, RatioLike, as_ratio
from .orbits import OrbitSet, SimpleOrbit, zeta_product_form


class ToricDomain(namedtuple("ToricDomain", "a b")):
    """A star-shaped toric domain, reduced to its two axis orbit actions."""

    __slots__ = ()

    def __new__(cls, a: RatioLike, b: RatioLike):
        a, b = as_ratio(a), as_ratio(b)
        if a <= 0 or b <= 0:
            raise NonPositiveAction(
                f"toric axis actions must be positive, got ({a}, {b})")
        return super().__new__(cls, a, b)


def toric_orbit_set(domain: ToricDomain) -> OrbitSet:
    """The axis circles: elliptic orbits "a" and "b" at the axis actions."""
    return OrbitSet([SimpleOrbit(*axis, 0, 0) for axis in zip("ab", domain)])


def toric_zeta(domain: ToricDomain, cutoff: RatioLike) -> NovikovSeries:
    """1 / ((1 - t^a)(1 - t^b)) modulo the cutoff."""
    return zeta_product_form(toric_orbit_set(domain), cutoff)


def toric_euler(domain: ToricDomain, at: RatioLike) -> int:
    """floor(at/a) + floor(at/b): the signed orbit count of the toric
    domain below level ``at``, defined off the action spectrum only."""
    at = as_ratio(at)
    if at <= 0:
        raise NonPositiveAction(f"level must be positive, got {at}")
    qa, qb = at / domain.a, at / domain.b
    if qa.denominator == 1:
        raise OnSpectrum(f"{at} = {qa} * {domain.a} lies on the spectrum")
    if qb.denominator == 1:
        raise OnSpectrum(f"{at} = {qb} * {domain.b} lies on the spectrum")
    return math.floor(qa) + math.floor(qb)


class MorseCriticalPoint(namedtuple("MorseCriticalPoint", "label action index")):
    """A critical point of a Morse function on the 2-sphere: its
    ``label``, the induced orbit ``action`` (a Fraction > 0) and its Morse
    ``index`` (0, 1 or 2; the field shadows ``tuple.index``)."""

    __slots__ = ()

    def __new__(cls, label: str, action: RatioLike, index: int):
        action = as_ratio(action)
        if action <= 0:
            raise NonPositiveAction(
                f"critical point {echo(label)}: action must be positive")
        if type(index) is not int or index not in (0, 1, 2):
            raise ValueError(
                f"critical point {echo(label)}: index must be 0, 1 or 2")
        return super().__new__(cls, label, action, index)


class MorseData:
    """Critical point data of a Morse function on the 2-sphere: (label,
    action, index) triples, labels distinct, with #min - #saddle + #max = 2
    and at least one minimum and one maximum."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points: tuple[MorseCriticalPoint, ...] = tuple(
            MorseCriticalPoint(*p) for p in points)
        refuse_repeats([p.label for p in self.points], "critical point")
        counts = [0, 0, 0]
        for p in self.points:
            counts[p.index] += 1
        if counts[0] - counts[1] + counts[2] != 2 or counts[0] < 1 or counts[2] < 1:
            raise BadMorseCounts(
                f"index counts {tuple(counts)} do not fit the 2-sphere")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def s1_orbit_set(morse: MorseData) -> OrbitSet:
    """One orbit per critical point: hyperbolic at a saddle, else elliptic."""
    return OrbitSet([SimpleOrbit(p.label, p.action, p.index % 2, p.index % 2)
                     for p in morse])


def s1_invariant_zeta(morse: MorseData, cutoff: RatioLike) -> NovikovSeries:
    """prod_p (1 - t^action_p)^((-1)^(index_p - 1)) modulo the cutoff."""
    return zeta_product_form(s1_orbit_set(morse), cutoff)


def distinguish_from_toric(zeta: NovikovSeries) -> Fraction | None:
    """The witness against the toric form: the smallest exponent carrying
    a negative coefficient below the series cutoff, or None.

    Toric zetas have only nonnegative coefficients, so a witness rules
    out a toric interior.  None is inconclusive: agreement below a cutoff
    never certifies toric-ness.
    """
    negative = [n for n, c in zeta._terms.items() if c < 0]
    return Fraction(min(negative), zeta._q) if negative else None
