"""Closed-form zeta functions for model domains, and the toric
obstruction test.

Two families of star-shaped domains in R^4 admit closed formulas:

* toric domains with axis actions a, b: zeta = 1 / ((1-t^a)(1-t^b)), and
  the orbit-count function below an off-spectrum level T is
  floor(T/a) + floor(T/b);
* circle-invariant domains built from a Morse function on the 2-sphere,
  one simple orbit per critical point p with action supplied directly
  (standing for e^f(p)): zeta = prod_p (1 - t^action)^((-1)^(index-1)).

Since every toric zeta has nonnegative coefficients, a single negative
coefficient certifies that a domain is not symplectomorphic to the
interior of any star-shaped toric domain; ``distinguish_from_toric``
reports the smallest such exponent as a witness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (BadMorseCounts, NonPositiveAction, NotCoprime,
                     OnSpectrum, echo)
from .novikov import NovikovSeries, RatioLike, as_ratio, binomial_product


@dataclass(frozen=True)
class ToricDomain:
    """A star-shaped toric domain, reduced to its two axis orbit actions."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_ratio(self.a))
        object.__setattr__(self, "b", as_ratio(self.b))
        if self.a <= 0 or self.b <= 0:
            raise NonPositiveAction(
                f"toric axis actions must be positive, got ({self.a}, {self.b})")


def toric_zeta(domain: ToricDomain, cutoff: RatioLike) -> NovikovSeries:
    """1 / ((1 - t^a)(1 - t^b)) modulo the cutoff."""
    return binomial_product([(domain.a, 1, -1), (domain.b, 1, -1)], cutoff)


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


@dataclass(frozen=True)
class MomentProfilePoint:
    """A boundary-profile point with rational slope: position w on the
    moment curve (both coordinates positive) and the outward normal v in
    coprime positive integers."""

    w: Tuple[Fraction, Fraction]
    v: Tuple[int, int]

    def __post_init__(self):
        w = (as_ratio(self.w[0]), as_ratio(self.w[1]))
        object.__setattr__(self, "w", w)
        if w[0] <= 0 or w[1] <= 0:
            raise ValueError(
                f"profile point needs positive coordinates, got {w}")
        v = tuple(self.v)
        if len(v) != 2 or any(type(x) is not int for x in v):
            raise TypeError(f"normal must be a pair of ints, got {self.v!r}")
        object.__setattr__(self, "v", v)
        if v[0] < 1 or v[1] < 1:
            raise NotCoprime(f"normal components must be positive, got {v}")
        if math.gcd(v[0], v[1]) != 1:
            raise NotCoprime(f"normal {v} is not coprime")


def toric_family_action(point: MomentProfilePoint) -> Fraction:
    """Symplectic action v1*w1 + v2*w2 of the orbit family over a
    rational-slope profile point."""
    return point.v[0] * point.w[0] + point.v[1] * point.w[1]


@dataclass(frozen=True)
class MorseCriticalPoint:
    label: str
    action: Fraction   # the induced orbit action, > 0
    index: int         # Morse index on the 2-sphere: 0, 1 or 2

    def __post_init__(self):
        object.__setattr__(self, "action", as_ratio(self.action))
        if self.action <= 0:
            raise NonPositiveAction(
                f"critical point {echo(self.label)}: action must be positive")
        if type(self.index) is not int or self.index not in (0, 1, 2):
            raise ValueError(
                f"critical point {echo(self.label)}: index must be 0, 1 or 2")


class MorseData:
    """Critical point data of a Morse function on the 2-sphere, given as
    (label, action, index) triples.  The signed counts must satisfy
    #min - #saddle + #max = 2 with at least one minimum and one maximum."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points: Tuple[MorseCriticalPoint, ...] = tuple(
            MorseCriticalPoint(*p) for p in points)
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


def s1_invariant_zeta(morse: MorseData, cutoff: RatioLike) -> NovikovSeries:
    """Zeta of the circle-invariant domain with the given critical point
    data: the product over critical points of (1 - t^action), inverted
    for indices 0 and 2 and kept as-is for saddles (index 1)."""
    return binomial_product(
        [(p.action, 1, 1 if p.index == 1 else -1)
         for p in morse], cutoff)


class ToricVerdict(enum.Enum):
    NOT_TORIC_INTERIOR = "NotToricInterior"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DistinguishResult:
    verdict: ToricVerdict
    witness: Optional[Fraction] = None

    def __str__(self):
        if self.witness is None:
            return self.verdict.value
        return f"{self.verdict.value} witness {self.witness}"


def distinguish_from_toric(zeta: NovikovSeries) -> DistinguishResult:
    """Test a zeta function against the toric form.

    Toric zetas have only nonnegative coefficients, so the smallest
    exponent carrying a negative coefficient (if any, below the series
    cutoff) rules out a toric interior and is returned as the witness.
    A nonnegative truncation is always inconclusive: agreement below a
    cutoff never certifies toric-ness.
    """
    negative = [n for n, c in zeta._terms.items() if c < 0]
    if negative:
        return DistinguishResult(ToricVerdict.NOT_TORIC_INTERIOR,
                                 Fraction(min(negative), zeta._q))
    return DistinguishResult(ToricVerdict.INCONCLUSIVE)
