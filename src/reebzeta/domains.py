"""Closed-form zeta functions for model domains, and the toric
obstruction test.

Two families of star-shaped domains in R^4 admit closed formulas:

* toric domains with axis actions a, b: zeta = 1 / ((1-t^a)(1-t^b)), and
  the orbit-count function below an off-spectrum level T is
  floor(T/a) + floor(T/b).  The orbit families over rational-slope points
  of the boundary cancel as birth-death pairs (an elliptic and a positive
  hyperbolic orbit at one action), so the closed form needs only the axes;
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
from collections import namedtuple
from fractions import Fraction

from .errors import (BadMorseCounts, NonPositiveAction, OnSpectrum, echo,
                     refuse_repeats)
from .novikov import NovikovSeries, RatioLike, as_ratio, binomial_product


class ToricDomain(namedtuple("ToricDomain", "a b")):
    """A star-shaped toric domain, reduced to its two axis orbit actions."""

    __slots__ = ()

    def __new__(cls, a: RatioLike, b: RatioLike):
        a, b = as_ratio(a), as_ratio(b)
        if a <= 0 or b <= 0:
            raise NonPositiveAction(
                f"toric axis actions must be positive, got ({a}, {b})")
        return super().__new__(cls, a, b)


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


class DistinguishResult(namedtuple("DistinguishResult", "verdict witness",
                                   defaults=(None,))):
    """A ``ToricVerdict`` and, for NOT_TORIC_INTERIOR, the witness: the
    smallest exponent with a negative coefficient (a Fraction), else None."""

    __slots__ = ()

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
