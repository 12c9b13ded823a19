"""Reeb orbit data and the zeta function of an orbit set.

A closed nondegenerate Reeb flow is abstracted to its finite list of simple
orbits below any action level.  Each simple orbit carries an action A > 0
and two Z/2 Lefschetz parities: eps1 for the orbit itself and eps2 for its
double cover.  Those two bits determine the parity of every d-fold cover
(eps1 for d odd, eps2 for d even), hence every signed count used below.
The three orbit types of a 3D flow are just parity pairs: ``elliptic``
(0, 0), ``positive_hyperbolic`` (1, 1) and ``negative_hyperbolic`` (0, 1).

Three equivalent computations of the zeta function are provided:

* ``zeta_exp_form``      exp of the signed, 1/d-weighted sum over all
                         orbit iterates,
* ``zeta_product_form``  the closed product over simple orbits, one factor
                         (1 - (-1)^(eps1+eps2) t^A)^(-(-1)^eps2) each,
* ``zeta_ech_form``      (3D orbit sets only) the signed sum over ECH
                         generators, i.e. multisets of orbits with
                         hyperbolic multiplicities at most one.

Agreement of the three, coefficient by coefficient, is exact and is the
core consistency check of the library.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import novikov
from .errors import (NonPositiveAction, NotThreeDimensional, echo,
                     refuse_repeats)
from .novikov import NovikovSeries, RatioLike, as_ratio


# The nondegenerate simple-orbit types of a 3-dimensional flow, by the
# eigenvalues of the linearized return map (on the unit circle, positive
# real, negative real), as named in orbit files: (eps1, eps2) each.
_TYPE_PARITIES = {
    "elliptic": (0, 0),
    "pos-hyperbolic": (1, 1),
    "neg-hyperbolic": (0, 1),
}


class SimpleOrbit(namedtuple("SimpleOrbit", "label action eps1 eps2")):
    """A simple (embedded) Reeb orbit: action plus the two Lefschetz
    parities from which all iterate data derives."""

    __slots__ = ()

    def __new__(cls, label: str, action: RatioLike, eps1: int, eps2: int):
        action = as_ratio(action)
        if action <= 0:
            raise NonPositiveAction(
                f"orbit {echo(label)}: action {action} must be > 0")
        if not all(type(e) is int and e in (0, 1) for e in (eps1, eps2)):
            raise ValueError(f"orbit {echo(label)}: parities must be 0 or 1")
        return super().__new__(cls, label, action, eps1, eps2)

    @property
    def is_hyperbolic(self) -> bool:
        """Hyperbolic in the 3D classification: eps2 = 1."""
        return self.eps2 == 1


def elliptic(label: str, action: RatioLike) -> SimpleOrbit:
    return SimpleOrbit(label, action, *_TYPE_PARITIES["elliptic"])


def positive_hyperbolic(label: str, action: RatioLike) -> SimpleOrbit:
    return SimpleOrbit(label, action, *_TYPE_PARITIES["pos-hyperbolic"])


def negative_hyperbolic(label: str, action: RatioLike) -> SimpleOrbit:
    return SimpleOrbit(label, action, *_TYPE_PARITIES["neg-hyperbolic"])


class OrbitSet:
    """A finite set of simple Reeb orbits with pairwise distinct labels.

    Finiteness stands in for nondegeneracy and compactness of the flow:
    below any action level there are only finitely many orbits.
    """

    __slots__ = ("orbits",)

    def __init__(self, orbits: Iterable[SimpleOrbit] = ()):
        orbits = tuple(orbits)
        refuse_repeats([o.label for o in orbits], "orbit")
        self.orbits = orbits

    def __iter__(self) -> Iterator[SimpleOrbit]:
        return iter(self.orbits)

    def __len__(self) -> int:
        return len(self.orbits)

    def __eq__(self, other):
        if isinstance(other, OrbitSet):
            # a set loses nothing: labels are distinct within a set
            return set(self.orbits) == set(other.orbits)
        return NotImplemented

    def __repr__(self):
        return f"OrbitSet({list(self.orbits)!r})"


def _on_grid(orbit_set: Iterable[SimpleOrbit], cutoff: Fraction):
    """The orbits of action <= cutoff, read once, in the order given; the
    grid (q, keys) of their actions; and the cutoff's bound
    floor(q * cutoff)."""
    orbits = [o for o in orbit_set if o.action <= cutoff]
    q, keys = novikov.grid([o.action for o in orbits])
    return orbits, q, keys, cutoff.numerator * q // cutoff.denominator


def iterate_parity(orbit: SimpleOrbit, d: int) -> int:
    """Lefschetz parity of the d-fold cover: eps1 for d odd, eps2 for d
    even (the parity of the count of return-map eigenvalues in (0,1),
    resp. (-1,1))."""
    if d < 1:
        raise ValueError(f"covering multiplicity must be >= 1, got {d}")
    return orbit.eps1 if d % 2 else orbit.eps2


def is_good(orbit: SimpleOrbit, d: int) -> bool:
    """False exactly for the bad covers: d even with eps2 != eps1."""
    return iterate_parity(orbit, d) == orbit.eps1


def zeta_exp_form(orbit_set: OrbitSet, cutoff: RatioLike) -> NovikovSeries:
    """Zeta via the exponential: exp of the sum, over all orbit iterates
    with action below the cutoff, of (-1)^parity / d * t^(d*A)."""
    return novikov.exp(_exp_input(orbit_set, as_ratio(cutoff)))


def _exp_input(orbit_set: OrbitSet, cutoff: Fraction) -> NovikovSeries:
    # The exp argument on the int grid of the actions below the cutoff.
    # The d-fold cover of an orbit with key a sits at key n = d * a, and
    # its coefficient +-1/d is +-a/n, so each key sums int numerators.
    orbits, q, keys, bound = _on_grid(orbit_set, cutoff)
    numerators = {}
    for o, a in zip(orbits, keys):
        # eps1 is the parity of the odd covers, eps2 of the even ones
        for start, eps in ((a, o.eps1), (2 * a, o.eps2)):
            for n in range(start, bound + 1, 2 * a):
                numerators[n] = numerators.get(n, 0) + (-a if eps else a)
    return NovikovSeries._raw(q, {n: novikov._quotient(c, n)
                                  for n, c in numerators.items() if c}, cutoff)


def zeta_product_form(orbit_set: OrbitSet, cutoff: RatioLike) -> NovikovSeries:
    """Zeta via the closed product over simple orbits.

    Each orbit of action A <= cutoff contributes the factor
    (1 - (-1)^(eps1+eps2) t^A) raised to -(-1)^eps2; orbits beyond the
    cutoff contribute 1.  The result always has integer coefficients and
    constant term 1.
    """
    orbits = list(orbit_set)
    q, keys = novikov.grid([o.action for o in orbits])
    return novikov._binomial_product(
        q, [(n, -1 if (o.eps1 + o.eps2) % 2 else 1, 1 if o.eps2 else -1)
            for n, o in zip(keys, orbits)], as_ratio(cutoff))


class EchGenerator(namedtuple("EchGenerator", "pairs grading total_action")):
    """A finite multiset of simple orbits with multiplicities, hyperbolic
    orbits allowed only with multiplicity one: ``pairs`` is a tuple of
    (SimpleOrbit, multiplicity), sorted.  The mod 2 ``grading`` is the
    parity of the number of positive hyperbolic orbits present, and
    ``total_action`` the Fraction sum of multiplicity times action."""

    __slots__ = ()


def ech_generators(orbit_set: OrbitSet, cutoff: RatioLike) -> list[EchGenerator]:
    """All ECH generators with total action <= cutoff, in deterministic
    order (total action, then labels, then multiplicities); none when the
    cutoff is negative.

    Only defined for 3D orbit sets: the parity pair (1, 0) has no
    3-dimensional orbit type and is rejected.  Runs on the int grid of
    the actions, one orbit at a time in ascending action: every choice of
    multiplicities for the orbits so far is itself a generator, and each
    orbit extends only the generators with room left for it, so the pass
    is linear in the generators plus the orbits, before the sort.
    """
    cutoff, orbits = as_ratio(cutoff), list(orbit_set)
    for o in orbits:
        if (o.eps1, o.eps2) == (1, 0):
            raise NotThreeDimensional(
                f"orbit {echo(o.label)} has parities (1, 0)")
    if cutoff < 0:
        return []
    orbits, q, keys, bound = _on_grid(orbits, cutoff)
    # ascending action (keys order as the actions do), then label
    rows = sorted(zip(keys, [o.label for o in orbits], orbits))
    # Rows (int total action, labels, multiplicities, pairs, grading);
    # labels and pairs grow in grid order, so a plain sort is the order of
    # (total action, labels, multiplicities).  Actions ascend, so a row
    # with no room for one orbit has none for any later one.
    found = [(0, (), (), (), 0)]
    room = found[:]
    for a, _, o in rows:
        room = [row for row in room if row[0] + a <= bound]
        # eps1 is 1 exactly for positive hyperbolic orbits
        new = [(total + m * a, labels + (o.label,), mults + (m,),
                chosen + ((o, m),), grading ^ o.eps1)
               for total, labels, mults, chosen, grading in room
               for m in range(1, 2 if o.is_hyperbolic
                              else (bound - total) // a + 1)]
        found += new
        room += new
    found.sort()
    actions = {total: Fraction(total, q) for total in {row[0] for row in found}}
    return [EchGenerator(chosen, grading, actions[total])
            for total, _, _, chosen, grading in found]


def zeta_ech_form(orbit_set: OrbitSet, cutoff: RatioLike) -> NovikovSeries:
    """Zeta as the signed sum (-1)^grading * t^(total action) over all ECH
    generators below the cutoff."""
    return NovikovSeries([(gen.total_action, -1 if gen.grading else 1)
                          for gen in ech_generators(orbit_set, cutoff)], cutoff)


def good_orbit_count(orbit_set: OrbitSet, at: RatioLike) -> int:
    """Signed count of good orbit iterates with total action exactly
    ``at``: the coefficient of t^at in ``zeta_good_orbits``."""
    return int(zeta_good_orbits(orbit_set, at).coefficient(at))


def zeta_good_orbits(orbit_set: OrbitSet, cutoff: RatioLike) -> NovikovSeries:
    """The signed good-orbit count series: sum over good covers gamma^d
    with d*A <= cutoff of (-1)^parity * t^(d*A).

    This is the Euler-characteristic jump series of the filtered homology
    built on good orbits, recorded directly in action exponents; feeding
    it to the Moebius product transform recovers the zeta function.
    """
    cutoff = as_ratio(cutoff)
    orbits, q, keys, bound = _on_grid(orbit_set, cutoff)
    counts = {}
    for o, a in zip(orbits, keys):
        # Every good cover has the parity of the orbit itself, and the even
        # covers, at keys 2a, 4a, ..., are good or bad together.
        sign = -1 if iterate_parity(o, 1) else 1
        for n in range(a, bound + 1, a if is_good(o, 2) else 2 * a):
            counts[n] = counts.get(n, 0) + sign
    return NovikovSeries._raw(q, {n: c for n, c in counts.items() if c}, cutoff)

