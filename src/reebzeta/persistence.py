"""Z/2-graded persistence over the rationals, realized by filtered chain
complexes.

A filtered complex has a distinguished basis, each generator carrying a
Z/2 grading and a rational filtration level; every differential entry must
flip the grading and strictly decrease the filtration.  Its homology below
each level is a persistence module; the normal form theorem says that
module is classified by a barcode, a multiset of graded intervals
[birth, death) or [birth, inf); a bar that never dies has death None.

Two independent computations are implemented on purpose:

* ``homology_dims``      exact rank-nullity over Q of the subcomplex at a
                         level - the brute-force oracle;
* ``barcode_decompose``  column reduction of the boundary matrix in
                         filtration order, producing the barcode.

The zeta function of a complex collects the Euler characteristic jumps of
its persistence module.  By the Euler-Poincare principle the jump of
chi(H) at a level equals the jump of chi of the chain complex, the signed
count (-1)^eps of the generators entering there, so ``zeta_persistence``
is one O(generators) pass that never reduces the differential: the
series constructor puts the levels on the integer grid of
``novikov.grid`` and sums the signed counts per level.  The
barcode route ``zeta_barcode(barcode_decompose(c))`` is a genuinely
different computation of the same series, and the tests check one against
the other and both against rank-nullity.

``FilteredComplex.validate`` is memoised: once it has succeeded, later
calls return at once, so loading, decomposing and computing the zeta of
one complex check it once.  A failed check is not remembered and raises
again on every call.

``barcode_decompose`` orders generators by their keys on the same grid,
``novikov.grid`` of the filtrations, so sorting compares ints rather than
Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (DuplicateLabel, FiltrationViolation, GradingViolation,
                     NotSquareZero)
from .novikov import NovikovSeries, RatioLike, as_ratio, grid


@dataclass(frozen=True)
class ChainGenerator:
    label: str
    eps: int
    filtration: Fraction

    def __post_init__(self):
        object.__setattr__(self, "filtration", as_ratio(self.filtration))
        if self.eps not in (0, 1):
            raise ValueError(f"generator {self.label!r}: eps must be 0 or 1")


class FilteredComplex:
    """Chain complex over Q with graded, filtered basis.

    ``boundary`` entries are triples (x, y, coeff) meaning the coefficient
    of y in the boundary of x is coeff.  Entries are validated lazily: use
    ``validate`` (or any operation that needs a valid complex).
    """

    __slots__ = ("generators", "_index", "_columns", "_valid")

    def __init__(self, generators: Iterable, boundary: Iterable[Tuple] = ()):
        gens = []
        for g in generators:
            if not isinstance(g, ChainGenerator):
                g = ChainGenerator(*g)
            gens.append(g)
        self.generators: Tuple[ChainGenerator, ...] = tuple(gens)
        self._index: Dict[str, int] = {}
        for i, g in enumerate(self.generators):
            if g.label in self._index:
                raise DuplicateLabel(f"generator label {g.label!r} repeated")
            self._index[g.label] = i
        # column j -> {row i: coefficient of generator i in boundary of j}
        self._columns: Dict[int, Dict[int, Fraction]] = {}
        self._valid = False
        for x, y, coeff in boundary:
            coeff = as_ratio(coeff)
            if coeff == 0:
                continue
            j, i = self._lookup(x), self._lookup(y)
            col = self._columns.setdefault(j, {})
            if i in col:
                coeff += col[i]
                if not coeff:
                    del col[i]
                    continue
            col[i] = coeff

    def _lookup(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown generator label {label!r}") from None

    def __len__(self) -> int:
        return len(self.generators)

    def boundary_entries(self):
        """Sorted (x_label, y_label, coeff) triples of the differential."""
        out = []
        for j in sorted(self._columns):
            for i in sorted(self._columns[j]):
                out.append((self.generators[j].label,
                            self.generators[i].label,
                            self._columns[j][i]))
        return out

    def shifted(self, delta: RatioLike) -> "FilteredComplex":
        """The same complex with every filtration level moved by delta."""
        delta = as_ratio(delta)
        gens = [ChainGenerator(g.label, g.eps, g.filtration + delta)
                for g in self.generators]
        entries = [(x, y, c) for x, y, c in self.boundary_entries()]
        return FilteredComplex(gens, entries)

    # -- validity --------------------------------------------------------

    def validate(self) -> "FilteredComplex":
        """Check grading, filtration and d^2 = 0; returns self when valid.
        Only a successful check is remembered."""
        if self._valid:
            return self
        gens = self.generators
        for j, col in self._columns.items():
            for i, c in col.items():
                if gens[j].eps == gens[i].eps:
                    raise GradingViolation(
                        f"<d {gens[j].label!r}, {gens[i].label!r}> = {c} "
                        "with equal gradings")
                if not gens[j].filtration > gens[i].filtration:
                    raise FiltrationViolation(
                        f"<d {gens[j].label!r}, {gens[i].label!r}> = {c} but "
                        f"filtration {gens[j].filtration} <= "
                        f"{gens[i].filtration}")
        # d(d(x)) = 0 for each basis column
        for j, col in self._columns.items():
            square: Dict[int, Fraction] = {}
            for i, c in col.items():
                for i2, c2 in self._columns.get(i, {}).items():
                    square[i2] = square.get(i2, Fraction(0)) + c * c2
            for i2, c in square.items():
                if c:
                    raise NotSquareZero(
                        f"<d(d {gens[j].label!r}), {gens[i2].label!r}> = {c}")
        self._valid = True
        return self


def _rank(columns: List[Dict[int, Fraction]]) -> int:
    """Rank over Q of a matrix given as sparse columns."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                rank += 1
                break
            factor = col[low] / pivot[low]
            for i, c in pivot.items():
                v = col.get(i, 0) - factor * c
                if v:
                    col[i] = v
                elif i in col:
                    del col[i]
    return rank


def homology_dims(complex_: FilteredComplex, level: RatioLike) -> Tuple[int, int]:
    """Graded dimensions (even, odd) of the homology of the subcomplex
    spanned by generators with filtration <= level, by exact rank-nullity
    over the rationals.  This is the oracle everything barcode-shaped is
    checked against."""
    level = as_ratio(level)
    gens = complex_.generators
    included = [i for i, g in enumerate(gens) if g.filtration <= level]
    inc_set = set(included)
    n = [0, 0]
    cols = {0: [], 1: []}
    for j in included:
        n[gens[j].eps] += 1
        col = {i: c for i, c in complex_._columns.get(j, {}).items()
               if i in inc_set}
        if col:
            cols[gens[j].eps].append(col)
    rank_even = _rank(cols[0])   # rank of d restricted to even generators
    rank_odd = _rank(cols[1])
    return (n[0] - rank_even - rank_odd, n[1] - rank_odd - rank_even)


# -- bars and barcodes ---------------------------------------------------

@dataclass(frozen=True)
class Bar:
    """A graded interval [birth, death); death is None for a bar that
    never dies."""

    birth: Fraction
    death: Optional[Fraction]
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "birth", as_ratio(self.birth))
        if self.death is not None:
            object.__setattr__(self, "death", as_ratio(self.death))
            if not self.birth < self.death:
                raise ValueError(
                    f"bar needs birth < death, got [{self.birth}, {self.death})")
        if self.eps not in (0, 1):
            raise ValueError("bar eps must be 0 or 1")

    @property
    def is_finite(self) -> bool:
        return self.death is not None

    def _key(self):
        # infinite bars sort after the finite bars of the same birth
        infinite = self.death is None
        return (self.birth, infinite, 0 if infinite else self.death, self.eps)


class Barcode:
    """A finite multiset of bars, kept in sorted order (birth, death, eps),
    infinite bars after the finite ones of the same birth, so equal
    barcodes are structurally equal."""

    __slots__ = ("bars",)

    def __init__(self, bars: Iterable[Bar] = ()):
        self.bars: Tuple[Bar, ...] = tuple(sorted(bars, key=Bar._key))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        if isinstance(other, Barcode):
            return self.bars == other.bars
        return NotImplemented

    def __repr__(self):
        return f"Barcode({list(self.bars)!r})"

    def graded_dims(self, level: RatioLike) -> Tuple[int, int]:
        """(even, odd) counts of bars alive at the level, i.e. with
        birth <= level < death."""
        level = as_ratio(level)
        dims = [0, 0]
        for bar in self.bars:
            if bar.birth <= level and (bar.death is None or level < bar.death):
                dims[bar.eps] += 1
        return (dims[0], dims[1])


def barcode_decompose(complex_: FilteredComplex) -> Barcode:
    """Barcode of a valid filtered complex by boundary-matrix reduction.

    Generators are processed by (filtration, input position); each reduced
    column pairs a death generator with the birth generator at its lowest
    surviving row, giving a finite bar; unpaired cycles give infinite bars.
    The output is the unique barcode realizing the complex's persistence
    module.

    Filtrations are compared as int keys on the 1/q grid (see
    ``novikov.grid``): the stable sort keeps equal levels in input order,
    and the bars are emitted already in ``Barcode`` order.
    """
    complex_.validate()
    gens = complex_.generators
    _, keys = grid(g.filtration for g in gens)
    order = sorted(range(len(gens)), key=keys.__getitem__)
    pos = [0] * len(gens)
    for p, i in enumerate(order):
        pos[i] = p

    reduced: Dict[int, Dict[int, Fraction]] = {}   # low position -> column
    killed: Dict[int, int] = {}                     # birth index -> death index
    for i in order:
        col = {pos[r]: c for r, c in complex_._columns.get(i, {}).items()}
        while col:
            low = max(col)
            pivot = reduced.get(low)
            if pivot is None:
                break
            factor = col[low] / pivot[low]
            for r, c in pivot.items():
                v = col.get(r, 0) - factor * c
                if v:
                    col[r] = v
                elif r in col:
                    del col[r]
        if col:
            low = max(col)
            reduced[low] = col
            killed[order[low]] = i

    # (birth key, infinite?, death key, eps, birth index, death index)
    rows = [(keys[b], False, keys[d], gens[b].eps, b, d)
            for b, d in killed.items()]
    deaths = set(killed.values())
    rows.extend((keys[i], True, 0, gens[i].eps, i, i) for i in order
                if i not in killed and i not in deaths)
    rows.sort()
    return Barcode([
        Bar(gens[b].filtration,
            None if infinite else gens[d].filtration, eps)
        for _, infinite, _, eps, b, d in rows])


def euler_jump(barcode: Barcode, at: RatioLike) -> int:
    """Euler characteristic jump of the persistence module at a level:
    signed count of bars born there minus signed count of bars dying
    there, signs (-1)^eps."""
    at = as_ratio(at)
    jump = 0
    for bar in barcode:
        sign = -1 if bar.eps else 1
        if bar.birth == at:
            jump += sign
        if bar.death == at:
            jump -= sign
    return jump


def zeta_barcode(barcode: Barcode, cutoff: RatioLike) -> NovikovSeries:
    """Zeta of a barcode: each finite bar contributes
    (-1)^eps (t^birth - t^death), each infinite bar (-1)^eps t^birth."""
    pairs = []
    for bar in barcode:
        sign = -1 if bar.eps else 1
        pairs.append((bar.birth, sign))
        if bar.is_finite:
            pairs.append((bar.death, -sign))
    return NovikovSeries(pairs, cutoff)


def zeta_persistence(complex_: FilteredComplex,
                     cutoff: RatioLike) -> NovikovSeries:
    """Zeta of the persistence module of a filtered complex: the sum of
    Euler characteristic jumps t^level over the finitely many levels where
    the module changes, up to the cutoff.

    By Euler-Poincare the jump at a level is the signed count (-1)^eps of
    the generators with that filtration, so this is one O(generators) pass
    after ``validate()`` (memoised, and still raising on an invalid
    complex): the series constructor sums the counts per level on the
    integer grid and drops the levels above the cutoff; no decomposition
    runs.  Equals ``zeta_barcode`` of ``barcode_decompose``, an independent
    route the tests compare.
    """
    complex_.validate()
    return NovikovSeries([(g.filtration, -1 if g.eps else 1)
                          for g in complex_.generators], cutoff)
