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
is one O(generators) pass that never reduces the differential: it sums
the signed counts per int key and hands only the levels up to the
cutoff to the series constructor.  The
barcode route ``zeta_barcode(barcode_decompose(c))`` is a genuinely
different computation of the same series, and the tests check one against
the other and both against rank-nullity.

Every ``FilteredComplex`` is valid: its constructor ends by running
``validate``, so a complex that breaks a rule is never built, and the
computations below take validity for granted.  A complex keeps its
levels as q and int keys on the 1/q grid of ``novikov.grid``, and whole
coefficients as ints, as ``NovikovSeries`` does, so the code below compares
levels as ints and does int arithmetic wherever the coefficients are whole.
Keys are the only stored form: ``filtrations`` and Bars are built on each
read, and one builder, ``Barcode._from_rows``, orders every barcode's rows.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .errors import (FiltrationViolation, GradingViolation, InternalError,
                     NotSquareZero, UnknownLabel, echo, refuse_repeats)
from .novikov import (NovikovSeries, RatioLike, _bound, _norm_coeff,
                      _quotient, as_ratio, grid)


class FilteredComplex:
    """Chain complex over Q with graded, filtered basis.

    ``generators`` are triples (label, eps, filtration), eps 0 or 1, kept
    as the parallel lists ``labels``, ``eps`` and ``keys`` (the levels as
    ints on the 1/q grid of ``novikov.grid``, with ``q``); ``filtrations``
    are built from the keys.  ``boundary`` entries are triples (x, y, coeff)
    meaning the coefficient of y in the boundary of x is coeff.  The
    constructor is one pass over each, then ``validate``, which checks
    grading, filtration and d^2 = 0 with one step per entry of d and per
    term of the products forming d^2, and raises on a violation.
    """

    __slots__ = ("labels", "eps", "q", "keys", "_columns")

    def __init__(self, generators: Iterable, boundary: Iterable[tuple] = ()):
        labels, eps, filtrations = [], [], []
        for label, e, filtration in generators:
            filtrations.append(as_ratio(filtration))
            if type(e) is not int or e not in (0, 1):
                raise ValueError(f"generator {echo(label)}: eps must be 0 or 1")
            labels.append(label)
            eps.append(e)
        self._build(labels, eps, *grid(filtrations), boundary)

    @classmethod
    def _from_keys(cls, labels, eps, q, keys, boundary) -> "FilteredComplex":
        # Internal: eps all 0 or 1, (q, keys) what ``grid`` gives.
        self = object.__new__(cls)
        self._build(labels, eps, q, keys, boundary)
        return self

    def _build(self, labels, eps, q, keys, boundary) -> None:
        index = dict(zip(labels, range(len(labels))))
        if len(index) < len(labels):
            refuse_repeats(labels, "generator")
        self.labels, self.eps, self.q, self.keys = labels, eps, q, keys
        # column j -> {row i: coefficient of generator i in boundary of j}
        self._columns: dict[int, dict[int, object]] = {}
        for x, y, coeff in boundary:
            if type(coeff) is not int:
                coeff = _norm_coeff(as_ratio(coeff))
            try:
                j, i = index[x], index[y]
            except KeyError as exc:
                raise UnknownLabel(
                    f"unknown generator label {echo(exc.args[0])}") from None
            if not coeff:
                continue
            col = self._columns.setdefault(j, {})
            if i in col:
                coeff = _norm_coeff(coeff + col[i])
                if not coeff:
                    del col[i]
                    continue
            col[i] = coeff
        self.validate()

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def filtrations(self) -> list[Fraction]:
        return [Fraction(n, self.q) for n in self.keys]

    # -- validity --------------------------------------------------------

    def validate(self) -> None:
        """Check grading, filtration and d^2 = 0, raising on a violation.
        Levels are compared as int keys."""
        labels, eps, keys, columns = self.labels, self.eps, self.keys, self._columns
        for j, col in columns.items():
            e, key = eps[j], keys[j]
            for i, c in col.items():
                if eps[i] == e or keys[i] >= key:
                    entry = f"<d {echo(labels[j])}, {echo(labels[i])}> = {c}"
                    if eps[i] == e:
                        raise GradingViolation(f"{entry} with equal gradings")
                    raise FiltrationViolation(
                        f"{entry} but filtration {Fraction(key, self.q)} <= "
                        f"{Fraction(keys[i], self.q)}")
        # d(d(x)) = 0 for each basis column
        for j, col in columns.items():
            square: dict[int, object] = {}
            for i, c in col.items():
                below = columns.get(i)
                if below:
                    for i2, c2 in below.items():
                        square[i2] = square.get(i2, 0) + c * c2
            for i2, c in square.items():
                if c:
                    raise NotSquareZero(
                        f"<d(d {echo(labels[j])}), {echo(labels[i2])}> = {c}")


def _reduce(col: dict[int, object], pivots: dict[int, dict[int, object]]):
    """Subtract multiples of the pivot columns (keyed by their lowest row)
    from col, in place, until col is empty or its lowest row has no pivot;
    then file col as that row's pivot and return the row, or None.  A step
    that leaves its pivot row raises InternalError rather than loop."""
    while col:
        low = max(col)
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = col
            return low
        factor = _quotient(col[low], pivot[low])
        for r, c in pivot.items():
            v = col.get(r, 0) - factor * c
            if v:
                col[r] = v
            elif r in col:
                del col[r]
        if low in col:
            raise InternalError(f"column reduction left pivot row {low}")
    return None


def _rank(columns: list[dict[int, object]]) -> int:
    """Rank over Q of a matrix given as sparse columns."""
    pivots: dict[int, dict[int, object]] = {}
    for col in columns:
        _reduce(dict(col), pivots)
    return len(pivots)


def homology_dims(complex_: FilteredComplex, level: RatioLike) -> tuple[int, int]:
    """Graded dimensions (even, odd) of the homology of the subcomplex
    spanned by generators with filtration <= level, by exact rank-nullity
    over the rationals.  This is the oracle everything barcode-shaped is
    checked against."""
    level = as_ratio(level)
    eps = complex_.eps
    included = {i for i, f in enumerate(complex_.filtrations) if f <= level}
    n, cols = [0, 0], ([], [])
    for j in sorted(included):
        n[eps[j]] += 1
        cols[eps[j]].append({i: c for i, c in complex_._columns.get(j, {}).items()
                             if i in included})
    # rank of d restricted to the even generators plus to the odd ones
    rank = _rank(cols[0]) + _rank(cols[1])
    return (n[0] - rank, n[1] - rank)


# -- bars and barcodes ---------------------------------------------------

class Bar(namedtuple("Bar", "birth death eps")):
    """A graded interval [birth, death); death is None for a bar that
    never dies."""

    __slots__ = ()

    def __new__(cls, birth: RatioLike, death: RatioLike | None, eps: int):
        birth = as_ratio(birth)
        if death is not None:
            death = as_ratio(death)
            if not birth < death:
                raise ValueError(
                    f"bar needs birth < death, got [{birth}, {death})")
        if type(eps) is not int or eps not in (0, 1):
            raise ValueError("bar eps must be 0 or 1")
        return super().__new__(cls, birth, death, eps)


class Barcode:
    """A finite multiset of bars, kept as sorted ``rows`` (birth key, death
    key or None, eps) on the grid q of its endpoints (``novikov.grid``),
    infinite bars after the finite ones of the same birth, so equal
    barcodes are structurally equal."""

    __slots__ = ("q", "rows")

    def __new__(cls, bars: Iterable[Bar] = ()):
        bars = list(bars)
        ends = [x for b in bars for x in (b.birth, b.death) if x is not None]
        q, keys = grid(ends)
        key = {None: 0, **dict(zip(ends, keys))}
        return cls._from_rows(q, [(key[b.birth], b.death is None, key[b.death],
                                   b.eps) for b in bars])

    @classmethod
    def _from_rows(cls, q: int, rows: list) -> "Barcode":
        """The barcode on the grid q of (birth key, infinite?, death key or
        0, eps) tuples: the one place the row order is set, by sorting."""
        self = object.__new__(cls)
        self.q, self.rows = q, [(b, None if infinite else d, e)
                                for b, infinite, d, e in sorted(rows)]
        return self

    @property
    def bars(self) -> tuple[Bar, ...]:
        q = self.q
        return tuple(Bar(Fraction(b, q), d if d is None else Fraction(d, q), e)
                     for b, d, e in self.rows)

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if isinstance(other, Barcode):
            return (self.q, self.rows) == (other.q, other.rows)
        return NotImplemented

    def __repr__(self):
        return f"Barcode({list(self.bars)!r})"

    def graded_dims(self, level: RatioLike) -> tuple[int, int]:
        """(even, odd) counts of bars alive at the level, i.e. with
        birth <= level < death, compared as keys."""
        bound, dims = _bound(self.q, as_ratio(level)), [0, 0]
        for b, d, e in self.rows:
            if b <= bound and (d is None or bound < d):
                dims[e] += 1
        return (dims[0], dims[1])


def barcode_decompose(complex_: FilteredComplex) -> Barcode:
    """Barcode of a filtered complex by boundary-matrix reduction.

    Generators are processed by (filtration, input position); each reduced
    column pairs a death generator with the birth generator at its lowest
    surviving row, giving a finite bar; unpaired cycles give infinite bars.
    The output is the unique barcode realizing the complex's persistence
    module.

    Filtrations are compared through the complex's int ``keys``: the
    stable sort keeps equal levels in input order, and the result holds
    the complex's q and rows of keys in ``Barcode`` order, with no
    Fraction or Bar built.  Pivots divide through ``novikov._quotient``,
    so whole coefficients stay ints.
    """
    keys, eps = complex_.keys, complex_.eps
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = {i: p for p, i in enumerate(order)}

    reduced: dict[int, dict[int, object]] = {}     # low position -> column
    killed: dict[int, int] = {}                     # birth index -> death index
    columns = complex_._columns
    for i in filter(columns.__contains__, order):   # skip empty columns
        low = _reduce({pos[r]: c for r, c in columns[i].items()}, reduced)
        if low is not None:
            killed[order[low]] = i

    # (birth key, infinite?, death key or 0, eps), for Barcode._from_rows
    rows = [(keys[b], False, keys[d], eps[b]) for b, d in killed.items()]
    deaths = set(killed.values())
    rows.extend((keys[i], True, 0, eps[i]) for i in order
                if i not in killed and i not in deaths)
    return Barcode._from_rows(complex_.q, rows)


def euler_jump(barcode: Barcode, at: RatioLike) -> int:
    """Euler characteristic jump of the persistence module at a level:
    signed count of bars born there minus signed count of bars dying
    there, signs (-1)^eps; the coefficient of t^at in ``zeta_barcode``."""
    return int(zeta_barcode(barcode, at).coefficient(at))


def zeta_barcode(barcode: Barcode, cutoff: RatioLike) -> NovikovSeries:
    """Zeta of a barcode: each finite bar contributes
    (-1)^eps (t^birth - t^death), each infinite bar (-1)^eps t^birth."""
    q, pairs = barcode.q, []
    for b, d, e in barcode.rows:
        sign = -1 if e else 1
        pairs.append((Fraction(b, q), sign))
        if d is not None:
            pairs.append((Fraction(d, q), -sign))
    return NovikovSeries(pairs, cutoff)


def zeta_persistence(complex_: FilteredComplex,
                     cutoff: RatioLike) -> NovikovSeries:
    """Zeta of the persistence module of a filtered complex: the sum of
    Euler characteristic jumps t^level over the finitely many levels where
    the module changes, up to the cutoff.

    By Euler-Poincare the jump at a level is the signed count (-1)^eps of
    the generators with that filtration, so this is one O(generators)
    pass over the int keys up to the scaled cutoff; only the levels up to
    the cutoff go to the series constructor, and no decomposition runs.
    Equals ``zeta_barcode`` of ``barcode_decompose``, an independent route
    the tests compare.
    """
    cutoff, q = as_ratio(cutoff), complex_.q
    bound, counts = _bound(q, cutoff), {}
    for n, e in zip(complex_.keys, complex_.eps):
        if n <= bound:
            counts[n] = counts.get(n, 0) + 1 - 2 * e
    return NovikovSeries({Fraction(n, q): c for n, c in counts.items()}, cutoff)
