"""Exact arithmetic in the rational universal Novikov ring, truncated at
an action cutoff.

A series is a finite sum  sum_s c_s * t^s  with rational coefficients c_s
and rational exponents s ("actions"), considered modulo the ideal of terms
with exponent greater than a fixed rational cutoff.  Addition is pointwise,
multiplication is convolution of exponents, units are inverted key by key
in ascending order, and exp/log connect additive and multiplicative pictures.
``_binomial_product`` merges and multiplies the factors (1 - c * t^a)^k,
on int keys, that every product-formula zeta in the library is made of.
Everything is exact: equality of two series is equality of their terms,
never an approximation.

Exponents are stored on an integer grid: a series keeps an int q and a
dict {n: coefficient} where key n stands for t^(n/q), plus its cutoff and
the int bound floor(q * cutoff), so a term is inside the truncation window
exactly when n <= bound.  ``grid`` is the one function that puts rationals
on such a grid.  The inner loops of *, inverse, exp and log run on int
keys only; Fraction exponents exist at the API edge (construction,
``items``, ``coefficient``, ``min_exponent`` and ``repr``).
Dense work leaves the dicts for one packed kernel on int lists,
``_kronecker``: one big-int multiply (Kronecker substitution) and a
window of its slots: each list packs as one buffer of two's complement
slots whose top bits give the signs, and the window reads back signed
after an XOR with B / 2.  Products of dense int series read every slot
up to the bound; exp, on lists when its keys are dense, reads the middle
slots of each divide and conquer step, so it shares the kernel with the
product route it checks (a fault there still splits them:
tests/test_faults.py).  Nothing allocates by the bound alone, which
reaches about 10^9 for three-digit action denominators.
q need not be minimal, so ``==`` compares two series on the lcm of their
grids.

Exponents may be negative in storage (the ring allows it), but exp, log and
the downstream zeta constructions only ever use series supported on
nonnegative exponents, where truncated arithmetic is self-consistent.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, and_, mul

from .errors import (BadLeadingTerm, BeyondValidity, NotAUnit,
                     NotPositivelySupported)

RatioLike = int | str | Fraction
# exp's divide and conquer stops at ranges of this many keys: a pass over
# bench/gen.py's fine-grid exp inputs took 30.5 ms (33 at 16, 36.5 at 128)
_LEAF = 32


def as_ratio(value: RatioLike) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact Fraction.

    Floats are refused rather than converted: this library has no
    floating-point mode, and Fraction(0.1) would silently smuggle in a
    55-bit binary approximation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"floating point value {value!r} not accepted; pass an int, "
            "Fraction, or 'p/q' string")
    return Fraction(value)


def grid(fractions: Iterable[Fraction]) -> tuple[int, list]:
    """(q, keys): q is the lcm of the denominators and keys[i] the int
    q * fractions[i], so keys order and group the rationals exactly as
    the rationals themselves do."""
    fractions = list(fractions)
    q = math.lcm(*{f.denominator for f in fractions})
    return q, [f.numerator * (q // f.denominator) for f in fractions]


def _norm_coeff(c):
    # Keep integer coefficients as plain ints: arithmetic on ints is much
    # cheaper than on Fractions and the two compare equal.
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _quotient(a, b):
    """Exact a / b for int or Fraction coefficients, an int when whole."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return _norm_coeff(a / b)


class NovikovSeries:
    """A truncated Novikov series: the terms sum_n c_n * t^(n/q) on the
    integer grid of step 1/q (see the module docstring), plus a cutoff.

    Canonical form is maintained on construction: no zero coefficients are
    stored and no key exceeds the bound floor(q * cutoff), so ``==`` is
    exact equality of values modulo the cutoff.  Instances are immutable in
    spirit; all operations return new series.  Binary operations produce
    the minimum of the two cutoffs and work on the lcm of the two grids.
    """

    __slots__ = ("_q", "_terms", "_cutoff", "_bound")

    def __init__(self, terms: Mapping | Iterable[tuple] = (), cutoff: RatioLike = 0):
        cut = as_ratio(cutoff)
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(as_ratio(s), c) for s, c in items]
        q, keys = grid(s for s, _ in pairs)
        self._set(q, {}, cut)
        acc, bound = self._terms, self._bound
        for n, (_, c) in zip(keys, pairs):
            if n <= bound:
                c = c if isinstance(c, int) else _norm_coeff(as_ratio(c))
                acc[n] = acc.get(n, 0) + c
        _prune(acc)

    # -- construction helpers ------------------------------------------

    @classmethod
    def zero(cls, cutoff: RatioLike) -> "NovikovSeries":
        return cls._raw(1, {}, as_ratio(cutoff))

    @classmethod
    def one(cls, cutoff: RatioLike) -> "NovikovSeries":
        cut = as_ratio(cutoff)
        return cls._raw(1, {0: 1} if cut >= 0 else {}, cut)

    @classmethod
    def _raw(cls, q: int, terms: dict, cutoff: Fraction) -> "NovikovSeries":
        # Internal: terms already canonical on the 1/q grid (no zeros, no
        # key above the bound).
        self = object.__new__(cls)
        self._set(q, terms, cutoff)
        return self

    def _set(self, q: int, terms: dict, cutoff: Fraction) -> None:
        self._q, self._terms, self._cutoff = q, terms, cutoff
        # key n <= bound exactly when n/q <= cutoff
        self._bound = cutoff.numerator * q // cutoff.denominator

    # -- inspection ----------------------------------------------------

    @property
    def cutoff(self) -> Fraction:
        return self._cutoff

    def items(self):
        """Terms as (exponent, coefficient) pairs, exponents ascending."""
        q, terms = self._q, self._terms
        return [(Fraction(n, q), as_ratio(terms[n])) for n in sorted(terms)]

    def coefficient(self, exponent: RatioLike) -> Fraction:
        n = as_ratio(exponent) * self._q
        if n.denominator != 1:
            return Fraction(0)
        return as_ratio(self._terms.get(n.numerator, 0))

    @property
    def constant_term(self) -> Fraction:
        return as_ratio(self._terms.get(0, 0))

    def min_exponent(self):
        """Smallest exponent with nonzero coefficient, or None if zero."""
        return Fraction(min(self._terms), self._q) if self._terms else None

    @property
    def is_positively_supported(self) -> bool:
        """True when every exponent is strictly positive (the condition
        for membership in the positive part of the ring)."""
        return all(n > 0 for n in self._terms)

    @property
    def has_integer_coefficients(self) -> bool:
        return all(isinstance(c, int) or c.denominator == 1
                   for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._cutoff != other._cutoff or len(self) != len(other):
            return False
        _, a, b = _common_grid(self, other)
        return a == b

    def __hash__(self):
        # Hash on the coarsest grid holding every key, so that equal
        # series stored on different grids hash alike.
        g = math.gcd(self._q, *self._terms)
        return hash((self._cutoff, self._q // g,
                     frozenset((n // g, c) for n, c in self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            body = "0"
        else:
            parts = []
            for s, c in self.items():
                if s == 0:
                    parts.append(str(c))
                elif c == 1:
                    parts.append(f"t^{s}")
                elif c == -1:
                    parts.append(f"-t^{s}")
                else:
                    parts.append(f"{c}*t^{s}")
            body = " + ".join(parts).replace("+ -", "- ")
        return f"<{body} (mod t^>{self._cutoff})>"

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NovikovSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return NovikovSeries({Fraction(0): other}, self._cutoff)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q, a, b = _common_grid(self, other)
        out = NovikovSeries._raw(q, {}, min(self._cutoff, other._cutoff))
        acc, bound = out._terms, out._bound
        for terms in (a, b):
            for n, c in terms.items():
                if n <= bound:
                    acc[n] = acc.get(n, 0) + c
        _prune(acc)
        return out

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries._raw(
            self._q, {n: -c for n, c in self._terms.items()}, self._cutoff)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return NovikovSeries.zero(self._cutoff)
            other = _norm_coeff(other)
            return NovikovSeries._raw(
                self._q, {n: _norm_coeff(c) for n in self._terms
                          if (c := self._terms[n] * other)},
                self._cutoff)
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        q, a, b = _common_grid(self, other)
        out = NovikovSeries._raw(q, {}, min(self._cutoff, other._cutoff))
        if a and b:
            out._terms = _conv(sorted(a.items()), sorted(b.items()), out._bound)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "NovikovSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return NovikovSeries.one(self._cutoff) if result is None else result

    def truncate(self, cutoff: RatioLike) -> "NovikovSeries":
        """Restrict validity to a smaller cutoff, dropping terms above it."""
        cut = as_ratio(cutoff)
        if cut > self._cutoff:
            raise BeyondValidity(f"cutoff {cut} exceeds the validity "
                                 f"{self._cutoff} of the series")
        out = NovikovSeries._raw(self._q, {}, cut)
        out._terms = {n: c for n, c in self._terms.items() if n <= out._bound}
        return out

    def inverse(self) -> "NovikovSeries":
        """Multiplicative inverse modulo the cutoff.

        Factors the series as c * t^s0 * (1 - r) with r supported on
        positive exponents and solves (1 - r) * g = 1 in ascending keys:
        g[0] = 1, g[n] = sum_{j in r, j <= n} r[j] * g[n - j], over the
        sorted keys that sums of the keys of r reach (``_semigroup``: no
        heap and no frontier), none sized by the bound.  When s0 > 0 the
        inverse picks up exponents down to -s0, and a * a.inverse() is
        exactly 1 modulo the cutoff.  A negative leading exponent is
        rejected: no truncation of the inverse could satisfy the unit law
        modulo the cutoff.  Runs on the series' own grid.
        """
        if not self._terms:
            raise NotAUnit("series is zero modulo its cutoff")
        n0 = min(self._terms)
        if n0 < 0:
            raise NotAUnit(
                f"leading exponent {self.min_exponent()} is negative; the "
                "inverse is not determined modulo the cutoff")
        c0 = self._terms[n0]
        # r = 1 - a / (c0 t^s0), supported on positive keys
        r = sorted((n - n0, _quotient(-c, c0))
                   for n, c in self._terms.items() if n != n0)
        g = {0: 1}
        # g runs to cutoff + s0
        for n in _semigroup([j for j, _ in r], self._bound + n0):
            c = 0
            for j, rj in r:
                if j > n:
                    break
                if prev := g.get(n - j):
                    c += rj * prev
            if c:
                g[n] = c
        inv_c0 = _quotient(1, c0)
        terms = {n - n0: c * inv_c0 for n, c in g.items()}
        _prune(terms)
        return NovikovSeries._raw(self._q, terms, self._cutoff)


def _binomial_product(q: int, factors, cutoff: Fraction) -> NovikovSeries:
    """prod (1 - c * t^(n/q))^k over (n, c, k) triples in any order, on the
    1/q grid: drops keys above the cutoff, merges equal (n, c) by summing
    k, skips a merged k of 0 and applies the rest in ascending (n, c)."""
    bound = cutoff.numerator * q // cutoff.denominator
    merged = {}
    for n, c, k in factors:
        if n <= bound:
            merged[n, c] = merged.get((n, c), 0) + k
    result = None   # the first factor starts the product: no * by one
    for (n, c), k in sorted(item for item in merged.items() if item[1]):
        power = NovikovSeries([(0, 1), (Fraction(n, q), -c)], cutoff) ** k
        result = power if result is None else result * power
    return NovikovSeries.one(cutoff) if result is None else result


# -- integer-key internals ---------------------------------------------
#
# Inner loops run on sorted lists of (int key, coeff) on one grid;
# coefficients stay exact (ints whenever the value is an integer,
# Fractions otherwise).


def _common_grid(a: NovikovSeries, b: NovikovSeries):
    """(q, terms of a, terms of b) with both key sets moved to the lcm q
    of the two grids."""
    q = math.lcm(a._q, b._q)
    sa, sb = q // a._q, q // b._q
    return (q, {n * sa: c for n, c in a._terms.items()} if sa > 1 else a._terms,
            {n * sb: c for n, c in b._terms.items()} if sb > 1 else b._terms)


def _conv(a, b, bound: int) -> dict:
    # a, b: sorted lists of (int key, coeff); keep keys <= bound.
    if len(a) * len(b) >= 1024:
        packed = _conv_packed(a, b, bound)
        if packed is not None:
            return packed
    acc = {}
    get = acc.get
    for na, ca in a:
        if na + b[0][0] > bound:
            break
        for nb, cb in b:
            n = na + nb
            if n > bound:
                break
            acc[n] = get(n, 0) + ca * cb
    _prune(acc)
    return acc


def _conv_packed(a, b, bound: int):
    """``_conv`` by one ``_kronecker`` product, or None when the inputs are
    not dense int series: the terms inside the key spans clipped to the
    bound become two int lists indexed by key offset, and the nonzero
    product slots up to the bound come back as the terms."""
    a0, b0 = a[0][0], b[0][0]
    top = bound - a0 - b0                 # largest offset kept
    if top < 0:
        return {}
    la = min(a[-1][0] - a0, top) + 1      # clipped key spans
    lb = min(b[-1][0] - b0, top) + 1
    # the terms inside them; (n,) sorts before every (n, c).  Packing beat
    # the pair loop above 8 pairs a slot on spans 200-3000, values to 10^6
    if bisect_left(a, (a0 + la,)) * bisect_left(b, (b0 + lb,)) <= 8 * (la + lb):
        return None
    slots = _kronecker(list(map(dict(a).get, range(a0, a0 + la), repeat(0))),
                       list(map(dict(b).get, range(b0, b0 + lb), repeat(0))),
                       0, min(la + lb - 1, top + 1))
    return None if slots is None else \
        dict(compress(zip(count(a0 + b0), slots), slots))


def _kronecker(x, y, start: int, stop: int):
    """Slots [start, stop) of the product of the int lists x and y, slot k
    the coefficient of offset k (zeros past the product), by one big-int
    multiply (Kronecker substitution); None when a value is not an int.

    Each list v is sum_k v[k] * B^k, B = 2^(8 * width) with B / 2 above
    every value and product slot.  Its two's complement slots are one
    buffer (``array`` up to 8 bytes a slot, else masked ``to_bytes``), an
    int u that is v plus B times each slot's top bit (the sign step below).
    B / 2 added to each product slot below stop makes those digits c + B / 2
    nonnegative, so the shift and the mask drop the others exactly, and an
    XOR with B / 2 makes each the two's complement of c, read back signed."""
    if not {*map(type, x), *map(type, y)} <= {int}:
        return None
    mx, my = max(map(abs, x), default=0), max(map(abs, y), default=0)
    bits = max(mx * my * min(len(x), len(y)), mx, my).bit_length() + 1
    width = 1 << ((bits - 1) // 8).bit_length()
    shift, size, swap = 8 * width, stop - start, sys.byteorder == "big"
    code = "bhiq"[width.bit_length() - 1] if width <= 8 else None
    lows = int.from_bytes((b"\1" + bytes(width - 1))
                          * max(len(x), len(y), stop), "little")
    product = 1
    for v in (x, y):
        if code:
            raw = array(code, v)
            if swap:
                raw.byteswap()
        else:
            raw = b"".join(map(int.to_bytes, map(and_, v, repeat(
                (1 << shift) - 1)), repeat(width), repeat("little")))
        u = int.from_bytes(raw, "little")
        product *= u - (((u >> (shift - 1)) & lows) << shift)
    halves = lows << (shift - 1)
    raw = ((((product + halves) >> (shift * start)) ^ halves)
           & ((1 << (shift * size)) - 1)).to_bytes(width * size, "little")
    if not code:
        return [int.from_bytes(raw[i:i + width], "little", signed=True)
                for i in range(0, len(raw), width)]
    slots = array(code, raw)
    if swap:
        slots.byteswap()
    return slots.tolist()


def _prune(acc: dict) -> None:
    # Canonical form: no zero coefficients, whole Fractions stored as ints.
    for n in [n for n, c in acc.items()
              if not c or type(c) is Fraction and c.denominator == 1]:
        if acc[n]:
            acc[n] = acc[n].numerator
        else:
            del acc[n]


def _power_sum(r, bound: int) -> dict:
    """sum_{k>=1} (-1)^{k+1} r^k / k = log(1 + r) on keys <= bound, for r
    sorted (int key, coeff) pairs on positive keys: finite, as the lowest
    key of r^k grows with k and the powers leave the window."""
    acc, power, k = {}, dict(r), 1
    while power:
        w = Fraction(1 if k % 2 else -1, k)
        for n, c in power.items():
            acc[n] = acc.get(n, 0) + w * c
        k += 1
        power = _conv(sorted(power.items()), r, bound)
    _prune(acc)
    return acc


# -- exponential and logarithm -----------------------------------------


def exp(a: NovikovSeries) -> NovikovSeries:
    """exp(a) = sum_k a^k / k!  for a supported on positive exponents.

    By exp(a)' = a' * exp(a): n * g[n] = sum_j w[j] * g[n - j], w[j] =
    j * a[j], over the keys reachable below the cutoff, on the grid of a.
    When those fill a quarter of [1, N], N the largest, and the keys of a a
    quarter of theirs, w and g are lists and ``_exp_online`` takes
    O(M(N) log N), M(N) a product of N keys (a ``_kronecker`` middle
    product on ints, as every zeta's exp input has).  Otherwise dicts,
    O(reachable keys x terms of a), none sized by the bound (about 10^9).
    """
    if not a.is_positively_supported:
        raise NotPositivelySupported(
            "exp needs every exponent strictly positive")
    keys = sorted(a._terms)
    reach = _semigroup(keys, a._bound)
    # (j, j * a[j]), an int with no Fraction product when it is whole
    weighted = [(j, _quotient(c.numerator * j, c.denominator))
                for j, c in sorted(a._terms.items())]
    f = {0: 1} if a._bound >= 0 else {}   # a negative cutoff keeps no t^0
    if reach and 4 * len(reach) >= reach[-1] and 4 * len(keys) >= keys[-1]:
        # dense: w[j - 1] = j * a[j] and g[n] = f[n]
        w = list(map(dict(weighted).get, range(1, keys[-1] + 1), repeat(0)))
        g = [0] * (reach[-1] + 1)
        g[0] = 1
        _exp_online(w, weighted, g, [0] * len(g), reach, 0, len(g))
        f.update((n, g[n]) for n in reach if g[n])
        return NovikovSeries._raw(a._q, f, a.cutoff)
    for n in reach:
        # n * f[n] = sum over keys j <= n of j * a[j] * f[n - j]
        total = sum([jc * prev for j, jc in weighted[:bisect_right(keys, n)]
                     if (prev := f.get(n - j))])
        if total:
            f[n] = _quotient(total, n)
    return NovikovSeries._raw(a._q, f, a.cutoff)


def _exp_online(w, pairs, g, acc, reach, lo: int, hi: int) -> None:
    """Fill g[n] for the reachable n in [lo, hi), acc[n] holding the terms
    of n * g[n] from g below lo and pairs the nonzero (j, w[j - 1]):
    Brent-Kung relaxed evaluation, exact for int and Fraction values."""
    if hi - lo <= _LEAF:
        for n in reach[bisect_left(reach, lo):bisect_left(reach, hi)]:
            g[n] = _quotient(acc[n] + sum(map(mul, w, reversed(g[lo:n]))), n)
        return
    mid = (lo + hi) // 2
    _exp_online(w, pairs, g, acc, reach, lo, mid)
    # acc[mid:hi] gets the terms g[i] * w[j - 1] of key i + j from g[lo:mid]
    slots = _kronecker(g[lo:mid], w[:hi - lo - 1], mid - lo - 1, hi - lo - 1)
    if slots is None:       # Fractions: each g[i] meets the weights in range
        slots = [0] * (hi - mid)
        for k, c in enumerate(g[lo:mid], lo - mid):     # k = i - mid
            if c:
                for j, wj in pairs[bisect_left(pairs, (-k,)):
                                   bisect_left(pairs, (hi - mid - k,))]:
                    slots[k + j] += c * wj
    acc[mid:hi] = map(add, acc[mid:hi], slots)
    _exp_online(w, pairs, g, acc, reach, mid, hi)


def _semigroup(generators, bound: int):
    """Sorted positive elements <= bound of the additive semigroup
    generated by the given positive integers.  A generator that is
    already reachable (a sum of smaller ones, such as each cover d*A of an
    orbit) adds nothing and is skipped; each other costs one walk over the
    reachable set."""
    reach = {0}
    for g in sorted(set(generators)):
        if g in reach:
            continue
        # each chain r + g, r + 2g, ... once, from its least start r
        for r in sorted(reach):
            if r + g > bound:
                break
            if r + g not in reach:
                reach.update(range(r + g, bound + 1, g))
    reach.discard(0)
    return sorted(reach)


def log(a: NovikovSeries) -> NovikovSeries:
    """log(1 + r) = sum_{k>=1} (-1)^{k+1} r^k / k  for r supported on
    positive exponents; inverse of exp on its domain, computed by the
    direct power sum (deliberately a different route than exp, so the
    round-trip tests cross-check the two).  Runs on the grid of a."""
    terms = a._terms
    if any(n < 0 for n in terms):
        raise BadLeadingTerm("log input has a negative exponent")
    if a.constant_term != 1:
        raise BadLeadingTerm(
            f"log needs constant term 1, got {a.constant_term}")
    r = sorted((n, c) for n, c in terms.items() if n != 0)
    return NovikovSeries._raw(a._q, _power_sum(r, a._bound), a.cutoff)
