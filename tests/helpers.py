"""Shared test utilities: seeded random generators for series, orbit sets
and filtered complexes, plus naive dict-based oracles kept deliberately
independent of the library's own arithmetic."""

import random
from fractions import Fraction as F

from reebzeta import (Bar, Barcode, EchGenerator, FilteredComplex,
                      NovikovSeries, OrbitSet, OrbitType3D, SimpleOrbit,
                      mobius, novikov)
from reebzeta.errors import FiltrationViolation, GradingViolation, NotSquareZero

PARITY_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


# -- naive series oracles (direct convolution / factorial sum) ----------


def dict_terms(series: NovikovSeries) -> dict:
    return {s: c for s, c in series.items()}


def dict_mul(a: dict, b: dict, cutoff) -> dict:
    out = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            s = s1 + s2
            if s <= cutoff:
                out[s] = out.get(s, F(0)) + c1 * c2
    return {s: c for s, c in out.items() if c}


def dict_exp(a: dict, cutoff) -> dict:
    """sum_k a^k / k! by direct repeated convolution."""
    acc = {F(0): F(1)}
    term = {F(0): F(1)}
    if not a:
        return acc
    m = min(a)
    k = 1
    while k * m <= cutoff:
        term = {s: c / k for s, c in dict_mul(term, a, cutoff).items()}
        for s, c in term.items():
            acc[s] = acc.get(s, F(0)) + c
        k += 1
    return {s: c for s, c in acc.items() if c}


def mobius_product_reference(a: NovikovSeries, cutoff) -> NovikovSeries:
    """The Moebius product transform factor by factor: one
    (1 - t^(n*A)) ** (-a(A) * mu(n)) per support action A and n >= 1 with
    n*A <= cutoff, in Fraction exponents.  Same preconditions as
    ``mobius_product`` (not re-checked here)."""
    cutoff = min(F(cutoff), a.cutoff)
    result = NovikovSeries.one(cutoff)
    for action, coeff in a.items():
        if action > cutoff:
            continue
        count = int(coeff)
        n = 1
        while n * action <= cutoff:
            mu = mobius(n)
            if mu:
                base = NovikovSeries({F(0): 1, n * action: -1}, cutoff)
                result = result * base ** (-count * mu)
            n += 1
    return result


def exp_reference(a: NovikovSeries) -> NovikovSeries:
    """``novikov.exp`` as it was before it skipped redundant semigroup
    generators: the reachable keys by one closure walk per distinct
    generator, then the recurrence n * f[n] = sum_j j * a[j] * f[n - j]
    with one dict lookup per term.  Same preconditions as ``exp`` (not
    re-checked here)."""
    bound = a._bound
    g = sorted(a._terms.items())
    weighted = [(j, novikov._norm_coeff(j * c)) for j, c in g]
    reach = {0}
    for gen in sorted({j for j, _ in g}):
        new = reach
        while new:
            new = {r + gen for r in new if r + gen <= bound} - reach
            reach |= new
    reach.discard(0)
    f = {0: 1}
    for n in sorted(reach):
        total = 0
        for j, jc in weighted:
            if j > n:
                break
            prev = f.get(n - j)
            if prev:
                total += jc * prev
        if total:
            f[n] = novikov._quotient(total, n)
    return NovikovSeries._raw(a._q, f, a.cutoff)


def ech_generators_reference(orbit_set: OrbitSet, cutoff) -> list:
    """``ech_generators`` as it was before it enumerated on int keys:
    depth first in Fraction actions, each generator through the validating
    ``EchGenerator.from_pairs``, sorted on (total action, labels,
    multiplicities).  Parities (1, 0) are not re-checked here."""
    cutoff = F(cutoff)
    orbits = sorted((o for o in orbit_set if o.action <= cutoff),
                    key=lambda o: (o.action, o.label))
    out = []
    stack = [(0, (), F(0))]
    while stack:
        i, chosen, total = stack.pop()
        budget = cutoff - total
        if i == len(orbits) or orbits[i].action > budget:
            out.append(EchGenerator.from_pairs(chosen))
            continue
        o = orbits[i]
        stack.append((i + 1, chosen, total))
        max_mult = 1 if o.is_hyperbolic else budget // o.action
        stack.extend((i + 1, chosen + ((o, m),), total + m * o.action)
                     for m in range(1, max_mult + 1))
    out.sort(key=lambda g: (g.total_action, g.labels, g.multiplicities))
    return out


def validate_reference(generators, boundary):
    """The Fraction validator of a filtered complex, kept from before
    ``FilteredComplex`` compared int keys: accumulate the boundary entries
    into Fraction columns in input order, check grading, filtration and
    d^2 = 0 with the same errors and messages, and return the sorted
    (x_label, y_label, coeff) entries.  Labels must be known."""
    gens = [(label, eps, F(filtration)) for label, eps, filtration in generators]
    index = {g[0]: i for i, g in enumerate(gens)}
    columns = {}
    for x, y, coeff in boundary:
        coeff = F(coeff)
        if coeff == 0:
            continue
        col = columns.setdefault(index[x], {})
        i = index[y]
        if i in col:
            coeff += col[i]
            if not coeff:
                del col[i]
                continue
        col[i] = coeff
    for j, col in columns.items():
        for i, c in col.items():
            if gens[j][1] == gens[i][1]:
                raise GradingViolation(
                    f"<d {gens[j][0]!r}, {gens[i][0]!r}> = {c} "
                    "with equal gradings")
            if not gens[j][2] > gens[i][2]:
                raise FiltrationViolation(
                    f"<d {gens[j][0]!r}, {gens[i][0]!r}> = {c} but "
                    f"filtration {gens[j][2]} <= {gens[i][2]}")
    for j, col in columns.items():
        square = {}
        for i, c in col.items():
            for i2, c2 in columns.get(i, {}).items():
                square[i2] = square.get(i2, F(0)) + c * c2
        for i2, c in square.items():
            if c:
                raise NotSquareZero(f"<d(d {gens[j][0]!r}), {gens[i2][0]!r}> = {c}")
    return [(gens[j][0], gens[i][0], c)
            for j in sorted(columns) for i, c in sorted(columns[j].items())]


def stored(series):
    """Cutoff and stored terms with coefficient types: equal exactly when
    two series are the same bits, not only the same value.  Exponents are
    read back from the int keys on the series' 1/q grid, so the grid
    itself (which need not be minimal) does not enter the comparison."""
    return series.cutoff, sorted((F(n, series._q), type(c), c)
                                 for n, c in series._terms.items())


# -- random inputs -------------------------------------------------------


def random_ratio(rng, denominators=(1, 2, 3, 4, 6, 8), lo=0, hi=10) -> F:
    den = rng.choice(denominators)
    return F(rng.randint(lo * den, hi * den), den)


def random_series(rng, cutoff=10, max_terms=6, positive=False,
                  integer=False) -> NovikovSeries:
    cutoff = F(cutoff)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        s = random_ratio(rng, lo=1 if positive else 0, hi=int(cutoff))
        if positive and s <= 0:
            continue
        num = rng.randint(-9, 9)
        c = F(num) if integer else F(num, rng.choice((1, 2, 3, 4)))
        if c:
            terms[s] = c
    return NovikovSeries(terms, cutoff)


def random_unit(rng, cutoff=10, leading_zero=True) -> NovikovSeries:
    series = random_series(rng, cutoff)
    lead = F(0) if leading_zero else random_ratio(rng, lo=0, hi=3)
    terms = {s: c for s, c in series.items() if s > lead}
    terms[lead] = F(rng.choice((1, -1, 2, -2, 3)))
    return NovikovSeries(terms, cutoff)


def random_orbit_set(rng, max_orbits=8, parities=PARITY_PAIRS,
                     max_den=12) -> OrbitSet:
    """Orbit actions p/q with q <= max_den and ratio in [1, 4]; parity
    pairs drawn uniformly from the given set."""
    orbits = []
    for i in range(rng.randint(1, max_orbits)):
        den = rng.randint(1, max_den)
        action = F(rng.randint(den, 4 * den), den)
        eps1, eps2 = rng.choice(parities)
        orbits.append(SimpleOrbit(f"g{i}", action, eps1, eps2))
    return OrbitSet(orbits)


def random_3d_orbit_set(rng, max_orbits=5, max_den=12) -> OrbitSet:
    orbits = []
    for i in range(rng.randint(1, max_orbits)):
        den = rng.randint(1, max_den)
        action = F(rng.randint(den, 4 * den), den)
        kind = rng.choice(list(OrbitType3D))
        orbits.append(SimpleOrbit.of_type(f"g{i}", action, kind))
    return OrbitSet(orbits)


def random_complex(rng, max_gens=12):
    """A random valid filtered complex with known barcode.

    Built in normal form (a random partial pairing of generators with
    strictly decreasing filtration and opposite grading, plus unpaired
    cycles) and then scrambled by elementary basis changes u -> u + c*v
    with eps(v) = eps(u) and F(v) <= F(u), which preserve validity and the
    persistence module.  Returns (complex, expected barcode).
    """
    n = rng.randint(0, max_gens)
    pool = [F(num, den) for den in (1, 2, 3, 4) for num in range(1, 5 * den)]
    gens = [(f"g{i}", rng.randint(0, 1), rng.choice(pool)) for i in range(n)]

    order = list(range(n))
    rng.shuffle(order)
    used = set()
    entries = []
    bars = []
    for x in order:
        if x in used or rng.random() < 0.35:
            continue
        candidates = [y for y in order
                      if y not in used and y != x
                      and gens[x][2] > gens[y][2] and gens[x][1] != gens[y][1]]
        if not candidates:
            continue
        y = rng.choice(candidates)
        used.update((x, y))
        coeff = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        entries.append((x, y, coeff))
        bars.append(Bar(gens[y][2], gens[x][2], gens[y][1]))
    for i in range(n):
        if i not in used:
            bars.append(Bar(gens[i][2], None, gens[i][1]))

    columns = {}
    for x, y, coeff in entries:
        columns.setdefault(x, {})[y] = coeff
    for _ in range(3 * n):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        if gens[u][1] != gens[v][1] or gens[v][2] > gens[u][2]:
            continue
        coeff = F(rng.randint(1, 4), rng.randint(1, 2)) * rng.choice((1, -1))
        col_v = columns.get(v, {})
        col_u = columns.setdefault(u, {})
        for r, c in col_v.items():
            col_u[r] = col_u.get(r, F(0)) + coeff * c
            if not col_u[r]:
                del col_u[r]
        for j in range(n):
            c_u = columns.get(j, {}).get(u)
            if c_u:
                col_j = columns[j]
                col_j[v] = col_j.get(v, F(0)) - coeff * c_u
                if not col_j[v]:
                    del col_j[v]

    flat = [(gens[j][0], gens[r][0], c)
            for j, col in columns.items() for r, c in col.items()]
    return FilteredComplex(gens, flat), Barcode(bars)


def planted_complex(rng, n):
    """A valid filtered complex on n generators with known barcode, built
    in O(n) basis changes so that n can be in the thousands.

    Levels are k/8 with k in [8, 40*n], coefficients are rational.
    Consecutive generators are paired into finite bars, about half of
    them, the rest are cycles; then n filtered basis changes
    e_u <- e_u + r*e_v (same grading, F(v) < F(u)) conjugate the
    differential: column u += r * column v and row v -= r * row u.
    Returns (complex, expected barcode)."""
    levels = [F(rng.randint(8, 40 * n), 8) for _ in range(n)]
    gens, cols, bars = [], {}, []
    k = 0
    while k + 1 < n and len(bars) < 0.45 * n:
        birth, death = sorted(levels[k:k + 2])
        k += 2
        if birth == death:
            continue
        eps = rng.randint(0, 1)
        gens += [(eps, birth), (1 - eps, death)]
        cols[len(gens) - 1] = {len(gens) - 2: F(rng.choice((1, -2, 3)),
                                                rng.choice((1, 2, 5)))}
        bars.append(Bar(birth, death, eps))
    for level in levels[k:]:
        eps = rng.randint(0, 1)
        gens.append((eps, level))
        bars.append(Bar(level, None, eps))

    rows = {}
    for j, col in cols.items():
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c

    def add(matrix, a, b, value):
        line = matrix.setdefault(a, {})
        value += line.get(b, 0)
        if value:
            line[b] = value
        else:
            line.pop(b, None)

    by_eps = ([j for j, g in enumerate(gens) if g[0] == 0],
              [j for j, g in enumerate(gens) if g[0] == 1])
    for _ in range(n):
        group = by_eps[rng.randint(0, 1)]
        if len(group) < 2:
            continue
        v, u = rng.sample(group, 2)
        if gens[v][1] == gens[u][1]:
            continue
        if gens[v][1] > gens[u][1]:
            u, v = v, u
        r = F(rng.choice((1, -1, 2)), rng.choice((1, 3)))
        for row, c in list(cols.get(v, {}).items()):
            add(cols, u, row, r * c)
            add(rows, row, u, r * c)
        for col, c in list(rows.get(u, {}).items()):
            add(rows, v, col, -r * c)
            add(cols, col, v, -r * c)

    labelled = [(f"g{j}", eps, level) for j, (eps, level) in enumerate(gens)]
    flat = [(f"g{j}", f"g{i}", c)
            for j, col in cols.items() for i, c in col.items()]
    return FilteredComplex(labelled, flat), Barcode(bars)


def probe_levels(complex_):
    """All filtration values, midpoints between consecutive ones, and one
    level below and above everything."""
    levels = sorted(set(complex_.filtrations))
    probes = list(levels)
    probes.extend((a + b) / 2 for a, b in zip(levels, levels[1:]))
    if levels:
        probes.append(levels[0] - 1)
        probes.append(levels[-1] + 1)
    return probes


def fresh_rng(seed: int) -> random.Random:
    return random.Random(seed)
