"""Shared test utilities: seeded random generators for series, orbit sets
and filtered complexes, plus naive dict-based oracles kept deliberately
independent of the library's own arithmetic."""

import random
from fractions import Fraction as F

from reebzeta import (Bar, Barcode, FilteredComplex, INFINITE_DEATH,
                      NovikovSeries, OrbitSet, OrbitType3D, SimpleOrbit,
                      mobius)

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
            bars.append(Bar(gens[i][2], INFINITE_DEATH, gens[i][1]))

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


def probe_levels(complex_):
    """All filtration values, midpoints between consecutive ones, and one
    level below and above everything."""
    levels = sorted({g.filtration for g in complex_.generators})
    probes = list(levels)
    probes.extend((a + b) / 2 for a, b in zip(levels, levels[1:]))
    if levels:
        probes.append(levels[0] - 1)
        probes.append(levels[-1] + 1)
    return probes


def fresh_rng(seed: int) -> random.Random:
    return random.Random(seed)
