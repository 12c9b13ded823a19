"""Shared test utilities: seeded random generators for series, orbit sets
and filtered complexes, plus naive dict-based oracles kept deliberately
independent of the library's own arithmetic."""

import contextlib
import json
import random
from fractions import Fraction as F

import pytest

from reebzeta import (Bar, Barcode, EchGenerator, FilteredComplex,
                      NovikovSeries, OrbitSet, OrbitType3D, SimpleOrbit,
                      is_good, iterate_parity, mobius, novikov)
from reebzeta.errors import (FiltrationViolation, GradingViolation,
                             NotSquareZero, echo)
from reebzeta.serialize import (_DIFFERENTIAL, _GENERATOR, _TERM, SchemaError,
                                _object, _records, parse_ratio)

PARITY_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


# -- naive series oracles (direct convolution / factorial sum) ----------


def format_ratio(value) -> str:
    """Canonical text of a rational: "p/q" in lowest terms, or "p"."""
    return str(novikov.as_ratio(value))


# -- series I/O through Fractions -----------------------------------------


def series_to_obj_reference(series: NovikovSeries) -> dict:
    """``serialize.series_to_obj`` as it was before it formatted the int
    keys: ``format_ratio`` over ``items()``."""
    return {
        "terms": [{"exponent": format_ratio(s), "coefficient": format_ratio(c)}
                  for s, c in series.items()],
        "cutoff": format_ratio(series.cutoff),
    }


def series_lines_reference(series: NovikovSeries) -> str:
    """The CLI series report through the same Fraction route."""
    return "".join(f"{format_ratio(s)}\t{format_ratio(c)}\n"
                   for s, c in series.items()) + \
        f"cutoff\t{format_ratio(series.cutoff)}\n"


def series_from_obj_reference(obj, where: str = "series") -> NovikovSeries:
    """``serialize.series_from_obj`` as it was before its direct pass:
    every file through the record loop, each term a Fraction pair, and the
    series put on its grid by the constructor.  It accepts a cutoff <= 0."""
    _object(obj, {"terms", "cutoff"}, where)
    if "cutoff" not in obj:
        raise SchemaError(where, "missing 'cutoff'")
    cutoff = parse_ratio(obj["cutoff"], f"{where}.cutoff")
    terms = []
    previous = None
    for k, (s, c) in enumerate(_records(obj.get("terms", []),
                                        f"{where}.terms", _TERM)):
        if c == 0:
            problem = "zero coefficients must not be stored"
        elif previous is not None and not s > previous:
            problem = f"exponents must be strictly increasing ({s} after {previous})"
        elif s > cutoff:
            problem = f"exponent {s} exceeds cutoff {cutoff}"
        else:
            previous = s
            terms.append((s, c))
            continue
        raise SchemaError(f"{where}.terms[{k}]", problem)
    return NovikovSeries(terms, cutoff)


def complex_from_obj_reference(obj, where: str = "complex") -> FilteredComplex:
    """``serialize.complex_from_obj`` as it was before its direct pass:
    every file through the record loop, one parser call per field, the
    labels of each differential entry looked up as the entry is read."""
    _object(obj, {"generators", "differential"}, where)
    generators = list(_records(obj.get("generators", []),
                               f"{where}.generators", _GENERATOR))
    labels = {g[0] for g in generators}
    entries = []
    for k, (x, y, coeff) in enumerate(_records(obj.get("differential", []),
                                               f"{where}.differential",
                                               _DIFFERENTIAL)):
        for label in (x, y):
            if label not in labels:
                raise SchemaError(f"{where}.differential[{k}]",
                                  f"unknown generator {echo(label)}")
        entries.append((x, y, coeff))
    return FilteredComplex(generators, entries)


def complex_bits(complex_: FilteredComplex) -> tuple:
    """Everything a complex stores, with its grid q, the type of each
    filtration and coefficient and the order of the columns: equal exactly
    when two complexes are the same bits."""
    return (complex_.labels, complex_.eps,
            [(type(f), f) for f in complex_.filtrations], complex_.q,
            complex_.keys,
            [(j, [(i, type(c), c) for i, c in col.items()])
             for j, col in complex_._columns.items()])


def barcode_text_reference(barcode: Barcode) -> str:
    """The ``barcode`` report as it was before it formatted the int keys:
    ``str`` of each endpoint Fraction, written by the json module."""
    return json.dumps([{"birth": str(bar.birth),
                        "death": "inf" if bar.death is None else str(bar.death),
                        "eps": bar.eps} for bar in barcode], indent=2) + "\n"


def zeta_persistence_reference(complex_: FilteredComplex,
                               cutoff) -> NovikovSeries:
    """``persistence.zeta_persistence`` as it was before it counted on the
    int keys: one (Fraction filtration, (-1)^eps) pair per generator, put
    on a grid and summed per level by the series constructor."""
    return NovikovSeries(zip(complex_.filtrations,
                             map((1, -1).__getitem__, complex_.eps)), cutoff)


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


def conv_reference(a, b, bound: int) -> dict:
    """``novikov._conv`` as it was before its packed product: the pair loop
    over two sorted lists of (int key, coeff), keys <= bound, then the
    canonical pruning."""
    acc = {}
    for na, ca in a:
        if na + b[0][0] > bound:
            break
        for nb, cb in b:
            n = na + nb
            if n > bound:
                break
            acc[n] = acc.get(n, 0) + ca * cb
    novikov._prune(acc)
    return acc


def kronecker_reference(x, y, start: int, stop: int) -> list:
    """``novikov._kronecker`` by the pair loop: slots [start, stop) of the
    product of the lists x and y, zeros past the product."""
    terms = [[(k, c) for k, c in enumerate(v) if c] for v in (x, y)]
    slots = conv_reference(*terms, stop - 1) if all(terms) else {}
    return [slots.get(k, 0) for k in range(start, stop)]


def inverse_reference(a: NovikovSeries) -> NovikovSeries:
    """``NovikovSeries.inverse`` as it was before the ascending recurrence:
    a = c0 * t^s0 * (1 - r), and 1 / (1 - r) the geometric sum of the
    powers of r, each the pair loop of the last one with r, on keys up to
    cutoff + s0.  Same preconditions as ``inverse`` (not re-checked)."""
    terms = a._terms
    n0 = min(terms)
    c0 = terms[n0]
    r = sorted((n - n0, novikov._quotient(-c, c0))
               for n, c in terms.items() if n != n0)
    acc, power = {0: 1}, dict(r)
    while power:
        for n, c in power.items():
            acc[n] = acc.get(n, 0) + c
        power = conv_reference(sorted(power.items()), r, a._bound + n0)
    novikov._prune(acc)
    inv_c0 = novikov._quotient(1, c0)
    return NovikovSeries._raw(a._q, {n - n0: novikov._norm_coeff(c * inv_c0)
                                     for n, c in acc.items()}, a.cutoff)


def exp_input_reference(orbit_set: OrbitSet, cutoff) -> NovikovSeries:
    """The argument of exp in ``zeta_exp_form`` as it was built before it
    used int keys: one Fraction exponent d*A and one Fraction(+-1, d) per
    orbit iterate, put on a grid by the series constructor."""
    cutoff = F(cutoff)
    terms = []
    for o in orbit_set:
        d = 1
        while d * o.action <= cutoff:
            eps = o.eps1 if d % 2 else o.eps2
            terms.append((d * o.action, F(-1 if eps else 1, d)))
            d += 1
    return NovikovSeries(terms, cutoff)


def zeta_good_orbits_reference(orbit_set: OrbitSet, cutoff) -> NovikovSeries:
    """``orbits.zeta_good_orbits`` as it was before it counted on int keys:
    one Fraction exponent d*A per good cover gamma^d with d*A <= cutoff,
    signed (-1)^parity, put on a grid by the series constructor."""
    cutoff = F(cutoff)
    terms = []
    for o in orbit_set:
        d = 1
        while d * o.action <= cutoff:
            if is_good(o, d):
                terms.append((d * o.action, -1 if iterate_parity(o, d) else 1))
            d += 1
    return NovikovSeries(terms, cutoff)


def good_orbit_count_reference(orbit_set: OrbitSet, at) -> int:
    """``orbits.good_orbit_count`` as it was before it read the coefficient
    of ``zeta_good_orbits``: one cover gamma^d per orbit with d*A = at,
    signed (-1)^parity when it is good."""
    at = F(at)
    total = 0
    for o in orbit_set:
        d = at / o.action
        if d.denominator == 1 and d >= 1:
            d = int(d)
            if is_good(o, d):
                total += -1 if iterate_parity(o, d) else 1
    return total


def ech_labels(gen: EchGenerator) -> tuple:
    return tuple(o.label for o, _ in gen.pairs)


def ech_multiplicities(gen: EchGenerator) -> tuple:
    return tuple(m for _, m in gen.pairs)


def ech_generators_reference(orbit_set: OrbitSet, cutoff) -> list:
    """``ech_generators`` as it was before it enumerated on int keys:
    depth first in Fraction actions, hyperbolic orbits at multiplicity
    one, the grading counted from the chosen positive hyperbolic orbits,
    sorted on (total action, labels, multiplicities).  Parities (1, 0)
    are not re-checked here."""
    cutoff = F(cutoff)
    orbits = sorted((o for o in orbit_set if o.action <= cutoff),
                    key=lambda o: (o.action, o.label))
    out = []
    stack = [(0, (), F(0))]
    while stack:
        i, chosen, total = stack.pop()
        budget = cutoff - total
        if i == len(orbits) or orbits[i].action > budget:
            grading = sum((o.eps1, o.eps2) == (1, 1) for o, _ in chosen) % 2
            out.append(EchGenerator(chosen, grading, total))
            continue
        o = orbits[i]
        stack.append((i + 1, chosen, total))
        max_mult = 1 if o.is_hyperbolic else budget // o.action
        stack.extend((i + 1, chosen + ((o, m),), total + m * o.action)
                     for m in range(1, max_mult + 1))
    out.sort(key=lambda g: (g.total_action, ech_labels(g),
                            ech_multiplicities(g)))
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


@contextlib.contextmanager
def counting_powers():
    """Yield the list of exponents k of the ``NovikovSeries.__pow__`` calls
    made inside the block, one per factor: a negative power recurses once
    on the inverse, and that inner call is not counted again."""
    powers, depth = [], [0]
    original = NovikovSeries.__pow__

    def counting_pow(self, k):
        if not depth[0]:
            powers.append(k)
        depth[0] += 1
        try:
            return original(self, k)
        finally:
            depth[0] -= 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NovikovSeries, "__pow__", counting_pow)
        yield powers


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


def boundary_entries(complex_: FilteredComplex) -> list:
    """Sorted (x_label, y_label, coeff) triples of the differential, read
    from the complex's columns."""
    labels = complex_.labels
    return [(labels[j], labels[i], c)
            for j in sorted(complex_._columns)
            for i, c in sorted(complex_._columns[j].items())]


def scaled_complex_file(rng, complex_: FilteredComplex) -> dict:
    """The file object of a complex, each filtration and coefficient
    spelled "p/q" with both parts scaled by 1, 2 or 3 ("6/4" for 3/2,
    "-2/2" for -1)."""
    def spell(value):
        k = rng.choice((1, 2, 3))
        return f"{value.numerator * k}/{value.denominator * k}"
    return {"generators": [{"label": x, "eps": e, "filtration": spell(F(f))}
                           for x, e, f in zip(complex_.labels, complex_.eps,
                                              complex_.filtrations)],
            "differential": [{"from": x, "to": y, "coeff": spell(F(c))}
                             for x, y, c in boundary_entries(complex_)]}


def shifted_to_zero(complex_: FilteredComplex) -> FilteredComplex:
    """The complex with every level moved down by its middle level, so
    that one level is 0 and the lower ones negative."""
    if not len(complex_):
        return complex_
    shift = sorted(complex_.filtrations)[len(complex_) // 2]
    return FilteredComplex(zip(complex_.labels, complex_.eps,
                               [f - shift for f in complex_.filtrations]),
                           boundary_entries(complex_))


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
