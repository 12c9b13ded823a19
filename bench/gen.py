"""Seeded inputs for the benchmark workloads, with their expected outputs.

Nothing here imports the library.  Input files are written as JSON by this
module, and every expected output is computed by a different route than the
job takes:

* zeta series of orbit sets and Morse data come from a signed count of
  multiplicity vectors (generalised ECH generators) by a knapsack
  recurrence on an integer grid, not from series multiplication, inverses,
  the exp recurrence or ECH generator objects;
* toric zetas come from counting lattice points i*a + j*b = s;
* barcodes and persistence zetas come from the barcode planted in the
  generated complex, which is then hidden by a filtered change of basis.

Each job records its shape: orbits, cutoff, grid q, output terms and
generators (ECH generators or chain generators).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F

#: (eps1, eps2) parity pairs: elliptic, negative hyperbolic, the pair that
#: only occurs above dimension 3, positive hyperbolic.
PARITY_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
PARITY_PAIRS_3D = ((0, 0), (1, 1), (0, 1))


@dataclass
class Job:
    """One ``cli.main`` call: its argv, the exact stdout it must print and
    its shape.  ``kind`` names the job's shape class within the workload."""

    kind: str
    argv: list
    expected: str
    shape: dict


# -- formatting ------------------------------------------------------------


def fmt(value) -> str:
    value = F(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def series_text(terms: dict, cutoff) -> str:
    """The CLI's series report: ascending exponent<TAB>coefficient lines,
    then the cutoff line."""
    lines = [f"{fmt(s)}\t{fmt(terms[s])}\n" for s in sorted(terms)]
    lines.append(f"cutoff\t{fmt(cutoff)}\n")
    return "".join(lines)


def series_obj(terms: dict, cutoff) -> dict:
    return {"terms": [{"exponent": fmt(s), "coefficient": fmt(terms[s])}
                      for s in sorted(terms)],
            "cutoff": fmt(cutoff)}


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


# -- oracles ---------------------------------------------------------------


def signed_generator_series(factors, cutoff) -> dict:
    """prod (1 - sign*t^action)^power for power in {1, -1}, as the signed
    count of multiplicity vectors: power -1 allows every multiplicity m
    with weight sign^m, power 1 allows m in {0, 1} with weight -sign.
    Returns {exponent: nonzero int coefficient} up to the cutoff."""
    cutoff = F(cutoff)
    q = 1
    for action, _, _ in factors:
        q = math.lcm(q, F(action).denominator)
    bound = math.floor(cutoff * q)
    g = [0] * (bound + 1)
    g[0] = 1
    for action, sign, power in factors:
        a = int(F(action) * q)
        if a > bound:
            continue
        if power == -1:
            for n in range(a, bound + 1):
                g[n] += sign * g[n - a]
        else:
            for n in range(bound, a - 1, -1):
                g[n] -= sign * g[n - a]
    return {F(n, q): c for n, c in enumerate(g) if c}


def orbit_factor(action, eps1: int, eps2: int):
    return (action, -1 if (eps1 + eps2) % 2 else 1, 1 if eps2 else -1)


def orbit_zeta(orbits, cutoff) -> dict:
    """Zeta of an orbit list [(label, action, eps1, eps2)]."""
    return signed_generator_series(
        [orbit_factor(a, e1, e2) for _, a, e1, e2 in orbits], cutoff)


def ech_generator_count(orbits, cutoff) -> int:
    """Number of ECH generators (the empty one included) with total action
    at most the cutoff: hyperbolic orbits (eps2 = 1) at most once."""
    terms = signed_generator_series(
        [(a, -1, 1) if e2 else (a, 1, -1) for _, a, _, e2 in orbits], cutoff)
    return sum(terms.values())


def good_orbit_terms(orbits, cutoff) -> dict:
    """Signed count of good covers per action level: (-1)^parity for each
    d-fold cover with d*A <= cutoff, bad covers (d even, eps1 != eps2)
    skipped."""
    terms: dict = {}
    for _, action, eps1, eps2 in orbits:
        d = 1
        while d * action <= cutoff:
            if d % 2 or eps1 == eps2:
                parity = eps1 if d % 2 else eps2
                terms[d * action] = terms.get(d * action, 0) + (-1 if parity else 1)
            d += 1
    return {s: c for s, c in terms.items() if c}


def toric_terms(a, b, cutoff) -> dict:
    """Coefficients of 1/((1-t^a)(1-t^b)): lattice points i*a + j*b = s."""
    terms: dict = {}
    i = 0
    while i * a <= cutoff:
        j = 0
        while i * a + j * b <= cutoff:
            s = i * a + j * b
            terms[s] = terms.get(s, 0) + 1
            j += 1
        i += 1
    return terms


def first_difference(a: dict, b: dict):
    for s in sorted(set(a) | set(b)):
        if a.get(s, 0) != b.get(s, 0):
            return s, a.get(s, 0), b.get(s, 0)
    return None


def truncate(terms: dict, cutoff) -> dict:
    return {s: c for s, c in terms.items() if s <= cutoff}


def grid_q(values) -> int:
    q = 1
    for v in values:
        q = math.lcm(q, F(v).denominator)
    return q


# -- orbit sets --------------------------------------------------------------


def _ratio(rng, dens, lo, hi) -> F:
    den = rng.choice(dens)
    return F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def coarse_flow(rng, n: int):
    """n orbits with actions of denominator <= 4 in [1/2, 4], cycling
    through all four parity pairs."""
    shift = rng.randrange(4)
    return [(f"o{j}", _ratio(rng, (1, 2, 3, 4), F(1, 2), 4),
             *PARITY_PAIRS[(j + shift) % 4]) for j in range(n)]


def flow_3d(rng, n: int):
    shift = rng.randrange(3)
    return [(f"o{j}", _ratio(rng, (1, 2, 3, 4), 1, 3),
             *PARITY_PAIRS_3D[(j + shift) % 3]) for j in range(n)]


def fine_flow(rng, k: int, n_grid: int):
    """k elliptic orbits on the grid 1/n_grid: one of action 1/n_grid and
    the others small multiples of it."""
    multiples = [1] + rng.sample(range(2, 8), k - 1)
    return [(f"e{j}", F(m, n_grid), 0, 0) for j, m in enumerate(multiples)]


def orbit_file_obj(orbits) -> list:
    out = []
    for label, action, eps1, eps2 in orbits:
        entry = {"label": label, "action": fmt(action)}
        if (eps1, eps2) == (1, 0):
            entry["eps1"], entry["eps2"] = eps1, eps2
        else:
            entry["type"] = {(0, 0): "elliptic", (1, 1): "pos-hyperbolic",
                             (0, 1): "neg-hyperbolic"}[(eps1, eps2)]
        out.append(entry)
    return out


def _orbit_shape(orbits, cutoff, terms) -> dict:
    return {"orbits": len(orbits), "cutoff": fmt(cutoff),
            "grid_q": grid_q([a for _, a, _, _ in orbits] + [cutoff]),
            "out_terms": len(terms)}


def coarse_flows(seed: int):
    """The 40 coarse flows of a seed, 6 to 16 orbits each.  Both orbit-zeta
    and series-files use them, so the product and Moebius routes can be
    compared on the same flows."""
    rng = random.Random(f"coarse:{seed}")
    return [coarse_flow(rng, 6 + i % 11) for i in range(40)]


def build_orbit_zeta(seed: int, root: str):
    """40 coarse flows under --form both, 30 3D flows under --form ech and
    30 fine-grid flows under --form both, shapes stratified by job index so
    that every seed draws the same spread of sizes."""
    rng = random.Random(f"orbit-zeta:{seed}")
    jobs = []
    for i, orbits in enumerate(coarse_flows(seed)):
        cutoff = F(6 + i % 7)
        path = os.path.join(root, f"coarse{i}.json")
        write_json(path, orbit_file_obj(orbits))
        terms = orbit_zeta(orbits, cutoff)
        jobs.append(Job("coarse-both",
                        ["zeta-orbits", path, "--cutoff", fmt(cutoff)],
                        series_text(terms, cutoff),
                        _orbit_shape(orbits, cutoff, terms)))
    for i in range(30):
        orbits = flow_3d(rng, 6 + i % 5)
        target = 200 + 20 * i          # ECH generators, 200 to about 800
        cutoff = F(3)
        while ech_generator_count(orbits, cutoff) < target:
            cutoff += F(1, 4)
        path = os.path.join(root, f"ech{i}.json")
        write_json(path, orbit_file_obj(orbits))
        terms = orbit_zeta(orbits, cutoff)
        shape = _orbit_shape(orbits, cutoff, terms)
        shape["generators"] = ech_generator_count(orbits, cutoff)
        jobs.append(Job("ech", ["zeta-orbits", path, "--cutoff", fmt(cutoff),
                                "--form", "ech"],
                        series_text(terms, cutoff), shape))
    for i in range(30):
        k = 1 + i % 4
        n_grid = 100 + 25 * (i // 4) + rng.randrange(10)   # 100 to about 285
        cutoff = F(1 + i % 3)
        orbits = fine_flow(rng, k, n_grid)
        path = os.path.join(root, f"fine{i}.json")
        write_json(path, orbit_file_obj(orbits))
        terms = orbit_zeta(orbits, cutoff)
        jobs.append(Job("fine-both",
                        ["zeta-orbits", path, "--cutoff", fmt(cutoff)],
                        series_text(terms, cutoff),
                        _orbit_shape(orbits, cutoff, terms)))
    return jobs


# -- series files --------------------------------------------------------------


def morse_points(rng):
    saddles = 1 + rng.randrange(4)
    minima = 1 + rng.randrange(saddles + 1)
    maxima = 2 - minima + saddles
    points = []
    for label, index, count in (("min", 0, minima), ("sad", 1, saddles),
                                ("max", 2, maxima)):
        for j in range(count):
            points.append((f"{label}{j}", _ratio(rng, (1, 2, 3, 4), 1, 4), index))
    return points


def build_series_files(seed: int, root: str):
    """Per coarse flow (the first 16 of orbit-zeta's): the product form
    written with --out, the Moebius transform of the flow's good-orbit
    series written with --out, and a compare of the two (EQUAL).  Fourteen
    one-orbit fine-grid Moebius transforms.  Toric and circle-invariant zetas written
    with --out, distinguish on each, and a compare of each circle-invariant
    file against a toric one."""
    rng = random.Random(f"series-files:{seed}")
    jobs = []

    def out(name):
        return os.path.join(root, name)

    for i, orbits in enumerate(coarse_flows(seed)[:16]):
        cutoff = F(12 + i % 5)
        terms = orbit_zeta(orbits, cutoff)
        shape = _orbit_shape(orbits, cutoff, terms)
        write_json(out(f"flow{i}.json"), orbit_file_obj(orbits))
        write_json(out(f"good{i}.json"),
                   series_obj(good_orbit_terms(orbits, cutoff), cutoff))
        text = series_text(terms, cutoff)
        jobs.append(Job("product-out",
                        ["zeta-orbits", out(f"flow{i}.json"), "--cutoff",
                         fmt(cutoff), "--form", "product",
                         "--out", out(f"product{i}.out.json")], text, shape))
        jobs.append(Job("mobius-coarse",
                        ["mobius-transform", out(f"good{i}.json"), "--cutoff",
                         fmt(cutoff), "--out", out(f"mobius{i}.out.json")],
                        text, shape))
        jobs.append(Job("compare-equal",
                        ["compare", out(f"mobius{i}.out.json"),
                         out(f"product{i}.out.json"), "--cutoff", fmt(cutoff)],
                        "EQUAL\n", shape))
    for i in range(14):
        # At 1/200 one transform takes most of a second; stay well below.
        # These are the slowest eighth of the jobs, so job_p90_ms falls
        # among them, and one orbit makes their cost depend on N alone.
        orbits = fine_flow(rng, 1, 70 + 5 * i + rng.randrange(3))
        cutoff = F(1)
        terms = orbit_zeta(orbits, cutoff)
        write_json(out(f"finegood{i}.json"),
                   series_obj(good_orbit_terms(orbits, cutoff), cutoff))
        jobs.append(Job("mobius-fine",
                        ["mobius-transform", out(f"finegood{i}.json"),
                         "--cutoff", fmt(cutoff)],
                        series_text(terms, cutoff),
                        _orbit_shape(orbits, cutoff, terms)))
    for i in range(10):
        a = _ratio(rng, (1, 2, 3, 4, 5, 6), F(1, 2), 2)
        b = _ratio(rng, (1, 2, 3, 4, 5, 6), F(1, 2), 2)
        cutoff = F(8 + i % 5)
        toric = toric_terms(a, b, cutoff)
        toric_path = out(f"toric{i}.out.json")
        shape = {"orbits": 2, "cutoff": fmt(cutoff), "grid_q": grid_q((a, b, cutoff)),
                 "out_terms": len(toric)}
        jobs.append(Job("toric-out",
                        ["zeta-toric", "--a", fmt(a), "--b", fmt(b),
                         "--cutoff", fmt(cutoff), "--out", toric_path],
                        series_text(toric, cutoff), shape))
        jobs.append(Job("distinguish", ["distinguish", toric_path,
                                        "--cutoff", fmt(cutoff)],
                        "Inconclusive\n", shape))

        points = morse_points(rng)
        s1_cutoff = F(8 + (i + 2) % 5)
        s1 = signed_generator_series(
            [(act, 1, 1 if index == 1 else -1) for _, act, index in points],
            s1_cutoff)
        morse_path = out(f"morse{i}.json")
        write_json(morse_path, [{"label": label, "action": fmt(act), "index": index}
                                for label, act, index in points])
        s1_path = out(f"s1_{i}.out.json")
        shape = {"orbits": len(points), "cutoff": fmt(s1_cutoff),
                 "grid_q": grid_q([act for _, act, _ in points] + [s1_cutoff]),
                 "out_terms": len(s1)}
        jobs.append(Job("s1-out", ["zeta-s1", morse_path, "--cutoff",
                                   fmt(s1_cutoff), "--out", s1_path],
                        series_text(s1, s1_cutoff), shape))
        negative = [s for s in sorted(s1) if s1[s] < 0]
        verdict = (f"NotToricInterior\t{fmt(negative[0])}\n" if negative
                   else "Inconclusive\n")
        jobs.append(Job("distinguish", ["distinguish", s1_path, "--cutoff",
                                        fmt(s1_cutoff)], verdict, shape))
        both = min(cutoff, s1_cutoff)
        diff = first_difference(truncate(s1, both), truncate(toric, both))
        verdict = ("EQUAL\n" if diff is None
                   else "DIFFER\t" + "\t".join(fmt(v) for v in diff) + "\n")
        jobs.append(Job("compare", ["compare", s1_path, toric_path,
                                    "--cutoff", fmt(both)], verdict, shape))
    return jobs


# -- filtered complexes --------------------------------------------------------


def planted_complex(rng, n: int):
    """A filtered complex on n generators with a planted barcode.

    Finite bars are pairs x -> y with d(y) = c*x; the rest are cycles.  The
    planted basis is then hidden by n random filtered basis changes
    e_j <- e_j + r*e_i (same grading, f_i < f_j), which conjugate the
    differential and keep the barcode.  Returns (file object, bars, levels)
    with bars as (birth, death or None, eps).  Levels are kept in eighths
    and coefficients stay integers until the file is written."""
    levels = [rng.randint(8, 40 * n) for _ in range(n)]
    gens, cols, bars = [], {}, []
    k = 0
    while k + 1 < n and len(bars) < 0.45 * n:
        birth, death = sorted(levels[k:k + 2])
        k += 2
        if birth == death:
            continue
        eps = rng.randrange(2)
        gens += [(eps, birth), (1 - eps, death)]
        cols[len(gens) - 1] = {len(gens) - 2: rng.choice((1, -1, 2, -2, 3))}
        bars.append((birth, death, eps))
    for level in levels[k:]:
        eps = rng.randrange(2)
        gens.append((eps, level))
        bars.append((level, None, eps))

    rows: dict = {}
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
        group = by_eps[rng.randrange(2)]
        i, j = rng.sample(group, 2)
        if gens[i][1] == gens[j][1]:
            continue
        if gens[i][1] > gens[j][1]:
            i, j = j, i
        r = rng.choice((1, -1, 2, -2))
        for row, c in list(cols.get(i, {}).items()):   # column j += r * column i
            add(cols, j, row, r * c)
            add(rows, row, j, r * c)
        for col, c in list(rows.get(j, {}).items()):   # row i -= r * row j
            add(rows, i, col, -r * c)
            add(cols, col, i, -r * c)

    order = list(range(len(gens)))
    rng.shuffle(order)
    label = {j: f"g{p}" for p, j in enumerate(order)}
    entries = [{"from": label[j], "to": label[i], "coeff": str(c)}
               for j, col in cols.items() for i, c in col.items()]
    rng.shuffle(entries)
    obj = {"generators": [{"label": label[j], "eps": gens[j][0],
                           "filtration": fmt(F(gens[j][1], 8))} for j in order],
           "differential": entries}
    bars = [(F(birth, 8), None if death is None else F(death, 8), eps)
            for birth, death, eps in bars]
    return obj, bars, sorted({F(g[1], 8) for g in gens})


def barcode_text(bars) -> str:
    ordered = sorted(bars, key=lambda b: (b[0], b[1] is None, b[1] or 0, b[2]))
    return json.dumps([{"birth": fmt(birth),
                        "death": "inf" if death is None else fmt(death),
                        "eps": eps} for birth, death, eps in ordered],
                      indent=2) + "\n"


def barcode_zeta(bars, cutoff) -> dict:
    terms: dict = {}
    for birth, death, eps in bars:
        sign = -1 if eps else 1
        terms[birth] = terms.get(birth, 0) + sign
        if death is not None:
            terms[death] = terms.get(death, 0) - sign
    return {s: c for s, c in terms.items() if c and s <= cutoff}


def build_persistence(seed: int, root: str):
    """50 complexes of 300 to about 2000 generators, each run through
    barcode and through zeta-persistence with the cutoff at its 60th
    distinct level.  Sizes grow quadratically with the index, so a pass
    stays short enough for several passes in a run."""
    rng = random.Random(f"persistence:{seed}")
    jobs = []
    for i in range(50):
        n = 300 + (1700 * i * i) // (49 * 49) + rng.randrange(20)
        obj, bars, levels = planted_complex(rng, n)
        path = os.path.join(root, f"complex{i}.json")
        write_json(path, obj)
        cutoff = levels[min(60, len(levels)) - 1]
        shape = {"generators": len(obj["generators"]), "levels": len(levels),
                 "bars": len(bars), "grid_q": grid_q(levels),
                 "cutoff": fmt(cutoff)}
        jobs.append(Job("barcode", ["barcode", path], barcode_text(bars), shape))
        terms = barcode_zeta(bars, cutoff)
        jobs.append(Job("zeta-persistence",
                        ["zeta-persistence", path, "--cutoff", fmt(cutoff)],
                        series_text(terms, cutoff),
                        dict(shape, out_terms=len(terms))))
    return jobs


WORKLOADS = {
    "orbit-zeta": build_orbit_zeta,
    "series-files": build_series_files,
    "persistence": build_persistence,
}


def build(workload: str, seed: int, root: str):
    """Write the workload's input files under root and return its jobs, in
    the order one pass runs them.  Every workload has at least 100 jobs, so
    that a pass has ten jobs above its 90th percentile."""
    os.makedirs(root, exist_ok=True)
    return WORKLOADS[workload](seed, root)
