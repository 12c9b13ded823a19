"""Acceptance suite: the exact algebraic identities and closed-form
computations the library must reproduce, at the stated sample counts,
runtime budgets, and with exact (bit-for-bit) equality throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from helpers import (PARITY_PAIRS, fresh_rng, planted_complex, probe_levels,
                     random_3d_orbit_set, random_complex, random_orbit_set,
                     random_series, stored)
from reebzeta import (MorseData, NovikovSeries, OrbitSet, SimpleOrbit,
                      ToricDomain, ToricVerdict, barcode_decompose,
                      distinguish_from_toric, ech_generators, elliptic,
                      euler_jump, exp, homology_dims, log, mobius,
                      mobius_product, negative_hyperbolic,
                      positive_hyperbolic, s1_invariant_zeta, toric_euler,
                      toric_zeta, zeta_barcode, zeta_ech_form, zeta_exp_form,
                      zeta_good_orbits, zeta_persistence, zeta_product_form,
                      zeta_via_mobius)
from reebzeta.serialize import series_from_obj, series_to_obj


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    note = f" [{elapsed:.2f}s]" if budget else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{note}")
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


@pytest.fixture(scope="module")
def orbit_sets_200():
    rng = fresh_rng(20260809)
    return [random_orbit_set(rng, max_orbits=8, max_den=12)
            for _ in range(200)]


def test_criterion_1_product_equals_exp_form(orbit_sets_200):
    with criterion(1, "exp form = product form on 200 random orbit sets, "
                      "integer coefficients, constant term 1", budget=10.0):
        seen_parities = set()
        for orbit_set in orbit_sets_200:
            seen_parities.update((o.eps1, o.eps2) for o in orbit_set)
            product = zeta_product_form(orbit_set, 10)
            assert zeta_exp_form(orbit_set, 10) == product
            assert product.has_integer_coefficients
            assert product.constant_term == 1
        assert seen_parities == set(PARITY_PAIRS)


def test_criterion_2_ech_expansion():
    with criterion(2, "ECH generator expansion = product form on 100 random "
                      "3D orbit sets at cutoff 8", budget=30.0):
        rng = fresh_rng(20260810)
        for _ in range(100):
            orbit_set = random_3d_orbit_set(rng, max_orbits=5)
            assert zeta_ech_form(orbit_set, 8) == \
                zeta_product_form(orbit_set, 8)


def test_criterion_3_mobius_bridge(orbit_sets_200):
    with criterion(3, "Moebius transform of the good-orbit series = product "
                      "form on the same 200 sets, plus the four single-orbit "
                      "parity identities at cutoff 12"):
        for orbit_set in orbit_sets_200:
            transformed = mobius_product(zeta_good_orbits(orbit_set, 10), 10)
            assert transformed == zeta_product_form(orbit_set, 10)

        closed_forms = {
            (0, 0): NovikovSeries({k: 1 for k in range(13)}, 12),
            (1, 1): NovikovSeries({0: 1, 1: -1}, 12),
            (0, 1): NovikovSeries({0: 1, 1: 1}, 12),
            (1, 0): NovikovSeries({k: (-1) ** k for k in range(13)}, 12),
        }
        for parities, expected in closed_forms.items():
            single = OrbitSet([SimpleOrbit("g", 1, *parities)])
            bridged = mobius_product(zeta_good_orbits(single, 12), 12)
            assert bridged == expected == zeta_product_form(single, 12)


def test_criterion_4_mobius_divisor_sums():
    with criterion(4, "sum of mu(n) over divisors of k is [k = 1] for all "
                      "k <= 10^4"):
        limit = 10 ** 4
        sums = [0] * (limit + 1)
        for n in range(1, limit + 1):
            value = mobius(n)
            if value:
                for k in range(n, limit + 1, n):
                    sums[k] += value
        assert sums[1] == 1
        assert all(sums[k] == 0 for k in range(2, limit + 1))


def test_criterion_5_normal_form():
    with criterion(5, "barcode of 300 random complexes matches the "
                      "rank-nullity oracle at all critical levels and "
                      "midpoints; jump and zeta identities", budget=20.0):
        rng = fresh_rng(20260811)
        for _ in range(300):
            complex_, _ = random_complex(rng, max_gens=12)
            barcode = barcode_decompose(complex_)
            for level in probe_levels(complex_):
                assert barcode.graded_dims(level) == \
                    homology_dims(complex_, level)
            assert zeta_persistence(complex_, 25) == zeta_barcode(barcode, 25)
            for level in set(complex_.filtrations):
                signed = sum(-1 if eps else 1
                             for eps, f in zip(complex_.eps,
                                               complex_.filtrations)
                             if f == level)
                assert euler_jump(barcode, level) == signed


def test_criterion_6_toric_formulas():
    with criterion(6, "toric zeta = two-elliptic product form on 50 random "
                      "axis pairs; counting function matches floors and "
                      "cumulative jumps at 100 off-spectrum levels"):
        rng = fresh_rng(20260812)
        pairs = []
        for _ in range(50):
            den_a, den_b = rng.randint(1, 8), rng.randint(1, 8)
            pairs.append((F(rng.randint(den_a, 4 * den_a), den_a),
                          F(rng.randint(den_b, 4 * den_b), den_b)))
        for a, b in pairs:
            domain = ToricDomain(a, b)
            two_elliptic = OrbitSet([elliptic("a", a), elliptic("b", b)])
            assert toric_zeta(domain, 10) == \
                zeta_product_form(two_elliptic, 10)

        checked = 0
        while checked < 100:
            a, b = pairs[checked % 50]
            level = F(rng.randint(1, 80), rng.choice((1, 2, 3, 4, 5, 7, 8)))
            if level > 10 or (level / a).denominator == 1 \
                    or (level / b).denominator == 1:
                continue
            domain = ToricDomain(a, b)
            two_elliptic = OrbitSet([elliptic("a", a), elliptic("b", b)])
            jumps = zeta_good_orbits(two_elliptic, 10)
            cumulative = sum(c for s, c in jumps.items() if s <= level)
            assert toric_euler(domain, level) == cumulative == \
                math.floor(level / a) + math.floor(level / b)
            checked += 1


def test_criterion_7_distinguisher():
    with criterion(7, "toric zetas are Inconclusive (50 random axis pairs); "
                      "the saddle configuration yields NotToricInterior with "
                      "witness 3/2 at cutoff 2"):
        rng = fresh_rng(20260813)
        for _ in range(50):
            den_a, den_b = rng.randint(1, 8), rng.randint(1, 8)
            a = F(rng.randint(den_a, 4 * den_a), den_a)
            b = F(rng.randint(den_b, 4 * den_b), den_b)
            verdict = distinguish_from_toric(toric_zeta(ToricDomain(a, b), 10))
            assert verdict.verdict is ToricVerdict.INCONCLUSIVE

        # min action 1, saddle 3/2, max 3; the padding minimum sits above
        # the cutoff so the series below cutoff 2 is exactly that of the
        # stated three-point configuration.
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        result = distinguish_from_toric(s1_invariant_zeta(morse, 2))
        assert result.verdict is ToricVerdict.NOT_TORIC_INTERIOR
        assert result.witness == F(3, 2)


def test_criterion_8_novikov_algebra():
    with criterion(8, "ring axioms, unit inversion and exp/log round trips "
                      "on 500 random series at cutoff 10, exact equality"):
        rng = fresh_rng(20260814)
        series = [random_series(rng, cutoff=10) for _ in range(500)]

        one = NovikovSeries.one(10)
        for i in range(0, 300, 3):
            a, b, c = series[i], series[i + 1], series[i + 2]
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        for a in series[300:400]:
            unit = one + NovikovSeries(
                {s: c for s, c in a.items() if s > 0}, 10)
            assert unit * unit.inverse() == one

        for a in series[400:500]:
            positive = NovikovSeries(
                {s: c for s, c in a.items() if s > 0}, 10)
            assert log(exp(positive)) == positive
            assert exp(log(one + positive)) == one + positive


def test_criterion_9_mobius_on_a_fine_grid():
    with criterion(9, "Moebius route = product form for one elliptic orbit "
                      "of action 1/1000 at cutoff 1", budget=2.0):
        fine = OrbitSet([elliptic("e", F(1, 1000))])
        assert zeta_via_mobius(fine, 1) == zeta_product_form(fine, 1)


def test_criterion_10_persistence_zeta_on_a_large_complex():
    complex_, planted = planted_complex(fresh_rng(20260815), 2000)
    cutoff = max(complex_.filtrations) + 1
    with criterion(10, "persistence zeta = barcode zeta on one planted "
                       "complex of 2000 generators, every level below the "
                       "cutoff", budget=0.5):
        barcode = barcode_decompose(complex_)
        assert zeta_persistence(complex_, cutoff) == \
            zeta_barcode(barcode, cutoff)
    assert barcode == planted


def test_criterion_11_toric_zeta_on_a_fine_grid():
    a, b = F(1, 300), F(1, 301)
    # t^s counts the points (i, j) >= 0 with i*a + j*b = s, on the 1/90300
    # grid where s = (301*i + 300*j) / 90300
    lattice = {}
    for i in range(301):
        for j in range((90300 - 301 * i) // 300 + 1):
            key = 301 * i + 300 * j
            lattice[key] = lattice.get(key, 0) + 1
    expected = NovikovSeries([(F(key, 90300), count)
                              for key, count in lattice.items()], 1)
    with criterion(11, "toric zeta of axis actions 1/300, 1/301 at cutoff 1 "
                       "= lattice-point counts (45,451 terms)", budget=0.5):
        assert toric_zeta(ToricDomain(a, b), 1) == expected
    assert len(expected) == 45451 and expected.coefficient(1) == 2


def test_criterion_12_exp_form_on_a_sparse_large_grid():
    orbit_set = OrbitSet([elliptic("a", F(999, 1000)),
                          elliptic("b", F(1001, 1003)),
                          elliptic("c", F(1013, 1019))])
    with criterion(12, "exp form = product form for elliptic orbits of "
                       "action 999/1000, 1001/1003, 1013/1019 at cutoff 8 "
                       "(q about 10^9)", budget=0.5):
        assert zeta_exp_form(orbit_set, 8) == zeta_product_form(orbit_set, 8)


def test_criterion_13_exp_form_on_a_fine_grid():
    fine = OrbitSet([elliptic("e", F(1, 1000))])
    with criterion(13, "exp form = product form for one elliptic orbit of "
                       "action 1/1000 at cutoff 1", budget=1.0):
        assert zeta_exp_form(fine, 1) == zeta_product_form(fine, 1)


def test_criterion_14_ech_form_on_a_thousand_generators():
    orbit_set = OrbitSet([
        elliptic("e1", 3), elliptic("e2", F(4, 3)), elliptic("e3", F(5, 4)),
        elliptic("e4", F(7, 3)), negative_hyperbolic("n1", F(4, 3)),
        negative_hyperbolic("n2", 1), positive_hyperbolic("p1", F(3, 2))])
    with criterion(14, "ECH form = product form on a 7-orbit 3D set with "
                       "1,119 generators at cutoff 12", budget=0.25):
        assert zeta_ech_form(orbit_set, 12) == \
            zeta_product_form(orbit_set, 12)
    assert len(ech_generators(orbit_set, 12)) == 1119


def test_criterion_15_series_file_io_on_a_fine_grid():
    zeta = toric_zeta(ToricDomain(F(1, 300), F(1, 301)), 1)
    # The best of three samples, so that one slow sample on a loaded host
    # does not fail the budget.
    samples = []
    with criterion(15, "encode and decode of the 45,451-term toric zeta of "
                       "axis actions 1/300, 1/301 at cutoff 1, best of 3"):
        for _ in range(3):
            start = time.perf_counter()
            obj = series_to_obj(zeta)
            decoded = series_from_obj(obj)
            samples.append(time.perf_counter() - start)
    assert min(samples) < 0.25, \
        f"criterion 15 took {min(samples):.2f}s at best, budget 0.25s"
    assert len(obj["terms"]) == 45451 and obj["terms"][1]["exponent"] == "1/301"
    assert stored(decoded) == stored(zeta)


def test_criterion_16_exp_form_on_a_finer_grid():
    fine = OrbitSet([elliptic("e", F(1, 10 ** 4))])
    # The best of three samples, as in criterion 15.
    samples = []
    with criterion(16, "exp form = product form for one elliptic orbit of "
                       "action 1/10^4 at cutoff 1, best of 3"):
        for _ in range(3):
            start = time.perf_counter()
            assert zeta_exp_form(fine, 1) == zeta_product_form(fine, 1)
            samples.append(time.perf_counter() - start)
    assert min(samples) < 0.75, \
        f"criterion 16 took {min(samples):.2f}s at best, budget 0.75s"


def test_criterion_17_unit_inverses_by_the_ascending_recurrence():
    fine = OrbitSet([elliptic("e", F(1, 10 ** 5))])
    unit = NovikovSeries({0: 1, F(999, 1000): -1, F(1001, 1003): -1}, 8)
    # (name, run, terms of the result, budget in seconds), each timed at
    # its best of three samples, as in criterion 15
    runs = [("product form", lambda: zeta_product_form(fine, 1), 100001, 0.25),
            ("inverse", unit.inverse, 45, 0.05)]
    best = {}
    with criterion(17, "product form of one elliptic orbit of action "
                       "1/10^5 at cutoff 1 (100,001 terms), and the inverse "
                       "of 1 - t^(999/1000) - t^(1001/1003) at cutoff 8 "
                       "(45 terms, bound about 8*10^6), best of 3"):
        for name, run, terms, _ in runs:
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                result = run()
                samples.append(time.perf_counter() - start)
            assert len(result) == terms
            best[name] = min(samples)
    for name, _, _, budget in runs:
        assert best[name] < budget, \
            f"criterion 17 {name} took {best[name]:.3f}s at best, budget {budget}s"


def test_criterion_18_ech_enumeration_is_linear_in_the_orbits():
    orbit_set = OrbitSet(positive_hyperbolic(f"h{i:05}", 1)
                         for i in range(20000))
    small = OrbitSet(list(orbit_set)[:2000])
    # Each orbit fills the cutoff, so only the empty generator has room
    # for the next one.  A pass that rescans every generator so far for
    # room is quadratic: 7.0 s a call against 0.13 s, on a 2-vCPU host.
    # Ten times the orbits must take well under a hundred times as long,
    # which holds or fails alike on a fast host and a slow one.
    best = {}
    with criterion(18, "ECH generators of 20,000 positive hyperbolic orbits "
                       "of action 1 at cutoff 1, best of 3, against 2,000"):
        for orbits_ in (small, orbit_set):   # gens ends as the large one's
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                gens = ech_generators(orbits_, 1)
                samples.append(time.perf_counter() - start)
            best[len(orbits_)] = min(samples)
        assert [g.pairs for g in gens] == \
            [()] + [((o, 1),) for o in orbit_set]
        assert zeta_ech_form(orbit_set, 1) == zeta_product_form(orbit_set, 1)
    assert best[20000] < 5, \
        f"criterion 18 took {best[20000]:.2f}s at best, budget 5s"
    assert best[20000] / best[2000] < 30, \
        f"criterion 18: 20,000 orbits took {best[20000] / best[2000]:.1f} " \
        "times as long as 2,000, budget 30"
