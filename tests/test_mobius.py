"""Moebius function and the Moebius product transform."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (PARITY_PAIRS, fresh_rng, mobius_product_reference,
                     random_orbit_set, random_series, stored)
from reebzeta import (NovikovSeries, OrbitSet, SimpleOrbit, elliptic,
                      exp, mobius, mobius_product, negative_hyperbolic,
                      positive_hyperbolic, zeta_good_orbits,
                      zeta_product_form, zeta_via_mobius)
from reebzeta.errors import NonIntegerCoefficients, NotPositivelySupported


def S(terms, cutoff):
    return NovikovSeries(terms, cutoff)


@st.composite
def orbit_sets_and_off_grid_cutoffs(draw):
    """Up to five orbits with any parity pair and actions p/q in [1/2, 3],
    q <= 6, and a cutoff in [1, 5] whose denominator 7, 11 or 13 is off
    the orbits' grid."""
    orbits = []
    for i in range(draw(st.integers(0, 5))):
        den = draw(st.integers(1, 6))
        action = F(draw(st.integers((den + 1) // 2, 3 * den)), den)
        orbits.append(SimpleOrbit(f"g{i}", action,
                                  *draw(st.sampled_from(PARITY_PAIRS))))
    den = draw(st.sampled_from((7, 11, 13)))
    num = draw(st.integers(den, 5 * den).filter(lambda n: n % den))
    return OrbitSet(orbits), F(num, den)


class TestMobiusFunction:
    def test_one(self):
        assert mobius(1) == 1

    def test_two_distinct_primes(self):
        assert mobius(6) == 1

    def test_square_factor_kills(self):
        assert mobius(12) == 0

    def test_small_table(self):
        values = [mobius(n) for n in range(1, 21)]
        assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
                          -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_divisor_sums_small(self):
        limit = 300
        sums = [0] * (limit + 1)
        for n in range(1, limit + 1):
            value = mobius(n)
            if value:
                for k in range(n, limit + 1, n):
                    sums[k] += value
        assert sums[1] == 1
        assert all(sums[k] == 0 for k in range(2, limit + 1))


class TestMobiusProduct:
    def test_full_iterate_tower_gives_geometric_series(self):
        tower = S({1: 1, 2: 1, 3: 1, 4: 1}, 4)
        assert mobius_product(tower, 4) == S({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, 4)

    def test_empty_input_gives_one(self):
        assert mobius_product(NovikovSeries.zero(5), 5) == NovikovSeries.one(5)

    def test_odd_iterates_give_one_plus_t(self):
        assert mobius_product(S({1: 1, 3: 1}, 3), 3) == S({0: 1, 1: 1}, 3)

    def test_negative_counts_invert(self):
        # counts -1 on every level: the inverse of the geometric series
        tower = S({1: -1, 2: -1, 3: -1}, 3)
        assert mobius_product(tower, 3) == S({0: 1, 1: -1}, 3)

    def test_rejects_fractional_coefficients(self):
        with pytest.raises(NonIntegerCoefficients):
            mobius_product(S({1: F(1, 2)}, 3), 3)

    def test_rejects_nonpositive_support(self):
        with pytest.raises(NotPositivelySupported):
            mobius_product(S({0: 1, 1: 1}, 3), 3)

    def test_refuses_what_exp_refuses(self):
        # one error class for the one precondition, each caller keeping
        # its own message; a term below zero is refused like one at zero
        for terms in ({0: 1}, {-1: 1, 1: 1}, {F(-1, 2): 2}):
            with pytest.raises(NotPositivelySupported) as info:
                mobius_product(S(terms, 3), 3)
            assert str(info.value) == \
                "transform input must be supported on positive exponents"
            with pytest.raises(NotPositivelySupported) as info:
                exp(S(terms, 3))
            assert str(info.value) == \
                "exp needs every exponent strictly positive"

    def test_result_cutoff_is_minimum(self):
        out = mobius_product(S({1: 1}, 2), 5)
        assert out.cutoff == 2

    def test_multiplicativity(self):
        rng = fresh_rng(401)
        for _ in range(20):
            a = random_series(rng, cutoff=6, positive=True, integer=True)
            b = random_series(rng, cutoff=6, positive=True, integer=True)
            assert mobius_product(a + b, 6) == \
                mobius_product(a, 6) * mobius_product(b, 6)

    def test_candidate_factor_count(self, monkeypatch):
        # One factor power per level whose merged exponent
        # E(m) = -sum_{n*A = m} mu(n) * a(A) is nonzero, not one per
        # candidate pair (A, n) with n*A <= cutoff (26 pairs here).
        cutoff = F(10)
        series = S({F(1, 2): 3, F(7, 3): -2, 4: 1}, cutoff)
        mu = [None, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
              -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]          # mu(1..20) by hand
        merged, pairs = {}, 0
        for action, count in series.items():
            n = 1
            while n * action <= cutoff:
                merged[n * action] = merged.get(n * action, 0) - mu[n] * count
                n += 1
                pairs += 1
        assert pairs == 20 + 4 + 2
        # E(7) = -3*mu(14) + 2*mu(3) and E(4) = -3*mu(8) - mu(1) merge
        # two actions; E(28/3) = 2*mu(4) = 0 and E(m) = 0 wherever
        # mu(2m) = 0 on the 1/2 tower.
        assert (merged[7], merged[4], merged[F(28, 3)]) == (-5, -1, 0)
        nonzero = sum(1 for e in merged.values() if e)
        assert nonzero == 17

        powers, depth = [], [0]
        original = NovikovSeries.__pow__

        def counting_pow(self, k):
            # a negative power recurses once on the inverse: count the
            # outer call, as one factor
            if not depth[0]:
                powers.append(k)
            depth[0] += 1
            try:
                return original(self, k)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(NovikovSeries, "__pow__", counting_pow)
        result = mobius_product(series, cutoff)
        monkeypatch.undo()
        assert len(powers) == nonzero
        assert sorted(powers) == sorted(e for e in merged.values() if e)
        assert stored(result) == \
            stored(mobius_product_reference(series, cutoff))


@st.composite
def transform_inputs(draw):
    """(series, cutoff) for the transform: exponents on mixed denominators
    or on one fine 1/N grid, nonzero counts of both signs, optionally a
    full or odd tower of counts (which cancel to E(m) = 0 above its base),
    series terms above the transform cutoff and cutoffs off the grid."""
    if draw(st.booleans()):
        series_cutoff = draw(st.integers(1, 8))
        denominators = st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))
    else:
        series_cutoff = draw(st.integers(1, 2))
        denominators = st.just(draw(st.integers(10, 40)))
    counts = st.integers(-3, 3).filter(bool)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        den = draw(denominators)
        exponent = F(draw(st.integers(1, series_cutoff * den)), den)
        terms[exponent] = terms.get(exponent, 0) + draw(counts)
    if draw(st.booleans()):
        den = draw(denominators)
        base = F(draw(st.integers(1, series_cutoff * den)), den)
        count = draw(counts)
        step = draw(st.sampled_from((1, 2)))  # every or odd multiple
        for j in range(1, int(series_cutoff / base) + 1, step):
            terms[j * base] = terms.get(j * base, 0) + count
    cutoff_den = draw(st.sampled_from((1, 7, 11)))
    cutoff = F(draw(st.integers(1, (series_cutoff + 1) * cutoff_den)),
               cutoff_den)
    return S(terms, series_cutoff), cutoff


class TestMergedMatchesReference:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(transform_inputs())
    def test_bit_equal_to_per_pair_product(self, case):
        series, cutoff = case
        assert stored(mobius_product(series, cutoff)) == \
            stored(mobius_product_reference(series, cutoff))

    def test_cancelling_tower_needs_one_factor(self):
        # counts 2 on every multiple of 1/30 merge to E(1/30) = -2 alone
        tower = S({F(j, 30): 2 for j in range(1, 61)}, 2)
        expected = S({F(j, 30): j + 1 for j in range(61)}, 2)
        assert mobius_product(tower, 2) == expected
        assert stored(mobius_product(tower, 2)) == \
            stored(mobius_product_reference(tower, 2))


class TestZetaViaMobius:
    def test_single_elliptic(self):
        assert zeta_via_mobius(OrbitSet([elliptic("e", 1)]), 3) == \
            S({0: 1, 1: 1, 2: 1, 3: 1}, 3)

    def test_single_negative_hyperbolic(self):
        assert zeta_via_mobius(OrbitSet([negative_hyperbolic("n", 1)]), 2) == \
            S({0: 1, 1: 1}, 2)

    def test_mixed_set_matches_product_form(self):
        mixed = OrbitSet([positive_hyperbolic("h", 1),
                          elliptic("e", F(3, 2))])
        assert zeta_via_mobius(mixed, 3) == zeta_product_form(mixed, 3)

    def test_four_parity_cases_at_cutoff_12(self):
        closed_forms = {
            (0, 0): S({k: 1 for k in range(13)}, 12),            # 1/(1-t)
            (1, 1): S({0: 1, 1: -1}, 12),                        # 1-t
            (0, 1): S({0: 1, 1: 1}, 12),                         # 1+t
            (1, 0): S({k: (-1) ** k for k in range(13)}, 12),    # 1/(1+t)
        }
        for parities, expected in closed_forms.items():
            single = OrbitSet([SimpleOrbit("g", 1, *parities)])
            assert zeta_via_mobius(single, 12) == expected
            assert zeta_product_form(single, 12) == expected

    def test_agrees_with_product_form_on_random_sets(self):
        rng = fresh_rng(402)
        for _ in range(20):
            orbit_set = random_orbit_set(rng, max_orbits=5)
            assert zeta_via_mobius(orbit_set, 6) == \
                zeta_product_form(orbit_set, 6)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(orbit_sets_and_off_grid_cutoffs())
    @example((OrbitSet([SimpleOrbit(f"g{i}", F(i + 2, 2), *pair)
                        for i, pair in enumerate(PARITY_PAIRS)]), F(33, 7)))
    def test_round_trip_through_good_orbits(self, case):
        orbit_set, cutoff = case
        assert mobius_product(zeta_good_orbits(orbit_set, cutoff), cutoff) == \
            zeta_product_form(orbit_set, cutoff)

    def test_good_orbit_series_feeds_the_transform(self):
        orbit_set = OrbitSet([negative_hyperbolic("n", 1)])
        jumps = zeta_good_orbits(orbit_set, 4)
        assert jumps == S({1: 1, 3: 1}, 4)
        assert mobius_product(jumps, 4) == zeta_product_form(orbit_set, 4)
