"""Closed-form domain computations and the toric obstruction test."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fresh_rng, random_series, stored
from reebzeta import (MorseData, NovikovSeries, OrbitSet, ToricDomain,
                      distinguish_from_toric, elliptic,
                      mobius_product, positive_hyperbolic, s1_invariant_zeta,
                      s1_orbit_set, toric_euler, toric_orbit_set, toric_zeta,
                      zeta_ech_form, zeta_exp_form, zeta_good_orbits,
                      zeta_product_form, zeta_via_mobius)
from reebzeta.errors import BadMorseCounts, NonPositiveAction, OnSpectrum

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
# the orbit routes other than the product form, which the domain zetas use
OTHER_ROUTES = (zeta_exp_form, zeta_ech_form, zeta_via_mobius)


def S(terms, cutoff):
    return NovikovSeries(terms, cutoff)


def random_axis(rng):
    den = rng.randint(1, 8)
    return F(rng.randint(den, 4 * den), den)


def random_axes(rng):
    return random_axis(rng), random_axis(rng)


@st.composite
def actions(draw):
    """An action in [1, 4] with denominator 1-5: at least 1, so the ECH
    generators below cutoff 8 stay a few thousand."""
    den = draw(st.integers(1, 5))
    return F(draw(st.integers(den, 4 * den)), den)


@st.composite
def morse_data(draw):
    """Morse data with 0-3 saddles, hence 2-8 critical points: the count
    is even, as #min - #saddle + #max = 2."""
    saddles = draw(st.integers(0, 3))
    extrema = draw(st.lists(st.sampled_from((0, 2)), min_size=saddles,
                            max_size=saddles))
    return MorseData([(f"p{i}", draw(actions()), index) for i, index
                      in enumerate([0, 2, *extrema] + [1] * saddles)])


class TestToricZeta:
    def test_round_ball_like_square(self):
        assert toric_zeta(ToricDomain(1, 1), 3) == \
            S({0: 1, 1: 2, 2: 3, 3: 4}, 3)

    def test_unequal_axes(self):
        assert toric_zeta(ToricDomain(1, 2), 2) == S({0: 1, 1: 1, 2: 2}, 2)

    def test_cutoff_below_both_actions(self):
        assert toric_zeta(ToricDomain(2, 3), 1) == NovikovSeries.one(1)

    def test_positive_axes_required(self):
        with pytest.raises(NonPositiveAction):
            ToricDomain(0, 1)

    def test_matches_two_elliptic_orbits(self):
        rng = fresh_rng(501)
        for _ in range(20):
            a, b = random_axes(rng)
            domain = ToricDomain(a, b)
            pair = OrbitSet([elliptic("a", a), elliptic("b", b)])
            assert toric_zeta(domain, 8) == zeta_product_form(pair, 8)


class TestToricEuler:
    def test_square_domain(self):
        assert toric_euler(ToricDomain(1, 1), F(5, 2)) == 4

    def test_below_both_actions(self):
        assert toric_euler(ToricDomain(1, F(3, 2)), F(1, 2)) == 0

    def test_mixed_denominators(self):
        assert toric_euler(ToricDomain(1, F(3, 2)), F(7, 4)) == 2

    def test_spectrum_guard(self):
        with pytest.raises(OnSpectrum):
            toric_euler(ToricDomain(1, F(3, 2)), 2)
        with pytest.raises(OnSpectrum):
            toric_euler(ToricDomain(1, F(3, 2)), 3)

    def test_level_must_be_positive(self):
        with pytest.raises(NonPositiveAction):
            toric_euler(ToricDomain(1, 1), F(-1, 2))

    def test_matches_cumulative_jumps(self):
        rng = fresh_rng(502)
        for _ in range(20):
            a, b = random_axes(rng)
            domain = ToricDomain(a, b)
            pair = OrbitSet([elliptic("a", a), elliptic("b", b)])
            jumps = zeta_good_orbits(pair, 9)
            level = F(rng.randint(1, 35), 4)
            if (level / a).denominator == 1 or (level / b).denominator == 1:
                continue
            cumulative = sum(c for s, c in jumps.items() if s <= level)
            assert toric_euler(domain, level) == cumulative == \
                math.floor(level / a) + math.floor(level / b)


class TestToricOrbitFamilies:
    def test_families_cancel_in_every_route(self):
        # The torus of orbits over a rational-slope boundary point perturbs
        # into an elliptic and a positive hyperbolic orbit at its action,
        # so every route of the axes plus the families gives toric_zeta.
        rng = fresh_rng(503)
        for _ in range(12):
            a, b = random_axes(rng)
            orbits = [elliptic("a", a), elliptic("b", b)]
            for i in range(rng.randint(1, 3)):
                action = F(rng.randint(2, 12), rng.choice((1, 2, 3)))
                orbits += [elliptic(f"f{i}", action),
                           positive_hyperbolic(f"h{i}", action)]
            toric = stored(toric_zeta(ToricDomain(a, b), 5))
            for route in (zeta_exp_form, zeta_product_form, zeta_ech_form,
                          zeta_via_mobius):
                assert stored(route(OrbitSet(orbits), 5)) == toric


class TestOrbitSets:
    def test_toric_orbit_set_is_the_elliptic_axes(self):
        assert toric_orbit_set(ToricDomain(1, "3/2")) == \
            OrbitSet([elliptic("a", 1), elliptic("b", F(3, 2))])

    def test_s1_orbit_set_has_one_orbit_per_critical_point(self):
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("min2", 4, 0)])
        assert s1_orbit_set(morse) == OrbitSet([
            elliptic("min", 1), positive_hyperbolic("sad", F(3, 2)),
            elliptic("max", 3), elliptic("min2", 4)])

    @PROPERTY
    @given(actions(), actions(), st.integers(2, 8))
    def test_toric_zeta_in_every_route(self, a, b, cutoff):
        domain = ToricDomain(a, b)
        toric = stored(toric_zeta(domain, cutoff))
        for route in OTHER_ROUTES:
            assert stored(route(toric_orbit_set(domain), cutoff)) == toric

    @PROPERTY
    @given(morse_data(), st.integers(2, 8))
    def test_s1_invariant_zeta_in_every_route(self, morse, cutoff):
        s1 = stored(s1_invariant_zeta(morse, cutoff))
        for route in OTHER_ROUTES:
            assert stored(route(s1_orbit_set(morse), cutoff)) == s1

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(morse_data(), actions(), st.integers(2, 8))
    def test_minimum_and_saddle_born_together_change_nothing(
            self, morse, action, cutoff):
        # A birth-death pair of a minimum and a saddle at one action keeps
        # #min - #saddle + #max = 2, and an elliptic and a positive
        # hyperbolic orbit at one action cancel in every route.
        born = MorseData([*morse, ("born min", action, 0),
                          ("born saddle", action, 1)])
        s1 = stored(s1_invariant_zeta(morse, cutoff))
        assert stored(s1_invariant_zeta(born, cutoff)) == s1
        for route in (zeta_product_form, *OTHER_ROUTES):
            assert stored(route(s1_orbit_set(born), cutoff)) == s1


class TestS1InvariantZeta:
    def test_no_saddles(self):
        morse = MorseData([("min", 1, 0), ("max", 3, 2)])
        assert s1_invariant_zeta(morse, 3) == S({0: 1, 1: 1, 2: 1, 3: 2}, 3)

    def test_saddle_produces_negative_coefficient(self):
        # min 1, saddle 3/2, max 3; a second minimum above the cutoff pads
        # the configuration to a geometrically possible one (the index
        # counts must satisfy #min - #saddle + #max = 2) without touching
        # any coefficient below the cutoff.
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        assert s1_invariant_zeta(morse, F(3, 2)) == \
            S({0: 1, 1: 1, F(3, 2): -1}, F(3, 2))

    def test_all_actions_beyond_cutoff(self):
        morse = MorseData([("min", 2, 0), ("max", 3, 2)])
        assert s1_invariant_zeta(morse, 1) == NovikovSeries.one(1)

    def test_index_must_be_an_int(self):
        # 0.0 == 0 would pass the range check and fail as a list index
        for bad in (0.0, 2.0, True, F(0)):
            with pytest.raises(ValueError) as info:
                MorseData([("a", 1, bad), ("b", 2, 2)])
            assert str(info.value) == "critical point 'a': index must be 0, 1 or 2"

    def test_sphere_euler_count_enforced(self):
        with pytest.raises(BadMorseCounts):
            MorseData([("min", 1, 0), ("sad", 2, 1), ("max", 3, 2)])
        with pytest.raises(BadMorseCounts):
            MorseData([("min", 1, 0), ("min2", 2, 0)])
        with pytest.raises(BadMorseCounts):
            MorseData([])

    def test_pure_extrema_are_nonnegative(self):
        rng = fresh_rng(503)
        for _ in range(15):
            points = [("min", F(rng.randint(1, 8), rng.randint(1, 4)), 0),
                      ("max", F(rng.randint(1, 8), rng.randint(1, 4)), 2)]
            zeta = s1_invariant_zeta(MorseData(points), 6)
            assert all(c > 0 for _, c in zeta.items())

    def test_point_order_does_not_matter(self):
        rng = fresh_rng(505)
        for _ in range(20):
            # each saddle comes with one more extremum: #min - #sad + #max = 2
            indices = [0, 2]
            for _ in range(rng.randint(0, 3)):
                indices += [1, rng.choice((0, 2))]
            points = [(f"p{i}", F(rng.randint(1, 8), rng.randint(1, 4)), index)
                      for i, index in enumerate(indices)]
            shuffled = rng.sample(points, len(points))
            assert s1_invariant_zeta(MorseData(shuffled), 6) == \
                s1_invariant_zeta(MorseData(points), 6)

    def test_isolated_saddle_action_witnesses(self):
        # saddle action not a sum of the other actions within the cutoff
        morse = MorseData([("min", 2, 0), ("sad", F(5, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        zeta = s1_invariant_zeta(morse, 3)
        assert zeta.coefficient(F(5, 2)) == -1


class TestDistinguish:
    def test_toric_zetas_are_inconclusive(self):
        rng = fresh_rng(504)
        for _ in range(20):
            a, b = random_axes(rng)
            assert distinguish_from_toric(
                toric_zeta(ToricDomain(a, b), 7)) is None

    def test_saddle_witness(self):
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        witness = distinguish_from_toric(s1_invariant_zeta(morse, 2))
        assert type(witness) is F and witness == F(3, 2)

    def test_hyperbolic_orbit_flips_a_coefficient(self):
        from reebzeta import positive_hyperbolic
        flow = OrbitSet([positive_hyperbolic("h", F(3, 2)), elliptic("e", 1)])
        assert distinguish_from_toric(zeta_product_form(flow, 2)) == F(3, 2)

    def test_constant_series_is_inconclusive(self):
        assert distinguish_from_toric(NovikovSeries.one(4)) is None

    def test_smallest_negative_exponent_wins(self):
        series = S({1: 2, F(3, 2): -1, 2: -5}, 3)
        assert distinguish_from_toric(series) == F(3, 2)

    def test_witness_is_the_first_negative_term(self):
        # against a scan of the Fraction terms, on grids with q > 1 and on
        # inverses, which have negative keys
        rng = fresh_rng(506)
        for _ in range(60):
            series = random_series(rng, cutoff=F(15, 2))
            if rng.random() < 0.3 and series:
                series = series.inverse()
            negative = [s for s, c in series.items() if c < 0]
            assert distinguish_from_toric(series) == \
                (negative[0] if negative else None)


class TestMobiusBridge:
    def test_toric_jump_series_transforms_to_toric_zeta(self):
        rng = fresh_rng(505)
        cutoff = F(8)
        for _ in range(15):
            a, b = random_axes(rng)
            tower = {}
            for action in (a, b):
                d = 1
                while d * action <= cutoff:
                    tower[d * action] = tower.get(d * action, 0) + 1
                    d += 1
            assert mobius_product(NovikovSeries(tower, cutoff), cutoff) == \
                toric_zeta(ToricDomain(a, b), cutoff)
