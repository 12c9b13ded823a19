"""Orbit data model and the three zeta computations."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (PARITY_PAIRS, counting_powers, ech_generators_reference,
                     ech_labels, ech_multiplicities, exp_input_reference,
                     fresh_rng, good_orbit_count_reference,
                     random_3d_orbit_set, random_orbit_set, stored,
                     zeta_good_orbits_reference)
from reebzeta import (NovikovSeries, OrbitSet, SimpleOrbit, ech_generators,
                      elliptic, good_orbit_count, is_good, iterate_parity,
                      negative_hyperbolic, orbits, positive_hyperbolic,
                      zeta_ech_form, zeta_exp_form, zeta_good_orbits,
                      zeta_product_form, zeta_via_mobius)
from reebzeta.errors import (DuplicateLabel, NonPositiveAction,
                             NotThreeDimensional)


def S(terms, cutoff):
    return NovikovSeries(terms, cutoff)


# The 3D orbit-type constructors in the order of the type table
TYPES = (elliptic, positive_hyperbolic, negative_hyperbolic)


class TestOrbitTypes:
    def test_parity_table(self):
        assert orbits._TYPE_PARITIES == {"elliptic": (0, 0),
                                         "pos-hyperbolic": (1, 1),
                                         "neg-hyperbolic": (0, 1)}
        # the order random orbit sets draw their types in
        assert list(orbits._TYPE_PARITIES) == \
            ["elliptic", "pos-hyperbolic", "neg-hyperbolic"]

    def test_constructor_parities(self):
        assert [(o.eps1, o.eps2) for o in (make("g", 1) for make in TYPES)] \
            == [(0, 0), (1, 1), (0, 1)]
        assert negative_hyperbolic("g", F(3, 2)) == \
            SimpleOrbit("g", F(3, 2), 0, 1)


class TestOrbitModel:
    def test_action_must_be_positive(self):
        with pytest.raises(NonPositiveAction):
            SimpleOrbit("x", 0, 0, 0)
        with pytest.raises(NonPositiveAction):
            SimpleOrbit("x", F(-1, 2), 0, 0)

    def test_parities_must_be_int_bits(self):
        # a float flag would break zeta_ech_form later with a raw TypeError
        for bad in (1.0, 0.0, True, F(1), "1"):
            for eps in ((bad, 1), (1, bad)):
                with pytest.raises(ValueError) as info:
                    SimpleOrbit("h", 1, *eps)
                assert str(info.value) == "orbit 'h': parities must be 0 or 1"

    def test_labels_must_be_distinct(self):
        with pytest.raises(DuplicateLabel):
            OrbitSet([elliptic("a", 1), elliptic("a", 2)])

    def test_equality_ignores_order(self):
        a, b = elliptic("a", 1), negative_hyperbolic("b", F(2, 4))
        assert OrbitSet([a, b]) == OrbitSet([b, a])
        assert OrbitSet([a, b]) != OrbitSet([a])
        assert OrbitSet([a]) != OrbitSet([elliptic("a", 2)])
        assert OrbitSet([a]) != OrbitSet([positive_hyperbolic("a", 1)])
        assert OrbitSet([a]).__eq__([a]) is NotImplemented


class TestIterateParity:
    def test_odd_cover_uses_eps1(self):
        assert iterate_parity(SimpleOrbit("x", 1, 1, 0), 3) == 1

    def test_simple_orbit_is_itself(self):
        assert iterate_parity(SimpleOrbit("x", 1, 0, 1), 1) == 0

    def test_even_cover_uses_eps2(self):
        assert iterate_parity(SimpleOrbit("x", 1, 0, 1), 4) == 1

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            iterate_parity(elliptic("e", 1), 0)


class TestGoodBad:
    def test_negative_hyperbolic_double_cover_is_bad(self):
        assert is_good(negative_hyperbolic("n", 1), 2) is False

    def test_simple_orbits_are_good(self):
        for orbit in (elliptic("e", 1), positive_hyperbolic("h", 1),
                      negative_hyperbolic("n", 1), SimpleOrbit("x", 1, 1, 0)):
            assert is_good(orbit, 1)

    def test_equal_parities_never_bad(self):
        assert is_good(elliptic("e", 1), 6)
        assert is_good(positive_hyperbolic("h", 1), 6)

    def test_rejects_nonpositive_multiplicity(self):
        for d in (0, -2):
            with pytest.raises(ValueError) as info:
                is_good(negative_hyperbolic("n", 1), d)
            assert str(info.value) == \
                f"covering multiplicity must be >= 1, got {d}"


class TestZetaExpForm:
    def test_single_elliptic_is_geometric(self):
        assert zeta_exp_form(OrbitSet([elliptic("e", 1)]), 3) == \
            S({0: 1, 1: 1, 2: 1, 3: 1}, 3)

    def test_empty_set(self):
        assert zeta_exp_form(OrbitSet(), 5) == NovikovSeries.one(5)

    def test_single_positive_hyperbolic(self):
        assert zeta_exp_form(OrbitSet([positive_hyperbolic("h", 1)]), 3) == \
            S({0: 1, 1: -1}, 3)


class TestExpInput:
    """The exp argument built on int keys against the Fraction pairs it
    replaced: the same bits on the same grid."""

    @staticmethod
    def check(orbit_set, cutoff):
        built = orbits._exp_input(orbit_set, F(cutoff))
        reference = exp_input_reference(orbit_set, cutoff)
        assert stored(built) == stored(reference)
        assert built._q == reference._q

    def test_random_orbit_sets(self):
        # actions in [1, 4], so the lower cutoffs leave orbits above them
        rng = fresh_rng(424242)
        for _ in range(60):
            self.check(random_orbit_set(rng, max_orbits=6),
                       rng.choice((F(1, 2), 1, F(5, 2), F(7, 3), 6, 10)))

    @pytest.mark.parametrize("eps", PARITY_PAIRS)
    def test_colliding_covers(self, eps):
        # A, 2A and 3A share keys, so +-1/d terms of several orbits add up,
        # and cancel where opposite parities meet
        orbit_set = OrbitSet([SimpleOrbit("a", F(1, 3), *eps),
                              SimpleOrbit("b", F(2, 3), 1, 0),
                              SimpleOrbit("c", 1, 0, 1),
                              SimpleOrbit("d", F(2, 3) * 3, *eps)])
        for cutoff in (F(1, 4), F(1, 3), 5, F(31, 6)):
            self.check(orbit_set, cutoff)

    def test_cancelled_covers_are_not_stored(self):
        # on one action, the even covers of a (eps2 = 1) cancel those of b
        orbit_set = OrbitSet([SimpleOrbit("a", 1, 0, 1),
                              SimpleOrbit("b", 1, 0, 0)])
        built = orbits._exp_input(orbit_set, F(6))
        assert built._terms == {1: 2, 3: F(2, 3), 5: F(2, 5)}
        self.check(orbit_set, 6)

    def test_no_orbit_below_the_cutoff(self):
        for cutoff in (F(-1), 0, F(1, 2)):
            self.check(OrbitSet([elliptic("e", 1)]), cutoff)


class TestZetaProductForm:
    def test_three_dimensional_factors(self):
        a = F(3, 2)
        cutoff = F(7, 2)
        expected = {
            elliptic: S({0: 1, a: 1, 2 * a: 1}, cutoff),
            positive_hyperbolic: S({0: 1, a: -1}, cutoff),
            negative_hyperbolic: S({0: 1, a: 1}, cutoff),
        }
        for make, series in expected.items():
            single = OrbitSet([make("g", a)])
            assert zeta_product_form(single, cutoff) == series

    def test_empty_product(self):
        assert zeta_product_form(OrbitSet(), 4) == NovikovSeries.one(4)

    def test_elliptic_times_negative_hyperbolic(self):
        pair = OrbitSet([elliptic("e", 1), negative_hyperbolic("n", 1)])
        assert zeta_product_form(pair, 2) == S({0: 1, 1: 2, 2: 2}, 2)

    def test_fourth_parity_pair_inverts_negative_factor(self):
        # (1+t)^-1 = 1 - t + t^2 - ...
        single = OrbitSet([SimpleOrbit("x", 1, 1, 0)])
        assert zeta_product_form(single, 3) == \
            S({0: 1, 1: -1, 2: 1, 3: -1}, 3)

    def test_coincident_factors_cost_nothing(self):
        # an elliptic and a positive hyperbolic orbit of one action give
        # (1 - t^A)^-1 and (1 - t^A): they cancel before any power is taken
        pair = OrbitSet([elliptic("e", F(3, 2)),
                         positive_hyperbolic("h", "6/4")])
        with counting_powers() as powers:
            result = zeta_product_form(pair, 8)
        assert powers == []
        assert result == NovikovSeries.one(8)

    def test_reads_its_orbits_once(self):
        # an iterator of orbits gives what the set of them gives
        orbits = [elliptic("e", 1), positive_hyperbolic("h", F(3, 2))]
        assert zeta_product_form(iter(orbits), 3) == \
            zeta_product_form(OrbitSet(orbits), 3) != NovikovSeries.one(3)

    def test_orbit_order_does_not_matter(self):
        rng = fresh_rng(212)
        for _ in range(20):
            orbit_set = random_orbit_set(rng, max_den=4)
            shuffled = OrbitSet(rng.sample(orbit_set.orbits, len(orbit_set)))
            assert zeta_product_form(shuffled, 5) == \
                zeta_product_form(orbit_set, 5)


class TestEchGenerators:
    def test_empty_orbit_set_gives_empty_generator(self):
        gens = ech_generators(OrbitSet(), 4)
        assert len(gens) == 1
        assert gens[0].pairs == ()
        assert gens[0].grading == 0
        assert gens[0].total_action == 0

    def test_elliptic_powers(self):
        gens = ech_generators(OrbitSet([elliptic("e", 1)]), 2)
        assert [(ech_labels(g), ech_multiplicities(g)) for g in gens] == \
            [((), ()), (("e",), (1,)), (("e",), (2,))]

    def test_hyperbolic_multiplicity_capped_at_one(self):
        gens = ech_generators(OrbitSet([positive_hyperbolic("h", 1)]), 3)
        assert [(ech_labels(g), ech_multiplicities(g)) for g in gens] == \
            [((), ()), (("h",), (1,))]

    def test_grading_counts_positive_hyperbolic(self):
        orbit_set = OrbitSet([positive_hyperbolic("h", 1),
                              negative_hyperbolic("n", 1)])
        gradings = {ech_labels(g): g.grading
                    for g in ech_generators(orbit_set, 2)}
        assert gradings[("h",)] == 1
        assert gradings[("n",)] == 0
        assert gradings[("h", "n")] == 1

    def test_negative_cutoff_gives_no_generators(self):
        orbit_set = OrbitSet([elliptic("e", 1)])
        assert ech_generators(orbit_set, -1) == []
        assert ech_generators(OrbitSet(), F(-1, 2)) == []
        assert zeta_ech_form(orbit_set, -1) == NovikovSeries.zero(-1)

    def test_rejects_higher_dimensional_parities(self):
        with pytest.raises(NotThreeDimensional):
            ech_generators(OrbitSet([SimpleOrbit("x", 1, 1, 0)]), 2)

    def test_many_orbits_at_the_cutoff(self):
        orbit_set = OrbitSet(positive_hyperbolic(f"h{i:04}", 1)
                             for i in range(1100))
        gens = ech_generators(orbit_set, 1)
        assert [ech_labels(g) for g in gens] == \
            [()] + [(f"h{i:04}",) for i in range(1100)]
        assert zeta_ech_form(orbit_set, 1) == S({0: 1, 1: -1100}, 1) == \
            zeta_product_form(orbit_set, 1)

    def test_deterministic_order(self):
        orbit_set = OrbitSet([elliptic("b", 1), elliptic("a", 1)])
        keys = [(g.total_action, ech_labels(g), ech_multiplicities(g))
                for g in ech_generators(orbit_set, 2)]
        assert keys == sorted(keys)


class TestZetaEchForm:
    def test_elliptic_and_positive_hyperbolic_cancel(self):
        pair = OrbitSet([elliptic("e", 1), positive_hyperbolic("h", 1)])
        assert zeta_ech_form(pair, 2) == NovikovSeries.one(2)

    def test_empty_set(self):
        assert zeta_ech_form(OrbitSet(), 3) == NovikovSeries.one(3)

    def test_single_negative_hyperbolic(self):
        assert zeta_ech_form(OrbitSet([negative_hyperbolic("n", 1)]), 2) == \
            S({0: 1, 1: 1}, 2)


class TestGoodOrbitCount:
    def test_elliptic_double_cover(self):
        assert good_orbit_count(OrbitSet([elliptic("e", 1)]), 2) == 1

    def test_bad_cover_not_counted(self):
        assert good_orbit_count(OrbitSet([negative_hyperbolic("n", 1)]), 2) == 0

    def test_signed_cancellation(self):
        pair = OrbitSet([elliptic("e", 1), positive_hyperbolic("h", 1)])
        assert good_orbit_count(pair, 1) == 0

    def test_off_spectrum_counts_nothing(self):
        assert good_orbit_count(OrbitSet([elliptic("e", 1)]), F(3, 2)) == 0


class TestZetaGoodOrbits:
    def test_single_elliptic(self):
        assert zeta_good_orbits(OrbitSet([elliptic("e", 1)]), 3) == \
            S({1: 1, 2: 1, 3: 1}, 3)

    def test_empty_sum(self):
        assert zeta_good_orbits(OrbitSet(), 4) == NovikovSeries.zero(4)

    def test_negative_hyperbolic_skips_even_covers(self):
        assert zeta_good_orbits(OrbitSet([negative_hyperbolic("n", 1)]), 4) == \
            S({1: 1, 3: 1}, 4)


class TestFormAgreement:
    def test_exp_equals_product_on_random_sets(self):
        rng = fresh_rng(201)
        for _ in range(30):
            orbit_set = random_orbit_set(rng, max_orbits=6)
            zeta = zeta_product_form(orbit_set, 6)
            assert zeta_exp_form(orbit_set, 6) == zeta
            assert zeta.has_integer_coefficients
            assert zeta.constant_term == 1

    def test_ech_equals_product_on_random_3d_sets(self):
        rng = fresh_rng(202)
        for _ in range(20):
            orbit_set = random_3d_orbit_set(rng, max_orbits=4)
            assert zeta_ech_form(orbit_set, 6) == \
                zeta_product_form(orbit_set, 6)

    def test_good_count_is_jump_series_coefficient(self):
        rng = fresh_rng(203)
        for _ in range(20):
            orbit_set = random_orbit_set(rng, max_orbits=5)
            jumps = zeta_good_orbits(orbit_set, 8)
            levels = {s for s, _ in jumps.items()} | {F(1), F(5, 2), F(17, 3)}
            for at in levels:
                assert good_orbit_count_reference(orbit_set, at) == \
                    jumps.coefficient(at)

    def test_good_orbit_series_is_the_per_cover_sum(self):
        # whole series and stored grid, on all four parity pairs, cutoffs
        # below, at and between actions, and fine grids
        rng = fresh_rng(205)
        for _ in range(40):
            orbit_set = random_orbit_set(rng, max_orbits=6,
                                         max_den=rng.choice((12, 60)))
            for cutoff in (F(1, 2), 1, F(rng.randint(7, 60), 7), 8):
                jumps = zeta_good_orbits(orbit_set, cutoff)
                reference = zeta_good_orbits_reference(orbit_set, cutoff)
                assert stored(jumps) == stored(reference)
                assert jumps._q == reference._q

    def test_multiplicative_under_disjoint_union(self):
        rng = fresh_rng(204)
        for _ in range(15):
            left = random_orbit_set(rng, max_orbits=3)
            right = OrbitSet([SimpleOrbit(f"r{i}", o.action, o.eps1, o.eps2)
                              for i, o in enumerate(random_orbit_set(rng, 3))])
            both = OrbitSet([*left, *right])
            assert zeta_product_form(both, 6) == \
                zeta_product_form(left, 6) * zeta_product_form(right, 6)
            assert zeta_exp_form(both, 6) == \
                zeta_exp_form(left, 6) * zeta_exp_form(right, 6)


@st.composite
def orbit_sets_3d(draw):
    """Up to four 3D orbits of any type, actions p/q with q <= 7 in [1, 3]."""
    orbits = []
    for i in range(draw(st.integers(0, 4))):
        den = draw(st.integers(1, 7))
        action = F(draw(st.integers(den, 3 * den)), den)
        orbits.append(draw(st.sampled_from(TYPES))(f"g{i}", action))
    return OrbitSet(orbits)


class TestFormAgreementProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    # cutoff 0 too, where the one generator is the empty one, and negative
    # cutoffs, where every route is 0
    @given(orbit_sets_3d(), st.sampled_from((F(-1), F(-1, 3), F(0), F(4),
                                             F(7, 2), F(10, 3))))
    def test_exp_product_and_ech_agree(self, orbit_set, cutoff):
        product = zeta_product_form(orbit_set, cutoff)
        assert zeta_exp_form(orbit_set, cutoff) == product
        assert zeta_ech_form(orbit_set, cutoff) == product


ROUTES = (zeta_exp_form, zeta_product_form, zeta_ech_form, zeta_via_mobius)


class TestRoutesReadOnce:
    def test_an_iterator_gives_the_same_zeta(self):
        # each route reads its orbits once, so an iterator stands for the set
        rng = fresh_rng(370)
        for _ in range(20):
            orbit_set = random_3d_orbit_set(rng)
            for route in ROUTES:
                assert stored(route(iter(orbit_set), 4)) == \
                    stored(route(orbit_set, 4))

    def test_ech_counts_every_elliptic_power(self):
        assert zeta_ech_form(iter([elliptic("a", 1)]), 3) == \
            S({0: 1, 1: 1, 2: 1, 3: 1}, 3)


def bifurcate(orbit_set, move, index, action, fresh):
    """The orbit set after one generic bifurcation, new orbits labelled
    ``fresh`` + "a" and "b": ``birth`` adds an elliptic and a positive
    hyperbolic orbit at ``action``; ``double`` doubles the period of the
    elliptic or negative hyperbolic orbit at ``index`` of those orbits:
    elliptic(A) becomes negative hyperbolic(A) plus elliptic(2A), and
    negative hyperbolic(A) becomes elliptic(A) plus positive
    hyperbolic(2A).  A set with no orbit to double gets a birth."""
    kept = list(orbit_set)
    doubling = [o for o in kept if o.eps1 == 0]
    if move == "birth" or not doubling:
        return OrbitSet([*kept, elliptic(fresh + "a", action),
                         positive_hyperbolic(fresh + "b", action)])
    old = doubling[index % len(doubling)]
    kept.remove(old)
    if old.is_hyperbolic:
        born = [elliptic(fresh + "a", old.action),
                positive_hyperbolic(fresh + "b", 2 * old.action)]
    else:
        born = [negative_hyperbolic(fresh + "a", old.action),
                elliptic(fresh + "b", 2 * old.action)]
    return OrbitSet([*kept, *born])


@st.composite
def bifurcated_orbit_sets(draw):
    """An orbit set from orbit_sets_3d and the same set after one to
    three bifurcations, each with fresh labels."""
    before = after = draw(orbit_sets_3d())
    for i in range(draw(st.integers(1, 3))):
        den = draw(st.integers(1, 3))
        after = bifurcate(after, draw(st.sampled_from(("birth", "double"))),
                          draw(st.integers(0, 7)),
                          F(draw(st.integers(den, 3 * den)), den), f"m{i}")
    return before, after


class TestBifurcationInvariance:
    """The zeta of a flow does not move under the generic bifurcations of
    its orbits: each move changes the data every route reads, but not the
    product of the factors."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bifurcated_orbit_sets(), st.sampled_from((F(4), F(7, 2))))
    def test_every_route_is_unchanged(self, pair, cutoff):
        before, after = pair
        for route in ROUTES:
            assert stored(route(after, cutoff)) == \
                stored(route(before, cutoff))

    def test_a_swapped_type_table_breaks_only_invariance(self, monkeypatch):
        # Every route reads the parities, so the routes still agree with
        # each other; only the period-doubling identity sees the fault.
        table = orbits._TYPE_PARITIES
        ell, pos = "elliptic", "pos-hyperbolic"
        for name, parities in {ell: table[pos], pos: table[ell]}.items():
            monkeypatch.setitem(table, name, parities)
        before = OrbitSet([elliptic("e", 1)])
        after = OrbitSet([negative_hyperbolic("e", 1), elliptic("e2", 2)])
        for orbit_set in (before, after):
            zetas = [stored(route(orbit_set, 4)) for route in ROUTES]
            assert zetas == zetas[:1] * len(ROUTES)
        assert stored(zeta_product_form(after, 4)) != \
            stored(zeta_product_form(before, 4))


@st.composite
def off_grid_cutoffs(draw):
    """Cutoffs in (1, 4) with denominator 11 or 13, off the grid of every
    set drawn by orbit_sets_3d."""
    den = draw(st.sampled_from((11, 13)))
    num = draw(st.integers(den + 1, 4 * den - 1).filter(lambda n: n % den))
    return F(num, den)


class TestEchReference:
    @settings(derandomize=True, max_examples=150, deadline=None)
    # on-grid cutoffs too, where a generator can sit exactly at the cutoff
    @given(orbit_sets_3d(),
           off_grid_cutoffs() | st.sampled_from((F(3), F(7, 2), F(10, 3))))
    def test_generators_equal_reference(self, orbit_set, cutoff):
        gens = ech_generators(orbit_set, cutoff)
        # pairs, gradings and total actions, in the same order
        assert gens == ech_generators_reference(orbit_set, cutoff)
        assert all(type(g.total_action) is F for g in gens)
        for g in gens:
            assert all(m == 1 for o, m in g.pairs if o.is_hyperbolic)
            assert g.grading == sum((o.eps1, o.eps2) == (1, 1)
                                    for o, _ in g.pairs) % 2
