"""Truncated Novikov series: examples, canonical form, ring laws,
inversion, exp/log."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import conv_reference, counting_powers, dict_exp, dict_mul, \
    dict_terms, exp_reference, fresh_rng, inverse_reference, \
    kronecker_reference, random_series, random_unit, \
    semigroup_reference, stored
from reebzeta import NovikovSeries, exp, log, novikov
from reebzeta.errors import (BadLeadingTerm, BeyondValidity, NotAUnit,
                             NotPositivelySupported)
from reebzeta.novikov import binomial_product


def S(terms, cutoff):
    return NovikovSeries(terms, cutoff)


class TestCanonicalForm:
    def test_zero_coefficients_pruned(self):
        assert S({1: 0, 2: 3}, 5) == S({2: 3}, 5)
        assert len(S({1: 0}, 5)) == 0

    def test_exponents_above_cutoff_dropped(self):
        assert S({1: 1, 7: 2}, 5) == S({1: 1}, 5)

    def test_repeated_exponents_accumulate(self):
        assert S([(1, 1), (1, 2)], 5) == S({1: 3}, 5)
        assert S([(1, 1), (1, -1)], 5) == S({}, 5)

    def test_equality_includes_cutoff(self):
        assert S({1: 1}, 5) != S({1: 1}, 6)

    def test_items_sorted_ascending(self):
        series = S({F(3, 2): 1, 1: 2, F(1, 2): 5}, 9)
        assert [s for s, _ in series.items()] == [F(1, 2), 1, F(3, 2)]

    def test_string_inputs_coerced(self):
        assert S({"1/2": "3/4"}, "2") == S({F(1, 2): F(3, 4)}, 2)

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            S({0.5: 1}, 2)
        with pytest.raises(TypeError):
            S({1: 1}, 2.5)

    def test_whole_sums_stored_as_int(self):
        half = F(1, 2)
        built = S([(1, half), (1, half), (2, half)], 3)
        assert stored(built) == (3, [(1, int, 1), (2, F, half)])
        b = S({1: half}, 2)
        assert stored(b + b) == (2, [(1, int, 1)])
        assert stored(b * S({0: 2}, 2)) == (2, [(1, int, 1)])

    def test_negative_exponents_storable(self):
        series = S({-1: 2, 1: 1}, 3)
        assert [s for s, _ in series.items()] == [F(-1), F(1)]
        assert not series.is_positively_supported


class TestAdd:
    def test_coefficientwise(self):
        assert S({0: 1, 1: 1}, 3) + S({0: -1, 2: 1}, 3) == S({1: 1, 2: 1}, 3)

    def test_zero_identity(self):
        a = S({F(1, 2): 3, 2: -1}, 4)
        assert a + S({}, 4) == a

    def test_cutoff_is_minimum(self):
        total = S({F(1, 2): 1}, 5) + S({F(1, 2): 1}, 2)
        assert total == S({F(1, 2): 2}, 2)

    def test_scalar_add(self):
        assert 1 + S({1: 1}, 2) == S({0: 1, 1: 1}, 2)
        assert S({0: 1, 1: 1}, 2) - 1 == S({1: 1}, 2)


class TestMul:
    def test_difference_of_squares(self):
        assert S({0: 1, 1: 1}, 3) * S({0: 1, 1: -1}, 3) == S({0: 1, 2: -1}, 3)

    def test_one_identity(self):
        a = S({F(1, 2): 3, 2: -1}, 4)
        assert a * NovikovSeries.one(4) == a

    def test_fractional_convolution(self):
        a = S({0: 1, F(1, 2): 1, 1: 1}, 1)
        b = S({0: 1, F(1, 2): 1}, 1)
        assert a * b == S({0: 1, F(1, 2): 2, 1: 2}, 1)

    def test_matches_naive_convolution(self):
        rng = fresh_rng(101)
        for _ in range(60):
            a = random_series(rng, cutoff=8)
            b = random_series(rng, cutoff=8)
            expected = dict_mul(dict_terms(a), dict_terms(b), F(8))
            assert dict_terms(a * b) == expected


class TestPow:
    def test_zeroth_power_is_one(self):
        assert S({1: 5}, 3) ** 0 == NovikovSeries.one(3)

    def test_binomial_square(self):
        assert S({0: 1, 1: 1}, 2) ** 2 == S({0: 1, 1: 2, 2: 1}, 2)

    def test_negative_power_is_geometric(self):
        assert S({0: 1, 1: -1}, 2) ** -1 == S({0: 1, 1: 1, 2: 1}, 2)

    def test_power_matches_repeated_product(self):
        rng = fresh_rng(102)
        for _ in range(20):
            a = random_series(rng, cutoff=6, max_terms=4)
            assert a ** 3 == a * a * a


def binomial_terms(a, c, k, cutoff) -> dict:
    """(1 - c t^a)^k modulo the cutoff from the generalized binomial
    series: the coefficient of t^(j*a) is C(k, j) * (-c)^j, which for
    k < 0 is C(j - k - 1, j) * c^j."""
    terms, j = {}, 0
    while j * a <= cutoff and (k < 0 or j <= k):
        coeff = (math.comb(j - k - 1, j) * F(c) ** j if k < 0
                 else math.comb(k, j) * F(-c) ** j)
        if coeff:
            terms[j * a] = coeff
        j += 1
    return terms


class TestBinomialProduct:
    def test_empty_product_is_one(self):
        assert binomial_product([], 3) == NovikovSeries.one(3)

    def test_factors_above_the_cutoff_are_skipped(self):
        with counting_powers() as powers:
            result = binomial_product(
                [(5, 1, -1), (F(7, 2), 3, 2), (3, 1, 4)], 3)
        assert powers == [4]
        assert result == S({0: 1, 3: -4}, 3)

    def test_coincident_factors_merge(self):
        # 1/2 and "2/4" are one exponent with one c: the powers -1 and 3
        # merge into a single square
        with counting_powers() as powers:
            result = binomial_product([(F(1, 2), 1, -1), ("2/4", 1, 3)], 2)
        assert powers == [2]
        assert result == S({0: 1, F(1, 2): -2, 1: 1}, 2)

    def test_cancelling_factors_cost_nothing(self):
        with counting_powers() as powers:
            result = binomial_product([(1, 2, 3), ("3/3", 2, -3)], 4)
        assert powers == []
        assert result == NovikovSeries.one(4)

    @pytest.mark.parametrize("factors, products, expected", [
        ([(1, 1, -1)], 0, S({0: 1, 1: 1, 2: 1, 3: 1}, 3)),
        ([(1, 1, -1), (2, 1, 1)], 1, S({0: 1, 1: 1}, 3)),
        ([(1, 1, 1), (2, 1, 1), (3, 1, 1)], 2, S({0: 1, 1: -1, 2: -1}, 3)),
        ([(1, 2, 1), ("3/3", 2, -1)], 0, NovikovSeries.one(3)),
    ])
    def test_the_first_factor_starts_the_product(self, factors, products,
                                                 expected, monkeypatch):
        # k = +-1 makes no * inside **, so every * counted is the
        # product's own: one fewer than the factors, none by one
        calls = []
        original = NovikovSeries.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(NovikovSeries, "__mul__", counting_mul)
        result = binomial_product(factors, 3)
        assert len(calls) == products
        assert result == expected

    def test_opposite_coefficients_stay_two_factors(self):
        # (1 - t)(1 + t) = 1 - t^2: one exponent, two values of c
        with counting_powers() as powers:
            result = binomial_product([(1, 1, 1), (1, -1, 1)], 3)
        assert powers == [1, 1]
        assert result == S({0: 1, 2: -1}, 3)

    def test_exponent_zero_is_a_constant_factor(self):
        # (1 - 3 * t^0)^2 = 4
        assert binomial_product([(F(0), 3, 2)], 2) == S({0: 4}, 2)
        assert binomial_product([(0, 3, 1), (1, 1, -1)], 2) == \
            S({0: -2, 1: -2, 2: -2}, 2)

    def test_factor_order_does_not_matter(self):
        rng = fresh_rng(108)
        for _ in range(40):
            factors = [(F(rng.randint(1, 12), rng.choice((1, 2, 3, 4))),
                        rng.choice((1, -1, 2, F(1, 2))), rng.randint(-3, 3))
                       for _ in range(rng.randint(0, 8))]
            shuffled = rng.sample(factors, len(factors))
            assert binomial_product(shuffled, 4) == \
                binomial_product(factors, 4)


class TestInverse:
    def test_geometric_series(self):
        assert S({0: 1, 1: -1}, 3).inverse() == S({0: 1, 1: 1, 2: 1, 3: 1}, 3)

    def test_one_is_self_inverse(self):
        assert NovikovSeries.one(5).inverse() == NovikovSeries.one(5)

    def test_rational_leading_coefficient(self):
        inv = S({0: 2, 1: 2}, 2).inverse()
        assert inv == S({0: F(1, 2), 1: F(-1, 2), 2: F(1, 2)}, 2)
        assert S({0: 2, 1: 2}, 2) * inv == NovikovSeries.one(2)

    def test_zero_is_not_a_unit(self):
        with pytest.raises(NotAUnit):
            NovikovSeries.zero(3).inverse()
        with pytest.raises(NotAUnit):
            S({5: 1}, 3).inverse()  # zero modulo the cutoff

    def test_positive_leading_exponent_shifts_support(self):
        a = S({1: 1, 2: -1}, 4)  # t(1 - t)
        inv = a.inverse()
        assert inv.min_exponent() == F(-1)
        assert a * inv == NovikovSeries.one(4)

    def test_negative_leading_exponent_rejected(self):
        # No truncation of the inverse can satisfy the unit law modulo
        # the cutoff once the leading exponent is negative.
        with pytest.raises(NotAUnit):
            S({-1: 1, 0: -1}, 3).inverse()

    def test_random_units_invert(self):
        rng = fresh_rng(103)
        for _ in range(40):
            a = random_unit(rng, cutoff=8)
            assert a * a.inverse() == NovikovSeries.one(8)

    def test_random_units_match_the_geometric_sum(self):
        # int and Fraction coefficients, leading exponents 0 and above
        rng = fresh_rng(3571)
        for i in range(60):
            a = random_unit(rng, cutoff=rng.choice((3, 8)),
                            leading_zero=i % 2 == 0)
            assert stored(a.inverse()) == stored(inverse_reference(a))

    def test_cancelling_coefficients_match_the_geometric_sum(self):
        # (1 + t)(1 - t^2): g[n] sums to zero on the odd keys, whose
        # successors are still reached from the even ones
        a = S({0: 1, 1: 1}, 9) * S({0: 1, 2: -1}, 9)
        cases = [a, S({0: 2, 1: 2, 3: -2}, 9), S({F(1, 2): 3, F(3, 2): -3,
                                                  F(5, 2): F(3, 2)}, 9)]
        for unit in cases:
            assert stored(unit.inverse()) == stored(inverse_reference(unit))
        assert a.inverse() == S({n: 1 if n % 2 == 0 else -1
                                 for n in range(10)}, 9) * \
            S({n: 1 for n in range(0, 10, 2)}, 9)


class TestExp:
    def test_exp_of_zero(self):
        assert exp(NovikovSeries.zero(4)) == NovikovSeries.one(4)

    def test_exp_of_t(self):
        assert exp(S({1: 1}, 2)) == S({0: 1, 1: 1, 2: F(1, 2)}, 2)

    def test_exp_fractional_support(self):
        assert exp(S({F(1, 2): 1, 1: 1}, 1)) == \
            S({0: 1, F(1, 2): 1, 1: F(3, 2)}, 1)

    def test_requires_positive_support(self):
        with pytest.raises(NotPositivelySupported):
            exp(S({0: 1, 1: 1}, 3))
        with pytest.raises(NotPositivelySupported):
            exp(S({-1: 1}, 3))

    def test_matches_factorial_sum_oracle(self):
        rng = fresh_rng(104)
        for _ in range(40):
            a = random_series(rng, cutoff=7, positive=True)
            assert dict_terms(exp(a)) == dict_exp(dict_terms(a), F(7))

    def test_exp_is_homomorphism(self):
        rng = fresh_rng(105)
        for _ in range(25):
            a = random_series(rng, cutoff=8, positive=True)
            b = random_series(rng, cutoff=8, positive=True)
            assert exp(a + b) == exp(a) * exp(b)


class TestLog:
    def test_log_of_one(self):
        assert log(NovikovSeries.one(3)) == NovikovSeries.zero(3)

    def test_mercator(self):
        assert log(S({0: 1, 1: 1}, 2)) == S({1: 1, 2: F(-1, 2)}, 2)

    def test_round_trip_through_exp(self):
        a = S({F(1, 3): 1}, 1)
        assert log(exp(a)) == a

    def test_rejects_bad_leading_term(self):
        with pytest.raises(BadLeadingTerm):
            log(S({0: 2, 1: 1}, 3))
        with pytest.raises(BadLeadingTerm):
            log(S({1: 1}, 3))
        with pytest.raises(BadLeadingTerm):
            log(S({0: 1, -1: 1, 1: 1}, 3))

    def test_random_round_trips(self):
        rng = fresh_rng(106)
        for _ in range(30):
            a = random_series(rng, cutoff=8, positive=True)
            assert log(exp(a)) == a
            one_plus = NovikovSeries.one(8) + a
            assert exp(log(one_plus)) == one_plus


class TestRingLaws:
    def test_axioms_on_random_series(self):
        rng = fresh_rng(107)
        for _ in range(40):
            a = random_series(rng, cutoff=8)
            b = random_series(rng, cutoff=8)
            c = random_series(rng, cutoff=8)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_cutoff_monotonicity(self):
        # Truncate-then-operate equals operate-then-truncate.
        rng = fresh_rng(108)
        small = F(5)
        for _ in range(25):
            a = random_series(rng, cutoff=9)
            b = random_series(rng, cutoff=9)
            assert (a + b).truncate(small) == a.truncate(small) + b.truncate(small)
            assert (a * b).truncate(small) == a.truncate(small) * b.truncate(small)
            p = random_series(rng, cutoff=9, positive=True)
            assert exp(p).truncate(small) == exp(p.truncate(small))
            assert log(1 + p).truncate(small) == log(1 + p.truncate(small))
            u = random_unit(rng, cutoff=9, leading_zero=True)
            assert u.inverse().truncate(small) == u.truncate(small).inverse()

    def test_truncate_cannot_extend(self):
        with pytest.raises(BeyondValidity,
                           match="^cutoff 4 exceeds the validity 3 of the series$"):
            S({1: 1}, 3).truncate(4)


# -- property tests on mixed denominators --------------------------------
#
# Exponents are drawn over several denominators, so two operands usually
# have different lcm grids and a sum or product lands on a third one.

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7)
CUTOFFS = (F(3), F(5, 2), F(7, 3))


@st.composite
def series(draw, cutoff, positive=False, max_terms=4):
    """A series modulo ``cutoff`` whose exponents have mixed denominators
    and whose coefficients are rational."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        den = draw(st.sampled_from(DENOMINATORS))
        top = int(cutoff * den)
        exponent = F(draw(st.integers(1 if positive else 0, top)), den)
        coeff = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[exponent] = coeff
    return NovikovSeries(terms, cutoff)


@st.composite
def triples(draw):
    cutoff = draw(st.sampled_from(CUTOFFS))
    return tuple(draw(series(cutoff)) for _ in range(3))


@st.composite
def units(draw):
    """A unit: nonzero leading coefficient at a nonnegative exponent."""
    cutoff = draw(st.sampled_from(CUTOFFS))
    den = draw(st.sampled_from(DENOMINATORS))
    lead = F(draw(st.integers(0, den)), den)
    rest = draw(series(cutoff, max_terms=3))
    terms = {s: c for s, c in rest.items() if s > lead}
    terms[lead] = F(draw(st.sampled_from((1, -1, 2, -3))),
                    draw(st.integers(1, 2)))
    return NovikovSeries(terms, cutoff)


@st.composite
def positive_series(draw):
    cutoff = draw(st.sampled_from(CUTOFFS))
    return draw(series(cutoff, positive=True))


PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)


class TestProperties:
    @PROPERTY
    @given(triples())
    def test_ring_axioms(self, abc):
        a, b, c = abc
        zero, one = NovikovSeries.zero(a.cutoff), NovikovSeries.one(a.cutoff)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a and a - a == zero
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a

    @PROPERTY
    @given(units())
    def test_unit_times_inverse_is_one(self, a):
        assert a * a.inverse() == 1
        assert a.inverse() * a == NovikovSeries.one(a.cutoff)

    @PROPERTY
    @given(positive_series())
    def test_exp_log_round_trip(self, a):
        assert log(exp(a)) == a
        one_plus = 1 + a
        assert exp(log(one_plus)) == one_plus

    @PROPERTY
    @given(triples())
    # q = 6 after the t^(1/6) terms cancel, against q = 2
    @example((S({F(1, 2): 1}, 2), S({F(1, 6): 1}, 2), S({}, 2)))
    def test_equal_series_on_different_grids_hash_alike(self, abc):
        a, b, _ = abc
        # (a + b) - b is computed on the lcm grid of a and b, a on its own.
        rebuilt = (a + b) - b
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert rebuilt.items() == a.items()
        doubled = a * 2 * F(1, 2)
        assert doubled == a and hash(doubled) == hash(a)

    @PROPERTY
    @given(st.sampled_from(CUTOFFS),
           st.lists(st.tuples(st.sampled_from(DENOMINATORS),
                              st.integers(1, 14),
                              st.sampled_from((1, -1, 2, F(1, 2))),
                              st.integers(-3, 3)), max_size=4))
    def test_binomial_product_matches_binomial_series(self, cutoff, draws):
        factors = [(F(num, den), c, k) for den, num, c, k in draws]
        expected = {F(0): F(1)}
        for a, c, k in factors:
            expected = dict_mul(expected, binomial_terms(a, c, k, cutoff),
                                cutoff)
        assert dict_terms(binomial_product(factors, cutoff)) == expected


# -- exp against its reference ---------------------------------------------
#
# Grids: small mixed denominators, and sparse grids where the lcm of three
# denominators near 1000 puts q near 10^9 while the actions stay >= 1/2.
EXP_GRIDS = ((1, 2, 3, 4, 6), (5, 7, 12), (997, 1000, 1009))


@st.composite
def exp_inputs(draw):
    """A positively supported series whose exponents include redundant
    generators of the reachable semigroup: multiples of drawn exponents
    and sums of two of them."""
    cutoff = draw(st.sampled_from((F(3), F(7, 2), F(4))))
    dens = draw(st.sampled_from(EXP_GRIDS))
    base = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from(dens))
        lowest = 1 if den < 10 else den // 2
        base.append(F(draw(st.integers(lowest, 2 * den)), den))
    exponents = list(base)
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        exponents.append(draw(st.sampled_from((a + b, 2 * a, 3 * b))))
    coeffs = st.sampled_from((1, -1, 2, F(1, 2), F(-2, 3), F(1, 3)))
    return NovikovSeries([(s, draw(coeffs)) for s in exponents], cutoff)


class TestExpReference:
    @PROPERTY
    @given(exp_inputs())
    # the exp input of an elliptic orbit of action 2/3: covers d*A, 1/d
    @example(S({F(2 * d, 3): F(1, d) for d in range(1, 7)}, 4))
    # q = 1000 * 1003 * 1019, and 999/500 = 2 * 999/1000 is redundant
    @example(S({F(999, 1000): 1, F(1001, 1003): F(-1, 2),
                F(1013, 1019): F(2, 3), F(999, 500): 1}, 4))
    def test_exp_is_bit_equal_to_reference(self, a):
        assert stored(exp(a)) == stored(exp_reference(a))


# -- kernels against the loops they replace ------------------------------
#
# _conv multiplies dense int series by one packed big-int product and
# everything else by the pair loop; exp runs its recurrence on lists when
# the keys are dense.  Both must give the bits of the plain loops.

BIG = 2 ** 64


def small(rng):
    return rng.randint(-9, 9)


def huge(rng):
    return rng.choice((1, -1)) * rng.randint(BIG, BIG ** 2)


def fraction(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 4))


def draw_terms(rng, lo, hi, fill, coeff):
    """Sorted (key, coeff) pairs: each key in [lo, hi] kept with
    probability fill, zero draws dropped; never empty."""
    terms = [(n, coeff(rng)) for n in range(lo, hi + 1) if rng.random() < fill]
    return [(n, c) for n, c in terms if c] or [(lo, 1)]


def typed(terms: dict):
    return sorted((n, type(c), c) for n, c in terms.items())


def packs(a, b, bound) -> bool:
    """True when _conv takes the packed product."""
    return len(a) * len(b) >= 1024 and \
        novikov._conv_packed(a, b, bound) is not None


# (name, spec of a, spec of b, bound, packed?); a spec is (lo, hi, fill,
# coefficient draw), or a literal list of terms
CONV_CASES = [
    ("dense", (0, 99, 1, small), (0, 99, 1, small), 500, True),
    ("negative keys", (-50, 60, 1, small), (-30, 90, 0.9, small), 40, True),
    ("clipped", (0, 300, 1, small), (0, 300, 1, small), 150, True),
    ("top below zero", (10, 120, 1, small), (5, 60, 1, small), 14, True),
    ("top zero", (10, 120, 1, small), (5, 60, 1, small), 15, False),
    ("huge", (0, 120, 1, huge), (0, 120, 0.9, huge), 200, True),
    ("huge times small", (-10, 90, 1, huge), (0, 70, 1, small), 60, True),
    ("cancelling", [(n, 1) for n in range(100)],
     [(n, (-1) ** n) for n in range(100)], 300, True),
    ("single term", [(3, 5)], (0, 2000, 1, small), 1500, False),
    ("below the size gate", (0, 30, 1, small), (0, 32, 1, small), 100, False),
    ("at the density gate", [(n, 2) for n in range(64)],
     [(n, -3) for n in range(64)], 200, False),
    ("long side clipped short", (0, 2000, 1, small), (990, 1000, 1, small),
     1000, False),
    ("fractions", (0, 99, 1, fraction), (0, 99, 1, small), 500, False),
    ("sparse", (0, 20000, 0.02, small), (0, 20000, 0.02, small), 30000,
     False),
]


class TestConvKernel:
    @pytest.mark.parametrize("case", CONV_CASES, ids=[c[0] for c in CONV_CASES])
    def test_matches_the_pair_loop(self, case):
        _, spec_a, spec_b, bound, packed = case
        rng = fresh_rng(len(case[0]))
        a, b = (spec if isinstance(spec, list) else draw_terms(rng, *spec)
                for spec in (spec_a, spec_b))
        assert typed(novikov._conv(a, b, bound)) == \
            typed(conv_reference(a, b, bound))
        assert packs(a, b, bound) == packed

    def test_cancelling_case_cancels(self):
        # 1 + t + ... times 1 - t + ...: every odd coefficient is zero
        ones = [(n, 1) for n in range(100)]
        signs = [(n, (-1) ** n) for n in range(100)]
        assert novikov._conv(ones, signs, 300) == \
            {n: 1 for n in range(0, 99, 2)} | \
            {n: -1 for n in range(100, 199, 2)}

    def test_random_shapes_around_the_gates(self):
        rng = fresh_rng(2718)
        sides = {True: 0, False: 0}
        for _ in range(60):
            fill = rng.choice((1, 0.6, 0.05))
            coeff = rng.choice((small, huge, fraction))
            a, b = (draw_terms(rng, lo, lo + rng.choice((0, 20, 200, 400)),
                               fill, coeff)
                    for lo in (rng.randint(-40, 40), rng.randint(-40, 40)))
            bound = a[0][0] + b[0][0] + rng.randint(-5, 900)
            assert typed(novikov._conv(a, b, bound)) == \
                typed(conv_reference(a, b, bound))
            sides[packs(a, b, bound)] += 1
        assert sides[True] >= 5 and sides[False] >= 5

    def test_series_products_match_the_pair_loop(self):
        # through __mul__: two grids and clipping by the smaller cutoff
        rng = fresh_rng(31)
        for _ in range(10):
            a = NovikovSeries({F(n, 12): small(rng) for n in range(1, 240)}, 21)
            b = NovikovSeries({F(n, 6): huge(rng) for n in range(0, 240)}, 20)
            product = a * b
            _, ta, tb = novikov._common_grid(a, b)
            ta, tb = sorted(ta.items()), sorted(tb.items())
            assert packs(ta, tb, product._bound)
            assert typed(product._terms) == \
                typed(conv_reference(ta, tb, product._bound))


def exp_path(a):
    """exp(a), the path it took ("online" when ``_exp_online`` ran, else
    "dicts") and the number of ``_exp_online`` calls."""
    calls, online = [], novikov._exp_online

    def spy(*args):
        calls.append(args)
        online(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(novikov, "_exp_online", spy)
        result = exp(a)
    return result, "online" if calls else "dicts", len(calls)


def log_binomials(factors, q, cutoff):
    """log prod (1 - c * t^(a/q))^k over the (a, c, k): its (d * a)/q term
    is -k * c^d / d.  Every w[j] = j * a[j] and every quotient of exp of it
    is an int, and exp gives back the product."""
    terms = {}
    for a, c, k in factors:
        for d in range(1, cutoff * q // a + 1):
            terms[F(d * a, q)] = terms.get(F(d * a, q), 0) + F(-k * c ** d, d)
    return S(terms, cutoff)


LEAF = novikov._LEAF
HUGE = 2 ** 70 + 1
ONE_ORBIT = [(1, 1, -1)]               # an elliptic orbit of action 1/q
MIXED = [(1, 1, -1), (3, -1, 1), (4, 1, 1), (7, -1, -1)]
# w[d] = 1 + (-1)^(d + 1) * HUGE^d + ...: above 2^64, of both signs
HUGE_FACTORS = [(1, 1, -1), (1, -HUGE, 1), (2, -HUGE, 1), (3, 3 * HUGE, 2)]

# (name, series, path, _exp_online calls); a range is the keys
# 0 to the largest reachable, one more than that key
EXP_CASES = [
    ("fine elliptic orbit",
     S({F(d, 120): F(1, d) for d in range(1, 241)}, 2), "online", 3),
    ("int coefficients",
     S({F(k, 7): (-1) ** k * k for k in range(1, 20)}, 3), "online", 1),
    ("mixed coefficients",
     S({F(k, 5): F(k, 3) if k % 2 else -k for k in range(2, 30, 3)}, 6),
     "online", 1),
    ("reach at a quarter", S({4: 1}, 40), "online", 1),
    ("sparse weights", log_binomials([(3, 1, -1), (5, -1, 1)], 100, 3),
     "online", 7),
    ("reach below a quarter", S({5: 1}, 50), "dicts", 0),
    ("keys below a quarter", S({F(1, 10): 1, 10: F(1, 2)}, 12), "dicts", 0),
    ("sparse grid", S({F(999, 1000): 1, F(1001, 1003): F(-1, 2)}, 4),
     "dicts", 0),
    ("nothing reachable", S({5: 1}, 4), "dicts", 0),
    # ranges around the leaf size: one leaf, then a split
    ("range leaf - 1", log_binomials(ONE_ORBIT, LEAF - 2, 1), "online", 1),
    ("range leaf", log_binomials(MIXED, LEAF - 1, 1), "online", 1),
    ("range leaf + 1", log_binomials(MIXED, LEAF, 1), "online", 3),
    ("range 2 * leaf + 1", log_binomials(MIXED, LEAF, 2), "online", 5),
    ("weights above 2^64 of both signs", log_binomials(HUGE_FACTORS, 50, 3),
     "online", 3),
    # (1 - c t)(1 + c t) = 1 - c^2 t^2: the odd terms of the input and all
    # but two of the result cancel
    ("coefficients cancel to zero",
     log_binomials([(1, HUGE, 1), (1, -HUGE, 1)], 150, 2), "online", 7),
    # Fraction values: quotients that are not ints, from the first key on
    ("fraction weights", S({1: F(1, 2)}, 300), "online", 7),
    ("exp(t)", S({1: 1}, 300), "online", 7),
    ("exp(t^2 / 2): an int weight from a Fraction",
     S({2: F(1, 2)}, 300), "online", 7),
    # the first inexact quotient in the right half of the top range
    ("inexact quotient after the first half",
     log_binomials(MIXED, 100, 3) + S({2: F(1, 200)}, 3), "online", 7),
]


class TestExpKernel:
    @pytest.mark.parametrize("case", EXP_CASES, ids=[c[0] for c in EXP_CASES])
    def test_matches_the_dict_recurrence(self, case):
        _, a, path, calls = case
        result, took, made = exp_path(a)
        assert took == path
        assert made == calls
        assert stored(result) == stored(exp_reference(a))

    def test_ranges_have_the_stated_length(self):
        ranges = {"range leaf - 1": LEAF - 1, "range leaf": LEAF,
                  "range leaf + 1": LEAF + 1, "range 2 * leaf + 1": 2 * LEAF + 1}
        for name, a, _, _ in EXP_CASES:
            if name in ranges:
                top = novikov._semigroup(sorted(a._terms), a._bound)[-1]
                assert top + 1 == ranges.pop(name), name
        assert not ranges

    def test_exp_gives_back_the_binomial_product(self):
        for factors, q, cutoff in ((MIXED, LEAF, 2), (ONE_ORBIT, 300, 1),
                                   (HUGE_FACTORS, 50, 3)):
            assert exp(log_binomials(factors, q, cutoff)) == binomial_product(
                [(F(a, q), c, k) for a, c, k in factors], cutoff)

    def test_random_dense_inputs(self):
        rng = fresh_rng(1729)
        for _ in range(20):
            den = rng.choice((6, 10, 24))
            a = S({F(rng.randint(1, 3 * den), den): rng.choice(
                (1, -1, 2, F(1, 2), F(-2, 3))) for _ in range(rng.randint(1, 12))},
                rng.choice((2, 3)))
            assert stored(exp(a)) == stored(exp_reference(a))

    def test_random_zeta_inputs_run_online(self):
        rng = fresh_rng(4099)
        for _ in range(12):
            factors = [(rng.randint(1, 9), rng.choice((1, -1, 3, -HUGE)),
                        rng.choice((1, -1, 2, -2))) for _ in range(3)]
            a = log_binomials(factors, rng.randint(40, 200), rng.choice((1, 2)))
            result, path, _ = exp_path(a)
            assert path == "online"
            assert stored(result) == stored(exp_reference(a))

    def test_kronecker_is_the_pair_loop_on_the_middle_products_exp_feeds_it(self):
        # every middle product of the online pass goes to the kernel: on
        # ints it gives the pair loop's window, on Fractions None, and the
        # node's own pair loop (checked by exp_reference above) takes over
        calls, kronecker = [], novikov._kronecker

        def spy(x, y, start, stop):
            slots = kronecker(x, y, start, stop)
            calls.append((list(x), list(y), start, stop, slots))
            return slots

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(novikov, "_kronecker", spy)
            for _, a, _, _ in EXP_CASES:
                exp(a)
            exp(log_binomials(ONE_ORBIT, 600, 1))
        sides = {True: 0, False: 0}
        for x, y, start, stop, slots in calls:
            ints = all(type(c) is int for c in x + y)
            assert slots == (kronecker_reference(x, y, start, stop)
                             if ints else None)
            sides[ints] += 1
        assert sides[True] >= 5 and sides[False] >= 5


def draw_values(rng, length, largest):
    """``length`` ints in [-largest, largest], one of them +-largest."""
    values = [rng.randint(-largest, largest) for _ in range(length)]
    values[rng.randrange(length)] = rng.choice((largest, -largest))
    return values


def slot_bytes(x, y):
    """The slot width the kernel needs: the least power of two in bytes
    whose B = 2^(8 * width) has B / 2 above every value and every slot of
    the product."""
    mx, my = max(map(abs, x)), max(map(abs, y))
    largest = max(mx * my * min(len(x), len(y)), mx, my)
    width = 1
    while 1 << (8 * width - 1) <= largest:
        width *= 2
    return width


# (name, (length, largest value) of each side, slot width in bytes)
KRONECKER_CASES = [
    ("1-byte slots", (10, 3), (12, 3), 1),
    ("2-byte slots", (100, 9), (120, 9), 2),
    ("4-byte slots", (100, 1000), (90, 1000), 4),
    ("8-byte slots", (100, 10 ** 6), (100, 10 ** 6), 8),
    ("wider slots", (60, BIG ** 2), (50, BIG), 32),
    ("all-zero side, small values", (40, 0), (30, 9), 1),
    ("all-zero side, a value above 127", (40, 0), (30, 200), 2),
    ("all-zero side, wide values", (40, 0), (30, 2 ** 40), 8),
]


class TestKronecker:
    @pytest.mark.parametrize("case", KRONECKER_CASES,
                             ids=[c[0] for c in KRONECKER_CASES])
    def test_windows_match_the_pair_loop(self, case):
        name, (lx, mx), (ly, my), width = case
        rng = fresh_rng(len(name))
        x, y = draw_values(rng, lx, mx), draw_values(rng, ly, my)
        assert slot_bytes(x, y) == width
        size = lx + ly - 1                  # slots of the product
        # all of it, past its end, a middle part, the window exp's nodes
        # read, its top slot and beyond, empty, and wholly past it
        windows = [(0, size), (0, size + 5), (lx // 2, size - 3),
                   (min(lx, ly) - 1, max(lx, ly)), (size - 1, size + 3),
                   (3, 3), (size + 2, size + 4)]
        for start, stop in windows:
            slots = novikov._kronecker(x, y, start, stop)
            assert [(type(c), c) for c in slots] == \
                [(int, c) for c in kronecker_reference(x, y, start, stop)]
        assert novikov._kronecker(y, x, 0, size) == \
            novikov._kronecker(x, y, 0, size)


class TestSemigroup:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), max_size=6), st.integers(0, 120))
    @example([], 30)                        # no generators: nothing reached
    @example([4, 4, 6, 6], 30)              # duplicates
    @example([6, 4, 10, 8, 14], 40)         # sums of smaller ones, unsorted
    @example([7, 50, 121], 40)              # generators above the bound
    @example([3, 5], 0)                     # a zero bound
    def test_matches_brute_force_reachability(self, generators, bound):
        assert novikov._semigroup(generators, bound) == \
            semigroup_reference(generators, bound)
