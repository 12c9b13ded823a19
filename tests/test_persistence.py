"""Filtered complexes, barcodes, Euler characteristic jumps, and the
persistence zeta function, cross-checked against the rank-nullity oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (boundary_entries, fresh_rng, planted_complex,
                     probe_levels, random_complex, shifted_to_zero, stored,
                     validate_reference, zeta_persistence_reference)
from reebzeta import (Bar, Barcode, FilteredComplex, NovikovSeries,
                      barcode_decompose, euler_jump, homology_dims,
                      zeta_barcode, zeta_persistence)
from reebzeta.errors import (DuplicateLabel, FiltrationViolation,
                             GradingViolation, NotSquareZero, UnknownLabel)


def pair_complex():
    # d(x) = y with F(x) = 2 > F(y) = 1 and opposite gradings
    return FilteredComplex([("x", 1, 2), ("y", 0, 1)], [("x", "y", 1)])


def invalid_complexes():
    """Arguments of one complex per violated check (grading, filtration,
    d^2 = 0), with the error and its exact message."""
    return [
        (GradingViolation, "<d 'x', 'y'> = 1 with equal gradings",
         [("x", 1, 2), ("y", 1, 1)], [("x", "y", 1)]),
        (FiltrationViolation, "<d 'x', 'y'> = 1/2 but filtration 1 <= 1",
         [("x", 1, 1), ("y", 0, 1)], [("x", "y", F(1, 2))]),
        (NotSquareZero, "<d(d 'x'), 'w'> = 3",
         [("x", 1, 3), ("y", 0, 2), ("w", 1, 1)],
         [("x", "y", 1), ("y", "w", 3)]),
    ]


class TestValidation:
    def test_valid_two_generator_complex(self):
        assert boundary_entries(pair_complex()) == [("x", "y", 1)]

    def test_eps_must_be_an_int_bit(self):
        for bad in (1.0, 0.0, True, F(1)):
            with pytest.raises(ValueError) as info:
                FilteredComplex([("x", bad, 1)])
            assert str(info.value) == "generator 'x': eps must be 0 or 1"

    def test_equal_filtration_is_a_violation(self):
        with pytest.raises(FiltrationViolation):
            FilteredComplex([("x", 1, 1), ("y", 0, 1)], [("x", "y", 1)])

    def test_grading_must_change(self):
        with pytest.raises(GradingViolation):
            FilteredComplex([("x", 1, 2), ("y", 1, 1)], [("x", "y", 1)])

    def test_square_zero_enforced(self):
        with pytest.raises(NotSquareZero):
            FilteredComplex([("x", 1, 3), ("y", 0, 2), ("w", 1, 1)],
                            [("x", "y", 1), ("y", "w", 1)])

    def test_square_zero_cancellation_is_fine(self):
        c = FilteredComplex(
            [("x", 0, 4), ("y1", 1, 3), ("y2", 1, 2), ("z", 0, 1)],
            [("x", "y1", 1), ("x", "y2", 1),
             ("y1", "z", 1), ("y2", "z", -1)])
        assert len(boundary_entries(c)) == 4

    @pytest.mark.parametrize("error, message, generators, boundary",
                             invalid_complexes(),
                             ids=["grading", "filtration", "square"])
    def test_invalid_complex_is_never_built(self, error, message, generators,
                                            boundary):
        with pytest.raises(error) as info:
            FilteredComplex(generators, boundary)
        assert str(info.value) == message

    def test_constructor_calls_validate_through_the_class(self, monkeypatch):
        # Instrumentation that wraps FilteredComplex.validate must see
        # every construction.
        calls = []
        monkeypatch.setattr(FilteredComplex, "validate",
                            lambda self: calls.append(len(self)))
        pair_complex()
        FilteredComplex([("z", 0, 1)])
        assert calls == [2, 1]

    def test_duplicate_generator_labels(self):
        with pytest.raises(DuplicateLabel):
            FilteredComplex([("x", 0, 1), ("x", 1, 2)])

    def test_unknown_label_in_boundary(self):
        with pytest.raises(KeyError):
            FilteredComplex([("x", 0, 1)], [("x", "nope", 1)])

    def test_unknown_label_message_is_plain(self):
        # str() of a bare KeyError would be the repr of its message
        with pytest.raises(KeyError) as info:
            FilteredComplex([("x", 0, 1)], [("x", "nope", 1)])
        assert str(info.value) == "unknown generator label 'nope'"

    def test_unknown_label_in_zero_entry(self):
        # The labels are looked up before a zero coefficient is skipped.
        with pytest.raises(UnknownLabel):
            FilteredComplex([("a", 0, 1), ("b", 1, 2)], [("b", "nope", 0)])

    def test_repeated_entries_accumulate(self):
        c = FilteredComplex([("x", 1, 2), ("y", 0, 1)],
                            [("x", "y", F(1, 2)), ("x", "y", F(1, 3)),
                             ("x", "y", 0)])
        assert boundary_entries(c) == [("x", "y", F(5, 6))]
        cancelled = FilteredComplex([("x", 1, 2), ("y", 0, 1)],
                                    [("x", "y", 2), ("x", "y", -2)])
        assert boundary_entries(cancelled) == []


@st.composite
def complex_inputs(draw):
    """Generators and boundary entries of a complex, valid or not: levels
    on denominators 1-4, every entry split in two and some pairs of
    entries between any two generators cancelling, coefficients whole or
    rational and passed as ints, Fractions or strings, and perhaps one
    entry added that breaks grading, filtration or (unless another path
    cancels it) d^2 = 0, by ending on a generator with a boundary."""
    rng = fresh_rng(draw(st.integers(0, 2**32)))   # uniform, unlike st.randoms
    complex_, _ = random_complex(rng, max_gens=12)
    gens = list(zip(complex_.labels, complex_.eps, complex_.filtrations))
    base = boundary_entries(complex_)
    sources = {x for x, _, _ in base}
    entries = []
    for x, y, c in base:
        r = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        entries += [(x, y, c - r), (x, y, r)]
    for _ in range(rng.randint(0, 3) if gens else 0):
        x, y = rng.choice(gens)[0], rng.choice(gens)[0]
        r = F(rng.randint(1, 6), rng.choice((1, 2)))
        entries += [(x, y, r), (x, y, -r)]
    breaks = {"grading": lambda a, b: a[1] == b[1],
              "filtration": lambda a, b: a[1] != b[1] and a[2] <= b[2],
              "square": lambda a, b: a[1] != b[1] and a[2] > b[2]
              and b[0] in sources}
    kind = draw(st.sampled_from(sorted(breaks) + ["none"]))
    pairs = [(a, b) for a in gens for b in gens
             if kind in breaks and breaks[kind](a, b)]
    if pairs:
        a, b = rng.choice(pairs)
        entries.append((a[0], b[0], F(rng.randint(1, 4), rng.choice((1, 3)))))
    rng.shuffle(entries)
    forms = (lambda c: c, str, lambda c: c.numerator if c.denominator == 1 else c)
    return gens, [(x, y, rng.choice(forms)(c)) for x, y, c in entries]


def outcome(build):
    """build()'s result, or the class and message of the violation it raised."""
    try:
        return build()
    except (GradingViolation, FiltrationViolation, NotSquareZero) as exc:
        return type(exc), str(exc)


class TestIntKeyValidator:
    """``validate`` on int keys and int coefficients decides exactly as the
    Fraction validator it replaced, message for message."""

    @pytest.mark.parametrize("error, message, generators, boundary",
                             invalid_complexes(),
                             ids=["grading", "filtration", "square"])
    def test_each_check_agrees_with_the_reference(self, error, message,
                                                  generators, boundary):
        assert outcome(lambda: validate_reference(generators, boundary)) == \
            outcome(lambda: FilteredComplex(generators, boundary)) == \
            (error, message)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(complex_inputs())
    def test_agrees_with_the_fraction_reference(self, case):
        gens, entries = case
        expected = outcome(lambda: validate_reference(gens, entries))
        got = outcome(lambda: boundary_entries(FilteredComplex(gens, entries)))
        assert got == expected
        if isinstance(got, list):   # accepted: whole coefficients are ints
            assert [type(c) for _, _, c in got] == \
                [int if c.denominator == 1 else F for _, _, c in expected]


class TestHomologyDims:
    def test_cycle_before_killer_appears(self):
        assert homology_dims(pair_complex(), F(3, 2)) == (1, 0)

    def test_class_killed_at_the_killer_level(self):
        assert homology_dims(pair_complex(), 2) == (0, 0)

    def test_empty_complex(self):
        assert homology_dims(FilteredComplex([]), 7) == (0, 0)


class TestBarcodeDecompose:
    def test_single_pair(self):
        assert barcode_decompose(pair_complex()) == \
            Barcode([Bar(1, 2, 0)])

    def test_single_immortal_class(self):
        c = FilteredComplex([("z", 0, F(5, 2))])
        assert barcode_decompose(c) == Barcode([Bar(F(5, 2), None, 0)])

    def test_direct_sum_same_filtration(self):
        c = FilteredComplex([("a", 0, 1), ("b", 1, 1)])
        assert barcode_decompose(c) == Barcode([
            Bar(1, None, 0), Bar(1, None, 1)])

    def test_propagates_validation_errors(self):
        with pytest.raises(FiltrationViolation):
            barcode_decompose(FilteredComplex([("x", 1, 1), ("y", 0, 1)],
                                              [("x", "y", 1)]))

    def test_determinism(self):
        rng = fresh_rng(301)
        for _ in range(10):
            c, _ = random_complex(rng)
            assert barcode_decompose(c) == barcode_decompose(c)

    def test_bars_skip_no_check_they_need(self):
        # barcode_decompose makes its bars and barcode without the checks
        # and the sort of the constructors; the constructors, given the
        # same bars in shuffled order, must build the same barcode.
        rng = fresh_rng(302)
        complexes = [random_complex(rng)[0] for _ in range(40)]
        complexes += [planted_complex(rng, n)[0] for n in (0, 1, 50, 300)]
        for c in complexes:
            barcode = barcode_decompose(c)
            bars = [Bar(b.birth, b.death, b.eps) for b in barcode]
            assert barcode == Barcode(rng.sample(bars, len(bars)))
            assert [[(type(v), v) for v in vars(b).values()] for b in barcode] \
                == [[(type(v), v) for v in vars(b).values()] for b in bars]


class TestBars:
    def test_birth_before_death_required(self):
        with pytest.raises(ValueError):
            Bar(2, 1, 0)
        with pytest.raises(ValueError):
            Bar(1, 1, 0)

    def test_eps_must_be_an_int_bit(self):
        for bad in (1.0, 0.0, True, F(1)):
            with pytest.raises(ValueError) as info:
                Bar(1, 2, bad)
            assert str(info.value) == "bar eps must be 0 or 1"

    def test_infinite_death_allowed(self):
        bar = Bar(1, None, 1)
        assert bar.death is None

    def test_barcode_sorted_multiset(self):
        bars = [Bar(2, None, 0), Bar(1, 2, 1), Bar(1, 2, 0)]
        ordered = list(Barcode(bars))
        assert ordered == [Bar(1, 2, 0), Bar(1, 2, 1),
                           Bar(2, None, 0)]


class TestEulerJump:
    def test_birth_and_death_of_even_bar(self):
        barcode = Barcode([Bar(1, 2, 0)])
        assert euler_jump(barcode, 1) == 1
        assert euler_jump(barcode, 2) == -1

    def test_zero_away_from_endpoints(self):
        barcode = Barcode([Bar(1, 2, 0), Bar(F(1, 2), None, 1)])
        assert euler_jump(barcode, F(3, 2)) == 0
        assert euler_jump(barcode, 17) == 0

    def test_odd_immortal_class(self):
        assert euler_jump(Barcode([Bar(1, None, 1)]), 1) == -1


class TestZetaBarcode:
    def test_finite_bar(self):
        assert zeta_barcode(Barcode([Bar(1, 2, 0)]), 3) == \
            NovikovSeries({1: 1, 2: -1}, 3)

    def test_empty_barcode(self):
        assert zeta_barcode(Barcode(), 3) == NovikovSeries.zero(3)

    def test_odd_infinite_bar(self):
        assert zeta_barcode(Barcode([Bar(1, None, 1)]), 3) == \
            NovikovSeries({1: -1}, 3)

    def test_death_beyond_cutoff_truncated(self):
        assert zeta_barcode(Barcode([Bar(1, 9, 0)]), 3) == \
            NovikovSeries({1: 1}, 3)


class TestZetaPersistence:
    def test_pair_complex(self):
        assert zeta_persistence(pair_complex(), 3) == \
            NovikovSeries({1: 1, 2: -1}, 3)

    def test_opposite_parities_cancel(self):
        c = FilteredComplex([("a", 0, 1), ("b", 1, 1)])
        assert zeta_persistence(c, 5) == NovikovSeries.zero(5)

    def test_single_even_class(self):
        c = FilteredComplex([("z", 0, F(7, 3))])
        assert zeta_persistence(c, 4) == NovikovSeries({F(7, 3): 1}, 4)

    def test_empty_complex(self):
        assert zeta_persistence(FilteredComplex([]), F(3, 7)) == \
            NovikovSeries.zero(F(3, 7))

    def test_levels_above_an_off_grid_cutoff_are_dropped(self):
        c = FilteredComplex([("a", 0, F(1, 2)), ("b", 1, F(2, 3)),
                             ("c", 0, F(5, 7)), ("d", 0, F(5, 7))])
        assert zeta_persistence(c, F(5, 7)) == \
            NovikovSeries({F(1, 2): 1, F(2, 3): -1, F(5, 7): 2}, F(5, 7))
        assert zeta_persistence(c, F(7, 10)) == \
            NovikovSeries({F(1, 2): 1, F(2, 3): -1}, F(7, 10))

    def test_matches_the_fraction_route_around_every_level(self):
        # Cutoffs below the lowest level, on each level, between each two
        # and above every level, on complexes with levels at 0 and below.
        rng = fresh_rng(307)
        cases = [shifted_to_zero(random_complex(rng)[0]) for _ in range(40)]
        cases += [shifted_to_zero(planted_complex(rng, 150)[0])
                  for _ in range(3)]
        levels = {f for c in cases for f in c.filtrations}
        assert min(levels) < 0 and 0 in levels
        for c in cases:
            for cutoff in probe_levels(c) + [F(1, 7)]:
                assert stored(zeta_persistence(c, cutoff)) == \
                    stored(zeta_persistence_reference(c, cutoff))


def chi(dims):
    even, odd = dims
    return even - odd


def assert_zeta_routes_agree(complex_, cutoff):
    """The signed-generator zeta equals the barcode zeta bit for bit, and
    each coefficient is the jump of the rank-nullity Euler characteristic
    from the previous filtration level."""
    zeta = zeta_persistence(complex_, cutoff)
    assert stored(zeta) == \
        stored(zeta_barcode(barcode_decompose(complex_), cutoff))
    levels = sorted({f for f in complex_.filtrations if f <= cutoff})
    assert {s for s, _ in zeta.items()} <= set(levels)
    previous = 0
    for level in levels:
        current = chi(homology_dims(complex_, level))
        assert zeta.coefficient(level) == current - previous
        previous = current


@st.composite
def complexes_with_cutoffs(draw):
    """A random valid complex (levels on denominators 1-4, so repeated
    levels are common; rational coefficients; possibly empty) and a cutoff
    that may sit off that grid and below some levels."""
    rng = draw(st.randoms(use_true_random=False))
    complex_, _ = random_complex(rng, max_gens=draw(st.integers(0, 12)))
    den = draw(st.sampled_from((1, 2, 5, 7)))
    return complex_, F(draw(st.integers(0, 6 * den)), den)


class TestNormalFormOracle:
    def test_decomposition_recovers_construction_barcode(self):
        rng = fresh_rng(302)
        for _ in range(50):
            c, expected = random_complex(rng)
            assert barcode_decompose(c) == expected

    def test_barcode_dims_match_rank_oracle(self):
        rng = fresh_rng(303)
        for _ in range(40):
            c, _ = random_complex(rng)
            barcode = barcode_decompose(c)
            for level in probe_levels(c):
                assert barcode.graded_dims(level) == homology_dims(c, level)

    def test_zeta_persistence_equals_zeta_barcode(self):
        rng = fresh_rng(304)
        for _ in range(30):
            c, _ = random_complex(rng)
            barcode = barcode_decompose(c)
            assert zeta_persistence(c, 30) == zeta_barcode(barcode, 30)

    def test_jumps_equal_signed_generator_counts(self):
        # The jump at a level only sees the generators entering there,
        # never the differential.
        rng = fresh_rng(305)
        for _ in range(30):
            c, _ = random_complex(rng)
            barcode = barcode_decompose(c)
            for level in set(c.filtrations):
                signed = sum(-1 if eps else 1
                             for eps, f in zip(c.eps, c.filtrations)
                             if f == level)
                assert euler_jump(barcode, level) == signed

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(complexes_with_cutoffs())
    @example((FilteredComplex([]), F(3, 7)))
    def test_routes_agree_on_random_complexes(self, case):
        assert_zeta_routes_agree(*case)

    def test_shift_reindexes_exponents(self):
        rng = fresh_rng(306)
        delta = F(5, 3)
        for _ in range(15):
            c, _ = random_complex(rng)
            moved = FilteredComplex(
                zip(c.labels, c.eps, [f + delta for f in c.filtrations]),
                boundary_entries(c))
            shifted = zeta_persistence(moved, 30 + delta)
            base = zeta_persistence(c, 30)
            assert [(s + delta, v) for s, v in base.items()] == \
                list(shifted.items())
