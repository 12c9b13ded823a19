"""File schemas: canonical rationals, bit-exact round trips, and strict
validation with located errors."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fresh_rng, random_complex, random_orbit_set, random_series
from reebzeta import (Bar, Barcode, MorseData, NovikovSeries,
                      barcode_decompose, s1_invariant_zeta)
from reebzeta.errors import DuplicateLabel
from reebzeta.serialize import (_RATIO_RE, SchemaError, barcode_from_obj,
                                barcode_to_obj, complex_from_obj, complex_to_obj,
                                format_ratio, morse_from_obj, morse_to_obj,
                                orbit_set_from_obj, orbit_set_to_obj,
                                parse_ratio, series_from_obj, series_to_obj)


class TestRatios:
    def test_canonical_format(self):
        assert format_ratio(F(3, 2)) == "3/2"
        assert format_ratio(F(4, 2)) == "2"
        assert format_ratio(F(-3, 6)) == "-1/2"
        assert format_ratio(0) == "0"

    def test_parse_round_trip(self):
        for text in ("0", "7", "-7", "3/2", "-3/2", "22/7"):
            assert format_ratio(parse_ratio(text)) == text

    def test_rejects_noncanonical_text(self):
        for bad in ("1.5", "1/0", "1/-2", "", "t", "1 / 2", None, 3):
            with pytest.raises(SchemaError):
                parse_ratio(bad)

    def test_too_many_digits_is_a_located_schema_error(self):
        for text in ("1" + "0" * 5000, "3/1" + "0" * 5000):
            with pytest.raises(SchemaError, match=r"^x\.action: "):
                parse_ratio(text, "x.action")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.from_regex(_RATIO_RE))
    @example("-0")
    @example("007")
    @example("6/4")
    @example("-3/9")
    def test_value_is_bit_equal_to_fraction_of_the_text(self, text):
        value, reference = parse_ratio(text), F(text)
        assert (type(value), type(value.numerator), value.numerator,
                type(value.denominator), value.denominator) == \
            (type(reference), type(reference.numerator), reference.numerator,
             type(reference.denominator), reference.denominator)


class TestSeriesSchema:
    def test_round_trip_is_bit_exact(self):
        rng = fresh_rng(601)
        for _ in range(25):
            series = random_series(rng, cutoff=F(19, 2))
            obj = series_to_obj(series)
            assert series_from_obj(obj) == series
            assert series_to_obj(series_from_obj(obj)) == obj

    def test_terms_emitted_in_increasing_order(self):
        series = NovikovSeries({F(3, 2): 1, 1: -2, F(1, 3): 5}, 4)
        exponents = [t["exponent"] for t in series_to_obj(series)["terms"]]
        assert exponents == ["1/3", "1", "3/2"]

    def test_rejects_zero_coefficient(self):
        with pytest.raises(SchemaError, match=r"terms\[0\]"):
            series_from_obj({"terms": [{"exponent": "1", "coefficient": "0"}],
                             "cutoff": "2"})

    def test_rejects_unsorted_exponents(self):
        with pytest.raises(SchemaError, match="strictly increasing"):
            series_from_obj({"terms": [
                {"exponent": "2", "coefficient": "1"},
                {"exponent": "1", "coefficient": "1"}], "cutoff": "3"})

    def test_rejects_exponent_above_cutoff(self):
        with pytest.raises(SchemaError, match="exceeds cutoff"):
            series_from_obj({"terms": [{"exponent": "3", "coefficient": "1"}],
                             "cutoff": "2"})

    def test_rejects_missing_cutoff_and_unknown_keys(self):
        with pytest.raises(SchemaError, match="cutoff"):
            series_from_obj({"terms": []})
        with pytest.raises(SchemaError, match="unknown keys"):
            series_from_obj({"terms": [], "cutoff": "1", "extra": 1})


class TestOrbitSchema:
    def test_typed_entries_round_trip(self):
        obj = [{"label": "e", "action": "3/2", "type": "elliptic"},
               {"label": "h", "action": "2", "type": "pos-hyperbolic"},
               {"label": "n", "action": "7/3", "type": "neg-hyperbolic"}]
        assert orbit_set_to_obj(orbit_set_from_obj(obj)) == obj

    def test_parity_entries_round_trip(self):
        obj = [{"label": "x", "action": "1", "eps1": 1, "eps2": 0}]
        assert orbit_set_to_obj(orbit_set_from_obj(obj)) == obj

    def test_random_round_trip(self):
        rng = fresh_rng(602)
        for _ in range(20):
            orbit_set = random_orbit_set(rng, max_orbits=6)
            assert orbit_set_from_obj(orbit_set_to_obj(orbit_set)) == orbit_set

    def test_unknown_type_rejected_with_location(self):
        with pytest.raises(SchemaError, match=r"orbits\[0\].type"):
            orbit_set_from_obj([{"label": "x", "action": "1",
                                 "type": "parabolic"}])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            orbit_set_from_obj([
                {"label": "x", "action": "1", "type": "elliptic"},
                {"label": "x", "action": "2", "type": "elliptic"}])

    def test_bad_parity_bit(self):
        with pytest.raises(SchemaError, match="eps1"):
            orbit_set_from_obj([{"label": "x", "action": "1",
                                 "eps1": 2, "eps2": 0}])

    def test_boolean_parity_bit_rejected(self):
        for bit in (True, False):
            with pytest.raises(SchemaError, match=r"orbits\[0\].eps2"):
                orbit_set_from_obj([{"label": "x", "action": "1",
                                     "eps1": 0, "eps2": bit}])


class TestComplexSchema:
    def test_round_trip(self):
        rng = fresh_rng(603)
        for _ in range(15):
            complex_, _ = random_complex(rng, max_gens=8)
            obj = complex_to_obj(complex_)
            back = complex_from_obj(obj)
            assert complex_to_obj(back) == obj
            assert barcode_decompose(back) == barcode_decompose(complex_)

    def test_unknown_generator_in_differential(self):
        with pytest.raises(SchemaError, match="unknown generator"):
            complex_from_obj({
                "generators": [{"label": "x", "eps": 0, "filtration": "1"}],
                "differential": [{"from": "x", "to": "ghost", "coeff": "1"}]})

    def test_located_field_errors(self):
        with pytest.raises(SchemaError, match=r"generators\[1\].filtration"):
            complex_from_obj({"generators": [
                {"label": "x", "eps": 0, "filtration": "1"},
                {"label": "y", "eps": 1, "filtration": "oops"}],
                "differential": []})


class TestBarcodeSchema:
    def test_round_trip_with_infinite_bars(self):
        barcode = Barcode([Bar(1, 2, 0), Bar(F(1, 2), None, 1)])
        obj = barcode_to_obj(barcode)
        assert obj == [{"birth": "1/2", "death": "inf", "eps": 1},
                       {"birth": "1", "death": "2", "eps": 0}]
        assert barcode_from_obj(obj) == barcode

    def test_sorted_by_birth_death_eps(self):
        barcode = Barcode([Bar(1, None, 0), Bar(1, 2, 1),
                           Bar(1, 2, 0)])
        deaths = [entry["death"] for entry in barcode_to_obj(barcode)]
        assert deaths == ["2", "2", "inf"]


class TestDomainSchemas:
    def test_morse_round_trip(self):
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        obj = morse_to_obj(morse)
        back = morse_from_obj(obj)
        assert morse_to_obj(back) == obj
        assert s1_invariant_zeta(back, 2) == s1_invariant_zeta(morse, 2)

    def test_morse_index_validation(self):
        with pytest.raises(SchemaError, match=r"morse\[0\].index"):
            morse_from_obj([{"label": "p", "action": "1", "index": 3}])
        for index in (True, False, 1.0):
            with pytest.raises(SchemaError, match=r"morse\[0\].index"):
                morse_from_obj([{"label": "p", "action": "1", "index": index}])
