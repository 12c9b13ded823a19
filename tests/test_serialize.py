"""File schemas: canonical rationals, bit-exact round trips, and strict
validation with located errors."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (barcode_text_reference, boundary_entries, complex_bits,
                     complex_from_obj_reference, format_ratio, fresh_rng,
                     planted_complex, probe_levels, random_complex,
                     random_orbit_set, random_series, scaled_complex_file,
                     series_from_obj_reference, series_lines_reference,
                     series_to_obj_reference, shifted_to_zero, stored,
                     zeta_persistence_reference)
from test_golden import CASES, DATA, GOLDEN
from reebzeta import (Bar, Barcode, FilteredComplex, MorseCriticalPoint,
                      MorseData, NovikovSeries, OrbitSet, SimpleOrbit,
                      barcode_decompose, ech_generators, elliptic,
                      negative_hyperbolic, novikov, positive_hyperbolic,
                      s1_invariant_zeta, zeta_persistence)
from reebzeta.errors import (DuplicateLabel, NonPositiveAction,
                             NotThreeDimensional, TooManyDigits)
from reebzeta import cli
from reebzeta.serialize import (_LINE_RE, SchemaError, _barcode_text,
                                _coeffs, _complex_direct, _ratio,
                                _series_direct, barcode_from_obj, barcode_to_obj,
                                complex_from_obj, dump_json, morse_from_obj,
                                orbit_set_from_obj, parse_ratio,
                                series_from_obj, series_to_obj)


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
        # ASCII digits only: int() would take any Unicode decimal digit
        for bad in ("1.5", "1/0", "1/-2", "", "t", "1 / 2", None, 3,
                    "\u0663", "\uff13", "1/1\u0662"):
            with pytest.raises(SchemaError):
                parse_ratio(bad)

    def test_too_many_digits_is_a_located_schema_error(self):
        for text in ("1" + "0" * 5000, "3/1" + "0" * 5000):
            with pytest.raises(SchemaError, match=r"^x\.action: "):
                parse_ratio(text, "x.action")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.from_regex(_LINE_RE, fullmatch=True))
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

    def test_written_text_is_the_json_text(self, tmp_path):
        # the templated dump_json against json.dumps: empty and one-term
        # series, cancelled and negative coefficients, Fraction exponents
        # (some negative) and coefficients, whole and fractional cutoffs,
        # and coefficients of a few thousand digits, below Python's 4,300
        rng = fresh_rng(2024)
        series_list = [
            NovikovSeries.zero(F(5, 2)), NovikovSeries({}, 3),
            NovikovSeries({F(1, 2): 7}, 1),
            NovikovSeries({1: 2, 2: -3}, 4) + NovikovSeries({1: -2, 3: 5}, 4),
            NovikovSeries({F(2, 3): 2}, F(7, 3)).inverse(),
            NovikovSeries({1: 10 ** 3999 + 1,
                           F(3, 2): -F(10 ** 2000 + 7, 3 ** 4000)}, 2)]
        for _ in range(60):
            cutoff = rng.choice((rng.randint(1, 12), F(rng.randint(8, 80), 7)))
            a, b = random_series(rng, cutoff), random_series(rng, cutoff)
            series_list += [a, a * b, a - a.truncate(F(cutoff) / 2)]
        path = tmp_path / "series.json"
        for series in series_list:
            obj = series_to_obj(series)
            dump_json(obj, str(path))
            assert path.read_text(encoding="utf-8") == \
                json.dumps(obj, indent=2) + "\n"
            texts = [obj["cutoff"], *(text for term in obj["terms"]
                                      for text in term.values())]
            assert all(json.dumps(text) == f'"{text}"' for text in texts)

    def test_text_past_the_digit_limit_is_named(self):
        # a whole exponent, a fractional one, a coefficient and the cutoff,
        # each past Python's 4,300-digit limit for int text; an exponent
        # that cannot be printed is named by its position
        big = 10 ** 4300
        cases = [(NovikovSeries({1: 1, big: 1}, big), "the exponent of terms[1]"),
                 (NovikovSeries({0: 1, F(1, big): big}, 1),
                  "the exponent of terms[1]"),
                 (NovikovSeries({1: 2, 2: F(1, big)}, 2),
                  "the coefficient of t^2"),
                 (NovikovSeries.zero(F(1, big)), "the cutoff")]
        for series, what in cases:
            with pytest.raises(TooManyDigits) as info:
                series_to_obj(series)
            assert str(info.value) == \
                f"{what} has more digits than Python's limit of 4300"

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
    def test_typed_entries_decode(self):
        obj = [{"label": "e", "action": "3/2", "type": "elliptic"},
               {"label": "h", "action": "2", "type": "pos-hyperbolic"},
               {"label": "n", "action": "7/3", "type": "neg-hyperbolic"}]
        assert orbit_set_from_obj(obj) == OrbitSet([
            elliptic("e", F(3, 2)), positive_hyperbolic("h", 2),
            negative_hyperbolic("n", F(7, 3))])

    def test_parity_entries_decode(self):
        obj = [{"label": "x", "action": "1", "eps1": 1, "eps2": 0}]
        assert orbit_set_from_obj(obj) == OrbitSet([SimpleOrbit("x", 1, 1, 0)])

    def test_random_parity_entries_decode(self):
        rng = fresh_rng(602)
        for _ in range(20):
            orbit_set = random_orbit_set(rng, max_orbits=6)
            obj = [{"label": o.label, "action": str(o.action),
                    "eps1": o.eps1, "eps2": o.eps2} for o in orbit_set]
            assert orbit_set_from_obj(obj) == orbit_set

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
    def test_random_complexes_decode(self):
        rng = fresh_rng(603)
        for _ in range(15):
            complex_, barcode = random_complex(rng, max_gens=8)
            back = complex_from_obj({
                "generators": [
                    {"label": x, "eps": e, "filtration": str(f)}
                    for x, e, f in zip(complex_.labels, complex_.eps,
                                       complex_.filtrations)],
                "differential": [
                    {"from": x, "to": y, "coeff": str(c)}
                    for x, y, c in boundary_entries(complex_)]})
            assert (back.labels, back.eps, back.filtrations, back.keys) == \
                (complex_.labels, complex_.eps, complex_.filtrations,
                 complex_.keys)
            assert boundary_entries(back) == boundary_entries(complex_)
            assert barcode_decompose(back) == barcode

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

    def test_birth_not_before_death_is_located(self):
        for death in ("1", "1/2"):
            with pytest.raises(SchemaError,
                               match=r"^barcode\[1\]: bar needs birth < death"):
                barcode_from_obj([{"birth": "0", "death": "inf", "eps": 0},
                                  {"birth": "1", "death": death, "eps": 1}])

    def test_sorted_by_birth_death_eps(self):
        barcode = Barcode([Bar(1, None, 0), Bar(1, 2, 1),
                           Bar(1, 2, 0)])
        deaths = [entry["death"] for entry in barcode_to_obj(barcode)]
        assert deaths == ["2", "2", "inf"]


class TestDomainSchemas:
    def test_morse_decode(self):
        morse = MorseData([("min", 1, 0), ("sad", F(3, 2), 1),
                           ("max", 3, 2), ("pad", 4, 0)])
        back = morse_from_obj([
            {"label": "min", "action": "1", "index": 0},
            {"label": "sad", "action": "3/2", "index": 1},
            {"label": "max", "action": "3", "index": 2},
            {"label": "pad", "action": "4", "index": 0}])
        assert back.points == morse.points
        assert s1_invariant_zeta(back, 2) == s1_invariant_zeta(morse, 2)

    def test_morse_index_validation(self):
        with pytest.raises(SchemaError, match=r"morse\[0\].index"):
            morse_from_obj([{"label": "p", "action": "1", "index": 3}])
        for index in (True, False, 1.0):
            with pytest.raises(SchemaError, match=r"morse\[0\].index"):
                morse_from_obj([{"label": "p", "action": "1", "index": index}])


# -- exact messages -------------------------------------------------------

TERM = {"exponent": "1", "coefficient": "1"}
GEN = {"label": "x", "eps": 0, "filtration": "1"}
EDGE = {"from": "x", "to": "x", "coeff": "1"}
RATIO = "expected a rational 'p/q' string, got"


def terms(*pairs, cutoff="2"):
    return {"terms": [{"exponent": e, "coefficient": c} for e, c in pairs],
            "cutoff": cutoff}


def edges(*entries):
    return {"generators": [GEN], "differential": list(entries)}


def orbit(**fields):
    return [dict({"label": "x", "action": "1", "type": "elliptic"}, **fields)]


def parity(**fields):
    return [dict({"label": "x", "action": "1", "eps1": 0, "eps2": 1}, **fields)]


def bar(**fields):
    return [dict({"birth": "1", "death": "inf", "eps": 0}, **fields)]


def point(**fields):
    return [dict({"label": "p", "action": "1", "index": 0}, **fields)]


def without(entries, key):
    return [{k: v for k, v in entry.items() if k != key} for entry in entries]


def int_error(text) -> str:
    """The message of int(text), which refuses too many digits."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int() took {text!r}")


# (decoder, malformed input, the exact SchemaError text), one row per
# schema and kind of failure; earlier checks win when several apply.
MESSAGES = [
    # series files
    (series_from_obj, [], "series: expected an object, got list"),
    (series_from_obj, "1", "series: expected an object, got str"),
    (series_from_obj, {"terms": [], "cutoff": "1", "extra": 1},
     "series: unknown keys ['extra']"),
    (series_from_obj, {"terms": []}, "series: missing 'cutoff'"),
    (series_from_obj, {"cutoff": 2}, f"series.cutoff: {RATIO} 2"),
    (series_from_obj, {"cutoff": "1.5"}, f"series.cutoff: {RATIO} '1.5'"),
    (series_from_obj, {"terms": {}, "cutoff": "1"},
     "series.terms: expected a list, got dict"),
    (series_from_obj, {"terms": ["1"], "cutoff": "1"},
     "series.terms[0]: expected an object, got str"),
    (series_from_obj, {"terms": [dict(TERM, power=2)], "cutoff": "2"},
     "series.terms[0]: unknown keys ['power']"),
    (series_from_obj, {"terms": [{"exponent": "x", "extra": 0}], "cutoff": "2"},
     "series.terms[0]: unknown keys ['extra']"),
    (series_from_obj, {"terms": [{"coefficient": "1"}], "cutoff": "2"},
     f"series.terms[0].exponent: {RATIO} None"),
    (series_from_obj, terms(("1", 1)),
     f"series.terms[0].coefficient: {RATIO} 1"),
    (series_from_obj, terms(("1e3", "1")),
     f"series.terms[0].exponent: {RATIO} '1e3'"),
    (series_from_obj, terms(("1", "1"), ("3/2", "\u0662")),
     f"series.terms[1].coefficient: {RATIO} '\u0662'"),
    (series_from_obj, terms(("1", "1"), ("3/2", "0")),
     "series.terms[1]: zero coefficients must not be stored"),
    (series_from_obj, terms(("1", "0"), ("x", "1")),
     "series.terms[0]: zero coefficients must not be stored"),
    (series_from_obj, terms(("2", "1"), ("1", "1"), cutoff="3"),
     "series.terms[1]: exponents must be strictly increasing (1 after 2)"),
    (series_from_obj, terms(("1", "1"), ("1", "2"), cutoff="3"),
     "series.terms[1]: exponents must be strictly increasing (1 after 1)"),
    (series_from_obj, terms(("3", "1")),
     "series.terms[0]: exponent 3 exceeds cutoff 2"),
    (series_from_obj, {"cutoff": "0"}, "series.cutoff: must be positive, got 0"),
    (series_from_obj, terms(("-1", "1"), cutoff="-2/4"),
     "series.cutoff: must be positive, got -1/2"),
    # orbit sets
    (orbit_set_from_obj, {}, "orbits: expected a list, got dict"),
    (orbit_set_from_obj, ["x"], "orbits[0]: expected an object, got str"),
    (orbit_set_from_obj, [None], "orbits[0]: expected an object, got NoneType"),
    (orbit_set_from_obj, orbit(extra=1), "orbits[0]: unknown keys ['extra']"),
    (orbit_set_from_obj, parity(eps3=1), "orbits[0]: unknown keys ['eps3']"),
    (orbit_set_from_obj, without(orbit(), "label"),
     "orbits[0].label: expected a string, got None"),
    (orbit_set_from_obj, orbit(label=3),
     "orbits[0].label: expected a string, got 3"),
    (orbit_set_from_obj, without(orbit(), "action"),
     f"orbits[0].action: {RATIO} None"),
    (orbit_set_from_obj, orbit(action="1/0"),
     f"orbits[0].action: {RATIO} '1/0'"),
    (orbit_set_from_obj, orbit(action="\u0661"),
     f"orbits[0].action: {RATIO} '\u0661'"),
    (orbit_set_from_obj, parity() + parity(label="y", action="-1/3/2"),
     f"orbits[1].action: {RATIO} '-1/3/2'"),
    (orbit_set_from_obj, orbit(type=1),
     "orbits[0].type: expected a string, got 1"),
    (orbit_set_from_obj, orbit(type="parabolic"),
     "orbits[0].type: unknown orbit type 'parabolic'; expected one of "
     "['elliptic', 'neg-hyperbolic', 'pos-hyperbolic']"),
    (orbit_set_from_obj, parity(eps1=2), "orbits[0].eps1: expected 0 or 1, got 2"),
    (orbit_set_from_obj, parity(eps2=True),
     "orbits[0].eps2: expected 0 or 1, got True"),
    (orbit_set_from_obj, without(parity(), "eps2"),
     "orbits[0].eps2: expected 0 or 1, got None"),
    # filtered complexes
    (complex_from_obj, [], "complex: expected an object, got list"),
    (complex_from_obj, {"generators": [], "extra": []},
     "complex: unknown keys ['extra']"),
    (complex_from_obj, {"generators": "x"},
     "complex.generators: expected a list, got str"),
    (complex_from_obj, {"generators": [0]},
     "complex.generators[0]: expected an object, got int"),
    (complex_from_obj, {"generators": [dict(GEN, degree=1)]},
     "complex.generators[0]: unknown keys ['degree']"),
    (complex_from_obj, {"generators": without([GEN], "label")},
     "complex.generators[0].label: expected a string, got None"),
    (complex_from_obj, {"generators": [dict(GEN, eps=2)]},
     "complex.generators[0].eps: expected 0 or 1, got 2"),
    (complex_from_obj, {"generators": [dict(GEN, eps=False)]},
     "complex.generators[0].eps: expected 0 or 1, got False"),
    (complex_from_obj, {"generators": [dict(GEN, filtration="oops")]},
     f"complex.generators[0].filtration: {RATIO} 'oops'"),
    (complex_from_obj, {"generators": [GEN], "differential": {}},
     "complex.differential: expected a list, got dict"),
    (complex_from_obj, edges([]),
     "complex.differential[0]: expected an object, got list"),
    (complex_from_obj, edges(dict(EDGE, weight=1)),
     "complex.differential[0]: unknown keys ['weight']"),
    (complex_from_obj, edges(dict(EDGE, **{"from": 1})),
     "complex.differential[0].from: expected a string, got 1"),
    (complex_from_obj, edges(*without([EDGE], "to")),
     "complex.differential[0].to: expected a string, got None"),
    (complex_from_obj, edges(dict(EDGE, to="ghost")),
     "complex.differential[0]: unknown generator 'ghost'"),
    (complex_from_obj, edges(EDGE, dict(EDGE, **{"from": "ghost"})),
     "complex.differential[1]: unknown generator 'ghost'"),
    (complex_from_obj, edges(dict(EDGE, to="ghost", coeff="0")),
     "complex.differential[0]: unknown generator 'ghost'"),
    (complex_from_obj, {"generators": [GEN, GEN],
                        "differential": [dict(EDGE, to="ghost")]},
     "complex.differential[0]: unknown generator 'ghost'"),
    (complex_from_obj, edges(dict(EDGE, coeff="01/2 ")),
     f"complex.differential[0].coeff: {RATIO} '01/2 '"),
    (complex_from_obj, edges(dict(EDGE, coeff=None)),
     f"complex.differential[0].coeff: {RATIO} None"),
    # inputs the direct pass must leave to the record loop
    (complex_from_obj, {"generators": [dict(GEN, label=["x"])]},
     "complex.generators[0].label: expected a string, got ['x']"),
    (complex_from_obj, edges(dict(EDGE, **{"from": ["x"]})),
     "complex.differential[0].from: expected a string, got ['x']"),
    (complex_from_obj, {"generators": [dict(GEN, eps=True)]},
     "complex.generators[0].eps: expected 0 or 1, got True"),
    (complex_from_obj, {"generators": [dict(GEN, filtration="1\n")]},
     f"complex.generators[0].filtration: {RATIO} '1\\n'"),
    (complex_from_obj, {"generators": [dict(GEN, filtration=1)]},
     f"complex.generators[0].filtration: {RATIO} 1"),
    (complex_from_obj, {"generators": [{"label": "x", "eps": 0,
                                        "filtraton": "1"}]},
     "complex.generators[0]: unknown keys ['filtraton']"),
    (complex_from_obj, {"generators": [dict(GEN, filtration="1" + "0" * 4999)]},
     f"complex.generators[0].filtration: {int_error('1' + '0' * 4999)}"),
    # barcodes
    (barcode_from_obj, "inf", "barcode: expected a list, got str"),
    (barcode_from_obj, [[]], "barcode[0]: expected an object, got list"),
    (barcode_from_obj, bar(mult=2), "barcode[0]: unknown keys ['mult']"),
    (barcode_from_obj, without(bar(), "birth"), f"barcode[0].birth: {RATIO} None"),
    (barcode_from_obj, bar(birth=1), f"barcode[0].birth: {RATIO} 1"),
    (barcode_from_obj, bar(death="infinity"),
     f"barcode[0].death: {RATIO} 'infinity'"),
    (barcode_from_obj, bar(eps=3), "barcode[0].eps: expected 0 or 1, got 3"),
    (barcode_from_obj, bar() + bar(death="1", eps=1),
     "barcode[1]: bar needs birth < death, got [1, 1)"),
    (barcode_from_obj, bar(birth="2", death="1"),
     "barcode[0]: bar needs birth < death, got [2, 1)"),
    # Morse data
    (morse_from_obj, {"label": "p"}, "morse: expected a list, got dict"),
    (morse_from_obj, [1.5], "morse[0]: expected an object, got float"),
    (morse_from_obj, point(kind="min"), "morse[0]: unknown keys ['kind']"),
    (morse_from_obj, point(index=3), "morse[0].index: expected 0, 1 or 2, got 3"),
    (morse_from_obj, point(index=True),
     "morse[0].index: expected 0, 1 or 2, got True"),
    (morse_from_obj, without(point(), "index"),
     "morse[0].index: expected 0, 1 or 2, got None"),
    (morse_from_obj, without(point(), "label"),
     "morse[0].label: expected a string, got None"),
    (morse_from_obj, point(label=["p"]),
     "morse[0].label: expected a string, got ['p']"),
    (morse_from_obj, point(action="3/01"), f"morse[0].action: {RATIO} '3/01'"),
    (morse_from_obj, point(label=5, action="x", index=7),
     "morse[0].index: expected 0, 1 or 2, got 7"),
    # an orbit entry's unknown keys are reported before its fields
    (orbit_set_from_obj, [{"x": 1}], "orbits[0]: unknown keys ['x']"),
    (orbit_set_from_obj, orbit(label=3, extra=0),
     "orbits[0]: unknown keys ['extra']"),
    # a differential entry's fields are parsed before its labels are
    # looked up, as every schema parses fields before cross-field checks
    (complex_from_obj, edges(dict(EDGE, to="ghost", coeff="x")),
     f"complex.differential[0].coeff: {RATIO} 'x'"),
    # echoed values are cut to 80 characters; a repr of 80 is kept whole
    (orbit_set_from_obj, orbit(action=list(range(100))),
     f"orbits[0].action: {RATIO} [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
     "13, 14, 15, 16, 17, 18, 19, 20, 21..."),
    (orbit_set_from_obj, orbit(type="e" * 100),
     f"orbits[0].type: unknown orbit type '{'e' * 76}...; expected one of "
     "['elliptic', 'neg-hyperbolic', 'pos-hyperbolic']"),
    (morse_from_obj, point(index="y" * 78),
     f"morse[0].index: expected 0, 1 or 2, got '{'y' * 78}'"),
    (complex_from_obj, edges(dict(EDGE, to="g" * 90)),
     f"complex.differential[0]: unknown generator '{'g' * 76}..."),
    (barcode_from_obj, [dict(bar()[0], **{f"k{i}": 0 for i in range(30)})],
     "barcode[0]: unknown keys ['k0', 'k1', 'k10', 'k11', 'k12', 'k13', "
     "'k14', 'k15', 'k16', 'k17', 'k18', '..."),
    # a final newline is not part of a rational
    (parse_ratio, "1\n", f"value: {RATIO} '1\\n'"),
    (parse_ratio, "3/2\n", f"value: {RATIO} '3/2\\n'"),
    (orbit_set_from_obj, orbit(action="1\n"), f"orbits[0].action: {RATIO} '1\\n'"),
    (complex_from_obj, edges(dict(EDGE, coeff="3/2\n")),
     f"complex.differential[0].coeff: {RATIO} '3/2\\n'"),
    # bare rationals
    (parse_ratio, "1.5", f"value: {RATIO} '1.5'"),
    (lambda text: parse_ratio(text, "x.cutoff"), ["1"], f"x.cutoff: {RATIO} ['1']"),
]


@pytest.mark.parametrize("decode, obj, message", MESSAGES,
                         ids=[row[2] for row in MESSAGES])
def test_schema_error_text_is_exact(decode, obj, message):
    with pytest.raises(SchemaError) as info:
        decode(obj)
    assert str(info.value) == message


LONG = "L" * 100_000

# Constructor errors quote labels through the same 80-character cut; the
# CLI tests cover the ones an input file can reach.
LABEL_ERRORS = [
    (lambda: SimpleOrbit(LONG, 1, 2, 0), ValueError),
    (lambda: OrbitSet([SimpleOrbit(LONG, 1, 0, 0)] * 2), DuplicateLabel),
    (lambda: ech_generators(OrbitSet([SimpleOrbit(LONG, 1, 1, 0)]), 2),
     NotThreeDimensional),
    (lambda: MorseCriticalPoint(LONG, -1, 0), NonPositiveAction),
    (lambda: MorseCriticalPoint(LONG, 1, 3), ValueError),
    (lambda: FilteredComplex([(LONG, 2, 1)]), ValueError),
    (lambda: FilteredComplex([("x", 0, 1)], [("x", LONG, 1)]), KeyError),
    # named, so that the orbit set's repeated-label case keeps its id
    pytest.param(lambda: MorseData([(LONG, 1, 0), (LONG, 2, 2)]),
                 DuplicateLabel, id="<lambda>-MorseDuplicateLabel"),
]


@pytest.mark.parametrize("build, error", LABEL_ERRORS)
def test_constructor_errors_cut_long_labels(build, error):
    with pytest.raises(error) as info:
        build()
    assert f"'{'L' * 76}..." in str(info.value)
    assert len(str(info.value)) < 200


# Every constructor words a repeated label one way and names the first
# label met twice in input order: 'b' in a, b, b, a, not 'a', the first
# label that has a twin.
REPEATS = [
    (lambda: OrbitSet([elliptic(x, i + 1) for i, x in enumerate("abba")]),
     "orbit label 'b' repeated"),
    (lambda: MorseData([("a", 1, 0), ("b", 2, 1), ("b", 3, 1), ("a", 4, 2)]),
     "critical point label 'b' repeated"),
    (lambda: FilteredComplex([(x, 0, i) for i, x in enumerate("abba")]),
     "generator label 'b' repeated"),
]


@pytest.mark.parametrize("build, message", REPEATS,
                         ids=[row[1] for row in REPEATS])
def test_repeated_label_names_the_first_repeat(build, message):
    with pytest.raises(DuplicateLabel) as info:
        build()
    assert str(info.value) == message


# -- series files on the int grid ------------------------------------------
#
# series_to_obj and the CLI report format straight from the int keys, and
# series_from_obj takes a well-formed file through a direct pass; both
# must give what the Fraction route in helpers.py gives, bit for bit.

IO_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
# 999999937 and 1000000007 are primes, so a file mixing them sits on a
# grid with q near 10^18, and one of them alone on q near 10^9.
IO_DENOMINATORS = (1, 2, 3, 4, 6, 999_999_937, 1_000_000_007)


@st.composite
def plain_series(draw, cutoff):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        den = draw(st.sampled_from((1, 2, 3, 5)))
        exponent = F(draw(st.integers(0, int(cutoff * den))), den)
        terms[exponent] = F(draw(st.integers(-5, 5)),
                            draw(st.sampled_from((1, 1, 2, 3))))
    return NovikovSeries(terms, cutoff)


@st.composite
def emitted_series(draw):
    """A series of one of the shapes the emit must handle: as built, a
    product on the lcm grid, a truncation (its q often not minimal), the
    inverse of a unit with a positive leading exponent (negative keys),
    or zero on a grid with q > 1."""
    cutoff = F(draw(st.integers(2, 12)), draw(st.sampled_from((1, 2, 3))))
    a, b = draw(plain_series(cutoff)), draw(plain_series(cutoff))
    shape = draw(st.sampled_from(("plain", "product", "truncate", "inverse",
                                  "zero")))
    if shape == "product":
        return a * b
    if shape == "truncate":
        return a.truncate(cutoff * F(draw(st.integers(0, 4)), 4))
    if shape == "inverse":
        lead = cutoff * F(draw(st.integers(1, 4)), 4)
        tail = NovikovSeries({s: c for s, c in b.items() if s > 0}, cutoff)
        return (NovikovSeries({lead: draw(st.sampled_from((1, -2, F(3, 2))))},
                              cutoff) + tail * NovikovSeries({lead: 1}, cutoff)
                ).inverse()
    if shape == "zero":
        return a - a
    return a


def spell(draw, value: F) -> str:
    """value as a ratio text: canonical, scaled by 2 or 3 ("6/4", "4/2",
    "0/3"), or with leading zeros ("007", "-003/2", "-0")."""
    form = draw(st.sampled_from(("canonical", "scaled", "padded")))
    num, den = value.numerator, value.denominator
    if form == "scaled":
        k = draw(st.integers(2, 3))
        return f"{num * k}/{den * k}"
    negative_zero = num == 0 and form == "padded" and draw(st.booleans())
    sign = "-" if num < 0 or negative_zero else ""
    digits = ("00" if form == "padded" else "") + str(abs(num))
    return sign + digits + (f"/{den}" if den != 1 else "")


@st.composite
def series_files(draw):
    """A well-formed series file: strictly increasing exponents, some
    negative, over mixed denominators, at or below a positive cutoff, and
    nonzero coefficients, every value spelled in a random valid form."""
    exponents = set()
    for _ in range(draw(st.integers(0, 8))):
        den = draw(st.sampled_from(IO_DENOMINATORS))
        exponents.add(F(draw(st.integers(-3 * den, 6 * den)), den))
    exponents = sorted(exponents)
    cutoff = max(exponents + [F(1, 2)]) + F(draw(st.integers(0, 3)),
                                            draw(st.sampled_from((1, 2, 5))))
    file_terms = []
    for exponent in exponents:
        coeff = F(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))),
                  draw(st.sampled_from((1, 1, 2, 3, 999_999_937))))
        file_terms.append({"exponent": spell(draw, exponent),
                           "coefficient": spell(draw, coeff)})
    return {"terms": file_terms, "cutoff": spell(draw, cutoff)}


def last_exponent(obj) -> F:
    return F(obj["terms"][-1]["exponent"])


def retext(field, text):
    def mangle(obj, k):
        obj["terms"][k][field] = text
    return mangle


def set_cutoff(obj, k):
    # Positive and below the last exponent, so only the terms are wrong.
    if last_exponent(obj) > 0:
        obj["cutoff"] = format_ratio(last_exponent(obj) / 2)


def swap(obj, k):
    terms = obj["terms"]
    if k + 1 < len(terms):
        terms[k], terms[k + 1] = terms[k + 1], terms[k]


# U+0661 ARABIC-INDIC DIGIT ONE is a digit to int but not to _LINE_RE,
# whose [0-9] is ASCII only, so the file is malformed; a coefficient
# respelled "4/2" or "-007" keeps it well formed.
ARABIC_ONE = retext("exponent", "\u0661")
RESPELLED = retext("coefficient", "4/2")

# Each changes term k (or the whole file) of a well-formed file.  The
# result may still be well formed (a swap at the last term does nothing,
# and RESPELLED changes only the spelling), and then both decoders must
# give the same series.
MANGLES = [
    retext("exponent", "1.5"), retext("exponent", None),
    retext("exponent", "1\n"), retext("exponent", "1\n2"),
    retext("exponent", "1/0"), retext("exponent", "1" + "0" * 5000),
    ARABIC_ONE, RESPELLED, retext("coefficient", "-007"),
    retext("coefficient", 1),
    retext("coefficient", "0"), retext("coefficient", "-0/7"),
    retext("coefficient", ""), retext("coefficient", " 1"),
    lambda obj, k: obj["terms"][k].update(power=2),
    lambda obj, k: obj["terms"][k].pop("coefficient"),
    lambda obj, k: obj["terms"].__setitem__(k, "1"),
    lambda obj, k: obj["terms"].insert(k, dict(obj["terms"][k])),
    swap, set_cutoff,
    lambda obj, k: obj.update(cutoff=2),
    lambda obj, k: obj.update(extra=1),
    lambda obj, k: obj.pop("cutoff"),
    lambda obj, k: obj.update(terms=tuple(obj["terms"])),
    lambda obj, k: obj.update(terms={}),
]


def decoded(decode, obj):
    """The stored bits of the series, or the text of the SchemaError."""
    try:
        return stored(decode(obj))
    except SchemaError as exc:
        return str(exc)


class TestSeriesIntGrid:
    @IO_PROPERTY
    @given(emitted_series())
    @example(NovikovSeries({1: 3, F(3, 2): 1}, 2).truncate(1))
    @example(NovikovSeries({F(1, 2): 1}, 3) * NovikovSeries({F(1, 2): -2}, 3))
    @example(NovikovSeries({F(2, 3): 2}, 3).inverse())
    @example(NovikovSeries({F(1, 3): 1}, 2) - NovikovSeries({F(1, 3): 1}, 2))
    @example(NovikovSeries.zero(F(5, 2)))
    def test_emit_matches_the_fraction_route(self, series):
        assert series_to_obj(series) == series_to_obj_reference(series)
        out = io.StringIO()
        with redirect_stdout(out):
            cli._emit_series(series, None)
        assert out.getvalue() == series_lines_reference(series)

    def test_examples_cover_each_shape(self):
        # the @example inputs above: q not minimal, negative keys with a
        # Fraction coefficient, and zero on a grid with q > 1
        assert NovikovSeries({1: 3, F(3, 2): 1}, 2).truncate(1)._q == 2
        inverse = NovikovSeries({F(2, 3): 2}, 3).inverse()
        assert inverse._terms == {-2: F(1, 2)}
        zero = NovikovSeries({F(1, 3): 1}, 2) - NovikovSeries({F(1, 3): 1}, 2)
        assert not zero and zero._q == 3

    @IO_PROPERTY
    @given(series_files())
    @example({"terms": [{"exponent": "6/4", "coefficient": "007"},
                        {"exponent": "4/2", "coefficient": "-6/4"}],
              "cutoff": "4/2"})
    @example({"terms": [{"exponent": "-0", "coefficient": "1/999999937"},
                        {"exponent": "1/1000000007", "coefficient": "-2"}],
              "cutoff": "1"})
    @example({"cutoff": "1"})
    def test_decode_matches_the_checked_loop(self, obj):
        assert _series_direct(obj) is not None or not obj.get("terms")
        assert decoded(series_from_obj, obj) == \
            decoded(series_from_obj_reference, obj)

    def test_mangles_reach_both_branches(self):
        for mangle, expected in [
                (ARABIC_ONE, "series.terms[0].exponent: expected a rational "
                             "'p/q' string, got '\u0661'"),
                (RESPELLED, stored(NovikovSeries({1: 2}, 2)))]:
            obj = {"terms": [{"exponent": "1", "coefficient": "3"}],
                   "cutoff": "2"}
            mangle(obj, 0)
            assert decoded(series_from_obj, obj) == expected
            assert decoded(series_from_obj_reference, obj) == expected

    # Every mangle, each on files of its own: drawn from one list, six of
    # the mangles were never met.
    @pytest.mark.parametrize("mangle", MANGLES)
    @settings(IO_PROPERTY, max_examples=20)
    @given(obj=series_files().filter(lambda obj: obj["terms"]),
           k=st.integers(0, 7))
    def test_mangled_files_get_the_checked_loop_message(self, mangle, obj, k):
        mangle(obj, k % len(obj["terms"]))
        expected = decoded(series_from_obj_reference, obj)
        assert decoded(series_from_obj, obj) == expected
        if isinstance(expected, str):
            assert _series_direct(obj) is None


# -- complex files, a column at a time --------------------------------------
#
# complex_from_obj takes a well-formed file through a direct pass; it must
# build what the record loop in helpers.py builds, bit for bit, and leave
# every malformed file to that loop and its message.


@st.composite
def complex_files(draw):
    """A well-formed complex file: a random valid complex with its levels
    shifted over mixed denominators, some below 0; fractional and
    negative coefficients, each entry split in two parts (one may be 0),
    a pair of entries that cancel to zero, all shuffled, every value
    spelled in a random valid form; or the same with the differential
    empty or left out, or with no generators."""
    rng = fresh_rng(draw(st.integers(0, 2**32)))
    complex_, _ = random_complex(rng, max_gens=10)
    shift = F(draw(st.integers(-40, 0)), draw(st.sampled_from(IO_DENOMINATORS)))
    labels = complex_.labels
    entries = []
    for x, y, c in boundary_entries(complex_):
        part = F(draw(st.integers(-5, 5)), draw(st.sampled_from((1, 2, 3))))
        entries += [(x, y, c - part), (x, y, part)]
    if labels:
        x, y = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        entries += [(x, y, F(7, 4)), (x, y, F(-7, 4))]
    rng.shuffle(entries)
    obj = {"generators": [{"label": x, "eps": e, "filtration": spell(draw, f + shift)}
                          for x, e, f in zip(labels, complex_.eps,
                                             complex_.filtrations)],
           "differential": [{"from": x, "to": y, "coeff": spell(draw, c)}
                            for x, y, c in entries]}
    shape = draw(st.sampled_from(("full", "full", "full", "no differential",
                                  "empty differential")))
    if shape == "no differential":
        del obj["differential"]
    elif shape == "empty differential":
        obj["differential"] = []
    return obj


def complex_outcome(decode, obj):
    """The stored bits of the complex, or the class and text of what the
    decoder raised."""
    try:
        return complex_bits(decode(obj))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def in_list(key, change):
    """A mangle of entry k of obj[key]; a no-op when that list is empty."""
    def mangle(obj, k):
        entries = obj.get(key)
        if entries:
            change(entries, k % len(entries))
    return mangle


def field(key, name, value):
    return in_list(key, lambda entries, k: entries[k].__setitem__(name, value))


def rename(key, old, new):
    return in_list(key, lambda entries, k: entries[k].__setitem__(
        new, entries[k].pop(old)))


GENS, EDGES = "generators", "differential"

# Each changes one entry (or the whole file) of a well-formed file; the
# result may still be well formed, and then both decoders must agree on
# the complex, or on the error its constructor raises.
COMPLEX_MANGLES = [
    field(GENS, "label", ["x"]), field(GENS, "label", 1),
    field(GENS, "label", "g0"),
    field(GENS, "eps", True), field(GENS, "eps", 2), field(GENS, "eps", "0"),
    field(GENS, "eps", [0]),
    field(GENS, "filtration", "1\n"), field(GENS, "filtration", 1),
    field(GENS, "filtration", "1\n2"), field(GENS, "filtration", ""),
    field(GENS, "filtration", "1/0"), field(GENS, "filtration", " 1"),
    field(GENS, "filtration", "1" + "0" * 5000),
    field(GENS, "filtration", "-3/" + "7" * 5000),
    rename(GENS, "filtration", "filtraton"), field(GENS, "extra", 0),
    in_list(GENS, lambda entries, k: entries[k].pop("eps")),
    in_list(GENS, lambda entries, k: entries.__setitem__(k, ["x", 0, "1"])),
    in_list(GENS, lambda entries, k: entries.__setitem__(k, "abc")),
    in_list(GENS, lambda entries, k: entries.insert(k, dict(entries[k]))),
    field(EDGES, "from", ["x"]), field(EDGES, "to", ["x"]),
    field(EDGES, "to", "ghost"), field(EDGES, "from", 3),
    field(EDGES, "coeff", "1\n"), field(EDGES, "coeff", 1),
    field(EDGES, "coeff", "x"), field(EDGES, "coeff", "0"),
    field(EDGES, "coeff", "9" * 5000), rename(EDGES, "coeff", "coef"),
    in_list(EDGES, lambda entries, k: entries.__setitem__(k, ("x", "y", "1"))),
    lambda obj, k: obj.update(extra=[]),
    lambda obj, k: obj.update(generators=tuple(obj["generators"])),
    lambda obj, k: obj.update(generators={}),
    lambda obj, k: obj.update(differential=None),
    lambda obj, k: obj.update(differential="x"),
]


class TestComplexDirect:
    @IO_PROPERTY
    @given(complex_files())
    @example({"generators": []})
    @example({"generators": [], "differential": []})
    @example({"generators": [{"label": "x", "eps": 0, "filtration": "-6/4"}]})
    def test_decode_matches_the_record_loop(self, obj):
        assert _complex_direct(obj) is not None
        assert complex_outcome(complex_from_obj, obj) == \
            complex_outcome(complex_from_obj_reference, obj)

    # Every mangle, each on files of its own: drawn from one list, the
    # mangles late in it would rarely be met.
    @pytest.mark.parametrize("mangle", COMPLEX_MANGLES)
    @settings(IO_PROPERTY, max_examples=20)
    @given(obj=complex_files(), k=st.integers(0, 20))
    def test_mangled_files_get_the_record_loop_outcome(self, mangle, obj, k):
        mangle(obj, k)
        expected = complex_outcome(complex_from_obj_reference, obj)
        assert complex_outcome(complex_from_obj, obj) == expected
        if expected[0] == "SchemaError":
            assert _complex_direct(obj) is None


# -- complexes on the int grid ----------------------------------------------
#
# The direct pass puts the filtrations of a file on int keys without a
# Fraction each; they must be the keys novikov.grid gives on the Fractions,
# and zeta_persistence must count on them what the Fraction route counts.

SPELLED_LEVELS = {"generators": [
    {"label": "a", "eps": 0, "filtration": "-0"},
    {"label": "b", "eps": 1, "filtration": "6/4"},
    {"label": "c", "eps": 0, "filtration": "-003/2"},
    {"label": "d", "eps": 1, "filtration": "0/3"},
    {"label": "e", "eps": 0, "filtration": "007"}]}


class TestComplexIntGrid:
    @IO_PROPERTY
    @given(complex_files())
    @example(SPELLED_LEVELS)
    @example({"generators": [{"label": "x", "eps": 0, "filtration": "6/4"}]})
    @example({"generators": [{"label": "x", "eps": 1, "filtration": "-0/3"}]})
    def test_keys_are_the_fraction_grid(self, obj):
        direct, reference = _complex_direct(obj), complex_from_obj_reference(obj)
        assert (direct.q, direct.keys) == (reference.q, reference.keys)
        for complex_ in (direct, reference):
            assert (complex_.q, complex_.keys) == \
                novikov.grid(complex_.filtrations)

    @IO_PROPERTY
    @given(complex_files())
    @example(SPELLED_LEVELS)
    def test_zeta_matches_the_fraction_route(self, obj):
        complex_ = complex_from_obj(obj)
        cutoffs = probe_levels(complex_from_obj_reference(obj)) + [F(1, 7)]
        zetas = [stored(zeta_persistence(complex_, cut)) for cut in cutoffs]
        assert zetas == [stored(zeta_persistence_reference(complex_, cut))
                         for cut in cutoffs]

    def test_zeta_builds_no_filtration_list(self, monkeypatch, tmp_path):
        # The persistence jobs run on the int keys alone: with the Fraction
        # views FilteredComplex.filtrations and Barcode.bars made to raise,
        # the library calls still run and the CLI cases print their golden
        # bytes.
        def refuse(self):
            raise AssertionError(f"a persistence job read {type(self).__name__}"
                                 " as Fractions")
        rng = fresh_rng(611)
        objs = [scaled_complex_file(rng, shifted_to_zero(
                    planted_complex(rng, n)[0] if n else random_complex(rng)[0]))
                for n in range(0, 400, 20)]
        jobs = []
        with monkeypatch.context() as patched:
            patched.setattr(FilteredComplex, "filtrations", property(refuse))
            patched.setattr(Barcode, "bars", property(refuse))
            for obj in objs:
                complex_ = complex_from_obj(obj)
                for cutoff in (-1, 0, F(7, 3), 10**6):
                    zeta_persistence(complex_, cutoff)
                barcode = barcode_decompose(complex_)
                barcode_to_obj(barcode)
                jobs.append((obj, complex_, barcode))
            dirs = {"data": DATA, "golden": GOLDEN, "tmp": tmp_path}
            for name, argv in CASES:
                if argv[0] not in ("barcode", "zeta-persistence"):
                    continue
                argv = [arg.format(**dirs) for arg in argv]
                out = io.StringIO()
                with redirect_stdout(out):
                    assert cli.main(argv) == 0
                assert out.getvalue() == \
                    (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
                assert (tmp_path / f"{name}.json").read_text(encoding="utf-8") \
                    == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        for obj, complex_, barcode in jobs:
            # each generator is the birth or the death of one bar
            ends = [end for bar in barcode for end in (bar.birth, bar.death)
                    if end is not None]
            assert {type(end) for end in ends} <= {F}
            assert sorted(ends) == sorted(complex_.filtrations)
            assert complex_.filtrations == \
                [F(entry["filtration"]) for entry in obj["generators"]]


# -- barcodes from the int keys ----------------------------------------------
#
# barcode_to_obj formats each distinct key of the rows once; the text must
# be what str() of the endpoint Fractions gave, on levels spelled scaled
# over mixed denominators, some a thousand digits long and coprime.

HUGE = 10**1000 + 1     # odd, so HUGE and HUGE + 2 are coprime
BAR_DENOMINATORS = (1, 2, 3, 4, 6, HUGE, HUGE + 2)


def relevelled(rng, complex_: FilteredComplex) -> FilteredComplex:
    """The complex with its i-th distinct level moved to i + r/den, for a
    den drawn from BAR_DENOMINATORS and 0 <= r < den: the order of the
    levels, their ties and so the barcode's pairing stay the same."""
    levels = sorted(set(complex_.filtrations))
    moved = {}
    for i, level in enumerate(levels):
        den = rng.choice(BAR_DENOMINATORS)
        moved[level] = i + F(rng.randrange(den), den)
    return FilteredComplex(zip(complex_.labels, complex_.eps,
                               [moved[f] for f in complex_.filtrations]),
                           boundary_entries(complex_))


class TestBarcodeText:
    def test_text_matches_the_fraction_route(self):
        rng = fresh_rng(2203)
        for n in range(0, 300, 15):
            complex_ = planted_complex(rng, n)[0] if n else random_complex(rng)[0]
            if n % 2:
                complex_ = relevelled(rng, complex_)
            obj = scaled_complex_file(rng, shifted_to_zero(complex_))
            barcode = barcode_decompose(complex_from_obj(obj))
            records = barcode_to_obj(barcode)
            assert _barcode_text(records) == barcode_text_reference(barcode)
            assert barcode_from_obj(records) == barcode
            assert Barcode(list(barcode)) == barcode
            assert Barcode(reversed(list(barcode))) == barcode

    def test_palette_reaches_huge_coprime_denominators(self):
        rng = fresh_rng(2203)
        complex_ = relevelled(rng, planted_complex(rng, 120)[0])
        dens = {f.denominator for f in complex_.filtrations}
        assert {HUGE, HUGE + 2} <= dens
        assert novikov.grid(complex_.filtrations)[0] % (HUGE * (HUGE + 2)) == 0


# -- coefficient columns -----------------------------------------------------
#
# The direct passes read a column of coefficient texts through _coeffs: it
# must give what the record loop's _ratio gives text by text, stored as an
# int when whole as FilteredComplex and series store it, or raise, and then
# the file goes to the record loop and its message.

COEFF_PALETTE = ["+1", " 1", "1_000", "\u0661", "1.0", "1e3", "-0", "0",
                 "3/1", "6/4", "-10/4", "1\n", "1\n2", 1, None,
                 "9" * 5000, "-7", "007"]


def column_outcome(parse, texts):
    try:
        return [(type(c), c) for c in parse(texts)]
    except (TypeError, ValueError):
        return "raises"


def record_loop_column(texts):
    return [novikov._norm_coeff(_ratio(text)) for text in texts]


@pytest.mark.parametrize("text", COEFF_PALETTE, ids=repr)
class TestCoefficientColumn:
    COLUMNS = (lambda t: [t], lambda t: ["2", t, "-5"],
               lambda t: ["1/2", t], lambda t: [t, t])

    def test_column_matches_the_record_loop(self, text):
        for column in self.COLUMNS:
            texts = column(text)
            assert column_outcome(_coeffs, texts) == \
                column_outcome(record_loop_column, texts)

    def test_series_file(self, text):
        for column in self.COLUMNS:
            obj = {"terms": [{"exponent": str(k), "coefficient": c}
                             for k, c in enumerate(column(text))],
                   "cutoff": "9"}
            expected = decoded(series_from_obj_reference, obj)
            assert decoded(series_from_obj, obj) == expected
            if isinstance(expected, str):
                assert _series_direct(obj) is None

    def test_complex_file(self, text):
        gens = [{"label": x, "eps": e, "filtration": level}
                for x, e, level in (("x", 1, "2"), ("y", 0, "1"),
                                    ("z", 0, "-1/2"))]
        for column in self.COLUMNS:
            obj = {"generators": gens, "differential": [
                {"from": "x", "to": y, "coeff": c}
                for y, c in zip("yzyz", column(text))]}
            expected = complex_outcome(complex_from_obj_reference, obj)
            assert complex_outcome(complex_from_obj, obj) == expected
            if expected[0] == "SchemaError":
                assert _complex_direct(obj) is None

