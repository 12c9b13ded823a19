"""Command line front end: golden outputs, exit codes, determinism."""

import json
from fractions import Fraction as F

import pytest

from helpers import fresh_rng, random_ratio
from reebzeta import Bar, Barcode, cli, orbits
from reebzeta.novikov import NovikovSeries
from reebzeta.serialize import barcode_to_obj

ORBITS_EN = [
    {"label": "e", "action": "1", "type": "elliptic"},
    {"label": "n", "action": "1", "type": "neg-hyperbolic"},
]

MORSE_SADDLE = [
    {"label": "min", "action": "1", "index": 0},
    {"label": "sad", "action": "3/2", "index": 1},
    {"label": "max", "action": "3", "index": 2},
    {"label": "pad", "action": "4", "index": 0},
]

COMPLEX_PAIR = {
    "generators": [
        {"label": "x", "eps": 1, "filtration": "2"},
        {"label": "y", "eps": 0, "filtration": "1"},
    ],
    "differential": [{"from": "x", "to": "y", "coeff": "1"}],
}


LONG = "L" * 100_000


def generator(label, eps, filtration):
    return {"label": label, "eps": eps, "filtration": filtration}


def entry(x, y, coeff="1"):
    return {"from": x, "to": y, "coeff": coeff}


# (subcommand and flags, input file, error class): one input per
# constructor message that quotes a label, the label 100,000 characters.
LONG_LABEL_CASES = [
    (["zeta-orbits", "--cutoff", "2"],
     [{"label": LONG, "action": "-1", "type": "elliptic"}], "NonPositiveAction"),
    (["zeta-orbits", "--cutoff", "2"],
     [{"label": LONG, "action": "1", "eps1": 0, "eps2": 0}] * 2,
     "DuplicateLabel"),
    (["zeta-s1", "--cutoff", "2"],
     [{"label": LONG, "action": "-1", "index": 0}], "NonPositiveAction"),
    (["barcode"], {"generators": [generator(LONG, 0, "1")] * 2},
     "DuplicateLabel"),
    (["barcode"],
     {"generators": [generator(LONG, 1, "2"), generator("y", 1, "1")],
      "differential": [entry(LONG, "y")]}, "GradingViolation"),
    (["zeta-persistence", "--cutoff", "2"],
     {"generators": [generator("x", 1, "1"), generator(LONG, 0, "1")],
      "differential": [entry("x", LONG)]}, "FiltrationViolation"),
    (["zeta-persistence", "--cutoff", "2"],
     {"generators": [generator(LONG, 1, "3"), generator("y", 0, "2"),
                     generator("w", 1, "1")],
      "differential": [entry(LONG, "y"), entry("y", "w", "-2")]},
     "NotSquareZero"),
]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_zeta_toric(self, capsys):
        code, out, err = run(capsys, "zeta-toric", "--a", "1", "--b", "1",
                             "--cutoff", "3")
        assert code == 0 and err == ""
        assert out == "0\t1\n1\t2\n2\t3\n3\t4\ncutoff\t3\n"

    def test_zeta_orbits_both(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json", ORBITS_EN)
        code, out, _ = run(capsys, "zeta-orbits", path, "--cutoff", "2")
        assert code == 0
        assert out == "0\t1\n1\t2\n2\t2\ncutoff\t2\n"

    def test_zeta_s1_and_distinguish(self, tmp_path, capsys):
        morse = write(tmp_path, "morse.json", MORSE_SADDLE)
        series = str(tmp_path / "zeta.json")
        code, out, _ = run(capsys, "zeta-s1", morse, "--cutoff", "2",
                           "--out", series)
        assert code == 0
        assert out == "0\t1\n1\t1\n3/2\t-1\n2\t1\ncutoff\t2\n"
        code, out, _ = run(capsys, "distinguish", series, "--cutoff", "2")
        assert code == 0
        assert out == "NotToricInterior\t3/2\n"

    def test_distinguish_inconclusive_on_toric(self, tmp_path, capsys):
        series = str(tmp_path / "toric.json")
        run(capsys, "zeta-toric", "--a", "1", "--b", "2", "--cutoff", "4",
            "--out", series)
        code, out, _ = run(capsys, "distinguish", series, "--cutoff", "4")
        assert code == 0 and out == "Inconclusive\n"

    def test_barcode(self, tmp_path, capsys):
        path = write(tmp_path, "cx.json", COMPLEX_PAIR)
        code, out, _ = run(capsys, "barcode", path)
        assert code == 0
        assert json.loads(out) == [{"birth": "1", "death": "2", "eps": 0}]

    def test_barcode_text_is_the_json_text(self):
        # the templated emit against json.dumps, on empty barcodes and on
        # bars with negative births, fractions and infinite deaths
        rng = fresh_rng(117)
        barcodes = [Barcode()]
        for _ in range(60):
            bars = []
            for _ in range(rng.randint(0, 6)):
                birth = random_ratio(rng, lo=-5, hi=5)
                death = (None if rng.random() < 0.3
                         else birth + random_ratio(rng, lo=0, hi=3) + F(1, 9))
                bars.append(Bar(birth, death, rng.randint(0, 1)))
            barcodes.append(Barcode(bars))
        assert any(bar.birth < 0 and bar.death is None
                   for barcode in barcodes for bar in barcode)
        for barcode in barcodes:
            records = barcode_to_obj(barcode)
            assert cli._barcode_text(records) == \
                json.dumps(records, indent=2) + "\n"

    def test_zeta_persistence(self, tmp_path, capsys):
        path = write(tmp_path, "cx.json", COMPLEX_PAIR)
        code, out, _ = run(capsys, "zeta-persistence", path, "--cutoff", "3")
        assert code == 0
        assert out == "1\t1\n2\t-1\ncutoff\t3\n"

    def test_mobius_transform(self, tmp_path, capsys):
        series = write(tmp_path, "tower.json", {
            "terms": [{"exponent": str(k), "coefficient": "1"}
                      for k in (1, 2, 3, 4)],
            "cutoff": "4"})
        code, out, _ = run(capsys, "mobius-transform", series, "--cutoff", "4")
        assert code == 0
        assert out == "0\t1\n1\t1\n2\t1\n3\t1\n4\t1\ncutoff\t4\n"


class TestCompare:
    def test_exp_vs_product_forms_equal(self, tmp_path, capsys):
        orbit_file = write(tmp_path, "orbits.json",
                           [{"label": "e", "action": "1", "type": "elliptic"}])
        exp_path = str(tmp_path / "exp.json")
        prod_path = str(tmp_path / "prod.json")
        run(capsys, "zeta-orbits", orbit_file, "--cutoff", "5",
            "--form", "exp", "--out", exp_path)
        run(capsys, "zeta-orbits", orbit_file, "--cutoff", "5",
            "--form", "product", "--out", prod_path)
        code, out, _ = run(capsys, "compare", exp_path, prod_path,
                           "--cutoff", "5")
        assert code == 0 and out == "EQUAL\n"

    def test_first_difference_reported(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {
            "terms": [{"exponent": "1", "coefficient": "2"}], "cutoff": "3"})
        b = write(tmp_path, "b.json", {
            "terms": [{"exponent": "1", "coefficient": "1"},
                      {"exponent": "2", "coefficient": "9"}], "cutoff": "3"})
        code, out, _ = run(capsys, "compare", a, b, "--cutoff", "3")
        assert code == 0
        assert out == "DIFFER\t1\t2\t1\n"

    def test_truncates_before_comparing(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {
            "terms": [{"exponent": "1", "coefficient": "1"}], "cutoff": "3"})
        b = write(tmp_path, "b.json", {
            "terms": [{"exponent": "1", "coefficient": "1"},
                      {"exponent": "3", "coefficient": "5"}], "cutoff": "3"})
        code, out, _ = run(capsys, "compare", a, b, "--cutoff", "2")
        assert code == 0 and out == "EQUAL\n"


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "zeta-orbits", str(tmp_path / "nope.json"),
                           "--cutoff", "2")
        assert code == 1 and "error" in err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "zeta-orbits", str(path), "--cutoff", "2")
        assert code == 1 and "bad.json" in err

    def test_schema_violation_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "1", "type": "parabolic"}])
        code, _, err = run(capsys, "zeta-orbits", str(path), "--cutoff", "2")
        assert code == 1 and "type" in err

    def test_invalid_complex_is_parse_error(self, tmp_path, capsys):
        bad = {"generators": [{"label": "x", "eps": 1, "filtration": "1"},
                              {"label": "y", "eps": 0, "filtration": "1"}],
               "differential": [{"from": "x", "to": "y", "coeff": "1"}]}
        path = write(tmp_path, "cx.json", bad)
        code, _, err = run(capsys, "barcode", path)
        assert code == 1 and "FiltrationViolation" in err

    def test_invalid_complex_message_is_unchanged(self, tmp_path, capsys):
        # One complex per check in validate(); each subcommand runs twice
        # in the process, so a remembered validation would show.
        cases = [
            ([("x", 1, "1"), ("y", 0, "1")], [("x", "y", "1")],
             "FiltrationViolation: <d 'x', 'y'> = 1 but filtration 1 <= 1"),
            ([("x", 1, "2"), ("y", 1, "1")], [("x", "y", "3/2")],
             "GradingViolation: <d 'x', 'y'> = 3/2 with equal gradings"),
            ([("x", 1, "3"), ("y", 0, "2"), ("w", 1, "1")],
             [("x", "y", "1"), ("y", "w", "-2")],
             "NotSquareZero: <d(d 'x'), 'w'> = -2"),
        ]
        for gens, entries, message in cases:
            bad = {"generators": [{"label": label, "eps": eps, "filtration": f}
                                  for label, eps, f in gens],
                   "differential": [{"from": x, "to": y, "coeff": c}
                                    for x, y, c in entries]}
            path = write(tmp_path, "cx.json", bad)
            expected = f"reebzeta: error: {path}: {message}\n"
            for argv in (["barcode", path],
                         ["zeta-persistence", path, "--cutoff", "2"]) * 2:
                code, out, err = run(capsys, *argv)
                assert (code, out, err) == (1, "", expected)

    def test_boolean_parity_bit_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "1", "eps1": True, "eps2": 0}])
        code, _, err = run(capsys, "zeta-orbits", path, "--cutoff", "2")
        assert code == 1 and "orbits[0].eps1" in err

    def test_boolean_morse_index_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "morse.json",
                     [{"label": "m", "action": "1", "index": False}])
        code, _, err = run(capsys, "zeta-s1", path, "--cutoff", "2")
        assert code == 1 and "morse[0].index" in err

    def test_oversized_rational_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "1" + "0" * 5000,
                       "type": "elliptic"}])
        code, _, err = run(capsys, "zeta-orbits", path, "--cutoff", "2")
        assert code == 1
        assert err.startswith("reebzeta: error:")
        assert "orbits[0].action" in err and "Traceback" not in err

    def test_long_values_are_cut_in_messages(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": list(range(200_000)),
                       "type": "elliptic"}])
        code, out, err = run(capsys, "zeta-orbits", path, "--cutoff", "2")
        assert (code, out) == (1, "")
        assert len(err.encode()) < 300
        assert f"{path}: orbits[0].action: expected a rational 'p/q' string, " \
               "got [0, 1, 2, " in err
        assert err.endswith("...\n")

    def test_ratio_with_a_final_newline_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "1\n", "type": "elliptic"}])
        code, out, err = run(capsys, "zeta-orbits", path, "--cutoff", "2")
        assert (code, out) == (1, "")
        assert f"{path}: orbits[0].action: expected a rational 'p/q' " \
               "string, got '1\\n'" in err

    @pytest.mark.parametrize("argv, obj, error", LONG_LABEL_CASES,
                             ids=[case[2] for case in LONG_LABEL_CASES])
    def test_long_labels_are_cut_in_messages(self, tmp_path, capsys, argv,
                                             obj, error):
        path = write(tmp_path, "input.json", obj)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        assert f"{error}: " in err and f"'{'L' * 76}..." in err
        assert len(err.encode()) < 300

    def test_oversized_json_integer_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "orbits.json"
        path.write_text('[{"label": "x", "action": "1", "eps1": 1'
                        + "0" * 5000 + ', "eps2": 0}]')
        code, _, err = run(capsys, "zeta-orbits", str(path), "--cutoff", "2")
        assert code == 1 and err.startswith("reebzeta: error:")

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "orbits.json"
        path.write_bytes(b"\xff\xfe[]")
        code, _, err = run(capsys, "zeta-orbits", str(path), "--cutoff", "2")
        assert code == 1 and "orbits.json" in err

    def test_nonpositive_action_in_file_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "-1", "type": "elliptic"}])
        code, _, err = run(capsys, "zeta-orbits", str(path), "--cutoff", "2")
        assert code == 1 and "NonPositiveAction" in err

    def test_bad_flag_value_is_parse_error(self, capsys):
        # a fullwidth 3 and an Arabic-Indic 2: int() takes both, the flag not
        for text in ("1.5", "\uff13", "1/1\u0662"):
            code, out, err = run(capsys, "zeta-toric", "--a", text, "--b", "1",
                                 "--cutoff", "2")
            assert (code, out) == (1, "")
            assert err.endswith(f"argument --a: expected a rational like "
                                f"3 or 3/2, got {text!r}\n")

    def test_nonpositive_cutoff_is_parse_error(self, capsys):
        code, _, err = run(capsys, "zeta-toric", "--a", "1", "--b", "1",
                           "--cutoff", "0")
        assert code == 1 and "positive" in err

    @pytest.mark.parametrize("cutoff, shown", [("-1", "-1"), ("0", "0"),
                                               ("-6/4", "-3/2")])
    @pytest.mark.parametrize("command", ["mobius-transform", "distinguish"])
    def test_nonpositive_cutoff_in_series_file_is_parse_error(
            self, tmp_path, capsys, command, cutoff, shown):
        path = write(tmp_path, "series.json", {"cutoff": cutoff})
        code, out, err = run(capsys, command, path, "--cutoff", "1")
        assert (code, out) == (1, "")
        assert err == (f"reebzeta: error: {path}: series.cutoff: "
                       f"must be positive, got {shown}\n")

    def test_compare_beyond_validity_is_math_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"terms": [], "cutoff": "2"})
        b = write(tmp_path, "b.json", {"terms": [], "cutoff": "5"})
        code, _, err = run(capsys, "compare", a, b, "--cutoff", "3")
        assert code == 2 and "validity" in err

    def test_ech_on_higher_dimensional_parities_is_math_error(
            self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json",
                     [{"label": "x", "action": "1", "eps1": 1, "eps2": 0}])
        code, _, err = run(capsys, "zeta-orbits", path, "--cutoff", "2",
                           "--form", "ech")
        assert code == 2 and "NotThreeDimensional" in err

    def test_ech_on_many_orbits(self, tmp_path, capsys):
        # more orbits than the interpreter's recursion limit
        far = write(tmp_path, "far.json",
                    [{"label": f"h{i}", "action": "1000",
                      "type": "pos-hyperbolic"} for i in range(1200)])
        assert run(capsys, "zeta-orbits", far, "--cutoff", "1",
                   "--form", "ech") == (0, "0\t1\ncutoff\t1\n", "")
        near = write(tmp_path, "near.json",
                     [{"label": f"h{i}", "action": "1",
                       "type": "pos-hyperbolic"} for i in range(1100)])
        assert run(capsys, "zeta-orbits", near, "--cutoff", "1",
                   "--form", "ech") == (0, "0\t1\n1\t-1100\ncutoff\t1\n", "")

    def test_fractional_transform_input_is_math_error(self, tmp_path, capsys):
        path = write(tmp_path, "frac.json", {
            "terms": [{"exponent": "1", "coefficient": "1/2"}],
            "cutoff": "3"})
        code, _, err = run(capsys, "mobius-transform", path, "--cutoff", "3")
        assert code == 2 and "NonIntegerCoefficients" in err

    def test_coefficient_past_the_digit_limit_is_math_error(self, tmp_path,
                                                           capsys):
        # The input holds 2,501 digits, under Python's 4,300-digit limit for
        # int text; the transform's t^2 coefficient holds about 5,000.
        path = write(tmp_path, "big.json", {
            "terms": [{"exponent": "1", "coefficient": "1" + "0" * 2500}],
            "cutoff": "3"})
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, "mobius-transform", path,
                                "--cutoff", "3", "--out", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == ("reebzeta: error: TooManyDigits: the coefficient of "
                       "t^2 has more digits than Python's limit of 4300\n")

    def test_form_disagreement_is_consistency_error(self, tmp_path, capsys,
                                                    monkeypatch):
        # The two forms agree mathematically, so force a disagreement to
        # exercise the gate.
        monkeypatch.setattr(
            orbits, "zeta_exp_form",
            lambda orbit_set, cutoff: NovikovSeries({0: 1}, cutoff))
        path = write(tmp_path, "orbits.json", ORBITS_EN)
        assert run(capsys, "zeta-orbits", path, "--cutoff", "2",
                   "--form", "both") == \
            (3, "", "reebzeta: error: exp and product forms disagree at "
                    "t^1: 0 vs 2\n")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "orbits.json", ORBITS_EN)
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "zeta-orbits", path, "--cutoff", "4",
                               "--form", "ech")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_series_file_outputs_are_stable(self, tmp_path, capsys):
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        run(capsys, "zeta-toric", "--a", "3/2", "--b", "2", "--cutoff", "6",
            "--out", first)
        run(capsys, "zeta-toric", "--a", "3/2", "--b", "2", "--cutoff", "6",
            "--out", second)
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()


class TestParserReuse:
    def test_help_is_unchanged_on_every_call(self, capsys):
        expected = cli.build_parser().format_help()
        for _ in range(2):
            code, out, err = run(capsys, "--help")
            assert (code, out, err) == (0, expected, "")

    def test_flag_errors_exit_1_on_every_call(self, capsys):
        results = [run(capsys, "zeta-toric", "--a", "1", "--b", "0",
                       "--cutoff", "3") for _ in range(2)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 1 and out == ""
        assert err.endswith("reebzeta zeta-toric: error: argument --b: "
                            "must be positive, got 0\n")

    def test_one_parser_per_process(self, tmp_path, capsys):
        path = write(tmp_path, "cx.json", COMPLEX_PAIR)
        assert run(capsys, "barcode", path)[0] == 0
        parser = cli.build_parser()
        assert run(capsys, "zeta-persistence", path, "--cutoff", "3") == \
            (0, "1\t1\n2\t-1\ncutoff\t3\n", "")
        assert cli.build_parser() is parser
