"""Command line front end: golden outputs, exit codes, determinism."""

import ast
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (fresh_rng, planted_complex, probe_levels,
                     random_3d_orbit_set, random_complex, random_orbit_set,
                     random_ratio, random_series, scaled_complex_file,
                     shifted_to_zero, stored)
from reebzeta import (Bar, Barcode, MorseData, OrbitSet, SimpleOrbit,
                      ToricDomain, barcode_decompose, cli, mobius_product,
                      orbits, s1_invariant_zeta, serialize, toric_zeta,
                      zeta_persistence)
from reebzeta.novikov import NovikovSeries
from reebzeta.serialize import (barcode_from_obj, barcode_to_obj,
                                series_from_obj)

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
    (["zeta-s1", "--cutoff", "2"],
     [{"label": LONG, "action": "1", "index": 0},
      {"label": LONG, "action": "2", "index": 2}], "DuplicateLabel"),
]


# The text of "reebzeta --help" ("") and of each "<subcommand> --help" at
# COLUMNS=80, where argparse wraps alike on Python 3.10, 3.11 and 3.12.
HELP = {
    "": """\
usage: reebzeta [-h] command ...

Batch command line front end.

positional arguments:
  command
    zeta-orbits     zeta function of an orbit set file
    zeta-toric      zeta of a toric domain from axis actions
    zeta-s1         zeta of a circle-invariant domain from a Morse data file
    barcode         barcode of a filtered complex file
    zeta-persistence
                    zeta of the persistence module of a complex file
    mobius-transform
                    Moebius product transform of an integer series file
    compare         compare two series files up to a cutoff
    distinguish     test a zeta series file against the toric form

options:
  -h, --help        show this help message and exit
""",
    "zeta-orbits": """\
usage: reebzeta zeta-orbits [-h] --cutoff p/q [--form {exp,product,ech,both}]
                            [--out PATH]
                            file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --cutoff p/q          action cutoff (positive rational)
  --form {exp,product,ech,both}
                        computation route; 'both' runs exp and product and
                        fails if they disagree (default)
  --out PATH            also write the result as a JSON series file
""",
    "zeta-toric": """\
usage: reebzeta zeta-toric [-h] --a p/q --b p/q --cutoff p/q [--out PATH]

options:
  -h, --help    show this help message and exit
  --a p/q
  --b p/q
  --cutoff p/q  action cutoff (positive rational)
  --out PATH    also write the result as a JSON series file
""",
    "zeta-s1": """\
usage: reebzeta zeta-s1 [-h] --cutoff p/q [--out PATH] file

positional arguments:
  file

options:
  -h, --help    show this help message and exit
  --cutoff p/q  action cutoff (positive rational)
  --out PATH    also write the result as a JSON series file
""",
    "barcode": """\
usage: reebzeta barcode [-h] [--out PATH] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --out PATH  also write the barcode as a JSON file
""",
    "zeta-persistence": """\
usage: reebzeta zeta-persistence [-h] --cutoff p/q [--out PATH] file

positional arguments:
  file

options:
  -h, --help    show this help message and exit
  --cutoff p/q  action cutoff (positive rational)
  --out PATH    also write the result as a JSON series file
""",
    "mobius-transform": """\
usage: reebzeta mobius-transform [-h] --cutoff p/q [--out PATH] file

positional arguments:
  file

options:
  -h, --help    show this help message and exit
  --cutoff p/q  action cutoff (positive rational)
  --out PATH    also write the result as a JSON series file
""",
    "compare": """\
usage: reebzeta compare [-h] --cutoff p/q file_a file_b

positional arguments:
  file_a
  file_b

options:
  -h, --help    show this help message and exit
  --cutoff p/q  action cutoff (positive rational)
""",
    "distinguish": """\
usage: reebzeta distinguish [-h] --cutoff p/q file

positional arguments:
  file

options:
  -h, --help    show this help message and exit
  --cutoff p/q  action cutoff (positive rational)
""",
}

# argparse 3.13 counts a subcommand's own indent in the width of the
# command column, which then fits zeta-persistence and mobius-transform.
if sys.version_info >= (3, 13):
    HELP[""] = """\
usage: reebzeta [-h] command ...

Batch command line front end.

positional arguments:
  command
    zeta-orbits       zeta function of an orbit set file
    zeta-toric        zeta of a toric domain from axis actions
    zeta-s1           zeta of a circle-invariant domain from a Morse data file
    barcode           barcode of a filtered complex file
    zeta-persistence  zeta of the persistence module of a complex file
    mobius-transform  Moebius product transform of an integer series file
    compare           compare two series files up to a cutoff
    distinguish       test a zeta series file against the toric form

options:
  -h, --help          show this help message and exit
"""


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
            assert serialize._barcode_text(records) == \
                json.dumps(records, indent=2) + "\n"
            assert all(json.dumps(r[key]) == f'"{r[key]}"'
                       for r in records for key in ("birth", "death"))

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


def bar_bits(barcode) -> list:
    return [(type(bar.birth), bar.birth, type(bar.death), bar.death, bar.eps)
            for bar in barcode]


class TestPersistenceFilesReadBack:
    """What ``barcode --out`` and ``zeta-persistence --out`` write reads
    back as the library's own result, bit for bit: seeded complexes with
    levels at 0 and below, spelled in scaled forms such as "6/4"."""

    def test_barcode_and_zeta_files(self, tmp_path, capsys):
        rng = fresh_rng(919)
        for k in range(16):
            complex_ = shifted_to_zero(planted_complex(rng, 60)[0] if k % 2
                                       else random_complex(rng)[0])
            path = write(tmp_path, f"cx{k}.json",
                         scaled_complex_file(rng, complex_))
            out = tmp_path / f"out{k}.json"
            assert run(capsys, "barcode", path, "--out", str(out))[0] == 0
            assert bar_bits(barcode_from_obj(json.loads(out.read_text()))) \
                == bar_bits(barcode_decompose(complex_))
            cutoff = rng.choice([c for c in probe_levels(complex_) if c > 0]
                                or [F(1, 3)])
            assert run(capsys, "zeta-persistence", path, "--cutoff",
                       str(cutoff), "--out", str(out))[0] == 0
            assert stored(series_from_obj(json.loads(out.read_text()))) == \
                stored(zeta_persistence(complex_, cutoff))


def orbit_file(orbit_set) -> list:
    return [{"label": o.label, "action": str(o.action), "eps1": o.eps1,
             "eps2": o.eps2} for o in orbit_set]


class TestSeriesFilesReadBack:
    """What each series subcommand writes with ``--out`` reads back as the
    library's own result, bit for bit, and ``compare`` finds the file equal
    to itself: seeded orbit sets under every form (some on the fine grid
    1/120), toric domains, Morse data, complexes, and Moebius inputs with
    negative and cancelling counts."""

    def cases(self, rng, tmp_path):
        """(argv without --out, the library's series) of each subcommand."""
        cutoff = F(rng.randint(3, 18), rng.choice((1, 2, 3)))
        form = rng.choice(("exp", "product", "both"))
        orbit_set = random_orbit_set(rng, max_orbits=4)
        route = {"exp": orbits.zeta_exp_form}.get(form, orbits.zeta_product_form)
        fine = OrbitSet(SimpleOrbit(f"f{i}", F(rng.randint(1, 12), 120),
                                    *rng.choice(((0, 0), (1, 0), (1, 1))))
                        for i in range(rng.randint(1, 4)))
        ech = random_3d_orbit_set(rng, max_orbits=3)
        a, b = random_ratio(rng, lo=1, hi=3), random_ratio(rng, lo=1, hi=3)
        n_min, n_max = rng.randint(1, 3), rng.randint(1, 3)
        morse = MorseData([(f"p{i}", random_ratio(rng, lo=1, hi=5), index)
                           for i, index in enumerate(
                               [0] * n_min + [1] * (n_min + n_max - 2)
                               + [2] * n_max)])
        complex_ = random_complex(rng)[0]
        counts = [random_series(rng, cutoff, positive=True, integer=True)
                  for _ in range(3)]
        counts = counts[0] * counts[1] - counts[2]
        files = {name: write(tmp_path, f"{name}.json", obj) for name, obj in
                 [("orbits", orbit_file(orbit_set)), ("fine", orbit_file(fine)),
                  ("ech", orbit_file(ech)),
                  ("morse", [{"label": p.label, "action": str(p.action),
                              "index": p.index} for p in morse]),
                  ("complex", scaled_complex_file(rng, complex_)),
                  ("counts", serialize.series_to_obj(counts))]}
        text = str(cutoff)
        return [
            (["zeta-orbits", files["orbits"], "--cutoff", text, "--form", form],
             route(orbit_set, cutoff)),
            (["zeta-orbits", files["fine"], "--cutoff", "1", "--form", form],
             route(fine, 1)),
            (["zeta-orbits", files["ech"], "--cutoff", text, "--form", "ech"],
             orbits.zeta_ech_form(ech, cutoff)),
            (["zeta-toric", "--a", str(a), "--b", str(b), "--cutoff", text],
             toric_zeta(ToricDomain(a, b), cutoff)),
            (["zeta-s1", files["morse"], "--cutoff", text],
             s1_invariant_zeta(morse, cutoff)),
            (["zeta-persistence", files["complex"], "--cutoff", text],
             zeta_persistence(complex_, cutoff)),
            (["mobius-transform", files["counts"], "--cutoff", text],
             mobius_product(counts, cutoff)),
        ]

    def test_series_files(self, tmp_path, capsys):
        rng = fresh_rng(2020)
        out = str(tmp_path / "out.json")
        for _ in range(16):
            for argv, expected in self.cases(rng, tmp_path):
                assert run(capsys, *argv, "--out", out)[0] == 0, argv
                with open(out, encoding="utf-8") as handle:
                    assert stored(series_from_obj(json.load(handle))) == \
                        stored(expected), argv
                cutoff = str(expected.cutoff)
                assert run(capsys, "compare", out, out, "--cutoff", cutoff) \
                    == (0, "EQUAL\n", "")


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

    @pytest.mark.parametrize("argv, obj", [
        (["zeta-orbits", "--cutoff", "2"], ORBITS_EN),
        (["barcode"], COMPLEX_PAIR),
    ], ids=["series", "barcode"])
    def test_failed_out_write_prints_no_result(self, tmp_path, capsys, argv,
                                               obj):
        # The --out file is written before stdout, so exit 1 comes with
        # nothing on stdout and one line naming the path on stderr.
        path = write(tmp_path, "input.json", obj)
        out_path = str(tmp_path / "no-such-dir" / "x.json")
        code, out, err = run(capsys, argv[0], path, *argv[1:],
                             "--out", out_path)
        assert (code, out) == (1, "")
        assert err.startswith("reebzeta: error: ") and out_path in err
        assert err.count("\n") == 1 and err.endswith("\n")

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

    BEYOND = ("reebzeta: error: BeyondValidity: cutoff 3 exceeds the "
              "validity 2 of the series\n")

    def test_compare_beyond_validity_is_math_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"terms": [], "cutoff": "2"})
        b = write(tmp_path, "b.json", {"terms": [], "cutoff": "5"})
        for files in ([a, b], [b, a]):
            code, out, err = run(capsys, "compare", *files, "--cutoff", "3")
            assert (code, out, err) == (2, "", self.BEYOND)

    def test_distinguish_beyond_validity_is_math_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"terms": [], "cutoff": "2"})
        code, out, err = run(capsys, "distinguish", a, "--cutoff", "3")
        assert (code, out, err) == (2, "", self.BEYOND)

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

    @pytest.mark.parametrize("form", [None, "exp", "product", "ech", "both"])
    def test_exponent_past_the_digit_limit_is_math_error(self, tmp_path,
                                                         capsys, form):
        # With P = 10^2500 + 1 and Q = P + 1 every input holds 2,501 digits,
        # but the result's fifth term, t^(1/P + 1/Q), has a 5,001-digit
        # denominator: the toric zeta, or two elliptic orbits (form None
        # runs zeta-toric).
        p = 10 ** 2500 + 1
        a, b = f"1/{p}", f"1/{p + 1}"
        if form is None:
            argv = ["zeta-toric", "--a", a, "--b", b]
        else:
            path = write(tmp_path, "orbits.json", [
                {"label": "a", "action": a, "type": "elliptic"},
                {"label": "b", "action": b, "type": "elliptic"}])
            argv = ["zeta-orbits", path, "--form", form]
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, *argv, "--cutoff", f"2/{p}",
                                "--out", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == ("reebzeta: error: TooManyDigits: the exponent of "
                       "terms[4] has more digits than Python's limit of 4300\n")

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
            (3, "", "reebzeta: error: InternalError: exp and product forms "
                    "disagree at t^1: 0 vs 2\n")

    def test_exit_codes_are_named_only_in_main_and_the_parser(self):
        # An exception becomes an exit code in main alone (a flag error in
        # _Parser.error), so no subcommand can grow a second exit path.
        codes = {"PARSE_ERROR", "MATH_ERROR", "CONSISTENCY_ERROR"}

        class Namers(ast.NodeVisitor):
            def __init__(self):
                self.scope, self.found = [], set()

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_ClassDef = visit_FunctionDef

            def visit_Name(self, node):
                if node.id in codes and isinstance(node.ctx, ast.Load):
                    self.found.add(".".join(self.scope) or "module level")

        namers = Namers()
        namers.visit(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
        assert namers.found == {"main", "_Parser.error"}


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
    @pytest.mark.parametrize("command", HELP, ids=lambda c: c or "reebzeta")
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        assert run(capsys, *argv) == (0, HELP[command], "")

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
