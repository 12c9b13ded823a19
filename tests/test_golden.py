"""Golden CLI outputs: every subcommand on the committed demo inputs must
print exactly the bytes stored under tests/golden/, and every ``--out``
file must match its stored copy.

The cases run in order in one scratch directory, so later cases (compare,
distinguish) read the series files that earlier ones wrote.  To rebuild
the golden files after an intended output change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from reebzeta import (cli, domains, orbits, persistence, serialize,
                      zeta_good_orbits)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = ROOT / "tests" / "golden"

#: Input of the mobius-transform case: the good-orbit count series of
#: demos/data/orbits_mixed.json, written by ``write_inputs``.
GOOD_ORBITS = "good_orbits_mixed.json"
GOOD_ORBITS_CUTOFF = 12
#: Input of the zeta-orbits-fine case: four elliptic orbits on the grid
#: 1/120, dense enough that the packed product and the list-indexed exp
#: both run.  Committed by hand, not written by ``write_inputs``.
FINE_ORBITS = "orbits_fine.json"
#: Input of the barcode-spelled and zeta-persistence-spelled cases: a
#: complex whose levels are negative, zero and whole, spelled scaled
#: ("6/4", "-10/4", "-0/3") over mixed denominators with ties, with a
#: repeated entry that sums, one that cancels to 0, a pivot quotient of
#: 1/2 and infinite bars.  Committed by hand.
SPELLED_COMPLEX = "complex_spelled.json"
#: Input of the zeta-orbits-coincident case: orbits whose actions coincide
#: under different spellings ("3/2" and "6/4", "1" and "2/2", two at "2"),
#: so that an elliptic and a positive hyperbolic factor cancel, as do a
#: negative hyperbolic and an (eps1, eps2) = (1, 0) factor, and two
#: elliptic factors merge into one square, plus one lone orbit.
#: Committed by hand.
COINCIDENT_ORBITS = "orbits_coincident.json"
#: Input of the zeta-orbits-bifurcated cases: demos/data/orbits_mixed.json
#: after two period doublings, elliptic e at 3/2 into negative hyperbolic
#: e at 3/2 and elliptic e2 at 3, and negative hyperbolic n at 1 into
#: elliptic n at 1 and positive hyperbolic n2 at 2.  Its zeta is the same,
#: so each case prints its twin's bytes (TWINS).  Committed by hand.
BIFURCATED_ORBITS = "orbits_bifurcated.json"

# (case name, argv); "{data}", "{golden}" and "{tmp}" are directories.
# A case with --out writes "{tmp}/<case name>.json".
CASES = (
    ("zeta-orbits-both", ["zeta-orbits", "{data}/orbits_mixed.json",
                          "--cutoff", "12"]),
    ("zeta-orbits-exp", ["zeta-orbits", "{data}/orbits_mixed.json",
                         "--cutoff", "12", "--form", "exp",
                         "--out", "{tmp}/zeta-orbits-exp.json"]),
    ("zeta-orbits-product", ["zeta-orbits", "{data}/orbits_mixed.json",
                             "--cutoff", "12", "--form", "product",
                             "--out", "{tmp}/zeta-orbits-product.json"]),
    ("zeta-orbits-ech", ["zeta-orbits", "{data}/orbits_mixed.json",
                         "--cutoff", "12", "--form", "ech"]),
    ("zeta-orbits-fine", ["zeta-orbits", "{golden}/" + FINE_ORBITS,
                          "--cutoff", "2", "--form", "both"]),
    ("zeta-orbits-coincident", ["zeta-orbits", "{golden}/" + COINCIDENT_ORBITS,
                                "--cutoff", "8", "--form", "both"]),
    ("zeta-orbits-bifurcated", ["zeta-orbits", "{golden}/" + BIFURCATED_ORBITS,
                                "--cutoff", "12", "--form", "both"]),
    ("zeta-orbits-bifurcated-ech", ["zeta-orbits",
                                    "{golden}/" + BIFURCATED_ORBITS,
                                    "--cutoff", "12", "--form", "ech"]),
    ("mobius-transform", ["mobius-transform", "{golden}/" + GOOD_ORBITS,
                          "--cutoff", "12",
                          "--out", "{tmp}/mobius-transform.json"]),
    ("zeta-toric", ["zeta-toric", "--a", "1", "--b", "3/2", "--cutoff", "6",
                    "--out", "{tmp}/zeta-toric.json"]),
    ("zeta-s1", ["zeta-s1", "{data}/morse_saddle.json", "--cutoff", "6",
                 "--out", "{tmp}/zeta-s1.json"]),
    ("barcode", ["barcode", "{data}/complex_pair.json",
                 "--out", "{tmp}/barcode.json"]),
    ("zeta-persistence", ["zeta-persistence", "{data}/complex_pair.json",
                          "--cutoff", "3",
                          "--out", "{tmp}/zeta-persistence.json"]),
    ("barcode-spelled", ["barcode", "{golden}/" + SPELLED_COMPLEX,
                         "--out", "{tmp}/barcode-spelled.json"]),
    ("zeta-persistence-spelled", ["zeta-persistence",
                                  "{golden}/" + SPELLED_COMPLEX,
                                  "--cutoff", "5/2", "--out",
                                  "{tmp}/zeta-persistence-spelled.json"]),
    ("zeta-persistence-empty", ["zeta-persistence",
                                "{data}/complex_pair.json", "--cutoff", "1/2",
                                "--out", "{tmp}/zeta-persistence-empty.json"]),
    ("compare-exp-product", ["compare", "{tmp}/zeta-orbits-exp.json",
                             "{tmp}/zeta-orbits-product.json",
                             "--cutoff", "12"]),
    ("compare-mobius-product", ["compare", "{tmp}/mobius-transform.json",
                                "{tmp}/zeta-orbits-product.json",
                                "--cutoff", "12"]),
    ("compare-s1-toric", ["compare", "{tmp}/zeta-s1.json",
                          "{tmp}/zeta-toric.json", "--cutoff", "6"]),
    ("distinguish-s1", ["distinguish", "{tmp}/zeta-s1.json",
                        "--cutoff", "6"]),
    ("distinguish-toric", ["distinguish", "{tmp}/zeta-toric.json",
                           "--cutoff", "6"]),
)

#: (case, twin): a bifurcated flow and the flow it came from print the
#: same zeta, so their stored stdout files must be byte-equal; a --regen
#: that rewrote one of them to hide a break fails here.
TWINS = (("zeta-orbits-bifurcated", "zeta-orbits-both"),
         ("zeta-orbits-bifurcated-ech", "zeta-orbits-ech"))


# (module, name) of the library functions each subcommand reaches, besides
# the zeta-orbits routes, which its --form picks.
REACHED = {
    "zeta-orbits": [(serialize, "load_json"), (serialize, "orbit_set_from_obj"),
                    (serialize, "series_to_obj")],
    "zeta-toric": [(domains, "toric_zeta"), (serialize, "series_to_obj")],
    "zeta-s1": [(serialize, "load_json"), (serialize, "morse_from_obj"),
                (domains, "s1_invariant_zeta"), (serialize, "series_to_obj")],
    "barcode": [(serialize, "load_json"), (serialize, "complex_from_obj"),
                (persistence, "barcode_decompose"),
                (serialize, "barcode_to_obj")],
    "zeta-persistence": [(serialize, "load_json"),
                         (serialize, "complex_from_obj"),
                         (persistence, "zeta_persistence"),
                         (serialize, "series_to_obj")],
    "mobius-transform": [(serialize, "load_json"),
                         (serialize, "series_from_obj"),
                         (cli, "mobius_product"),
                         (serialize, "series_to_obj")],
    "compare": [(serialize, "load_json"), (serialize, "series_from_obj")],
    "distinguish": [(serialize, "load_json"), (serialize, "series_from_obj"),
                    (domains, "distinguish_from_toric")],
}


def reached(argv) -> list:
    """(module, name) of the library functions a case's argv reaches."""
    forms = []
    if argv[0] == "zeta-orbits":
        form = argv[argv.index("--form") + 1] if "--form" in argv else "both"
        forms = ["exp", "product"] if form == "both" else [form]
    return REACHED[argv[0]] + [(orbits, f"zeta_{f}_form") for f in forms]


def write_inputs() -> None:
    orbit_set = serialize.orbit_set_from_obj(
        serialize.load_json(str(DATA / "orbits_mixed.json")))
    series = zeta_good_orbits(orbit_set, GOOD_ORBITS_CUTOFF)
    serialize.dump_json(serialize.series_to_obj(series),
                        str(GOLDEN / GOOD_ORBITS))


def run_cases(after=lambda name, argv: None) -> dict:
    """{file name: text} for each case's stdout and each --out file.
    Raises if a case exits nonzero or writes to stderr.  ``after`` is
    called with each case's name and argv once the case has run."""
    produced = {}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {"data": DATA, "golden": GOLDEN, "tmp": tmp}
        for name, argv in CASES:
            argv = [arg.format(**dirs) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0 or err.getvalue():
                raise RuntimeError(f"{name}: exit {code}, stderr "
                                   f"{err.getvalue()!r}")
            produced[f"{name}.stdout"] = out.getvalue()
            if "--out" in argv:
                written = pathlib.Path(argv[argv.index("--out") + 1])
                produced[f"{name}.json"] = written.read_text(encoding="utf-8")
            after(name, argv)
    return produced


@pytest.fixture(scope="module")
def produced():
    return run_cases()


def test_every_subcommand_is_covered():
    covered = {argv[0] for _, argv in CASES}
    subcommands = set(cli.build_parser()._subparsers._group_actions[0].choices)
    assert covered == subcommands


def test_golden_directory_has_no_stale_files(produced):
    stored = {p.name for p in GOLDEN.iterdir()} - {
        GOOD_ORBITS, FINE_ORBITS, SPELLED_COMPLEX, COINCIDENT_ORBITS,
        BIFURCATED_ORBITS}
    assert stored == set(produced)


def test_cases_look_library_functions_up_when_they_run(monkeypatch):
    # The parser is built, and cached, before the functions are rebound, as
    # bench/tracing.py rebinds them: a handler that bound a library function
    # when the table was built would miss the counting wrapper.
    cli.build_parser()
    calls = []

    def counting(module, name, original):
        def wrapper(*args, **kwargs):
            calls.append((module, name))
            return original(*args, **kwargs)
        return wrapper

    for module, name in {pair for _, argv in CASES for pair in reached(argv)}:
        monkeypatch.setattr(module, name,
                            counting(module, name, getattr(module, name)))

    def check(name, argv):
        missed = [f"{module.__name__}.{function}"
                  for module, function in reached(argv)
                  if (module, function) not in calls]
        assert not missed, f"{name} did not reach {missed}"
        calls.clear()

    produced = run_cases(check)
    for file_name, text in produced.items():
        assert text == (GOLDEN / file_name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_stdout_matches_golden(produced, name):
    expected = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert produced[f"{name}.stdout"] == expected


@pytest.mark.parametrize("name, twin", TWINS)
def test_bifurcated_flow_prints_its_twin(name, twin):
    assert (GOLDEN / f"{name}.stdout").read_bytes() == \
        (GOLDEN / f"{twin}.stdout").read_bytes()


@pytest.mark.parametrize("name", [name for name, argv in CASES
                                  if "--out" in argv])
def test_out_file_matches_golden(produced, name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert produced[f"{name}.json"] == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    GOLDEN.mkdir(exist_ok=True)
    write_inputs()
    for file_name, text in run_cases().items():
        (GOLDEN / file_name).write_text(text, encoding="utf-8")
