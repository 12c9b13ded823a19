"""CLI fuzz: seeded, mangled copies of the demo inputs and of series
files, run through every subcommand in-process.

Every run must end with exit 0, 1 or 2 (success, bad input, violated
precondition): never an uncaught exception, and never exit 3, which would
mean two zeta routes disagree.  Replacement values come from a fixed
palette with small denominators and the cutoffs are small, so each run
stays tiny; the test checks exit codes, not run time.
"""

import copy
import json
import random
from pathlib import Path

from reebzeta import cli, serialize
from reebzeta.errors import ReebZetaError
from reebzeta.serialize import SchemaError

ROOT = Path(__file__).resolve().parent.parent
INPUTS = sorted((ROOT / "demos" / "data").glob("*.json")) + [
    ROOT / "tests" / "golden" / name
    for name in ("zeta-orbits-exp.json", "zeta-s1.json",
                 "mobius-transform.json", "good_orbits_mixed.json")]

# Half the replacements are plausible field values, so many mangled files
# stay valid and reach the computations; the rest are malformed.
PLAUSIBLE = ["1", "2", "3/2", "1/2", "2/3", "5/2", "-1", 0, 1, 2,
             "elliptic", "pos-hyperbolic", "neg-hyperbolic", "cycle", "e"]
# LONG has 2,501 digits, under Python's 4,300-digit limit for int text;
# products and powers of it are not.
LONG = "1" + "0" * 2500
PALETTE = [None, True, False, -1, 1.5, 10 ** 30, "", "x", "0", "-7/3",
           "1/0", "0/1", "007", "1e3", " 1", "inf", [], {}, ["1"], {"x": 1},
           LONG]
CUTOFFS = ["1", "3/2", "3", "7/2", "5", "8"]   # the series files hold 3-12
BAD_FLAGS = ["0", "-1", "x", "1/0", "1.5", ""]
INSERTS = [b"\xff", b"[", b"{", b'"', b",", b"-", b"9" * 40, b"\x00"]

DEEP = "[" * 100_000   # past the JSON decoder's recursion limit


def mangle_value(rng, doc):
    """A deep copy of a JSON value with one node replaced, removed,
    duplicated or swapped for another node of the same document."""
    doc = copy.deepcopy(doc)
    containers = []

    def walk(node):
        if isinstance(node, (dict, list)):
            containers.append(node)
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)

    walk(doc)
    node = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.choice((0, 0, 0, 1, 2, 3, 4))
    if op == 4 or not keys:
        return copy.deepcopy(rng.choice(PALETTE))
    key = rng.choice(keys)
    if op == 0:
        node[key] = copy.deepcopy(rng.choice(
            PLAUSIBLE if rng.random() < 0.5 else PALETTE))
    elif op == 1:
        del node[key]
    elif op == 2:
        if isinstance(node, dict):
            node[rng.choice(["extra", "label", "type", "eps"])] = \
                copy.deepcopy(node[key])
        else:
            node.append(copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(rng.choice(containers))
    return doc


def mangle_bytes(rng, data: bytes) -> bytes:
    """The file cut short, with one byte overwritten, or with a stray
    token inserted."""
    i = rng.randrange(len(data) + 1)
    op = rng.randrange(3)
    if op == 0:
        return data[:i]
    if op == 1:
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    return data[:i] + rng.choice(INSERTS) + data[i:]


def commands(path, other, out, cutoff):
    """Every subcommand that reads a file, on one input file."""
    runs = [["zeta-orbits", path, "--cutoff", cutoff, "--form", form]
            for form in ("exp", "product", "ech", "both")]
    return runs + [
        ["zeta-s1", path, "--cutoff", cutoff, "--out", out],
        ["barcode", path, "--out", out],
        ["zeta-persistence", path, "--cutoff", cutoff],
        ["mobius-transform", path, "--cutoff", cutoff, "--out", out],
        ["compare", path, other, "--cutoff", cutoff],
        ["compare", other, path, "--cutoff", cutoff],
        ["distinguish", path, "--cutoff", cutoff],
    ]


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects flags with exit 1
        code = exc.code
    except Exception as exc:
        raise AssertionError(f"reebzeta {' '.join(argv)} raised") from exc
    capsys.readouterr()
    return code


def test_mangled_files_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(20261018)
    other = str(ROOT / "tests" / "golden" / "zeta-toric.json")
    out = str(tmp_path / "out.json")
    path = tmp_path / "input.json"
    seen = {}
    for source in INPUTS:
        data = source.read_bytes()
        doc = json.loads(data)
        variants = [json.dumps(mangle_value(rng, doc)).encode()
                    for _ in range(60)]
        variants += [mangle_bytes(rng, data) for _ in range(20)]
        for variant in variants:
            path.write_bytes(variant)
            cutoff = rng.choice(CUTOFFS if rng.random() < 0.8 else BAD_FLAGS)
            for argv in commands(str(path), other, out, cutoff):
                code = run(capsys, argv)
                assert code in (0, 1, 2), (argv, variant)
                seen[code] = seen.get(code, 0) + 1
    # The mangles leave some inputs valid and break others.
    assert seen.get(0) and seen.get(1) and seen.get(2)


def test_mangled_toric_flags_exit_0_1_or_2(capsys):
    rng = random.Random(20261019)
    values = ["1", "3/2", "2/3"] + BAD_FLAGS
    for _ in range(60):
        argv = ["zeta-toric", "--a", rng.choice(values),
                "--b", rng.choice(values), "--cutoff", rng.choice(values)]
        assert run(capsys, argv) in (0, 1), argv


def test_deeply_nested_json_exits_1_on_every_subcommand(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    other = str(ROOT / "tests" / "golden" / "zeta-toric.json")
    for argv in commands(str(path), other, str(tmp_path / "out.json"), "2"):
        try:
            code = cli.main(argv)
        except RecursionError as exc:
            raise AssertionError(argv) from exc
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err == f"reebzeta: error: {path}: JSON nested too deeply\n"


def test_long_coefficient_exits_0_1_or_2_on_every_subcommand(tmp_path,
                                                             capsys):
    # The palette's LONG as a series coefficient: the Moebius transform's
    # t^2 coefficient has about 5,000 digits, too many to print.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"terms": [{"exponent": "1",
                                           "coefficient": LONG}],
                                "cutoff": "3"}))
    other = str(ROOT / "tests" / "golden" / "zeta-toric.json")
    codes = {}
    for argv in commands(str(path), other, str(tmp_path / "out.json"), "3"):
        codes[argv[0]] = run(capsys, argv)
        assert codes[argv[0]] in (0, 1, 2), argv
    assert codes["mobius-transform"] == 2


def test_mangled_barcodes_decode_or_raise_schema_errors():
    rng = random.Random(20261020)
    doc = json.loads((ROOT / "tests" / "golden" / "barcode.json").read_text())
    variants = [mangle_value(rng, doc) for _ in range(200)]
    variants.append([{"birth": "2", "death": "1", "eps": 0}])  # birth > death
    decoded = 0
    for variant in variants:
        try:
            serialize.barcode_from_obj(variant)
            decoded += 1
        except SchemaError as exc:
            assert str(exc).startswith("barcode"), exc
    assert 0 < decoded < len(variants)


def test_direct_passes_refuse_exactly_what_the_decoders_reject():
    # Every demo and golden JSON file, and mangles of each, through both
    # direct passes: one returns None exactly when its decoder raises a
    # SchemaError or another ReebZetaError, and the decoder never raises
    # InternalError, which would fail this test.  A valid file that breaks
    # a rule of complexes raises from the direct pass itself.
    rng = random.Random(20261022)
    pairs = [(serialize._series_direct, serialize.series_from_obj),
             (serialize._complex_direct, serialize.complex_from_obj)]
    built = refused = 0
    for source in sorted((ROOT / "demos" / "data").glob("*.json")) + \
            sorted((ROOT / "tests" / "golden").glob("*.json")):
        doc = json.loads(source.read_bytes())
        for variant in [doc] + [mangle_value(rng, doc) for _ in range(40)]:
            for direct, decode in pairs:
                try:
                    none = direct(variant) is None
                except ReebZetaError:
                    continue
                try:
                    decode(variant)
                    rejected = False
                except ReebZetaError:   # SchemaError is one
                    rejected = True
                assert none == rejected, (source.name, variant)
                built += not none
                refused += none
    assert built and refused
