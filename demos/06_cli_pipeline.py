#!/usr/bin/env python3
"""Drive the command line tool end to end.

Writes the sample inputs from demos/data into a scratch directory, then
runs the command line tool as ``python -m reebzeta.cli`` (the entry point
of the installed ``reebzeta`` script): computing a zeta three ways,
comparing series files, decomposing a barcode and reading its file back,
and testing a domain against the toric form.  From a checkout, run it
with PYTHONPATH=src.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

from reebzeta import barcode_decompose, serialize

DATA = pathlib.Path(__file__).parent / "data"


def run(*args):
    print("$ python -m reebzeta.cli", " ".join(args))
    result = subprocess.run([sys.executable, "-m", "reebzeta.cli", *args],
                            capture_output=True, text=True)
    sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stdout.write(result.stderr)
    print(f"(exit {result.returncode})")
    print()
    return result


with tempfile.TemporaryDirectory() as scratch:
    scratch = pathlib.Path(scratch)
    for name in ("orbits_mixed.json", "morse_saddle.json", "complex_pair.json"):
        shutil.copy(DATA / name, scratch / name)

    orbits = str(scratch / "orbits_mixed.json")
    morse = str(scratch / "morse_saddle.json")
    complex_file = str(scratch / "complex_pair.json")

    print("== zeta of an orbit set, with the exp/product consistency gate ==")
    run("zeta-orbits", orbits, "--cutoff", "4", "--form", "both")

    print("== the same zeta through the ECH expansion ==")
    run("zeta-orbits", orbits, "--cutoff", "4", "--form", "ech")

    print("== compare two computation routes through series files ==")
    exp_file = str(scratch / "exp.json")
    prod_file = str(scratch / "prod.json")
    run("zeta-orbits", orbits, "--cutoff", "4", "--form", "exp",
        "--out", exp_file)
    run("zeta-orbits", orbits, "--cutoff", "4", "--form", "product",
        "--out", prod_file)
    run("compare", exp_file, prod_file, "--cutoff", "4")

    print("== toric zeta ==")
    run("zeta-toric", "--a", "1", "--b", "3/2", "--cutoff", "3")

    print("== circle-invariant domain: zeta, then the toric test ==")
    s1_file = str(scratch / "s1.json")
    run("zeta-s1", morse, "--cutoff", "2", "--out", s1_file)
    run("distinguish", s1_file, "--cutoff", "2")

    print("== barcode and persistence zeta of a filtered complex ==")
    bars_file = str(scratch / "bars.json")
    run("barcode", complex_file, "--out", bars_file)
    run("zeta-persistence", complex_file, "--cutoff", "3")

    print("== the barcode file reads back as the library's barcode ==")
    read_back = serialize.barcode_from_obj(serialize.load_json(bars_file))
    direct = barcode_decompose(
        serialize.complex_from_obj(serialize.load_json(complex_file)))
    print("read back == barcode_decompose:", read_back == direct)
    assert read_back == direct
    print()

    print("== the exit codes distinguish failure kinds ==")
    run("zeta-orbits", str(scratch / "missing.json"), "--cutoff", "2")
    run("compare", exp_file, prod_file, "--cutoff", "9")
