"""Batch command line front end.

Subcommands read JSON input files (schemas in ``serialize``), run one
computation, and print a deterministic report: series as ascending
"exponent<TAB>coefficient" lines followed by a "cutoff<TAB>value" line,
barcodes as JSON, comparisons as EQUAL or the first differing exponent.

Exit codes: 0 success; 1 parse or validation error (bad flags, unreadable
or schema-violating files); 2 violated mathematical precondition (e.g.
inverting a non-unit, level on the spectrum, BeyondValidity); 3 the program
is wrong, an ``InternalError`` (exp and product forms disagree, or a
reduction keeps its pivot row).  Only ``main`` maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import domains, orbits, persistence, serialize
from .errors import InternalError, ReebZetaError
from .mobius import mobius_product
from .novikov import NovikovSeries
from .serialize import SchemaError

PARSE_ERROR, MATH_ERROR, CONSISTENCY_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for mathematical preconditions, so flag
    # errors must exit 1 rather than argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _positive_ratio_flag(text: str) -> Fraction:
    try:
        value = serialize.parse_ratio(text)
    except SchemaError:
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3 or 3/2, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Building the eight subparsers costs more than many whole jobs, and
    # parse_args keeps no state between calls, so one parser serves them all.
    parser = _Parser(prog="reebzeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    ratio = {"type": _positive_ratio_flag, "required": True, "metavar": "p/q"}
    cutoff = ("--cutoff", dict(ratio, help="action cutoff (positive rational)"))
    out = ("--out", {"metavar": "PATH",
                     "help": "also write the result as a JSON series file"})
    file = ("file", {})
    # One row a subcommand: name, help, compute(args) -> result, emit(result,
    # out_path), arguments in help order.  Computes look library names up
    # when they run, so a name rebound later (bench/tracing.py) is seen.
    for name, help_, compute, emit, arguments in [
        ("zeta-orbits", "zeta function of an orbit set file", _zeta_orbits,
         _emit_series,
         [file, cutoff, ("--form", {
             "choices": ("exp", "product", "ech", "both"), "default": "both",
             "help": "computation route; 'both' runs exp and product "
                     "and fails if they disagree (default)"}), out]),
        ("zeta-toric", "zeta of a toric domain from axis actions",
         lambda a: domains.toric_zeta(domains.ToricDomain(a.a, a.b), a.cutoff),
         _emit_series, [("--a", ratio), ("--b", ratio), cutoff, out]),
        ("zeta-s1", "zeta of a circle-invariant domain from a Morse data file",
         lambda a: domains.s1_invariant_zeta(
             _load(a.file, serialize.morse_from_obj), a.cutoff),
         _emit_series, [file, cutoff, out]),
        ("barcode", "barcode of a filtered complex file",
         lambda a: persistence.barcode_decompose(
             _load(a.file, serialize.complex_from_obj)),
         _emit_barcode,
         [file, ("--out", {"metavar": "PATH",
                           "help": "also write the barcode as a JSON file"})]),
        ("zeta-persistence", "zeta of the persistence module of a complex file",
         lambda a: persistence.zeta_persistence(
             _load(a.file, serialize.complex_from_obj), a.cutoff),
         _emit_series, [file, cutoff, out]),
        ("mobius-transform",
         "Moebius product transform of an integer series file",
         lambda a: mobius_product(
             _load(a.file, serialize.series_from_obj), a.cutoff),
         _emit_series, [file, cutoff, out]),
        ("compare", "compare two series files up to a cutoff",
         lambda a: [s.truncate(a.cutoff) for s in [   # load both, then cut
             _load(path, serialize.series_from_obj)
             for path in (a.file_a, a.file_b)]],
         _emit_comparison, [("file_a", {}), ("file_b", {}), cutoff]),
        ("distinguish", "test a zeta series file against the toric form",
         lambda a: domains.distinguish_from_toric(
             _load(a.file, serialize.series_from_obj).truncate(a.cutoff)),
         _emit_verdict, [file, cutoff]),
    ]:
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(compute=compute, emit=emit, out=None)

    return parser


def _load(path: str, decode):
    """Read an input file and return ``decode(obj)`` of its JSON value.
    Any library error here counts as a validation failure of the file,
    not a mathematical one, and its message starts with the path."""
    obj = serialize.load_json(path)
    try:
        return decode(obj)
    except SchemaError as exc:
        raise SchemaError(path, str(exc)) from exc
    except ReebZetaError as exc:
        raise SchemaError(path, f"{type(exc).__name__}: {exc}") from exc


def _first_difference(a: NovikovSeries, b: NovikovSeries):
    """Smallest exponent where two unequal series differ, and both coefficients."""
    s = (a - b).min_exponent()
    return s, a.coefficient(s), b.coefficient(s)


def _zeta_orbits(args) -> NovikovSeries:
    orbit_set = _load(args.file, serialize.orbit_set_from_obj)
    if args.form == "exp":
        return orbits.zeta_exp_form(orbit_set, args.cutoff)
    if args.form == "product":
        return orbits.zeta_product_form(orbit_set, args.cutoff)
    if args.form == "ech":
        return orbits.zeta_ech_form(orbit_set, args.cutoff)
    exp_form = orbits.zeta_exp_form(orbit_set, args.cutoff)
    result = orbits.zeta_product_form(orbit_set, args.cutoff)
    if exp_form != result:
        s, a, b = _first_difference(exp_form, result)
        raise InternalError(
            f"exp and product forms disagree at t^{s}: {a} vs {b}")
    return result


def _emit_series(series: NovikovSeries, out_path) -> None:
    obj = serialize.series_to_obj(series)
    if out_path:   # first, so that a failed write prints no result
        serialize.dump_json(obj, out_path)
    sys.stdout.write("".join([f"{term['exponent']}\t{term['coefficient']}\n"
                              for term in obj["terms"]])
                     + f"cutoff\t{obj['cutoff']}\n")


def _emit_barcode(barcode, out_path) -> None:
    text = serialize._barcode_text(serialize.barcode_to_obj(barcode))
    if out_path:   # before stdout, as in _emit_series
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)


def _emit_comparison(pair, out_path) -> None:
    series_a, series_b = pair
    if series_a == series_b:
        print("EQUAL")
    else:
        s, ca, cb = _first_difference(series_a, series_b)
        print(f"DIFFER\t{s}\t{ca}\t{cb}")


def _emit_verdict(witness, out_path) -> None:
    print("Inconclusive" if witness is None else f"NotToricInterior\t{witness}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.emit(args.compute(args), args.out)
        return 0
    except (OSError, SchemaError) as exc:
        code, message = PARSE_ERROR, str(exc)
    except ReebZetaError as exc:
        # Precondition of a computation on valid inputs; file-content
        # problems were already routed to SchemaError by the loaders.
        code, message = MATH_ERROR, f"{type(exc).__name__}: {exc}"
    except InternalError as exc:
        code, message = CONSISTENCY_ERROR, f"{type(exc).__name__}: {exc}"
    print(f"reebzeta: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
