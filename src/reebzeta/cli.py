"""Batch command line front end.

Subcommands read JSON input files (schemas in ``serialize``), run one
computation, and print a deterministic report: series as ascending
"exponent<TAB>coefficient" lines followed by a "cutoff<TAB>value" line,
barcodes as JSON, comparisons as EQUAL or the first differing exponent.

Exit codes: 0 success; 1 parse or validation error (bad flags, unreadable
or schema-violating files); 2 violated mathematical precondition (e.g.
inverting a non-unit, level on the spectrum, BeyondValidity); 3 the program
is wrong (exp and product forms disagree, or a reduction keeps its pivot row).
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
    # One row a subcommand: name, help, handler, arguments in help order.
    # Handlers and the lambdas of ``_series_command`` look library names up
    # when they run, so a name rebound later (bench/tracing.py) is seen.
    for name, help_, func, arguments in [
        ("zeta-orbits", "zeta function of an orbit set file", _cmd_zeta_orbits,
         [file, cutoff, ("--form", {
             "choices": ("exp", "product", "ech", "both"), "default": "both",
             "help": "computation route; 'both' runs exp and product "
                     "and fails if they disagree (default)"}), out]),
        ("zeta-toric", "zeta of a toric domain from axis actions",
         _series_command(lambda a: domains.toric_zeta(
             domains.ToricDomain(a.a, a.b), a.cutoff)),
         [("--a", ratio), ("--b", ratio), cutoff, out]),
        ("zeta-s1", "zeta of a circle-invariant domain from a Morse data file",
         _series_command(lambda a: domains.s1_invariant_zeta(
             _load(a.file, serialize.morse_from_obj), a.cutoff)),
         [file, cutoff, out]),
        ("barcode", "barcode of a filtered complex file", _cmd_barcode,
         [file, ("--out", {"metavar": "PATH",
                           "help": "also write the barcode as a JSON file"})]),
        ("zeta-persistence", "zeta of the persistence module of a complex file",
         _series_command(lambda a: persistence.zeta_persistence(
             _load(a.file, serialize.complex_from_obj), a.cutoff)),
         [file, cutoff, out]),
        ("mobius-transform",
         "Moebius product transform of an integer series file",
         _series_command(lambda a: mobius_product(
             _load(a.file, serialize.series_from_obj), a.cutoff)),
         [file, cutoff, out]),
        ("compare", "compare two series files up to a cutoff", _cmd_compare,
         [("file_a", {}), ("file_b", {}), cutoff]),
        ("distinguish", "test a zeta series file against the toric form",
         _cmd_distinguish, [file, cutoff]),
    ]:
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)

    return parser


def _fail(code: int, message: str) -> int:
    print(f"reebzeta: error: {message}", file=sys.stderr)
    return code


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


def _emit_series(series: NovikovSeries, out_path) -> None:
    obj = serialize.series_to_obj(series)
    if out_path:   # first, so that a failed write prints no result
        serialize.dump_json(obj, out_path)
    sys.stdout.write("".join([f"{term['exponent']}\t{term['coefficient']}\n"
                              for term in obj["terms"]])
                     + f"cutoff\t{obj['cutoff']}\n")


def _series_command(compute):
    """The handler that prints ``compute(args)`` through ``_emit_series``."""
    def handler(args) -> int:
        _emit_series(compute(args), args.out)
        return 0
    return handler


def _first_difference(a: NovikovSeries, b: NovikovSeries):
    """Smallest exponent where two unequal series differ, and both coefficients."""
    s = (a - b).min_exponent()
    return s, a.coefficient(s), b.coefficient(s)


def _cmd_zeta_orbits(args) -> int:
    orbit_set = _load(args.file, serialize.orbit_set_from_obj)
    if args.form == "exp":
        result = orbits.zeta_exp_form(orbit_set, args.cutoff)
    elif args.form == "product":
        result = orbits.zeta_product_form(orbit_set, args.cutoff)
    elif args.form == "ech":
        result = orbits.zeta_ech_form(orbit_set, args.cutoff)
    else:
        exp_form = orbits.zeta_exp_form(orbit_set, args.cutoff)
        result = orbits.zeta_product_form(orbit_set, args.cutoff)
        if exp_form != result:
            diff = _first_difference(exp_form, result)
            return _fail(CONSISTENCY_ERROR, f"exp and product forms disagree "
                         f"at t^{diff[0]}: {diff[1]} vs {diff[2]}")
    _emit_series(result, args.out)
    return 0


def _cmd_barcode(args) -> int:
    complex_ = _load(args.file, serialize.complex_from_obj)
    barcode = persistence.barcode_decompose(complex_)
    text = serialize._barcode_text(serialize.barcode_to_obj(barcode))
    if args.out:   # before stdout, as in _emit_series
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    series = [_load(path, serialize.series_from_obj)
              for path in (args.file_a, args.file_b)]
    series_a, series_b = [s.truncate(args.cutoff) for s in series]
    if series_a == series_b:
        print("EQUAL")
    else:
        s, ca, cb = _first_difference(series_a, series_b)
        print(f"DIFFER\t{s}\t{ca}\t{cb}")
    return 0


def _cmd_distinguish(args) -> int:
    series = _load(args.file, serialize.series_from_obj)
    result = domains.distinguish_from_toric(series.truncate(args.cutoff))
    if result.witness is None:
        print(result.verdict.value)
    else:
        print(f"{result.verdict.value}\t{result.witness}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SchemaError) as exc:
        return _fail(PARSE_ERROR, str(exc))
    except ReebZetaError as exc:
        # Precondition of a computation on valid inputs; file-content
        # problems were already routed to SchemaError by the loaders.
        return _fail(MATH_ERROR, f"{type(exc).__name__}: {exc}")
    except InternalError as exc:
        return _fail(CONSISTENCY_ERROR, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
