"""JSON file schemas for series, orbit sets, filtered complexes, Morse
data and barcodes.

All rationals travel as canonical strings "p/q" (gcd(p,q)=1, q>0) or "p"
when the denominator is 1, so serialized files are diff-friendly and
round-trip bit-exactly.  Loaders validate strictly and raise SchemaError
carrying the location of the offending field.

One loop, ``_records``, decodes every list of entries, each an object with
no keys outside an ordered {key: parser} table.  Parsers raise location-free
ValueErrors; the loop builds "where[k].key" only when one does.  Quoted
values go through ``errors.echo``, which cuts them to 80 characters.
Series and complex files first take a direct pass, one regex scan a
column of ratios (one match and ``int`` a text for whole coefficients),
which gives up on anything not well formed; that loop alone words errors.
Both passes go from digits straight to int grid keys, through one helper
``_grid``, with no Fraction per term or generator.  Series and barcode
files are written from fixed templates, byte for byte the json module's
indent=2 text, ratios from int keys by ``_key_texts``, one gcd a key.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .domains import MorseData
from .errors import (DuplicateLabel, ReebZetaError, TooManyDigits,
                     UnknownLabel, echo)
from .novikov import NovikovSeries, _norm_coeff
from .orbits import OrbitSet, OrbitType3D, SimpleOrbit
from .persistence import Bar, Barcode, FilteredComplex

_LINE_RE = re.compile(r"^(-?[0-9]+)(?:/([1-9][0-9]*))?$", re.MULTILINE)
_WHOLE_RE = re.compile(r"-?[0-9]+(?:\n-?[0-9]+)*")


class SchemaError(ReebZetaError, ValueError):
    """Input does not match the expected file schema; the message starts
    with the location of the problem."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def _ratio_lines(texts) -> list:
    """The (numerator, denominator or "") digits of each text; ValueError
    unless each is one ratio: findall skips a line that is not a ratio,
    and a text holding a newline adds a line."""
    joined = "\n".join(texts)
    ratios = _LINE_RE.findall(joined)
    if len(ratios) != len(texts) or (
            texts and joined.count("\n") != len(texts) - 1):
        raise ValueError("not one ratio a text")
    return ratios


def _ratio(text) -> Fraction:
    """The value of a 'p/q' string."""
    try:
        (num, den), = _ratio_lines([text])
    except (TypeError, ValueError):
        raise ValueError(
            f"expected a rational 'p/q' string, got {echo(text)}") from None
    # The regex has vetted the text, so build the value from ints; int()
    # raises ValueError on more digits than it accepts.
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _coeff(text):
    """A ratio, stored as an int when it is whole, as series store them."""
    return _norm_coeff(_ratio(text))


def parse_ratio(text, where: str = "value") -> Fraction:
    try:
        return _ratio(text)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from None


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {echo(value)}")
    return value


def _bit(value) -> int:
    # type(...) is int: JSON true/false decode to bools, which are ints.
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"expected 0 or 1, got {echo(value)}")
    return value


def _index(value) -> int:
    if type(value) is not int or value not in (0, 1, 2):
        raise ValueError(f"expected 0, 1 or 2, got {echo(value)}")
    return value


def _object(obj, keys, where: str, k=None) -> None:
    """Raise unless obj is a JSON object with keys among ``keys``."""
    if isinstance(obj, dict) and obj.keys() <= keys:
        return
    where = where if k is None else f"{where}[{k}]"
    if not isinstance(obj, dict):
        raise SchemaError(where, f"expected an object, got {type(obj).__name__}")
    raise SchemaError(where, f"unknown keys {echo(sorted(obj.keys() - keys))}")


def _records(obj, where: str, fields):
    """Yield [parse(entry.get(key)) for each key of the table] per entry of
    obj; ``fields`` is the table, or a function of the entry returning it
    for a list whose entries come in several shapes."""
    if not isinstance(obj, list):
        raise SchemaError(where, f"expected a list, got {type(obj).__name__}")
    pick = fields if callable(fields) else lambda entry: fields
    for k, entry in enumerate(obj):
        table = pick(entry)
        if not (isinstance(entry, dict) and entry.keys() <= table.keys()):
            _object(entry, table.keys(), where, k)
        row = []
        try:
            for key, parse in table.items():
                row.append(parse(entry.get(key)))
        except ValueError as exc:
            raise SchemaError(f"{where}[{k}].{key}", str(exc)) from None
        yield row


# -- series ---------------------------------------------------------------

_TERM = {"exponent": _ratio, "coefficient": _ratio}
_TERM_TEXTS = operator.itemgetter("exponent", "coefficient")


def _key_texts(q: int, keys) -> dict:
    """{n: text of n/q as ``str`` of its Fraction}, one gcd a key."""
    return {n: f"{n // g}/{q // g}" if (g := gcd(n, q)) != q else str(n // q)
            for n in keys}


def series_to_obj(series: NovikovSeries) -> dict:
    q, terms = series._q, series._terms
    try:
        return {"terms": [{"exponent": text, "coefficient": str(terms[n])}
                          for n, text in _key_texts(q, sorted(terms)).items()],
                "cutoff": str(series.cutoff)}
    except ValueError:   # str() of an int past Python's digit limit
        limit = sys.get_int_max_str_digits()
        big, what = 10 ** limit, "the cutoff"
        for k, n in enumerate(sorted(terms)):
            # An exponent too long to print is named by its position.
            if max(abs(n), q) // gcd(n, q) >= big:
                what = f"the exponent of terms[{k}]"
                break
            if max(abs(terms[n].numerator), terms[n].denominator) >= big:
                what = f"the coefficient of t^{Fraction(n, q)}"
                break
        raise TooManyDigits(f"{what} has more digits than Python's limit "
                            f"of {limit}") from None


def _grid(ratios) -> tuple:
    """``novikov.grid`` of the Fractions of ``_ratio_lines`` digits, bit
    for bit; dividing by the gcd undoes scaled texts such as "6/4"."""
    dens = {den: int(den or 1) for _, den in ratios}
    q = lcm(*dens.values())
    keys = [int(num) * (q // dens[den]) for num, den in ratios]
    g = gcd(q, *keys)
    return q // g, [n // g for n in keys] if g > 1 else keys


def _coeffs(texts) -> list:
    """The ratio texts' values, ints when whole; raises unless each text is
    one ratio (a newline inside a text fails the match or ``int``)."""
    if _WHOLE_RE.fullmatch("\n".join(texts)):
        return list(map(int, texts))
    return [_norm_coeff(Fraction(int(num), int(den))) if den else int(num)
            for num, den in _ratio_lines(texts)]


def _series_direct(obj):
    """The series of a well-formed file, straight on int keys; None when
    anything is off, so that ``series_from_obj`` finds and words it."""
    try:
        terms, cutoff = obj.get("terms", []), _ratio(obj["cutoff"])
        texts = [t for pair in map(_TERM_TEXTS, terms) for t in pair]
        q, keys = _grid(_ratio_lines(texts[::2]))
        coeffs = _coeffs(texts[1::2])
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    if (obj.keys() <= {"terms", "cutoff"} and type(terms) is list
            and cutoff > 0 and set(map(len, terms)) == {2}
            and all(coeffs) and all(map(operator.lt, keys, keys[1:]))
            and keys[-1] <= cutoff.numerator * q // cutoff.denominator):
        return NovikovSeries._raw(q, dict(zip(keys, coeffs)), cutoff)
    return None


def series_from_obj(obj) -> NovikovSeries:
    series = _series_direct(obj)
    if series is not None:
        return series
    _object(obj, {"terms", "cutoff"}, "series")
    if "cutoff" not in obj:
        raise SchemaError("series", "missing 'cutoff'")
    cutoff = parse_ratio(obj["cutoff"], "series.cutoff")
    if cutoff <= 0:
        raise SchemaError("series.cutoff", f"must be positive, got {cutoff}")
    terms = []
    previous = None
    for k, (s, c) in enumerate(_records(obj.get("terms", []), "series.terms",
                                        _TERM)):
        if c == 0:
            problem = "zero coefficients must not be stored"
        elif previous is not None and not s > previous:
            problem = f"exponents must be strictly increasing ({s} after {previous})"
        elif s > cutoff:
            problem = f"exponent {s} exceeds cutoff {cutoff}"
        else:
            previous = s
            terms.append((s, c))
            continue
        raise SchemaError(f"series.terms[{k}]", problem)
    return NovikovSeries(terms, cutoff)


# -- orbit sets -----------------------------------------------------------

_TYPE_NAMES = {kind.value: kind for kind in OrbitType3D}


def _orbit_type(name) -> OrbitType3D:
    if _string(name) not in _TYPE_NAMES:
        raise ValueError(f"unknown orbit type {echo(name)}; expected one "
                         f"of {sorted(_TYPE_NAMES)}")
    return _TYPE_NAMES[name]


_TYPED = {"label": _string, "action": _ratio, "type": _orbit_type}
_PARITY = {"label": _string, "action": _ratio, "eps1": _bit, "eps2": _bit}


def _orbit_fields(entry) -> dict:
    return _TYPED if isinstance(entry, dict) and "type" in entry else _PARITY


def orbit_set_from_obj(obj) -> OrbitSet:
    return OrbitSet(SimpleOrbit.of_type(*row) if len(row) == 3
                    else SimpleOrbit(*row)
                    for row in _records(obj, "orbits", _orbit_fields))


# -- filtered complexes ---------------------------------------------------

_GENERATOR = {"label": _string, "eps": _bit, "filtration": _ratio}
_DIFFERENTIAL = {"from": _string, "to": _string, "coeff": _coeff}


def _complex_direct(obj):
    """The complex of a well-formed file, decoded a column at a time; None
    when anything is off, so that ``complex_from_obj`` finds and words it."""
    try:
        gens, edges = obj.get("generators", []), obj.get("differential", [])
        labels, eps, levels = [list(map(operator.itemgetter(key), gens))
                               for key in _GENERATOR]
        froms, tos, coeffs = [list(map(operator.itemgetter(key), edges))
                              for key in _DIFFERENTIAL]
        q, keys = _grid(_ratio_lines(levels))
        coeffs = _coeffs(coeffs)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    # Labels are all strings before ``_build`` indexes them: a list is
    # unhashable.  A repeated or unknown label is left to the record loop,
    # which words it as the file's first fault.
    if (obj.keys() <= {"generators", "differential"}
            and type(gens) is list and type(edges) is list
            and {*map(len, gens), *map(len, edges)} <= {3}
            and {*map(type, eps)} <= {int} and {*eps} <= {0, 1}
            and {*map(type, labels), *map(type, froms), *map(type, tos)} <= {str}):
        try:
            return FilteredComplex._from_keys(labels, eps, q, keys,
                                              zip(froms, tos, coeffs))
        except (DuplicateLabel, UnknownLabel):
            pass
    return None


def complex_from_obj(obj) -> FilteredComplex:
    complex_ = _complex_direct(obj)
    if complex_ is not None:
        return complex_
    _object(obj, {"generators", "differential"}, "complex")
    generators = list(_records(obj.get("generators", []),
                               "complex.generators", _GENERATOR))
    labels = {g[0] for g in generators}
    entries = []
    for k, (x, y, coeff) in enumerate(_records(obj.get("differential", []),
                                               "complex.differential",
                                               _DIFFERENTIAL)):
        for label in (x, y):
            if label not in labels:
                raise SchemaError(f"complex.differential[{k}]",
                                  f"unknown generator {echo(label)}")
        entries.append((x, y, coeff))
    return FilteredComplex(generators, entries)


# -- barcodes -------------------------------------------------------------


def barcode_to_obj(barcode: Barcode) -> list:
    rows = barcode.rows
    ends = {row[k] for k in (0, 1) for row in rows} - {None}
    text = {**_key_texts(barcode.q, ends), None: "inf"}
    return [{"birth": text[b], "death": text[d], "eps": e} for b, d, e in rows]


_BAR = {"birth": _ratio,
        "death": lambda text: None if text == "inf" else _ratio(text),
        "eps": _bit}


def barcode_from_obj(obj) -> Barcode:
    bars = []
    for k, row in enumerate(_records(obj, "barcode", _BAR)):
        try:
            bars.append(Bar(*row))
        except ValueError as exc:  # birth >= death
            raise SchemaError(f"barcode[{k}]", str(exc)) from exc
    return Barcode(bars)


# -- domains --------------------------------------------------------------


# The index leads the table, so it is checked before label and action.
_POINT = {"index": _index, "label": _string, "action": _ratio}


def morse_from_obj(obj) -> MorseData:
    return MorseData([(label, action, index) for index, label, action
                      in _records(obj, "morse", _POINT)])


# -- file helpers ----------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise SchemaError(path, str(exc)) from exc
    except RecursionError as exc:
        raise SchemaError(path, "JSON nested too deeply") from exc


# Both writers build the json module's indent=2 text from f-strings.  Its
# strings come from ints and hold only digits, "-", "/" or "inf": no escapes.
def _barcode_text(records: list) -> str:
    """The file text of barcode_to_obj's records."""
    bars = ",\n".join([f'  {{\n    "birth": "{r["birth"]}",\n    "death": '
                       f'"{r["death"]}",\n    "eps": {r["eps"]}\n  }}'
                       for r in records])
    return f"[\n{bars}\n]\n" if records else "[]\n"


def dump_json(obj, path: str) -> None:
    """Write series_to_obj's record, byte for byte the json module's
    indent=2 text of it and a newline."""
    terms = ",\n".join([f'    {{\n      "exponent": "{t["exponent"]}",\n      '
                        f'"coefficient": "{t["coefficient"]}"\n    }}'
                        for t in obj["terms"]])
    terms = f"[\n{terms}\n  ]" if terms else "[]"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n  "terms": {terms},\n  "cutoff": "{obj["cutoff"]}"\n}}\n')
