"""JSON file schemas for series, orbit sets, filtered complexes, Morse
data and barcodes.

All rationals travel as canonical strings "p/q" (gcd(p,q)=1, q>0) or "p"
when the denominator is 1, so serialized files are diff-friendly and
round-trip bit-exactly.  Loaders validate strictly and raise SchemaError
carrying the location of the offending field.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .domains import MorseData
from .errors import ReebZetaError
from .novikov import NovikovSeries, as_ratio
from .orbits import OrbitSet, OrbitType3D, SimpleOrbit
from .persistence import Bar, Barcode, FilteredComplex

_RATIO_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class SchemaError(ReebZetaError, ValueError):
    """Input does not match the expected file schema; the message starts
    with the location of the problem."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def format_ratio(value) -> str:
    value = as_ratio(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_ratio(text, where: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIO_RE.match(text):
        raise SchemaError(where, f"expected a rational 'p/q' string, got {text!r}")
    # The regex has vetted the text, so build the Fraction from its two
    # ints rather than re-parse it through Fraction's own regex.
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as exc:  # more digits than int() accepts
        raise SchemaError(where, str(exc)) from exc


def _expect_obj(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(where, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(where, f"expected a list, got {type(obj).__name__}")
    return obj


def _expect_str(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(where, f"expected a string, got {obj!r}")
    return obj


def _expect_bit(obj, where: str) -> int:
    # type(...) is int: JSON true/false decode to bools, which are ints.
    if type(obj) is not int or obj not in (0, 1):
        raise SchemaError(where, f"expected 0 or 1, got {obj!r}")
    return obj


def _no_extra_keys(obj: dict, allowed, where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise SchemaError(where, f"unknown keys {sorted(extra)}")


# -- series ---------------------------------------------------------------


def series_to_obj(series: NovikovSeries) -> dict:
    return {
        "terms": [{"exponent": format_ratio(s), "coefficient": format_ratio(c)}
                  for s, c in series.items()],
        "cutoff": format_ratio(series.cutoff),
    }


def series_from_obj(obj, where: str = "series") -> NovikovSeries:
    obj = _expect_obj(obj, where)
    _no_extra_keys(obj, ("terms", "cutoff"), where)
    if "cutoff" not in obj:
        raise SchemaError(where, "missing 'cutoff'")
    cutoff = parse_ratio(obj["cutoff"], f"{where}.cutoff")
    terms = []
    previous = None
    for k, entry in enumerate(_expect_list(obj.get("terms", []), f"{where}.terms")):
        loc = f"{where}.terms[{k}]"
        entry = _expect_obj(entry, loc)
        _no_extra_keys(entry, ("exponent", "coefficient"), loc)
        s = parse_ratio(entry.get("exponent"), f"{loc}.exponent")
        c = parse_ratio(entry.get("coefficient"), f"{loc}.coefficient")
        if c == 0:
            raise SchemaError(loc, "zero coefficients must not be stored")
        if previous is not None and not s > previous:
            raise SchemaError(loc, f"exponents must be strictly increasing "
                                   f"({s} after {previous})")
        if s > cutoff:
            raise SchemaError(loc, f"exponent {s} exceeds cutoff {cutoff}")
        previous = s
        terms.append((s, c))
    return NovikovSeries(terms, cutoff)


# -- orbit sets -----------------------------------------------------------

_TYPE_NAMES = {kind.value: kind for kind in OrbitType3D}


def orbit_set_to_obj(orbit_set: OrbitSet) -> list:
    out = []
    for o in orbit_set:
        entry = {"label": o.label, "action": format_ratio(o.action)}
        kind = o.type_3d
        if kind is not None:
            entry["type"] = kind.value
        else:
            entry["eps1"], entry["eps2"] = o.eps1, o.eps2
        out.append(entry)
    return out


def orbit_set_from_obj(obj, where: str = "orbits") -> OrbitSet:
    orbits = []
    for k, entry in enumerate(_expect_list(obj, where)):
        loc = f"{where}[{k}]"
        entry = _expect_obj(entry, loc)
        label = _expect_str(entry.get("label"), f"{loc}.label")
        action = parse_ratio(entry.get("action"), f"{loc}.action")
        if "type" in entry:
            _no_extra_keys(entry, ("label", "action", "type"), loc)
            name = _expect_str(entry["type"], f"{loc}.type")
            if name not in _TYPE_NAMES:
                raise SchemaError(f"{loc}.type",
                                  f"unknown orbit type {name!r}; expected one "
                                  f"of {sorted(_TYPE_NAMES)}")
            orbits.append(SimpleOrbit.of_type(label, action, _TYPE_NAMES[name]))
        else:
            _no_extra_keys(entry, ("label", "action", "eps1", "eps2"), loc)
            eps1 = _expect_bit(entry.get("eps1"), f"{loc}.eps1")
            eps2 = _expect_bit(entry.get("eps2"), f"{loc}.eps2")
            orbits.append(SimpleOrbit(label, action, eps1, eps2))
    return OrbitSet(orbits)


# -- filtered complexes ---------------------------------------------------


def complex_to_obj(complex_: FilteredComplex) -> dict:
    return {
        "generators": [{"label": g.label, "eps": g.eps,
                        "filtration": format_ratio(g.filtration)}
                       for g in complex_.generators],
        "differential": [{"from": x, "to": y, "coeff": format_ratio(c)}
                         for x, y, c in complex_.boundary_entries()],
    }


def complex_from_obj(obj, where: str = "complex") -> FilteredComplex:
    obj = _expect_obj(obj, where)
    _no_extra_keys(obj, ("generators", "differential"), where)
    generators = []
    for k, entry in enumerate(_expect_list(obj.get("generators", []),
                                           f"{where}.generators")):
        loc = f"{where}.generators[{k}]"
        entry = _expect_obj(entry, loc)
        _no_extra_keys(entry, ("label", "eps", "filtration"), loc)
        generators.append((
            _expect_str(entry.get("label"), f"{loc}.label"),
            _expect_bit(entry.get("eps"), f"{loc}.eps"),
            parse_ratio(entry.get("filtration"), f"{loc}.filtration"),
        ))
    labels = {g[0] for g in generators}
    entries = []
    for k, entry in enumerate(_expect_list(obj.get("differential", []),
                                           f"{where}.differential")):
        loc = f"{where}.differential[{k}]"
        entry = _expect_obj(entry, loc)
        _no_extra_keys(entry, ("from", "to", "coeff"), loc)
        x = _expect_str(entry.get("from"), f"{loc}.from")
        y = _expect_str(entry.get("to"), f"{loc}.to")
        for label in (x, y):
            if label not in labels:
                raise SchemaError(loc, f"unknown generator {label!r}")
        entries.append((x, y, parse_ratio(entry.get("coeff"), f"{loc}.coeff")))
    return FilteredComplex(generators, entries)


# -- barcodes -------------------------------------------------------------


def barcode_to_obj(barcode: Barcode) -> list:
    return [{"birth": format_ratio(bar.birth),
             "death": "inf" if bar.death is None else format_ratio(bar.death),
             "eps": bar.eps}
            for bar in barcode]


def barcode_from_obj(obj, where: str = "barcode") -> Barcode:
    bars = []
    for k, entry in enumerate(_expect_list(obj, where)):
        loc = f"{where}[{k}]"
        entry = _expect_obj(entry, loc)
        _no_extra_keys(entry, ("birth", "death", "eps"), loc)
        birth = parse_ratio(entry.get("birth"), f"{loc}.birth")
        death_raw = entry.get("death")
        death = (None if death_raw == "inf"
                 else parse_ratio(death_raw, f"{loc}.death"))
        bars.append(Bar(birth, death, _expect_bit(entry.get("eps"),
                                                  f"{loc}.eps")))
    return Barcode(bars)


# -- domains --------------------------------------------------------------


def morse_from_obj(obj, where: str = "morse") -> MorseData:
    points = []
    for k, entry in enumerate(_expect_list(obj, where)):
        loc = f"{where}[{k}]"
        entry = _expect_obj(entry, loc)
        _no_extra_keys(entry, ("label", "action", "index"), loc)
        index = entry.get("index")
        if type(index) is not int or index not in (0, 1, 2):
            raise SchemaError(f"{loc}.index", f"expected 0, 1 or 2, got {index!r}")
        points.append((_expect_str(entry.get("label"), f"{loc}.label"),
                       parse_ratio(entry.get("action"), f"{loc}.action"),
                       index))
    return MorseData(points)


def morse_to_obj(morse: MorseData) -> list:
    return [{"label": p.label, "action": format_ratio(p.action),
             "index": p.index} for p in morse]


# -- file helpers ----------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise SchemaError(path, str(exc)) from exc


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")
