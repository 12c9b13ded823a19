"""The small values of the library are immutable tuples of their fields.

The five value types, ``SimpleOrbit``, ``EchGenerator``, ``Bar``,
``ToricDomain`` and ``MorseCriticalPoint``, are namedtuple classes, on
purpose: a value equals and hashes as the plain tuple of its coerced
fields (so ``Bar(1, 2, 0) == (1, 2, 0)``), its repr names every field,
assignment raises ``AttributeError``, construction by keyword works, and
every check runs in ``__new__`` however the fields are passed.  The reprs
and error messages below are those the frozen dataclasses printed.  A
cold CLI start loads none of ``dataclasses``, ``inspect`` and ``typing``.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from reebzeta import (Bar, EchGenerator, MorseCriticalPoint, SimpleOrbit,
                      ToricDomain)
from reebzeta.errors import NonPositiveAction

SRC = Path(__file__).resolve().parent.parent / "src"

ORBIT = SimpleOrbit("g", "3/2", 0, 1)
ORBIT_REPR = "SimpleOrbit(label='g', action=Fraction(3, 2), eps1=0, eps2=1)"

# (type, fields as given, the coerced fields, repr)
VALUES = [
    (SimpleOrbit, dict(label="g", action="3/2", eps1=0, eps2=1),
     ("g", F(3, 2), 0, 1), ORBIT_REPR),
    (EchGenerator, dict(pairs=((ORBIT, 1),), grading=0, total_action=F(3, 2)),
     (((ORBIT, 1),), 0, F(3, 2)),
     f"EchGenerator(pairs=(({ORBIT_REPR}, 1),), grading=0, "
     "total_action=Fraction(3, 2))"),
    (Bar, dict(birth="1/2", death=2, eps=1), (F(1, 2), F(2), 1),
     "Bar(birth=Fraction(1, 2), death=Fraction(2, 1), eps=1)"),
    (Bar, dict(birth=1, death=None, eps=0), (F(1), None, 0),
     "Bar(birth=Fraction(1, 1), death=None, eps=0)"),
    (ToricDomain, dict(a=1, b="3/2"), (F(1), F(3, 2)),
     "ToricDomain(a=Fraction(1, 1), b=Fraction(3, 2))"),
    (MorseCriticalPoint, dict(label="m", action=2, index=0), ("m", F(2), 0),
     "MorseCriticalPoint(label='m', action=Fraction(2, 1), index=0)"),
]

# (type, fields, error type, message)
INVALID = [
    (SimpleOrbit, dict(label="g", action=0, eps1=0, eps2=0),
     NonPositiveAction, "orbit 'g': action 0 must be > 0"),
    (SimpleOrbit, dict(label="g", action="-1/2", eps1=0, eps2=0),
     NonPositiveAction, "orbit 'g': action -1/2 must be > 0"),
    (SimpleOrbit, dict(label="g", action=1, eps1=2, eps2=0),
     ValueError, "orbit 'g': parities must be 0 or 1"),
    (SimpleOrbit, dict(label="g", action=1, eps1=0, eps2=True),
     ValueError, "orbit 'g': parities must be 0 or 1"),
    (SimpleOrbit, dict(label="g", action=0.5, eps1=0, eps2=0),
     TypeError, "floating point value 0.5 not accepted; pass an int, "
                "Fraction, or 'p/q' string"),
    (Bar, dict(birth=2, death=1, eps=0),
     ValueError, "bar needs birth < death, got [2, 1)"),
    (Bar, dict(birth=1, death=1, eps=0),
     ValueError, "bar needs birth < death, got [1, 1)"),
    (Bar, dict(birth=1, death=None, eps=2),
     ValueError, "bar eps must be 0 or 1"),
    (Bar, dict(birth=1, death=2, eps=False),
     ValueError, "bar eps must be 0 or 1"),
    (ToricDomain, dict(a=0, b=1),
     NonPositiveAction, "toric axis actions must be positive, got (0, 1)"),
    (ToricDomain, dict(a=1, b="-3/2"),
     NonPositiveAction, "toric axis actions must be positive, got (1, -3/2)"),
    (MorseCriticalPoint, dict(label="m", action=0, index=0),
     NonPositiveAction, "critical point 'm': action must be positive"),
    (MorseCriticalPoint, dict(label="m", action=1, index=3),
     ValueError, "critical point 'm': index must be 0, 1 or 2"),
    (MorseCriticalPoint, dict(label="m", action=1, index=True),
     ValueError, "critical point 'm': index must be 0, 1 or 2"),
]


@pytest.mark.parametrize("kind, fields, coerced, text", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
def test_value_is_the_tuple_of_its_coerced_fields(kind, fields, coerced, text):
    by_position, by_keyword = kind(*fields.values()), kind(**fields)
    for value in (by_position, by_keyword):
        assert repr(value) == text
        assert value == coerced and tuple(value) == coerced
        assert hash(value) == hash(coerced)
        assert [type(x) for x in value] == [type(x) for x in coerced]
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = None


@pytest.mark.parametrize("kind, fields, error, message", INVALID,
                         ids=[row[0].__name__ for row in INVALID])
def test_checks_run_by_position_and_by_keyword(kind, fields, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        kind(*fields.values())
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        kind(**fields)


def test_library_never_builds_a_value_past_its_checks():
    # namedtuple's _make and _replace do not run __new__
    for path in sorted((SRC / "reebzeta").glob("*.py")):
        assert not re.search(r"\._(make|replace)\(", path.read_text()), path


def test_cold_start_loads_no_introspection_modules():
    # -S keeps site-packages, and any module a .pth file loads, out
    code = ("import reebzeta.cli, sys; print(*sorted({'dataclasses', "
            "'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "\n"
