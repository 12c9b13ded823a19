"""Exception types shared across the library.

A violated mathematical precondition raises a ReebZetaError, which the
CLI tells apart from a genuine bug and exits 2 on: BeyondValidity, say,
for a cutoff above a series' validity.  A malformed constructor argument,
such as a parity not 0 or 1, raises a ValueError or a KeyError; the
``serialize`` decoders check each field first and raise SchemaError,
and the CLI reports a ReebZetaError from loading a file as one too.
``echo`` quotes a value in any of their messages.
"""


class ReebZetaError(Exception):
    """Base class of the library's precondition errors."""


class InternalError(Exception):
    """A computation broke its own invariant: a bug, not a bad input."""


def echo(value) -> str:
    """repr of a value quoted in an error message, cut to 80 characters,
    so that a huge label or field in an input file gives a short message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# --- Novikov series ---

class NotAUnit(ReebZetaError, ArithmeticError):
    """Inversion of a series that is zero modulo its cutoff."""


class NotPositivelySupported(ReebZetaError, ValueError):
    """Exponential of a series with an exponent <= 0."""


class BadLeadingTerm(ReebZetaError, ValueError):
    """Logarithm of a series whose constant term is not 1, or with a
    negative exponent."""


class TooManyDigits(ReebZetaError, ValueError):
    """A result coefficient has too many digits for Python to write."""


class BeyondValidity(ReebZetaError, ValueError):
    """Truncation to a cutoff above the validity of the series."""


# --- Orbit data ---

class NonPositiveAction(ReebZetaError, ValueError):
    """An action (orbit period, cutoff, evaluation level) that must be
    positive is not."""


class DuplicateLabel(ReebZetaError, ValueError):
    """Two records in one collection share a label."""


class NotThreeDimensional(ReebZetaError, ValueError):
    """Orbit with Lefschetz parities (1, 0) passed to a 3D-only
    operation; no 3-dimensional orbit type realizes that pair."""


# --- Filtered complexes ---

class NotSquareZero(ReebZetaError, ValueError):
    """The differential does not square to zero."""


class FiltrationViolation(ReebZetaError, ValueError):
    """A differential entry does not strictly decrease the filtration."""


class GradingViolation(ReebZetaError, ValueError):
    """A differential entry does not change the Z/2 grading."""


class UnknownLabel(KeyError):
    """An unknown generator label; str() is the message, not its repr."""
    __str__ = BaseException.__str__


# --- Moebius product transform ---

class NonIntegerCoefficients(ReebZetaError, ValueError):
    """The transform input must have integer coefficients."""


class NonPositiveSupport(ReebZetaError, ValueError):
    """The transform input must be supported on strictly positive
    exponents."""


# --- Closed-form domains ---

class OnSpectrum(ReebZetaError, ValueError):
    """Evaluation level lies on the action spectrum, where the counting
    function jumps and is not defined."""


class BadMorseCounts(ReebZetaError, ValueError):
    """Critical point indices incompatible with a Morse function on the
    2-sphere."""


class NotCoprime(ReebZetaError, ValueError):
    """Normal vector components are not relatively prime."""
