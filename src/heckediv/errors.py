"""Exception types shared across the library.

Every computational error has its own class so callers (and the CLI) can
report the failure by name instead of pattern-matching messages.
"""


class HeckeDivError(Exception):
    """Base class for all library errors."""


class NonUnitLeading(HeckeDivError):
    """Division (or log-derivative) by a series whose leading term is zero."""


class PrecisionExhausted(HeckeDivError):
    """An operation would leave fewer than one known coefficient."""


class NotIntegralSeries(HeckeDivError):
    """A series expected to live in Q[[q]] has fractional-exponent or
    irrational content."""


class UnsupportedWeight(HeckeDivError):
    """A weight outside the supported range: an Eisenstein weight that is
    odd or below 4, or a non-integral total weight."""


class UnsupportedWeightParity(HeckeDivError):
    """Odd weight passed to an operator that needs n**(1-k/2) rational."""


class InvalidInput(HeckeDivError, ValueError):
    """An argument that names no valid object (a form name that does not
    parse, a point off H); a ValueError too, as callers expect."""


class UnsupportedParameter(HeckeDivError):
    """Hecke parameter outside the validity domain (e.g. composite n
    sharing a factor with the level)."""


class UnknownDivisor(HeckeDivError):
    """An expression atom without symbolic divisor data."""


class NotPolynomialInJ(HeckeDivError):
    """A weight-0 series that is not a polynomial in j at the given
    precision (wrong level, or precision too small)."""


class NonGenusZeroLevel(HeckeDivError):
    """Harmonic slice requested at a level without a Hauptmodul."""


class ConvergenceBudgetExceeded(HeckeDivError):
    """A numeric evaluation could not reach the requested tolerance
    within its truncation budget."""


class MissingCuspValue(HeckeDivError):
    """A divisor pairing touched a cusp the evaluator has no value for."""


class InvariantViolation(HeckeDivError):
    """An identity that holds for every valid input failed: a defect in
    the library, reported by name where an assert would vanish under
    ``python -O``."""
