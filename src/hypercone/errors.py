"""Typed exceptions shared across the package, and the one rule by which a
public entry point reads a numeric argument.

Numerical code here never returns inf/nan to signal trouble; every failure
mode has a named exception so callers (and the CLI exit-code map) can react
to the cause rather than parsing messages.

An argument is read by _real, _integer, _complex or _rational, given its
name and the class it raises, and the caller goes on with the converted
value.  A real is a numbers.Real, not a bool, that converts to a finite
float in its interval, written with each end open or closed ("(0, 1]"); an
integer is an int, not a bool, at or above its floor; a complex is a
numbers.Number, not a bool, with finite parts; a rational is an int, not a
bool, or a Fraction.  Anything else raises the class with the message
"<name> must be <a real in (0, 1] | an integer in [1, inf) | a finite
complex | an exact rational>, got <repr>".
"""

import cmath
import math
import numbers
from fractions import Fraction


class HyperconeError(Exception):
    """Base class for all package errors."""


# special functions

class PoleAtNonPositiveInteger(HyperconeError):
    """Gamma (or log-Gamma) evaluated exactly at 0, -1, -2, ..."""


class LowerParameterPole(HyperconeError):
    """2F1 lower parameter c is exactly a non-positive integer."""


class NoConvergence(HyperconeError):
    """A series failed to meet its stopping rule within max_terms."""


# cross-section spectra

class InvalidDimension(HyperconeError):
    """Cross-section dimension n must be an integer >= 1."""


class InvalidRadius(HyperconeError):
    """Circle radius must be positive."""


class ParseError(HyperconeError):
    """Spectrum file is not well-formed JSON."""


class ValidationError(HyperconeError):
    """Spectrum data violates the schema or an internal consistency rule."""


# resonance bookkeeping

class InconsistentParams(HyperconeError):
    """Hypergeometric parameters break the c = 2a or b = a + s constraints."""


class UndecidableMembership(HyperconeError):
    """A float is within threshold of the integer lattice and no exact form
    is available to decide membership honestly."""


class TruncationInsufficient(HyperconeError):
    """The enumerated resonance set cannot certify completeness up to the
    requested bound."""


# resolvent kernel

class DomainError(HyperconeError):
    """Argument outside the documented domain (e.g. sigma not in (0,1))."""


class ParameterPole(HyperconeError):
    """A closed-form expression is genuinely infinite at these parameters."""


class PoleEvaluation(HyperconeError):
    """apply_resolvent called at a genuine pole of the resolvent."""


class QuadratureFailure(HyperconeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ProbeInconclusive(HyperconeError):
    """Contour residue magnitude straddles the decision threshold."""


# interval text -> (lo, hi, lo open, hi open)
_INTERVALS: dict[str, tuple[float, float, bool, bool]] = {}


def _real(value, name: str, error: type[HyperconeError],
          interval: str) -> float:
    """value as a finite float in interval, written as "(0, 1]"."""
    try:
        lo, hi, lo_open, hi_open = _INTERVALS[interval]
    except KeyError:  # parsed on first use
        lo, hi = map(float, interval[1:-1].split(", "))
        lo_open, hi_open = interval[0] == "(", interval[-1] == ")"
        _INTERVALS[interval] = lo, hi, lo_open, hi_open
    x = math.nan
    if type(value) is float:  # skips the slower abstract check
        x = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int or Fraction beyond the doubles
            pass
    if ((lo < x if lo_open else lo <= x) and math.isfinite(x)
            and (x < hi if hi_open else x <= hi)):
        return x
    raise error(f"{name} must be a real in {interval}, got {value!r}")


def _integer(value, name: str, error: type[HyperconeError],
             floor: int) -> int:
    """value as an int at or above floor."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and value >= floor):
        return value
    raise error(f"{name} must be an integer in [{floor}, inf), got {value!r}")


def _complex(value, name: str, error: type[HyperconeError]) -> complex:
    """value as a complex with finite parts."""
    if isinstance(value, numbers.Number) and not isinstance(value, bool):
        try:
            z = complex(value)
        except (TypeError, ValueError, OverflowError):
            z = complex(math.nan)
        if cmath.isfinite(z):
            return z
    raise error(f"{name} must be a finite complex, got {value!r}")


def _rational(value, name: str, error: type[HyperconeError]) -> Fraction:
    """value as a Fraction, from an int or a Fraction only: a float is
    already rounded, so it is not read as exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise error(f"{name} must be an exact rational, got {value!r}")
