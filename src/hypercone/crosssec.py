"""Cross-section spectra: built-in round spheres and circles, JSON-file
spectra, and the half-odd-integer exclusion predicate.

A cross-section is described by its Laplace eigenvalues mu_j^2 (with
multiplicities) and its volume.  Exact rational forms ride along whenever
they exist, because the question "is s_j in 1/2 + Z?" sits on a knife edge
that float arithmetic cannot decide honestly: the generic/non-generic call
is made in exact rational arithmetic when possible and reported as
unknown_float otherwise.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DomainError,
    InvalidDimension,
    InvalidRadius,
    ParseError,
    ValidationError,
    _integer,
)

_EXACT_MATCH_TOL = 1e-15
# a float this near a lattice is undecidable: s to 1/2 + Z here, and in
# resonances a, b, c to {0, -1, ...} and resonance positions to each other
_LATTICE_TOL = 1e-9
_DOUBLE_MAX = sys.float_info.max

# a fraction num/den in lowest terms, and a mode's s as _s_data gives it
_Ratio = tuple[int, int]
_SData = tuple[float, _Ratio | None, _Ratio | None]


class GenericityVerdict(enum.Enum):
    GENERIC = "generic"
    NON_GENERIC = "non_generic"
    UNKNOWN_FLOAT = "unknown_float"


def _check_mode(mu_sq, multiplicity, mu_sq_exact, label) -> None:
    # errors._real and _rational's rule, written out as they cost more per
    # Mode: a bool is an int but no value here, a float exact form is
    # already rounded, and the range test refuses an int beyond the double
    # range along with nan and inf
    if not ((type(mu_sq) is float or isinstance(mu_sq, (int, float))
             and not isinstance(mu_sq, bool))
            and -_DOUBLE_MAX <= mu_sq <= _DOUBLE_MAX):
        raise ValidationError(f"mu_sq must be a finite number, got {mu_sq!r}")
    if mu_sq < 0:
        raise ValidationError(f"mu_sq must be >= 0, got {mu_sq}")
    if type(multiplicity) is not int or multiplicity < 1:
        raise ValidationError(
            f"multiplicity must be an integer >= 1, got {multiplicity!r}")
    if type(label) is not int or label < 0:
        raise ValidationError(f"label must be an integer >= 0, got {label!r}")
    if mu_sq_exact is not None:
        if type(mu_sq_exact) not in (Fraction, int):
            raise ValidationError(
                f"mu_sq_exact must be an exact rational, got {mu_sq_exact!r}")
        if mu_sq_exact.numerator < 0:
            raise ValidationError(
                f"mu_sq_exact must be >= 0, got {mu_sq_exact}")
        # num / den rounds the Fraction correctly, as float() would
        try:
            err = abs(mu_sq - mu_sq_exact.numerator / mu_sq_exact.denominator)
        except OverflowError:
            raise ValidationError(
                "mu_sq_exact lies beyond the double range") from None
        if err > _EXACT_MATCH_TOL * (1.0 + abs(mu_sq)):
            raise ValidationError(
                f"mu_sq_exact = {mu_sq_exact} disagrees with "
                f"mu_sq = {mu_sq}")


@dataclass(frozen=True)
class Mode:
    """One eigenvalue mu_sq of the cross-section Laplacian.

    mu_sq_exact, when present, is the exact rational value and must agree
    with the float to 1e-15 relative.  label is the mode's index j in its
    spectrum (assigned by the spectrum constructors, ascending in mu_sq).
    """

    mu_sq: float
    multiplicity: int
    mu_sq_exact: Fraction | None = None
    label: int = 0

    def __post_init__(self):
        _check_mode(self.mu_sq, self.multiplicity, self.mu_sq_exact,
                    self.label)


class _Run(NamedTuple):
    """The modes j = 0..j_max of a generated exact spectrum, an arithmetic
    run: s_j = (n-1)/2 + j * step with step = a/b in lowest terms, so
    mu_j^2 = s_j^2 - ((n-1)/2)^2, and multiplicity 1 at j = 0 and
    C(n+j, n) - C(n+j-2, n) after.  A circle of radius rho is n = 1 with
    step 1/rho; a round n-sphere (n >= 2) has step 1, so every s_j is an
    integer for odd n and every one is half-odd, excluded, for even n."""

    n: int
    step: _Ratio
    j_max: int

    def mu_sq(self, j: int) -> Fraction:
        a, b = self.step
        return Fraction(j * a * (j * a + (self.n - 1) * b), b * b)

    def first_overflow(self) -> int | None:
        # the first j whose float mu_j^2 overflows a double, by bisection
        # (mu_j^2 grows with j), or None when the last one fits
        def fits(j: int) -> bool:
            mu_sq = self.mu_sq(j)
            try:
                mu_sq.numerator / mu_sq.denominator
            except OverflowError:
                return False
            return True
        if fits(self.j_max):
            return None
        lo, hi = 0, self.j_max  # mu_0^2 = 0 fits, mu_hi^2 does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        return hi

    def modes(self) -> list[Mode]:
        n, modes = self.n, []
        for j in range(self.j_max + 1):
            exact = self.mu_sq(j)
            m = 1 if j == 0 else math.comb(n + j, n) - math.comb(n + j - 2, n)
            modes.append(Mode(exact.numerator / exact.denominator, m, exact,
                              j))
        return modes


class SpectrumSpec:
    """A truncated cross-section spectrum: dimension n, sorted modes, volume.

    source records provenance: 'sphere', 'circle', or 'file'.  volume is
    optional for file spectra (the Weyl comparison then refuses to run).
    modes is the sorted Mode list, or the _Run of a generated exact
    spectrum (kept as run), whose list is built when modes is first read:
    a count reads the run alone.
    """

    def __init__(self, dimension_n: int, modes: list[Mode] | _Run,
                 volume: float | None, source: str):
        _integer(dimension_n, "dimension n", InvalidDimension, 1)
        self.dimension_n, self.volume = dimension_n, volume
        self.source = source
        self.run: _Run | None = None
        self._modes: list[Mode] | None = None
        if isinstance(modes, _Run):
            self.run = modes
            return
        if not isinstance(modes, list):
            raise ValidationError(
                f"modes must be a list of Mode, got {type(modes).__name__}")
        last = 0.0
        for mode in modes:
            if not isinstance(mode, Mode):
                raise ValidationError(
                    f"modes must be a list of Mode, got an entry {mode!r}")
            if mode.mu_sq < last:
                raise ValidationError("modes must be sorted by mu_sq ascending")
            last = mode.mu_sq
        self._modes = modes

    @property
    def modes(self) -> list[Mode]:
        if self._modes is None:
            self._modes = self.run.modes()
        return self._modes


def sphere_spectrum(n: int, j_max: int) -> SpectrumSpec:
    """Round unit n-sphere: mu_j^2 = j(j+n-1) with the standard spherical
    harmonic multiplicities, for j = 0..j_max, as one arithmetic run whose
    modes are built when first read.  n = 1 delegates to the circle of
    radius 1.  The volume 2 pi^((n+1)/2) / Gamma((n+1)/2) is formed
    directly up to n = 342 and from logarithms beyond, where
    Gamma((n+1)/2) overflows a double; from n = 438, where the volume is
    below the smallest normal double, raises DomainError, and so does a
    j_max whose mu_j^2 overflows a double."""
    n = _integer(n, "sphere dimension n", InvalidDimension, 1)
    j_max = _integer(j_max, "j_max", ValidationError, 0)
    if n == 1:
        return circle_spectrum(1, j_max)
    try:
        vol = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    except OverflowError:
        try:
            vol = math.exp(math.log(2.0) + (n + 1) / 2.0 * math.log(math.pi)
                           - math.lgamma((n + 1) / 2.0))
        except OverflowError:  # (n+1)/2 or its lgamma beyond the doubles
            vol = 0.0
    if vol < sys.float_info.min:
        raise DomainError(f"sphere volume for n = {n}: 2 pi^((n+1)/2) / "
                          "Gamma((n+1)/2) is below the smallest normal "
                          "double")
    run = _Run(n, (1, 1), j_max)
    j = run.first_overflow()
    if j is not None:
        raise DomainError(f"sphere modes for n = {n}: mu_j^2 = j(j+n-1) "
                          f"overflows a double at j = {j}")
    return SpectrumSpec(n, run, vol, "sphere")


def circle_spectrum(rho, j_max: int) -> SpectrumSpec:
    """Circle of radius rho (n = 1): mu_j^2 = j^2 / rho^2, multiplicity 1 for
    j = 0 and 2 for j >= 1, volume 2*pi*rho.

    Exact rational tracking requires an exactly-known radius: pass an int,
    Fraction, or string ("1/3", "0.5"); the spectrum is then one arithmetic
    run whose modes are built when first read.  A float radius is taken at
    face value and produces a float-only spectrum.  An exact radius beyond
    the double range, or a positive one below it (its float is 0), raises
    InvalidRadius, and so does a bool; one whose volume, or a mode's
    mu_j^2, overflows a double raises DomainError.
    """
    exact_rho = None
    if isinstance(rho, (int, Fraction, str)) and not isinstance(rho, bool):
        try:
            exact_rho = Fraction(rho)
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidRadius(f"cannot parse radius {rho!r}: {e}") from e
        try:
            rho_f = exact_rho.numerator / exact_rho.denominator
        except OverflowError:
            raise InvalidRadius(f"circle radius rho = {rho!r}: beyond the "
                                "double range") from None
        # the sign is the Fraction's: a positive one may round to 0.0
        if rho_f == 0.0 and exact_rho > 0:
            raise InvalidRadius(f"circle radius rho = {rho!r}: below the "
                                "double range")
    elif isinstance(rho, float):
        rho_f = rho
    else:
        raise InvalidRadius(f"unsupported radius type {type(rho).__name__}")
    if rho_f <= 0 or not math.isfinite(rho_f):
        raise InvalidRadius(f"circle radius must be positive, got {rho!r}")
    j_max = _integer(j_max, "j_max", ValidationError, 0)
    vol = 2.0 * math.pi * rho_f
    if vol == math.inf:
        raise DomainError(f"circle volume for rho = {rho!r}: 2*pi*rho "
                          "overflows a double")

    def overflow(j: int) -> DomainError:
        return DomainError(f"circle modes for rho = {rho!r}: mu_j^2 = "
                           f"j^2/rho^2 overflows a double at j = {j}")
    if exact_rho is not None:
        run = _Run(1, (exact_rho.denominator, exact_rho.numerator), j_max)
        j = run.first_overflow()
        if j is not None:
            raise overflow(j)
        return SpectrumSpec(1, run, vol, "circle")
    modes = []
    for j in range(j_max + 1):
        try:  # j / rho_f overflows to inf without an OverflowError
            mu = (j / rho_f) ** 2
        except OverflowError:
            mu = math.inf
        if mu == math.inf:
            raise overflow(j)
        modes.append(Mode(mu, 1 if j == 0 else 2, None, j))
    return SpectrumSpec(1, modes, vol, "circle")


_TOP_KEYS = {"n", "volume", "modes"}
_MODE_KEYS = {"mu_sq", "mu_sq_exact", "m"}


def _exact_form(raw: str) -> Fraction:
    # what Fraction(raw) gives, reading the p/q that save_spectrum writes
    # (ASCII digits on each side of one slash) without Fraction's regex
    p, _, q = raw.partition("/")
    if p.isdigit() and q.isdigit() and raw.isascii():
        return Fraction(int(p), int(q))
    return Fraction(raw)


def _parse_mode_entry(entry, idx: int) -> tuple:
    # (mu_sq, m, mu_sq_exact) with their types checked; _file_modes makes
    # the Mode checks, by building the entry's Mode
    if not isinstance(entry, dict):
        raise ValidationError(f"modes[{idx}] must be an object")
    if not entry.keys() <= _MODE_KEYS:
        unknown = set(entry) - _MODE_KEYS
        raise ValidationError(
            f"modes[{idx}] has unknown field(s): {', '.join(sorted(unknown))}")
    if "mu_sq" not in entry:
        raise ValidationError(f"modes[{idx}] is missing required field 'mu_sq'")
    if "m" not in entry:
        raise ValidationError(f"modes[{idx}] is missing required field 'm'")
    mu_sq, m = entry["mu_sq"], entry["m"]
    # the type() tests pass a float and an int at once
    if type(mu_sq) is not float and (isinstance(mu_sq, bool)
                                     or not isinstance(mu_sq, (int, float))):
        raise ValidationError(f"modes[{idx}].mu_sq must be a number")
    if type(m) is not int and (isinstance(m, bool) or not isinstance(m, int)):
        raise ValidationError(f"modes[{idx}].m must be an integer")
    exact = None
    if "mu_sq_exact" in entry:
        raw = entry["mu_sq_exact"]
        if not isinstance(raw, str):
            raise ValidationError(f"modes[{idx}].mu_sq_exact must be a string 'p/q'")
        try:
            exact = _exact_form(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(
                f"modes[{idx}].mu_sq_exact = {raw!r} is not a valid rational: {e}")
    if type(mu_sq) is not float:
        try:
            mu_sq = float(mu_sq)
        except OverflowError:  # a JSON integer beyond the double range
            raise ValidationError(
                f"modes[{idx}].mu_sq lies beyond the double range") from None
    return mu_sq, m, exact


def _file_modes(raw: list) -> list[Mode]:
    """The modes of a file's 'modes' array, sorted by mu_sq, with entries
    of equal mu_sq merged and their multiplicities summed.

    One pass in sorted order builds each entry's Mode, so checks it, once
    with its final label; a run of equal mu_sq keeps its first entry in
    file order (the sort is stable) and sums the rest into it, and a
    merged mode is built once more at the end.  Anything refused there
    sends the entries through again in file order, parsed and then built,
    so the error names the first bad entry; when none is bad, it is the
    first repeated mu_sq whose exact forms disagree.
    """
    try:
        entries = sorted((_parse_mode_entry(entry, idx)
                          for idx, entry in enumerate(raw)), key=itemgetter(0))
        modes, counts = [], []
        for value, m, exact in entries:
            if modes and value == modes[-1].mu_sq:
                first = modes[-1]
                if exact != first.mu_sq_exact:
                    raise ValidationError(
                        f"duplicate mu_sq = {first.mu_sq} entries carry "
                        "inconsistent exact forms")
                Mode(value, m, exact, first.label)  # checks the entry
                counts[-1] += m
            else:
                modes.append(Mode(value, m, exact, len(modes)))
                counts.append(m)
        return [mode if m == mode.multiplicity
                else Mode(mode.mu_sq, m, mode.mu_sq_exact, mode.label)
                for mode, m in zip(modes, counts)]
    except ValidationError:
        for idx, entry in enumerate(raw):
            value, m, exact = _parse_mode_entry(entry, idx)
            try:
                Mode(value, m, exact)
            except ValidationError as e:
                raise ValidationError(f"modes[{idx}]: {e}") from e
        raise


def load_spectrum(source) -> SpectrumSpec:
    """Read a spectrum from a JSON file (path or open stream).

    Schema: {"n": int >= 1, "volume": number (optional),
             "modes": [{"mu_sq": number, "mu_sq_exact": "p/q" (optional),
                        "m": int >= 1}, ...]}
    mu_sq_exact accepts any string fractions.Fraction reads; "p/q" in
    ASCII digits, as save_spectrum writes it, is read fastest.  Unknown
    fields are rejected; entries of equal mu_sq are merged with their
    multiplicities summed; modes come back sorted ascending.  A
    ValidationError names the first bad entry in file order.  A file that
    cannot be read, is not UTF-8, is not JSON or nests too deeply for the
    JSON reader raises ParseError.
    """
    try:
        if isinstance(source, (str, Path)):
            try:
                text = Path(source).read_text(encoding="utf-8")
            except OSError as e:
                raise ParseError(f"cannot read {source}: {e}") from e
        else:
            text = source.read()
        data = json.loads(text)
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ParseError("JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ValidationError("top-level value must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown top-level field(s): {', '.join(sorted(unknown))}")
    if "n" not in data:
        raise ValidationError("missing required field 'n'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"'n' must be an integer >= 1, got {n!r}")
    volume = None
    if "volume" in data:
        raw = data["volume"]
        try:
            volume = float(raw) if type(raw) is int else raw
        except OverflowError:  # a JSON integer beyond the double range
            raise ValidationError(
                "'volume' lies beyond the double range") from None
        if (not isinstance(volume, float) or volume <= 0
                or not math.isfinite(volume)):
            raise ValidationError(f"'volume' must be a finite positive number, got {raw!r}")
    if "modes" not in data:
        raise ValidationError("missing required field 'modes'")
    if not isinstance(data["modes"], list) or not data["modes"]:
        raise ValidationError("'modes' must be a non-empty array")
    return SpectrumSpec(n, _file_modes(data["modes"]), volume, "file")


def spectrum_to_dict(spec: SpectrumSpec) -> dict:
    """Schema-shaped dict for a spectrum; load_spectrum round-trips it."""
    out: dict = {"n": spec.dimension_n, "modes": []}
    if spec.volume is not None:
        out["volume"] = spec.volume
    for m in spec.modes:
        entry: dict = {"mu_sq": m.mu_sq, "m": m.multiplicity}
        if m.mu_sq_exact is not None:
            entry["mu_sq_exact"] = (f"{m.mu_sq_exact.numerator}/"
                                    f"{m.mu_sq_exact.denominator}")
        out["modes"].append(entry)
    return out


def save_spectrum(spec: SpectrumSpec, target) -> None:
    text = json.dumps(spectrum_to_dict(spec), sort_keys=True, indent=1)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text + "\n", encoding="utf-8")
    else:
        target.write(text + "\n")


def _exact_s(n: int, mu_sq: Fraction) -> tuple[_Ratio, _Ratio | None]:
    """s^2 = ((n-1)/2)^2 + mu_sq, and s itself when it is rational.

    With mu_sq = p/q, s^2 = ((n-1)^2 q + 4p) / (4q), reduced once by the
    gcd.  A reduced fraction is a rational square iff its numerator and
    denominator both are, so math.isqrt on each settles it.  Returns
    (num, den) of s^2 in lowest terms and (num, den) of s in lowest terms,
    or None when s is irrational (or s^2 < 0, which no valid mode gives).
    """
    p, q = mu_sq.numerator, mu_sq.denominator
    num = (n - 1) ** 2 * q + 4 * p
    den = 4 * q
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num >= 0:
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return (num, den), (rn, rd)
    return (num, den), None


def _s_data(n: int, mode: Mode) -> _SData:
    """A mode's s as the lattice code reads it: the float value, s =
    num/den when rational and s^2 = num/den when mu^2 is exact, both in
    lowest terms (else None).  The one place s is formed."""
    # int / int is correctly rounded, so these are the doubles float() and
    # math.sqrt() give for the same Fractions
    if mode.mu_sq_exact is None:
        return math.sqrt(((n - 1) / 2.0) ** 2 + mode.mu_sq), None, None
    sq, root = _exact_s(n, mode.mu_sq_exact)
    if root is not None:
        return root[0] / root[1], root, sq
    return math.sqrt(sq[0] / sq[1]), None, sq


def _half_odd(root: _Ratio | None) -> bool:
    # a rational s in lowest terms lies in 1/2 + Z iff its denominator is 2
    return root is not None and root[1] == 2


def _near_half_odd(s: float) -> bool:
    # the float test: s within _LATTICE_TOL of 1/2 + Z
    return (abs(s - (math.floor(s) + 0.5)) <= _LATTICE_TOL
            or abs(s - (math.floor(s) - 0.5)) <= _LATTICE_TOL)


def is_generic(mode: Mode, n: int) -> GenericityVerdict:
    """Decide whether s = sqrt(((n-1)/2)^2 + mu^2) avoids 1/2 + Z.

    Modes with s in 1/2 + Z contribute no resonances.  With an exact mu_sq
    the test is exact: _exact_s finds s when it is rational, and s is in
    1/2 + Z iff its reduced denominator is 2.  On floats the verdict is
    generic when s is farther than _LATTICE_TOL (1e-9) from the half-odd
    lattice and unknown_float when within it (_near_half_odd).
    """
    n = _integer(n, "n", InvalidDimension, 1)
    if mode.mu_sq_exact is not None:
        if _half_odd(_exact_s(n, mode.mu_sq_exact)[1]):
            return GenericityVerdict.NON_GENERIC
        return GenericityVerdict.GENERIC
    if _near_half_odd(_s_data(n, mode)[0]):
        return GenericityVerdict.UNKNOWN_FLOAT
    return GenericityVerdict.GENERIC
