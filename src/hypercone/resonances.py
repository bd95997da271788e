"""Resonance lattice of a hyperbolic cone and the Gamma-pole case analysis.

For a cross-section mode with eigenvalue mu^2, put s = sqrt(((n-1)/2)^2 +
mu^2).  Modes with s in 1/2 + Z contribute nothing; every other mode
contributes resonances at lambda_{j,k} = -i(1/2 + k + s_j), k = 0, 1, 2, ...
with the mode's multiplicity.  The mode resolvent's prefactor is
Gamma(a)Gamma(b) / (Gamma(c)Gamma(1+s)) with a = 1/2 - i*lambda, b = a + s,
c = 2a, and whether a prefactor pole survives in the full kernel is a
six-way case split on which of a, b, c sit in {0, -1, -2, ...}.

Integer-lattice membership is decided exactly whenever the inputs allow it.
A value here has the form r + w*s with rational r, w; if s is rational the
value folds to a rational, and if s^2 is rational but s is not, any value
with w != 0 is irrational and membership is settled.  Floats within 1e-9 of
the lattice without an exact form raise UndecidableMembership rather than
guessing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .crosssec import GenericityVerdict, Mode, SpectrumSpec, _rational_sqrt, is_generic
from .errors import (
    InconsistentParams,
    InvalidDimension,
    TruncationInsufficient,
    UndecidableMembership,
    ValidationError,
)

_LATTICE_TOL = 1e-9

# (rational part, coefficient of s); exact value is rat + coef * s
_Sym = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SValue:
    """s = sqrt(((n-1)/2)^2 + mu^2) with whatever exactness survives.

    exact is set when s itself is rational; sq_exact is set whenever mu^2 is
    exact (so irrationality of s is certified when sq_exact is present but
    exact is not).
    """

    value: float
    exact: Fraction | None = None
    sq_exact: Fraction | None = None


def s_param(n: int, mode: Mode) -> SValue:
    if not isinstance(n, int) or n < 1:
        raise InvalidDimension(f"n must be an integer >= 1, got {n!r}")
    if mode.mu_sq_exact is not None:
        sq = Fraction(n - 1, 2) ** 2 + mode.mu_sq_exact
        root = _rational_sqrt(sq)
        value = float(root) if root is not None else math.sqrt(sq)
        return SValue(value, root, sq)
    return SValue(math.sqrt(((n - 1) / 2.0) ** 2 + mode.mu_sq), None, None)


@dataclass(frozen=True)
class HypergeomParams:
    """Mode-resolvent hypergeometric parameters at spectral point lambda.

    Invariants c = 2a and b = a + s hold by construction.  The *_sym fields
    carry exact (rational, coefficient-of-s) forms when lambda is purely
    imaginary with known-exact imaginary part; they drive the pole
    classifier's exact lattice decisions.
    """

    a: complex
    b: complex
    c: complex
    s: float
    lam: complex
    s_exact: Fraction | None = None
    s_sq_exact: Fraction | None = None
    a_sym: _Sym | None = None
    b_sym: _Sym | None = None
    c_sym: _Sym | None = None


def _build_params(n: int, mode: Mode, lam: complex,
                  y_sym: _Sym | None) -> HypergeomParams:
    # y_sym encodes Im(lambda) = rat + coef * s when known exactly
    sv = s_param(n, mode)
    lam = complex(lam)
    a = 0.5 - 1j * lam
    b = a + sv.value
    c = 2.0 * a
    a_sym = b_sym = c_sym = None
    if y_sym is not None:
        u, v = y_sym
        if sv.exact is not None:
            a_sym = (Fraction(1, 2) + u + v * sv.exact, Fraction(0))
            b_sym = (a_sym[0] + sv.exact, Fraction(0))
            c_sym = (2 * a_sym[0], Fraction(0))
        elif sv.sq_exact is not None:
            a_sym = (Fraction(1, 2) + u, v)
            b_sym = (Fraction(1, 2) + u, v + 1)
            c_sym = (1 + 2 * u, 2 * v)
        # float-only s: no exact decisions possible, leave syms unset
    return HypergeomParams(a, b, c, sv.value, lam, sv.exact, sv.sq_exact,
                           a_sym, b_sym, c_sym)


def hypergeom_params(n: int, mode: Mode, lam: complex, *,
                     lam_im_exact: Fraction | None = None) -> HypergeomParams:
    """Parameters (a, b, c, s) for the mode resolvent at lambda.

    i*lambda is carried exactly when lambda is purely imaginary: any float
    imaginary part is itself a rational, so Re(lambda) == 0 is enough; an
    explicit lam_im_exact (must match to 1e-12) can also be supplied.
    """
    lam = complex(lam)
    if lam_im_exact is not None:
        if abs(lam.imag - float(lam_im_exact)) > 1e-12 * (1.0 + abs(lam.imag)):
            raise InconsistentParams(
                f"lam_im_exact = {lam_im_exact} disagrees with lam = {lam}")
        if lam.real != 0.0:
            raise InconsistentParams(
                "lam_im_exact supplied for a lambda with nonzero real part")
        y: _Sym | None = (lam_im_exact, Fraction(0))
    elif lam.real == 0.0:
        y = (Fraction(lam.imag), Fraction(0))
    else:
        y = None
    return _build_params(n, mode, lam, y)


def candidate_params(n: int, mode: Mode, k: int) -> HypergeomParams:
    """Parameters at the candidate resonance position lambda = -i(1/2 + k + s).

    The imaginary part involves s itself, so this constructor keeps it in
    symbolic form; for irrational s this is the only way to classify the
    candidate exactly (e.g. s = sqrt(13)/2 gives a = -s, b = 0, c = -2s)."""
    if not isinstance(k, int) or k < 0:
        raise ValidationError(f"k must be an integer >= 0, got {k!r}")
    sv = s_param(n, mode)
    lam = complex(0.0, -(0.5 + k + sv.value))
    u = Fraction(-1, 2) - k
    v = Fraction(-1)
    if mode.mu_sq_exact is None:
        return _build_params(n, mode, lam, None)
    return _build_params(n, mode, lam, (u, v))


class PoleVerdict(enum.Enum):
    REGULAR = "regular"
    GENUINE_POLE = "genuine_pole"
    REMOVABLE = "removable"


class CaseId(enum.Enum):
    cN_bN_aN = "cN_bN_aN"
    cN_bY = "cN_bY"
    cY_bN_aN = "cY_bN_aN"
    cY_bN_aY = "cY_bN_aY"
    cY_bY_aN = "cY_bY_aN"
    cY_bY_aY = "cY_bY_aY"


@dataclass(frozen=True)
class PoleClass:
    verdict: PoleVerdict
    case_id: CaseId


_GENUINE_CASES = {CaseId.cN_bY, CaseId.cY_bY_aY}


def _in_lattice(value: complex, sym: _Sym | None, p: HypergeomParams,
                what: str) -> bool:
    # membership in {0, -1, -2, ...}
    if sym is not None:
        rat, coef = sym
        if coef == 0:
            return rat.denominator == 1 and rat <= 0
        if p.s_sq_exact is not None and p.s_exact is None:
            return False  # rat + coef*s is irrational
        raise InconsistentParams(f"symbolic form of {what} lost its s data")
    nearest = min(round(value.real), 0)
    dist = math.hypot(value.real - nearest, value.imag)
    if dist <= _LATTICE_TOL:
        raise UndecidableMembership(
            f"{what} = {value} is within {_LATTICE_TOL} of the non-positive "
            f"integers and no exact form is available")
    return False


def classify_pole(p: HypergeomParams) -> PoleClass:
    """Six-way case split on lattice membership of (c, b, a).

    c not in Z_-: regular unless b is (genuine pole).  c in Z_-: a pole of
    Gamma(c) can cancel the prefactor poles, leaving these parameter points
    regular (neither a nor b in the lattice), removable (exactly one), or a
    genuine pole (both).  a in the lattice forces c = 2a in it too, so the
    remaining combination cannot arise from consistent parameters.
    """
    if abs(p.c - 2.0 * p.a) > 1e-12 * (1.0 + abs(p.c)):
        raise InconsistentParams(f"c = {p.c} is not 2a = {2.0 * p.a}")
    if abs(p.b - (p.a + p.s)) > 1e-12 * (1.0 + abs(p.b)):
        raise InconsistentParams(f"b = {p.b} is not a + s = {p.a + p.s}")
    c_in = _in_lattice(p.c, p.c_sym, p, "c")
    b_in = _in_lattice(p.b, p.b_sym, p, "b")
    a_in = _in_lattice(p.a, p.a_sym, p, "a")
    if a_in and not c_in:
        raise InconsistentParams(
            f"a = {p.a} in the lattice but c = 2a = {p.c} is not")
    if not c_in:
        if b_in:
            return PoleClass(PoleVerdict.GENUINE_POLE, CaseId.cN_bY)
        return PoleClass(PoleVerdict.REGULAR, CaseId.cN_bN_aN)
    if a_in and b_in:
        return PoleClass(PoleVerdict.GENUINE_POLE, CaseId.cY_bY_aY)
    if a_in:
        return PoleClass(PoleVerdict.REMOVABLE, CaseId.cY_bN_aY)
    if b_in:
        return PoleClass(PoleVerdict.REMOVABLE, CaseId.cY_bY_aN)
    return PoleClass(PoleVerdict.REGULAR, CaseId.cY_bN_aN)


@dataclass(frozen=True)
class Truncation:
    j_max: int
    k_max: int
    lambda_max: float


@dataclass(frozen=True)
class Resonance:
    """One resonance: lambda = -i * t with t = -Im(lambda) > 0.

    im_part_exact is the exact rational t when every contributing s is
    rational.  contributors lists (mode label j, order k) pairs, and
    multiplicity is the sum of the contributing modes' multiplicities.
    """

    lam: complex
    multiplicity: int
    contributors: tuple[tuple[int, int], ...]
    im_part_exact: Fraction | None = None
    surd_key: tuple[Fraction, int] | None = field(default=None, repr=False)

    @property
    def t(self) -> float:
        return -self.lam.imag

    def t_le(self, bound: float) -> bool:
        # exact comparison whenever an exact form is carried
        if self.im_part_exact is not None:
            sv, k = SValue(self.t - 0.5, self.im_part_exact - Fraction(1, 2)), 0
        elif self.surd_key is not None:
            s_sq, k = self.surd_key
            sv = SValue(self.t - 0.5 - k, None, s_sq)
        else:
            sv, k = SValue(self.t - 0.5), 0
        return _count_le(sv, k, bound) > k


@dataclass
class ResonanceSet:
    resonances: list[Resonance]
    truncation: Truncation
    spectrum: SpectrumSpec
    exact: bool

    def complete_up_to(self, bound: float) -> bool:
        """True when the truncation provably captures every resonance with
        |lambda| <= bound: the bound is within the lambda_max the set was
        enumerated to, the last listed mode's 1/2 + s exceeds the bound (so
        do all unlisted modes), and so does 1/2 + k_max + s_first."""
        return (bound <= self.truncation.lambda_max
                and _truncation_covers(self.spectrum, self.truncation.k_max,
                                       bound))


def _count_le(sv: SValue, k_max: int, bound: float) -> int:
    """Number of k in 0..k_max with 1/2 + k + s <= bound.

    The one place the position test is made.  Rational s takes one exact
    floor.  Otherwise a float guess of the last k is corrected one step at
    a time: exactly through s^2 <= (bound - 1/2 - k)^2 for a surd, and by
    the double expression 0.5 + k + s <= bound for float-only s, which is
    monotone in k.
    """
    if sv.exact is None and sv.sq_exact is None:
        def le(k: int) -> bool:
            return 0.5 + k + sv.value <= bound
    else:
        # bound - 1/2 = p / q exactly
        bn, bd = Fraction(bound).as_integer_ratio()
        p, q = 2 * bn - bd, 2 * bd
        if sv.exact is not None:
            sn, sd = sv.exact.as_integer_ratio()
            k = (p * sd - q * sn) // (q * sd)
            return max(0, min(k, k_max) + 1)
        an, ad = sv.sq_exact.as_integer_ratio()

        def le(k: int) -> bool:
            r = p - k * q
            return r >= 0 and an * q * q <= ad * r * r
    k = max(-1, min(k_max, math.floor(bound - 0.5 - sv.value)))
    while k < k_max and le(k + 1):
        k += 1
    while k >= 0 and not le(k):
        k -= 1
    return k + 1


def _truncation_covers(spec: SpectrumSpec, k_max: int, bound: float) -> bool:
    # modes past the last listed one and orders past k_max all lie above bound
    modes = spec.modes
    if not modes:
        return True
    n = spec.dimension_n
    return (_count_le(s_param(n, modes[-1]), 0, bound) == 0
            and _count_le(s_param(n, modes[0]), k_max, bound) <= k_max)


def _validate_limits(k_max: int, bound: float) -> None:
    if not isinstance(k_max, int) or k_max < 0:
        raise ValidationError(f"k_max must be an integer >= 0, got {k_max!r}")
    if not (isinstance(bound, (int, float)) and bound >= 0):
        raise ValidationError(f"lambda bound must be >= 0, got {bound!r}")


def _generic_modes(spec: SpectrumSpec) -> list[tuple[Mode, SValue]]:
    n = spec.dimension_n
    generic: list[tuple[Mode, SValue]] = []
    for mode in spec.modes:
        verdict = is_generic(mode, n)
        if verdict is GenericityVerdict.UNKNOWN_FLOAT:
            raise UndecidableMembership(
                f"mode j = {mode.label} (mu_sq = {mode.mu_sq}) sits within "
                f"1e-9 of the half-odd-integer lattice without an exact form")
        if verdict is GenericityVerdict.GENERIC:
            generic.append((mode, s_param(n, mode)))
    return generic


def enumerate_resonances(spec: SpectrumSpec, k_max: int,
                         lambda_max: float) -> ResonanceSet:
    """All resonances with |lambda| <= lambda_max from the truncated
    spectrum, k = 0..k_max, merged across coinciding positions.

    Merging is exact whenever every generic mode carries exact s data: two
    positions 1/2 + k + s coincide only if both s are rational (compare the
    rationals) or the modes share the same irrational s (compare (s^2, k)).
    Otherwise positions are clustered with a 1e-9 tolerance on -Im lambda.
    Raises UndecidableMembership if any mode's genericity is unknown_float.
    """
    _validate_limits(k_max, lambda_max)
    generic = _generic_modes(spec)
    all_exact = all(sv.exact is not None or sv.sq_exact is not None
                    for _, sv in generic)
    entries = []
    for mode, sv in generic:
        if sv.exact is not None:
            base = Fraction(1, 2) + sv.exact
        for k in range(_count_le(sv, k_max, lambda_max)):
            if sv.exact is not None:
                t_exact = base + k
                key = ("rat", t_exact)
                entries.append((float(t_exact), key, t_exact, None, mode, k))
            elif sv.sq_exact is not None:
                key = ("surd", sv.sq_exact, k)
                entries.append((0.5 + k + sv.value, key, None,
                                (sv.sq_exact, k), mode, k))
            else:
                entries.append((0.5 + k + sv.value, None, None, None, mode, k))
    groups: list[list] = []
    if all_exact:
        by_key: dict = {}
        for e in entries:
            by_key.setdefault(e[1], []).append(e)
        groups = list(by_key.values())
    else:
        for e in sorted(entries, key=lambda e: e[0]):
            if groups and e[0] - groups[-1][-1][0] <= _LATTICE_TOL:
                groups[-1].append(e)
            else:
                groups.append([e])
    resonances = []
    for grp in groups:
        t = grp[0][0]
        exact_t = grp[0][2]
        surd = grp[0][3]
        if not all_exact and any(e[1] is None or e[1] != grp[0][1]
                                 for e in grp):
            exact_t = surd = None
        contributors = tuple(sorted((e[4].label, e[5]) for e in grp))
        mult = sum(e[4].multiplicity for e in grp)
        resonances.append(Resonance(complex(0.0, -t), mult, contributors,
                                    exact_t, surd))
    resonances.sort(key=lambda r: r.t)
    trunc = Truncation(spec.modes[-1].label if spec.modes else -1,
                       k_max, float(lambda_max))
    return ResonanceSet(resonances, trunc, spec, all_exact)


def count_resonances(spec: SpectrumSpec, k_max: int, bound: float) -> int:
    """Number of resonances (with multiplicity) of modulus <= bound from the
    truncated spectrum, k = 0..k_max, without listing them.

    Each generic mode adds m_j * #{k : 1/2 + k + s_j <= bound}, so every
    (j, k) pair is decided on its own, as exactly as its s allows.  Raises
    UndecidableMembership if any mode's genericity is unknown_float, and
    TruncationInsufficient when the last listed mode or k_max cannot certify
    completeness up to the bound (the rule of ResonanceSet.complete_up_to).
    """
    _validate_limits(k_max, bound)
    generic = _generic_modes(spec)
    if not _truncation_covers(spec, k_max, bound):
        raise TruncationInsufficient(
            f"truncation (j_max = {spec.modes[-1].label}, k_max = {k_max}) "
            f"is not provably complete up to lambda = {bound}")
    return sum(mode.multiplicity * _count_le(sv, k_max, bound)
               for mode, sv in generic)


def weyl_count(rset: ResonanceSet, lambda_bound: float) -> int:
    """Number of resonances (with multiplicity) of modulus <= lambda_bound.

    Refuses to count (TruncationInsufficient) when the set cannot certify
    completeness up to the bound: the bound must not exceed the lambda_max
    the set was enumerated to, and the j_max/k_max conditions of
    complete_up_to must hold.  The count itself is count_resonances on the
    set's spectrum and k_max."""
    if lambda_bound > rset.truncation.lambda_max:
        raise TruncationInsufficient(
            f"the set was enumerated up to lambda = "
            f"{rset.truncation.lambda_max}, below the bound {lambda_bound}")
    return count_resonances(rset.spectrum, rset.truncation.k_max,
                            lambda_bound)


def weyl_leading_term(n: int, vol_y: float, lam: float) -> float:
    """Leading-order resonance count |B_n| Vol(Y) lambda^(n+1) /
    ((2 pi)^n (n+1)), with |B_n| the Euclidean unit-ball volume."""
    if not isinstance(n, int) or n < 1:
        raise InvalidDimension(f"n must be an integer >= 1, got {n!r}")
    if not (vol_y > 0 and math.isfinite(vol_y)):
        raise ValidationError(f"volume must be positive, got {vol_y!r}")
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam!r}")
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return ball * vol_y * lam ** (n + 1) / ((2.0 * math.pi) ** n * (n + 1))
