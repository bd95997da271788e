"""Resonance lattice of a hyperbolic cone and the Gamma-pole case analysis.

For a cross-section mode with eigenvalue mu^2, put s = sqrt(((n-1)/2)^2 +
mu^2).  Modes with s in 1/2 + Z contribute nothing; every other mode
contributes resonances at lambda_{j,k} = -i(1/2 + k + s_j), k = 0, 1, 2, ...
with the mode's multiplicity.  The mode resolvent's prefactor is
Gamma(a)Gamma(b) / (Gamma(c)Gamma(1+s)) with a = 1/2 - i*lambda, b = a + s,
c = 2a, and whether a prefactor pole survives in the full kernel depends
only on which of a, b, c sit in {0, -1, -2, ...}.

One function (_lattice_indices) decides that exactly, for the classifier
and the kernels alike.  A value here has the form r + w*s with rational
r, w; if s is rational the value folds to a rational, and if s^2 is
rational but s is not, any value with w != 0 is irrational.  Floats within
1e-9 of the lattice without an exact form are refused, not guessed.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, sub
from typing import NamedTuple

from .crosssec import (
    _LATTICE_TOL,
    Mode,
    SpectrumSpec,
    _half_odd,
    _near_half_odd,
    _Ratio,
    _Run,
    _s_data,
)
from .errors import (
    DomainError,
    InconsistentParams,
    InvalidDimension,
    TruncationInsufficient,
    UndecidableMembership,
    ValidationError,
    _complex,
    _integer,
    _rational,
    _real,
)

# (rational part, coefficient of s); exact value is rat + coef * s
_Sym = tuple[Fraction, Fraction]
# a generic mode with its s as crosssec._s_data gives it, as _scan gives it
_Generic = tuple[Mode, float, _Ratio | None, _Ratio | None]
# a listing row (t, key, contributors, multiplicity), as _listing gives it
_Row = tuple[float, int | tuple[int, int, int] | None,
             tuple[tuple[int, int], ...], int]
# a count stops at the first mode whose float s is past L - 1/2 by this
# times L + 1/2, over ten times the widest float/exact gap in s (_count)
_STOP_GAP = 1e-6


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
    """s = sqrt(((n-1)/2)^2 + mu^2) for one mode, exact where mu^2 is.

    The value and exact forms come from crosssec._s_data, the one place s
    is formed."""
    value, root, sq = _s_data(_integer(n, "n", InvalidDimension, 1), mode)
    return SValue(value, None if root is None else Fraction(*root),
                  None if sq is None else Fraction(*sq))


@dataclass(frozen=True)
class HypergeomParams:
    """Mode-resolvent hypergeometric parameters at spectral point lambda.

    Invariants c = 2a and b = a + s hold by construction.  The *_sym fields
    carry exact (rational, coefficient-of-s) forms when lambda is purely
    imaginary with known-exact imaginary part; _lattice_indices reads them,
    and only them, for every exact lattice decision.
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
    A lambda that is not a finite complex, or a lam_im_exact that is not an
    int or a Fraction, raises DomainError.
    """
    lam = _complex(lam, "lambda", DomainError)
    if lam_im_exact is not None:
        lam_im_exact = _rational(lam_im_exact, "lam_im_exact", DomainError)
        try:
            err = abs(lam.imag - lam_im_exact.numerator
                      / lam_im_exact.denominator)
        except OverflowError:  # beyond the double range: lam cannot match
            err = math.inf
        if err > 1e-12 * (1.0 + abs(lam.imag)):
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
    k = _integer(k, "k", ValidationError, 0)
    sv = s_param(n, mode)
    lam = complex(0.0, -(0.5 + k + sv.value))
    return _build_params(n, mode, lam, (Fraction(-1, 2) - k, Fraction(-1)))


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


def _lattice_indices(p: HypergeomParams
                     ) -> tuple[int | None, int | None, int | None]:
    """(ia, ib, ic): for each of a, b, c the m >= 0 with the parameter
    exactly -m, read from its *_sym form alone, else None.  A form with
    w != 0 is off the lattice when s is a surd and raises
    InconsistentParams without that s data."""
    def index(sym: _Sym | None, what: str) -> int | None:
        if sym is None:
            return None
        rat, coef = sym
        if coef == 0:
            return -rat.numerator if rat.denominator == 1 and rat <= 0 else None
        if p.s_sq_exact is None or p.s_exact is not None:
            raise InconsistentParams(f"symbolic form of {what} lost its s data")
        return None

    ic, ib = index(p.c_sym, "c"), index(p.b_sym, "b")
    return index(p.a_sym, "a"), ib, ic


def classify_pole(p: HypergeomParams) -> PoleClass:
    """Verdict and case id from the lattice indices of a, b and c.

    The order a + b - c of the pole of Gamma(a)Gamma(b)/Gamma(c), each
    parameter on the lattice counting once, decides: positive is a genuine
    pole, zero with c on the lattice removable, anything else regular.  A
    float without exact form within 1e-9 of the lattice (checked for c, b,
    a in turn) raises UndecidableMembership; a without c = 2a, impossible
    for consistent parameters, raises InconsistentParams.
    """
    if abs(p.c - 2.0 * p.a) > 1e-12 * (1.0 + abs(p.c)):
        raise InconsistentParams(f"c = {p.c} is not 2a = {2.0 * p.a}")
    if abs(p.b - (p.a + p.s)) > 1e-12 * (1.0 + abs(p.b)):
        raise InconsistentParams(f"b = {p.b} is not a + s = {p.a + p.s}")
    ia, ib, ic = _lattice_indices(p)
    for value, sym, what in ((p.c, p.c_sym, "c"), (p.b, p.b_sym, "b"),
                             (p.a, p.a_sym, "a")):
        dist = math.hypot(value.real - min(round(value.real), 0), value.imag)
        if sym is None and dist <= _LATTICE_TOL:
            raise UndecidableMembership(
                f"{what} = {value} is within {_LATTICE_TOL} of the "
                f"non-positive integers and no exact form is available")
    a_in, b_in, c_in = ia is not None, ib is not None, ic is not None
    if a_in and not c_in:
        raise InconsistentParams(
            f"a = {p.a} in the lattice but c = 2a = {p.c} is not")
    order = a_in + b_in - c_in
    verdict = (PoleVerdict.GENUINE_POLE if order > 0
               else PoleVerdict.REMOVABLE if order == 0 and c_in
               else PoleVerdict.REGULAR)
    case = (f"cY_b{'NY'[b_in]}_a{'NY'[a_in]}" if c_in
            else "cN_bY" if b_in else "cN_bN_aN")
    return PoleClass(verdict, CaseId(case))


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
        bound = _real(bound, "lambda bound", ValidationError, "[0, inf)")
        return (bound <= self.truncation.lambda_max
                and _truncation_covers(self.spectrum, self.truncation.k_max,
                                       _bound(bound)))


class _Bound(NamedTuple):
    # a bound L as the position test reads it: the double L itself, and
    # L - 1/2 = p/q exactly (L is a double, so p/q is read off its integer
    # ratio); _bound prepares it once per bound
    value: float
    p: int
    q: int


def _bound(bound: float) -> _Bound:
    bn, bd = bound.as_integer_ratio()
    return _Bound(bound, 2 * bn - bd, 2 * bd)


def _count_le(value: float, root: _Ratio | None, sq: _Ratio | None,
              k_max: int, bound: _Bound) -> int:
    """Number of k in 0..k_max with 1/2 + k + s <= L, for s given as
    (value, root, sq) the way _s_data gives it and L as _bound prepares it.

    The one place the position test is made.  Rational s = root takes one
    exact floor of p/q - s.  Otherwise a float guess of the last k is
    corrected one step at a time: exactly through the integer test
    s^2 q^2 <= (p - k q)^2 with p - k q >= 0 for a surd, and by the double
    expression 0.5 + k + s <= L for float-only s, which is monotone in k.
    """
    p, q = bound.p, bound.q
    if root is not None:
        sn, sd = root
        return max(0, min((p * sd - q * sn) // (q * sd), k_max) + 1)
    top = bound.value
    k = max(-1, min(k_max, math.floor(top - 0.5 - value)))
    if sq is None:
        while k < k_max and 0.5 + (k + 1) + value <= top:
            k += 1
        while k >= 0 and not 0.5 + k + value <= top:
            k -= 1
        return k + 1
    an, ad = sq
    left = an * q * q
    r = p - (k + 1) * q  # p - k q at the next k
    while k < k_max and r >= 0 and left <= ad * r * r:
        k, r = k + 1, r - q
    r += q  # p - k q at this k
    while k >= 0 and not (r >= 0 and left <= ad * r * r):
        k, r = k - 1, r + q
    return k + 1


def _run_line(run: _Run, bound: _Bound) -> tuple[int, int, int]:
    # (c, a, m) with 1/2 + k + s_j <= L iff k <= (c - a j) / m for the
    # modes of run: s_j = ((n-1) sb + 2 sa j) / (2 sb) for step sa/sb
    sa, sb = run.step
    return (2 * sb * bound.p - (run.n - 1) * sb * bound.q, 2 * sa * bound.q,
            2 * sb * bound.q)


def _truncation_covers(spec: SpectrumSpec, k_max: int,
                       bound: _Bound) -> bool:
    # modes past the last listed one and orders past k_max all lie above
    # bound: a run's ends are read off its line
    if spec.run is not None:
        c, a, m = _run_line(spec.run, bound)
        return c < a * spec.run.j_max and c < k_max * m
    modes = spec.modes
    if not modes:
        return True
    n = spec.dimension_n
    return (_count_le(*_s_data(n, modes[-1]), 0, bound) == 0
            and _count_le(*_s_data(n, modes[0]), k_max, bound) <= k_max)


def _last_label(spec: SpectrumSpec) -> int:
    if spec.run is not None:
        return spec.run.j_max
    return spec.modes[-1].label if spec.modes else -1


def _certify(spec: SpectrumSpec, k_max: int, bound: _Bound) -> None:
    # the one refusal of a truncation that cannot certify completeness
    if not _truncation_covers(spec, k_max, bound):
        raise TruncationInsufficient(
            f"truncation (j_max = {_last_label(spec)}, k_max = {k_max}) "
            f"cannot certify completeness up to lambda = {bound.value}")


def _limits(k_max: int, bound: float) -> None:
    _integer(k_max, "k_max", ValidationError, 0)
    _real(bound, "lambda bound", ValidationError, "[0, inf)")


def _scan(spec: SpectrumSpec, k_max: int, bound: float) -> list[_Generic]:
    """The limits check, then the genericity scan: every generic mode with
    its s as _s_data gives it, in spectrum order.

    Raises ValidationError unless k_max is an integer >= 0 and the bound a
    real in [0, inf).  Genericity and s come from one s per mode: exact
    where mu^2 is, and otherwise the float that is_generic tests too, read
    by the same _near_half_odd.  Raises UndecidableMembership at the first
    float-only mode within _LATTICE_TOL of the half-odd-integer lattice.
    """
    _limits(k_max, bound)
    n = spec.dimension_n
    generic = []
    for mode in spec.modes:
        value, root, sq = _s_data(n, mode)
        if mode.mu_sq_exact is None and _near_half_odd(value):
            raise UndecidableMembership(
                f"mode j = {mode.label} (mu_sq = {mode.mu_sq}) sits within "
                f"{_LATTICE_TOL} of the half-odd-integer lattice without an "
                f"exact form")
        if not _half_odd(root):
            generic.append((mode, value, root, sq))
    return generic


def _runs(spec: SpectrumSpec, k_max: int, bound: float) -> list:
    """_scan for a count, which reads runs of modes: a generated exact
    spectrum is its one run, or none when an even sphere's run is excluded
    whole, and its modes are never built; any other spectrum gives its
    generic modes as _scan does, each a run of one."""
    if spec.run is None:
        return _scan(spec, k_max, bound)
    _limits(k_max, bound)
    return [] if spec.run.n % 2 == 0 else [spec.run]


def _truncation(spec: SpectrumSpec, k_max: int,
                lambda_max: float) -> Truncation:
    return Truncation(_last_label(spec), k_max, float(lambda_max))


class _Walk(NamedTuple):
    # one generic mode as _listing walks it; first is the key of its k = 0
    # position when s is rational, and count its number of positions
    label: int
    multiplicity: int
    value: float
    first: int | None
    sq: _Ratio | None
    count: int


def _mode_rows(j: int, m: int, value: float, first: int | None,
               sq: _Ratio | None, count: int, den: int) -> list[_Row]:
    # the positions of one mode (a _Walk), each a row of one contributor
    if first is not None:
        return [(num / den, num, ((j, k),), m) for k, num
                in enumerate(range(first, first + count * den, den))]
    if sq is not None:
        a, b = sq
        return [(0.5 + k + value, (a, b, k), ((j, k),), m)
                for k in range(count)]
    return [(0.5 + k + value, None, ((j, k),), m) for k in range(count)]


def _merge_class(walk: list[_Walk], members: list[int], den: int,
                 owned: list[list[_Row]]) -> None:
    """The rows of one coincidence class of several modes, each appended to
    owned[w] for the first mode w of the walk that reaches it.

    Slot q of the class is its position with integer part q: the key
    residue + q * den for rational s, 1/2 + q + s for a surd s.  The mode at
    slot offset off fills slots off .. off + count - 1 with k = 0, 1, ...
    Modes whose slot ranges overlap share one list indexed by slot, so no
    list is longer than the pairs it holds."""
    _, _, value, first, sq, _ = walk[members[0]]
    residue = 0 if first is None else first % den
    runs: list = []  # [start, stop, [(off, w), ...]] of overlapping ranges
    for off, w in sorted((0 if first is None else walk[w].first // den, w)
                         for w in members):
        stop = off + walk[w].count
        if runs and off < runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], stop)
            runs[-1][2].append((off, w))
        else:
            runs.append([off, stop, [(off, w)]])
    for start, stop, run in runs:
        size = stop - start
        slots: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        mults = [0] * (size + 1)
        owner = [0] * size
        # walk order backwards, so each slot is left with its first mode
        for off, w in sorted(run, key=itemgetter(1), reverse=True):
            m, count, i = walk[w].multiplicity, walk[w].count, off - start
            owner[i:i + count] = [w] * count
            mults[i] += m
            mults[i + count] -= m
        # label order, and k order within a label, so each slot is sorted
        for off, w in sorted(run, key=lambda e: (walk[e[1]].label, -e[0])):
            j, count, i = walk[w].label, walk[w].count, off - start
            for pairs, k in zip(slots[i:i + count], range(count)):
                pairs.append((j, k))
        for q, pairs, w, mult in zip(range(start, stop), slots, owner,
                                     accumulate(mults)):
            if first is None:
                row = (0.5 + q + value, (sq[0], sq[1], q), tuple(pairs), mult)
            else:
                num = residue + q * den
                row = (num / den, num, tuple(pairs), mult)
            owned[w].append(row)


def _chain(rows: list[_Row]) -> list[_Row]:
    # rows sorted by t; each run whose neighbours lie within _LATTICE_TOL
    # of each other becomes one row at the run's first t, keyed only when
    # every row of the run carries the same key
    ts = [row[0] for row in rows]
    if min(map(sub, ts[1:], ts), default=math.inf) > _LATTICE_TOL:
        return rows
    runs: list[list[_Row]] = []
    for i, row in enumerate(rows):
        if i and ts[i] - ts[i - 1] <= _LATTICE_TOL:
            runs[-1].append(row)
        else:
            runs.append([row])
    merged = []
    for run in runs:
        t, key, pairs, mult = run[0]
        if len(run) > 1:
            if any(row[1] is None or row[1] != key for row in run):
                key = None
            pairs = tuple(sorted(row[2][0] for row in run))
            mult = sum(row[3] for row in run)
        merged.append((t, key, pairs, mult))
    return merged


def _listing(generic: list[_Generic], k_max: int, lambda_max: float
             ) -> tuple[list[_Row], int, bool]:
    """The one lattice walk behind every resonance listing: the positions
    1/2 + k + s <= lambda_max of the generic modes that _scan gave for the
    same limits, k = 0..k_max, merged across coinciding positions.

    Returns (rows, den, all_exact).  Each row is (t, key, contributors,
    multiplicity) with t = -Im(lambda), contributors the sorted (mode label
    j, order k) pairs and multiplicity the sum of their modes'
    multiplicities.  Rows come in order of t; rows with equal t keep the
    order in which the walk (modes in spectrum order, k ascending) first
    reaches them.  all_exact is set when every generic mode carries exact
    s data.

    Rational positions are keyed by integer numerators over one common
    denominator den, the lcm over rational modes of 2 * den(s_j), so equal
    positions have equal keys, and their t is numerator / den, correctly
    rounded; a surd position is keyed by (num(s^2), den(s^2), k).

    When all_exact, merging is exact and goes one coincidence class at a
    time: 1/2 + k + s and 1/2 + k' + s' coincide only if s - s' is an
    integer, so rational s fall in classes by s mod 1 and surds by s^2.  A
    class of one mode gives one row per position; the modes of a larger
    class merge slot by slot (_merge_class).  Otherwise every position is a
    row of its own, the rows are sorted by t, and each run whose neighbours
    lie within 1e-9 of each other merges into one row at the run's first
    t, with key None when its keys differ or it holds float-only data.
    """
    all_exact = all(root is not None or sq is not None
                    for _, _, root, sq in generic)
    den = math.lcm(*(2 * root[1] for _, _, root, _ in generic
                     if root is not None))
    bound = _bound(lambda_max)
    walk = [_Walk(mode.label, mode.multiplicity, value,
                  None if root is None
                  else den // 2 + root[0] * (den // root[1]),
                  sq, _count_le(value, root, sq, k_max, bound))
            for mode, value, root, sq in generic]
    if not all_exact:
        rows = [row for mode in walk for row in _mode_rows(*mode, den)]
        rows.sort(key=itemgetter(0))
        return _chain(rows), den, False
    classes: dict = {}
    for w, mode in enumerate(walk):
        if mode.count:
            classes.setdefault(mode.sq if mode.first is None
                               else mode.first % den, []).append(w)
    owned: list[list[_Row]] = [[] for _ in walk]
    for members in classes.values():
        if len(members) == 1:
            owned[members[0]] = _mode_rows(*walk[members[0]], den)
        else:
            _merge_class(walk, members, den, owned)
    rows = [row for own in owned for row in own]
    rows.sort(key=itemgetter(0))
    return rows, den, True


def enumerate_resonances(spec: SpectrumSpec, k_max: int,
                         lambda_max: float) -> ResonanceSet:
    """All resonances with |lambda| <= lambda_max from the truncated
    spectrum, k = 0..k_max, merged across coinciding positions.

    The public wrapper of _listing, whose docstring states the merge rule:
    one Resonance per row, in order of t.  A rational position's
    im_part_exact is its key over den and a surd position's surd_key is
    (s^2, k), each made as the row's Resonance is built; a row without a
    key carries neither.  The set is exact when every generic mode carries
    exact s data.  Raises ValidationError for bad limits and
    UndecidableMembership if any mode's genericity is unknown_float.
    """
    lambda_max = _real(lambda_max, "lambda bound", ValidationError,
                       "[0, inf)")
    rows, den, exact = _listing(_scan(spec, k_max, lambda_max), k_max,
                                lambda_max)
    resonances = []
    for t, key, contributors, mult in rows:
        exact_t = surd = None
        if isinstance(key, int):
            exact_t = Fraction(key, den)
        elif key is not None:
            surd = (Fraction(key[0], key[1]), key[2])
        resonances.append(Resonance(complex(0.0, -t), mult, contributors,
                                    exact_t, surd))
    return ResonanceSet(resonances, _truncation(spec, k_max, lambda_max),
                        spec, exact)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over i = 0..n-1, for n, a, b >= 0 and
    m >= 1, in O(log m) exact integer steps: the Euclid-like reduction of
    Graham, Knuth and Patashnik, Concrete Mathematics, section 3.5."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _floor_run(n: int, m: int, a: int, c: int, k_max: int) -> int:
    """Sum over t = 0..n-1 of #{k in 0..k_max : k <= (c - a t) / m}, for
    a, m >= 1: k_max + 1 up to the last t with c - a t >= k_max m (one
    capped prefix), then floor((c - a t) / m) + 1 down to the last t with
    c - a t >= 0 (one floor sum, read backwards from there), then 0."""
    cap = max(-1, min(n - 1, (c - k_max * m) // a))
    last = max(-1, min(n - 1, c // a))
    tail = last - cap
    return ((cap + 1) * (k_max + 1)
            + (tail + _floor_sum(tail, m, a, c - a * last) if tail else 0))


def _run_count(run: _Run, k_max: int, bound: _Bound) -> int:
    """m_j * #{k in 0..k_max : 1/2 + k + s_j <= L} summed over the generic
    modes of run, in closed form.

    A circle (n = 1, multiplicity 1 at j = 0 and 2 after) takes a floor
    run over every j, less one over its excluded j: for step sa/sb with sb
    = 2h even, s_j is half-odd at j = h(2t + 1).  An odd sphere (step 1,
    s_j = j + (n-1)/2) has d = floor(L - 1/2 - s_0) and cumulative
    multiplicity M(t) = C(n+t, n) + C(n+t-1, n) over j <= t, with
    S(t) = sum_{u <= t} M(u) = C(n+t+1, n+1) + C(n+t, n+1); its modes up
    to lo = min(j_max, d - k_max) have k_max + 1 positions each and those
    up to hi = min(j_max, d) have d - j + 1, so the count is
    (k_max + 1) M(lo) + S(hi) - S(lo) + (d - hi) M(hi) - (d - lo) M(lo).
    """
    c, a, m = _run_line(run, bound)
    n, j_max = run.n, run.j_max
    if n == 1:
        total = (2 * _floor_run(j_max + 1, m, a, c, k_max)
                 - _floor_run(1, m, a, c, k_max))
        h, odd = divmod(run.step[1], 2)
        if not odd:
            total -= 2 * _floor_run((j_max // h + 1) // 2, m, 2 * a * h,
                                    c - a * h, k_max)
        return total

    def cum(t: int) -> int:
        return math.comb(n + t, n) + math.comb(n + t - 1, n)

    def cum2(t: int) -> int:
        return math.comb(n + t + 1, n + 1) + math.comb(n + t, n + 1)
    d = c // m
    lo = max(-1, min(j_max, d - k_max))
    hi = max(-1, min(j_max, d))
    return ((k_max + 1) * cum(lo) + cum2(hi) - cum2(lo)
            + (d - hi) * cum(hi) - (d - lo) * cum(lo))


def _count(spec: SpectrumSpec, runs: list, k_max: int, bound: float) -> int:
    """count_resonances after its runs are read (_runs), so a caller with
    many bounds up to the scanned one scans the spectrum once.

    The bound is prepared once (_bound) for the certificate and for every
    run.  A generated exact spectrum's run is counted in closed form
    (_run_count).  Otherwise every run is one generic mode, decided by
    _count_le, and the walk stops at the first whose float s exceeds
    L - 1/2 by more than _STOP_GAP * (L + 1/2): modes come sorted by float
    mu^2, and a mode's float and exact mu^2 differ by at most
    1e-15 (1 + mu^2) (crosssec._check_mode), so a later mode's s is at
    least this one's less 6e-8 (1 + s), and neither this mode nor any
    later one has a position at or below L.  Modes short of the stop, those
    in the sliver just past L - 1/2 included, are each decided exactly,
    because float order can reverse exact order there.
    """
    prepared = _bound(bound)
    _certify(spec, k_max, prepared)
    if spec.run is not None:
        return sum(_run_count(run, k_max, prepared) for run in runs)
    stop = bound - 0.5 + _STOP_GAP * (bound + 0.5)
    total = 0
    for mode, value, root, sq in runs:
        if value > stop:
            break
        total += mode.multiplicity * _count_le(value, root, sq, k_max,
                                               prepared)
    return total


def count_resonances(spec: SpectrumSpec, k_max: int, bound: float) -> int:
    """Number of resonances (with multiplicity) of modulus <= bound from the
    truncated spectrum, k = 0..k_max, without listing them.

    Each generic mode adds m_j * #{k : 1/2 + k + s_j <= bound}: in closed
    form over a generated exact spectrum, whose modes are not built, and
    otherwise with every (j, k) pair decided on its own, as exactly as its
    s allows, the modes past the one where _count stops adding 0 untested.
    Raises UndecidableMembership if any mode's genericity is unknown_float,
    and TruncationInsufficient when the last listed mode or k_max cannot
    certify completeness up to the bound (the rule of
    ResonanceSet.complete_up_to).
    """
    bound = _real(bound, "lambda bound", ValidationError, "[0, inf)")
    return _count(spec, _runs(spec, k_max, bound), k_max, bound)


def weyl_count(rset: ResonanceSet, lambda_bound: float) -> int:
    """Number of resonances (with multiplicity) of modulus <= lambda_bound.

    Refuses to count (TruncationInsufficient) when the set cannot certify
    completeness up to the bound: the bound must not exceed the lambda_max
    the set was enumerated to, and the j_max/k_max conditions of
    complete_up_to must hold.  The count itself is count_resonances on the
    set's spectrum and k_max."""
    lambda_bound = _real(lambda_bound, "lambda bound", ValidationError,
                         "[0, inf)")
    if lambda_bound > rset.truncation.lambda_max:
        raise TruncationInsufficient(
            f"the set was enumerated up to lambda = "
            f"{rset.truncation.lambda_max}, below the bound {lambda_bound}")
    return count_resonances(rset.spectrum, rset.truncation.k_max,
                            lambda_bound)


def weyl_leading_term(n: int, vol_y: float, lam: float) -> float:
    """Leading-order resonance count |B_n| Vol(Y) lambda^(n+1) /
    ((2 pi)^n (n+1)), with |B_n| the Euclidean unit-ball volume.

    The direct product is returned when it, lambda^(n+1) and the ball
    times the volume are normal doubles.  When one of them leaves that
    range, where a subnormal factor would carry too few digits, the term
    is recomputed from logarithms (math.lgamma for the ball), which the
    term itself may fit.  A term that overflows a double raises
    DomainError, and so does one below the smallest normal double at
    lambda > 0."""
    n = _integer(n, "n", InvalidDimension, 1)
    vol_y = _real(vol_y, "volume", ValidationError, "(0, inf)")
    lam = _real(lam, "lambda", ValidationError, "[0, inf)")
    if lam == 0:
        return 0.0
    try:
        ball_vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * vol_y
        power = lam ** (n + 1)
        term = ball_vol * power / ((2.0 * math.pi) ** n * (n + 1))
    except OverflowError:
        ball_vol = power = term = math.inf
    if not all(sys.float_info.min <= x < math.inf
               for x in (ball_vol, power, term)):
        log_term = (n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)
                    + math.log(vol_y) + (n + 1) * math.log(lam)
                    - n * math.log(2.0 * math.pi) - math.log(n + 1))
        try:
            term = math.exp(log_term)
        except OverflowError:
            term = math.inf
    if term == math.inf:
        raise DomainError(f"Weyl leading term for n = {n} at lambda = {lam!r}: "
                          "the term overflows a double")
    # a count divides by the term, so a subnormal or zero one is refused
    if term < sys.float_info.min:
        raise DomainError(
            f"Weyl leading term for n = {n}, volume = {vol_y!r} at lambda = "
            f"{lam!r} underflows below the smallest normal double")
    return term
