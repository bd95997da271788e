"""Independent oracles the test expectations are derived from.

Each routine recomputes a library quantity by a different method
(arbitrary-precision series, brute-force enumeration, a different closed
form), so tests never compare the implementation against itself.  Frozen
constants in the test modules carry a comment naming the oracle call that
produced them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import groupby
from operator import itemgetter, mul

import mpmath as mp

from hypercone.crosssec import _LATTICE_TOL, Mode, _s_data
from hypercone.errors import TruncationInsufficient, ValidationError
from hypercone.resonances import _bound, _count_le, _scan


def oracle_ln_gamma(z, dps: int = 40):
    """log Gamma by upward recurrence plus the Stirling series.

    Uses only mp arithmetic, logs, and Bernoulli numbers (not mp.gamma),
    so it is independent of both the library and mpmath's gamma.  The
    branch can differ from the principal one by 2 pi i; compare through
    exp_equal below or modulo 2 pi.
    """
    with mp.workdps(dps):
        w = mp.mpc(z)
        shift = mp.mpc(0)
        while mp.re(w) < 30:
            shift += mp.log(w)
            w += 1
        out = (w - mp.mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
        for k in range(1, 13):
            out += mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * w ** (2 * k - 1))
        return out - shift


def oracle_gamma(z, dps: int = 40):
    with mp.workdps(dps):
        return mp.exp(oracle_ln_gamma(z, dps))


def exp_equal(lhs: complex, rhs: complex, tol: float) -> bool:
    """|exp(lhs - rhs) - 1| <= tol: equality of log-values modulo 2 pi i."""
    return abs(mp.exp(mp.mpc(lhs) - mp.mpc(rhs)) - 1) <= tol


def oracle_hyp2f1(a, b, c, z, dps: int = 30) -> complex:
    with mp.workdps(dps):
        return complex(mp.hyp2f1(a, b, c, z))


def oracle_hyp2f1_terms(a, b, c, z, dps: int = 30):
    """F(a, b; c; z) by the plain term sum, as an mpmath number.

    mp.hyp2f1 stops at the first term below its working precision, so for
    Re c < 0, where the terms can dip that low and grow back near
    k = -Re c, it can return a truncated sum.  This sum runs to
    k >= 2 (max(-Re c, 0) + |a| + |b|)/(1-z) + 50, past which the step
    ratio z |(a+k)(b+k)| / (|c+k| (k+1)) stays below 1 and falls, and on
    until a term is below 10^-dps of the sum.  Plain z in [0, 1) only."""
    with mp.workdps(dps):
        a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z)
        far = 2.0 * float(max(-c.real, 0) + abs(a) + abs(b)) / (1 - z) + 50
        eps = mp.mpf(10) ** -dps
        term = total = mp.mpc(1)
        k = 0
        while k < far or abs(term) > eps * abs(total):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
            k += 1
        return total


def oracle_reg_2f1(a, b, c, z, dps: int = 30, max_terms: int = 2000) -> complex:
    """Regularized 2F1 by the plain term sum with mp.rgamma weights."""
    with mp.workdps(dps):
        a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z)
        total = mp.mpc(0)
        poch = mp.mpc(1)
        for k in range(max_terms):
            term = poch * mp.rgamma(c + k) * z ** k / mp.factorial(k)
            total += term
            if k > 4 and abs(term) < mp.mpf(10) ** (-dps - 5) * max(abs(total), 1):
                return complex(total)
            poch *= (a + k) * (b + k)
        raise RuntimeError("oracle series did not converge")


def oracle_reg_hyp2f1(a, b, c, z, dps: int = 30) -> complex:
    """F(a, b; c; z) / Gamma(c) from mp.hyp2f1 and mp.rgamma, for z up to
    1 where the term sum of oracle_reg_2f1 is slow.  At c in {0, -1, ...}
    the limit is read at c + 10^-(dps+5) in doubled precision."""
    with mp.workdps(dps):
        c = mp.mpc(c)
        if c.imag == 0 and c.real <= 0 and c.real == int(c.real):
            with mp.workdps(2 * dps):
                c += mp.mpf(10) ** (-dps - 5)
                return complex(mp.hyp2f1(a, b, c, z) * mp.rgamma(c))
        return complex(mp.hyp2f1(a, b, c, z) * mp.rgamma(c))


def oracle_pochhammer(a, k: int, dps: int = 30) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1) by mp.rf."""
    with mp.workdps(dps):
        return complex(mp.rf(mp.mpc(a), k))


def reference_gauss_series(a, b, c, z: float,
                           max_terms: int = 10000) -> complex | None:
    """The defining 2F1 series sum_k (a)_k (b)_k / ((c)_k k!) z^k in double
    precision, term by term, stopped once three terms in a row fall within
    3e-16 of the sum; None when it has not settled after max_terms terms.

    This is the raw series the library seeds its ODE continuation with, so
    it shares that series' roundoff, about 1/(1-z) units near z = 1."""
    a, b, c = complex(a), complex(b), complex(c)
    total = term = 1.0 + 0.0j
    small = 0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1))
        term *= z
        total += term
        small = small + 1 if abs(term) <= 3e-16 * abs(total) else 0
        if small >= 3:
            return total
    return None


def oracle_boundary_exponents(n: int, mu_sq, lam,
                              dps: int = 30) -> tuple[complex, float]:
    """The Frobenius exponents the resolvent kernel selects: n/2 - i lambda
    at sigma = 0 and -(n-1)/4 + s/2 at sigma = 1, with
    s = sqrt((n-1)^2/4 + mu^2)."""
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        return (complex(mp.mpf(n) / 2 - 1j * mp.mpc(lam)),
                float(-mp.mpf(n - 1) / 4 + s / 2))


def sphere_multiplicity(n: int, j: int) -> int:
    """dim of degree-j spherical harmonics via (2j+n-1)(j+n-2)!/(j!(n-1)!),
    a different formula from the binomial difference used by the library."""
    if j == 0:
        return 1
    return ((2 * j + n - 1) * math.factorial(j + n - 2)
            // (math.factorial(j) * math.factorial(n - 1)))


def brute_force_circle(rho: Fraction, j_max: int, k_max: int,
                       bound: Fraction) -> dict:
    """t -> (multiplicity, contributors) by the plain double loop.

    Excludes s in 1/2 + Z via the direct parity test on 2s, merges in a
    dict keyed by the exact rational position.
    """
    out: dict[Fraction, tuple[int, list]] = {}
    for j in range(j_max + 1):
        s = Fraction(j) / rho
        two_s = 2 * s
        if two_s.denominator == 1 and two_s.numerator % 2 == 1:
            continue
        mult = 1 if j == 0 else 2
        for k in range(k_max + 1):
            t = Fraction(1, 2) + k + s
            if t > bound:
                break
            m, contrib = out.get(t, (0, []))
            out[t] = (m + mult, contrib + [(j, k)])
    return {t: (m, sorted(c)) for t, (m, c) in out.items()}


def brute_force_sphere(n: int, j_max: int, k_max: int,
                       bound: Fraction) -> dict:
    """Same double loop for the round sphere: s_j = j + (n-1)/2 exactly."""
    out: dict[Fraction, tuple[int, list]] = {}
    for j in range(j_max + 1):
        s = Fraction(2 * j + n - 1, 2)
        two_s = 2 * s
        if two_s.denominator == 1 and two_s.numerator % 2 == 1:
            continue
        mult = sphere_multiplicity(n, j)
        for k in range(k_max + 1):
            t = Fraction(1, 2) + k + s
            if t > bound:
                break
            m, contrib = out.get(t, (0, []))
            out[t] = (m + mult, contrib + [(j, k)])
    return {t: (m, sorted(c)) for t, (m, c) in out.items()}


def brute_force_count(n: int, modes, k_max: int, bound: float) -> int:
    """Resonances (with multiplicity) at or below bound, one (j, k) pair at a
    time in 60-digit arithmetic.

    modes are (mu_sq_exact or None, mu_sq, multiplicity) triples.  An exact
    mode is excluded when 2s is within 1e-40 of an odd integer, and a
    position within 1e-40 of the bound counts as on it: at the sizes the
    tests use neither happens except exactly.  Float-only modes are decided
    by the double expression 0.5 + k + s <= bound that defines their count.
    """
    total = 0
    tiny = mp.mpf(10) ** -40
    with mp.workdps(60):
        for exact, mu_sq, mult in modes:
            if exact is None:
                s = math.sqrt(((n - 1) / 2.0) ** 2 + mu_sq)
                total += mult * sum(1 for k in range(k_max + 1)
                                    if 0.5 + k + s <= bound)
                continue
            s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4
                        + mp.mpf(exact.numerator) / exact.denominator)
            nearest = mp.nint(2 * s)
            if abs(2 * s - nearest) < tiny and int(nearest) % 2 == 1:
                continue
            for k in range(k_max + 1):
                if mp.mpf(bound) - (mp.mpf(1) / 2 + k + s) > -tiny:
                    total += mult
    return total


def reference_count(spec, k_max: int, bound: float) -> int:
    """count_resonances as a walk over every mode of spec.modes: the
    certificate reads the first and the last mode, and each generic mode
    (resonances._scan) adds its multiplicity times its own position test
    (resonances._count_le), with no early stop.  Raises
    TruncationInsufficient where the certificate fails, as the library
    does; spectra of any length are walked one mode at a time."""
    generic = _scan(spec, k_max, bound)
    prepared = _bound(bound)
    modes, n = spec.modes, spec.dimension_n

    def positions(mode, k_top):
        value, _, sq = _s_data(n, mode)
        return _count_le(value, sq, k_top, prepared)
    if modes and not (positions(modes[-1], 0) == 0
                      and positions(modes[0], k_max) <= k_max):
        raise TruncationInsufficient(f"cannot certify up to {bound}")
    return sum(mode.multiplicity * _count_le(value, sq, k_max, prepared)
               for mode, value, _, sq in generic)


# the spectrum-file loader as it was before entries were parsed in one
# pass: a key set per entry, Fraction's string grammar for every exact
# form, groupby plus a label dict, and a merge pass over every group.
# Kept verbatim; reference_file_modes(raw) is its _file_modes.
_REFERENCE_MODE_KEYS = {"mu_sq", "mu_sq_exact", "m"}


def _reference_parse_mode_entry(entry, idx: int) -> tuple:
    # (mu_sq, m, mu_sq_exact) with their types checked; _file_modes makes
    # the Mode checks, by building the entry's Mode
    if not isinstance(entry, dict):
        raise ValidationError(f"modes[{idx}] must be an object")
    unknown = set(entry) - _REFERENCE_MODE_KEYS
    if unknown:
        raise ValidationError(
            f"modes[{idx}] has unknown field(s): {', '.join(sorted(unknown))}")
    if "mu_sq" not in entry:
        raise ValidationError(f"modes[{idx}] is missing required field 'mu_sq'")
    if "m" not in entry:
        raise ValidationError(f"modes[{idx}] is missing required field 'm'")
    mu_sq = entry["mu_sq"]
    if isinstance(mu_sq, bool) or not isinstance(mu_sq, (int, float)):
        raise ValidationError(f"modes[{idx}].mu_sq must be a number")
    m = entry["m"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValidationError(f"modes[{idx}].m must be an integer")
    exact = None
    if "mu_sq_exact" in entry:
        raw = entry["mu_sq_exact"]
        if not isinstance(raw, str):
            raise ValidationError(f"modes[{idx}].mu_sq_exact must be a string 'p/q'")
        try:
            exact = Fraction(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(
                f"modes[{idx}].mu_sq_exact = {raw!r} is not a valid rational: {e}")
    try:
        mu_sq = float(mu_sq)
    except OverflowError:  # a JSON integer beyond the double range
        raise ValidationError(
            f"modes[{idx}].mu_sq lies beyond the double range") from None
    return mu_sq, m, exact


def reference_file_modes(raw: list) -> list[Mode]:
    """The modes of a file's 'modes' array, sorted by mu_sq, with entries
    of equal mu_sq merged and their multiplicities summed.

    Each entry is checked once, by building its Mode with its final label,
    in file order, so an error names the first bad entry and a NaN is
    refused before the labels its sort scrambled are used.  Only a merged
    mode is built, and so checked, a second time.
    """
    entries = []
    unparsed = None  # the error of the first entry whose types are wrong
    for idx, entry in enumerate(raw):
        try:
            entries.append(_reference_parse_mode_entry(entry, idx))
        except ValidationError as e:
            unparsed = e
            break

    def mu_sq(idx: int) -> float:
        return entries[idx][0]

    groups = [list(group) for _, group in
              groupby(sorted(range(len(entries)), key=mu_sq), mu_sq)]
    labels = {idx: j for j, group in enumerate(groups) for idx in group}
    modes = []
    for idx, (value, m, exact) in enumerate(entries):
        try:
            modes.append(Mode(value, m, exact, labels[idx]))
        except ValidationError as e:
            raise ValidationError(f"modes[{idx}]: {e}") from e
    if unparsed is not None:
        raise unparsed
    merged = []
    for group in groups:
        first, *rest = (modes[idx] for idx in group)
        if any(mode.mu_sq_exact != first.mu_sq_exact for mode in rest):
            raise ValidationError(
                f"duplicate mu_sq = {first.mu_sq} entries carry inconsistent "
                f"exact forms")
        if rest:
            m = first.multiplicity + sum(mode.multiplicity for mode in rest)
            first = Mode(first.mu_sq, m, first.mu_sq_exact, first.label)
        merged.append(first)
    return merged


def oracle_weyl_leading_term(n: int, vol_y: float, lam: float,
                             dps: int = 30) -> float:
    """|B_n| Vol(Y) lambda^(n+1) / ((2 pi)^n (n+1)) in mpmath, whose
    exponent range no double factor can leave."""
    with mp.workdps(dps):
        ball = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
        return float(ball * mp.mpf(vol_y) * mp.mpf(lam) ** (n + 1)
                     / ((2 * mp.pi) ** n * (n + 1)))


def reference_listing(generic, k_max: int, lambda_max: float):
    """resonances._listing as one pass over every (j, k) pair: each position
    is an entry, exact entries are grouped by key in order of first
    appearance, float data is sorted by t and chained within 1e-9, and the
    groups become rows sorted by t.  Same arguments and return value."""
    all_exact = all(root is not None or sq is not None
                    for _, _, root, sq in generic)
    den = math.lcm(*(2 * root[1] for _, _, root, _ in generic
                     if root is not None))
    entries = []  # (t, key, label, k, multiplicity)
    bound = _bound(lambda_max)
    for mode, value, root, sq in generic:
        count = _count_le(value, sq, k_max, bound)
        j, m = mode.label, mode.multiplicity
        if root is not None:
            first = den // 2 + root[0] * (den // root[1])
            for k in range(count):
                num = first + k * den
                entries.append((num / den, num, j, k, m))
        else:
            for k in range(count):
                key = None if sq is None else (sq[0], sq[1], k)
                entries.append((0.5 + k + value, key, j, k, m))
    if all_exact:
        by_key: dict = {}
        for e in entries:
            by_key.setdefault(e[1], []).append(e)
        groups = list(by_key.values())
    else:
        groups = []
        for e in sorted(entries, key=itemgetter(0)):
            if groups and e[0] - groups[-1][-1][0] <= _LATTICE_TOL:
                groups[-1].append(e)
            else:
                groups.append([e])
    rows = []
    for grp in groups:
        t, key, j, k, m = grp[0]
        if len(grp) == 1:
            rows.append((t, key, ((j, k),), m))
            continue
        if not all_exact and any(e[1] is None or e[1] != key for e in grp):
            key = None
        rows.append((t, key, tuple(sorted((e[2], e[3]) for e in grp)),
                     sum(e[4] for e in grp)))
    rows.sort(key=itemgetter(0))
    return rows, den, all_exact


def reference_classify_pole(p) -> tuple[str, str]:
    """(verdict, case id) of the resolvent prefactor's pole at parameters p,
    by the six-way case split on the lattice membership of c, b and a.

    Each parameter is tested on its own: its exact (rational, coefficient
    of s) form when p carries one, where a nonzero coefficient of a surd s
    is irrational and so off the lattice, and otherwise its float, which
    must stay more than 1e-9 away from the lattice (ValueError if not).
    """
    def member(value, sym, what):
        if sym is not None:
            rat, coef = sym
            if coef == 0:
                return rat.denominator == 1 and rat <= 0
            if p.s_sq_exact is not None and p.s_exact is None:
                return False
            raise ValueError(f"symbolic form of {what} lost its s data")
        nearest = min(round(value.real), 0)
        if math.hypot(value.real - nearest, value.imag) <= 1e-9:
            raise ValueError(f"{what} = {value} is undecidable")
        return False

    c_in = member(p.c, p.c_sym, "c")
    b_in = member(p.b, p.b_sym, "b")
    a_in = member(p.a, p.a_sym, "a")
    if a_in and not c_in:
        raise ValueError("a in the lattice without c = 2a")
    if not c_in:
        if b_in:
            return "genuine_pole", "cN_bY"
        return "regular", "cN_bN_aN"
    if a_in and b_in:
        return "genuine_pole", "cY_bY_aY"
    if a_in:
        return "removable", "cY_bN_aY"
    if b_in:
        return "removable", "cY_bY_aN"
    return "regular", "cY_bN_aN"


def lattice_grid():
    """The 26,880 exact (n, mu^2, lambda) cases of the lattice-decision
    probe, as (n, mu_sq, k, lam_im): n in 1..6, mu^2 = p/d for p in 0..39
    and d in {1, 2, 3, 4, 5, 7, 9} (surd and rational s), and lambda either
    the candidate -i(1/2 + k + s) for k in 0..3 (lam_im None) or -i y/2 for
    y in 0..11 (k None, lam_im = -y/2 exactly)."""
    out = []
    for n in range(1, 7):
        for d in (1, 2, 3, 4, 5, 7, 9):
            for num in range(40):
                q = Fraction(num, d)
                out += [(n, q, k, None) for k in range(4)]
                out += [(n, q, None, Fraction(-y, 2)) for y in range(12)]
    return out


def oracle_wronskian(n: int, mu_sq, lam, sigma, dps: int = 40) -> complex:
    """W(u1, u2)(sigma) from mp.hyp2f1 with the analytic derivative
    dF/dz = (a b / c) F(a+1, b+1; c+1; z): no finite differences and no
    library code."""
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        lam = mp.mpc(lam)
        a = mp.mpf(1) / 2 - 1j * lam
        b = a + s
        c = 2 * a
        z = mp.mpf(sigma)
        u1 = mp.hyp2f1(a, b, c, z)
        du1 = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
        u2 = mp.hyp2f1(a, b, 1 + s, 1 - z)
        du2 = -(a * b / (1 + s)) * mp.hyp2f1(a + 1, b + 1, 2 + s, 1 - z)
        return complex(u1 * du2 - du1 * u2)


def oracle_kernel_functions(n: int, mu_sq, lam, sigma,
                            dps: int = 30) -> tuple[complex, complex, complex]:
    """(u1, u2, g1) at sigma from mp.hyp2f1 and mp.gamma:
    u1 = F(a, b; 2a; sigma), u2 = F(a, b; 1+s; 1-sigma) and g1 = P u1 with
    the mode prefactor P = Gamma(a)Gamma(b)/(Gamma(2a)Gamma(1+s)),
    a = 1/2 - i lambda, b = a + s."""
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        a = mp.mpf(1) / 2 - 1j * mp.mpc(lam)
        b = a + s
        x = mp.mpf(sigma)
        u1 = mp.hyp2f1(a, b, 2 * a, x)
        u2 = mp.hyp2f1(a, b, 1 + s, 1 - x)
        g1 = (mp.gamma(a) * mp.gamma(b)
              / (mp.gamma(2 * a) * mp.gamma(1 + s)) * u1)
        return complex(u1), complex(u2), complex(g1)


def oracle_u2_series(n: int, mu_sq, lam, sigma, dps: int = 30) -> complex:
    """u2 = F(a, b; 1+s; 1-sigma) by the plain term-by-term sum."""
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        lam = mp.mpc(lam)
        a = mp.mpf(1) / 2 - 1j * lam
        b = a + s
        w = 1 - mp.mpf(sigma)
        total = mp.mpc(0)
        term = mp.mpc(1)
        for k in range(4000):
            total += term
            term *= (a + k) * (b + k) / ((1 + s + k) * (k + 1)) * w
            if abs(term) < mp.mpf(10) ** (-dps - 5) * max(abs(total), 1):
                return complex(total + term)
        raise RuntimeError("oracle series did not converge")


def sigma_from_r(r):
    """Independent closed form sigma = 2 / (1 + cosh r)."""
    return 2 / (1 + mp.cosh(r))


def oracle_measure_integral(n: int, lo: float, hi: float,
                            dps: int = 30) -> float:
    """integral of the [lo,hi] bump against sinh(r)^n dr in the r
    coordinate: the change-of-variables target for measure_density."""
    with mp.workdps(dps):
        half = (mp.mpf(hi) - mp.mpf(lo)) / 2

        def bump_sigma(sig):
            return ((sig - lo) * (hi - sig)) ** 3 / half ** 6

        r_hi = mp.acosh((2 - mp.mpf(lo)) / mp.mpf(lo))
        r_lo = mp.acosh((2 - mp.mpf(hi)) / mp.mpf(hi))
        val = mp.quad(lambda r: bump_sigma(sigma_from_r(r)) * mp.sinh(r) ** n,
                      [r_lo, r_hi])
        return float(val)


def oracle_apply_resolvent(n: int, mu_sq, lam, func, lo, hi, sigma,
                           dps: int = 30, pieces: int = 1) -> complex:
    """(R(lambda) f)(sigma) straight from the kernel formula

        P sigma^alpha (1-sigma)^beta [u1(sigma) int_sigma^hi f u2 w
                                      + u2(sigma) int_lo^sigma f u1 w],

    u1 = F(a, b; 2a; rho), u2 = F(a, b; 1+s; 1-rho),
    P = Gamma(a)Gamma(b) / (Gamma(2a)Gamma(1+s)),
    w = rho^(-1-n/2-i lambda) (1-rho)^(s/2+(n-1)/4),
    alpha = n/2 - i lambda, beta = -(n-1)/4 + s/2, a = 1/2 - i lambda,
    b = a + s, with mp.hyp2f1 and mp.quad at dps digits; each integral
    runs over its part of the support [lo, hi], split into `pieces` equal
    mp.quad intervals, and is skipped when that part is empty.  func takes
    and returns mp numbers.  One piece suffices while the integrands vary
    on the scale of the support, as they do for mu^2 up to a few hundred;
    at mu^2 = 1e5 (s ~ 316) the weight (1-rho)^(s/2) and u2 vary by many
    orders over [0.3, 0.6], and one piece is 6.6e-5 off where 8 and 16
    agree.
    """
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        lam = mp.mpc(lam)
        a = mp.mpf(1) / 2 - 1j * lam
        b = a + s
        e1 = -1 - mp.mpf(n) / 2 - 1j * lam
        e2 = s / 2 + mp.mpf(n - 1) / 4

        def u1(x):
            return mp.hyp2f1(a, b, 2 * a, x)

        def u2(x):
            return mp.hyp2f1(a, b, 1 + s, 1 - x)

        def w(r):
            return r ** e1 * (1 - r) ** e2

        def split(u, v):
            return [u + (v - u) * k / pieces for k in range(pieces)] + [v]

        x, lo, hi = mp.mpf(sigma), mp.mpf(lo), mp.mpf(hi)
        upper = lower = mp.mpc(0)
        if x < hi:
            upper = mp.quad(lambda r: func(r) * u2(r) * w(r),
                            split(max(x, lo), hi))
        if x > lo:
            lower = mp.quad(lambda r: func(r) * u1(r) * w(r),
                            split(lo, min(x, hi)))
        pref = (mp.gamma(a) * mp.gamma(b) / (mp.gamma(2 * a) * mp.gamma(1 + s))
                * x ** (mp.mpf(n) / 2 - 1j * lam)
                * (1 - x) ** (s / 2 - mp.mpf(n - 1) / 4))
        return complex(pref * (u1(x) * upper + u2(x) * lower))


# -- reference ladder read ----------------------------------------------------

def reference_ladder_key(ladder, dist: float) -> int:
    """The anchor index of specfun._Ladder's scalar read before list reads:
    floor(log(2 dist) / log q), lowered by one where log rounding put
    dist above 0.5 q^i, and never raised."""
    i = math.floor(math.log(2.0 * dist) / ladder.log_q)
    if 0.5 * ladder.q ** i < dist:
        i -= 1
    return i


def reference_ladder_band(ladder, x: float, d: float | None = None) -> int:
    """The key of the band 0.5 q^(i+1) < dist <= 0.5 q^i that specfun._Ladder
    reads x from (d = 1 - x exactly), by the two-sided test of its list
    read: reference_ladder_key, raised by one where dist is on or below
    the band's lower bound."""
    right = x > 0.5
    dist = (1.0 - x if d is None else d) if right else x
    i = reference_ladder_key(ladder, dist)
    if dist <= 0.5 * ladder.q ** (i + 1):
        i += 1
    return -i if right else i


def reference_ladder_read(ladder, x: float, d: float | None = None) -> complex:
    """specfun._Ladder's scalar read before list reads: y(x), d = 1 - x
    exactly, keyed by reference_ladder_key, with Horner on complex
    coefficients.  It reads the ladder's own expansions (building one on
    first use), so it checks the read and not the expansions.  A point
    the ladder's seed serves itself (x <= ladder.reach: x = 0, or g1's
    points below x0) is read from ladder.point."""
    if x <= ladder.reach:
        return ladder.point(x)
    right = x > 0.5
    dist = (1.0 - x if d is None else d) if right else x
    i = reference_ladder_key(ladder, dist)
    key = -i if right else i
    m, r, coeffs, _ = ladder.expansions.get(key) or ladder._expansion(key)
    tau = ((dist if key < 0 else x) - m) / r
    acc = 0.0 + 0.0j
    for re_part, im_part in coeffs:
        acc = acc * tau + complex(re_part, im_part)
    return acc


# -- reference Chebyshev panels -----------------------------------------------

@cache
def _reference_rows(n: int) -> tuple[list[float], list[list[float]]]:
    # Chebyshev points cos(pi j/n) and the DCT-I rows acting on the folded
    # values f_j + f_(n-j) (k even) or f_j - f_(n-j) (k odd), j = 0..n/2
    nodes = [math.cos(math.pi * j / n) for j in range(n + 1)]
    rows = []
    for k in range(n + 1):
        scale = (1.0 if 0 < k < n else 0.5) * 2.0 / n
        rows.append([scale * (0.5 if j == 0 else 1.0)
                     * math.cos(math.pi * (j * k % (2 * n)) / n)
                     for j in range(n // 2 + 1)])
    return nodes, rows


def reference_fit(f, lo: float, hi: float, abs_tol: float, rel_tol: float,
                  scale: float) -> tuple[list[complex] | None, float]:
    """Chebyshev coefficients of f on [lo, hi] at the first of the nested
    degrees 16, 32, 64 whose last 4 coefficients fall below max(rel_tol *
    largest, abs_tol * S), or None, with S the larger of scale and every
    |sample| so far; and S.  Every coefficient of every level is formed
    before the level is decided.  quadrature._fit must sample f at the same
    points and take the same decisions."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals: list = []
    for n in (16, 32, 64):
        nodes, rows = _reference_rows(n)
        if not vals:
            vals = [f(hi)] + [f(mid + half * t) for t in nodes[1:-1]] + [f(lo)]
        else:
            merged = [0j] * (n + 1)
            merged[0::2] = vals
            merged[1::2] = [f(mid + half * t) for t in nodes[1::2]]
            vals = merged
        scale = max([scale] + [abs(v) for v in vals])
        m = n // 2
        even = [u + v for u, v in zip(vals[:m], vals[:m:-1])] + [vals[m]]
        odd = [u - v for u, v in zip(vals[:m], vals[:m:-1])] + [0j]
        coefs = [sum(map(mul, row, odd if k % 2 else even))
                 for k, row in enumerate(rows)]
        tail = max(map(abs, coefs[-4:]))
        if tail <= max(rel_tol * max(map(abs, coefs)), abs_tol * scale):
            return coefs, scale
    return None, scale


class ReferenceRunningIntegral:
    """The running integral of reference_cumulative_integral: each panel's
    total is its integral series evaluated at the far end, and every
    series is built up front.  panels holds (lo, hi, degree) in order of
    x and panel_totals the panels' integrals in the same order."""

    def __init__(self, a, b, downward, fitted):
        self.a, self.b, self.downward = a, b, downward
        sign = -1.0 if downward else 1.0
        acc = 0.0 + 0.0j
        series, totals = [], []
        for lo, hi, coefs in fitted:
            half = 0.5 * (hi - lo)
            n = len(coefs) - 1
            c = coefs + [0j, 0j]
            ints = [0j, sign * half * (c[0] - 0.5 * c[2])]
            ints += [sign * half * (c[k - 1] - c[k + 1]) / (2 * k)
                     for k in range(2, n + 2)]
            ints[0] = -sum(v * (-sign) ** k for k, v in enumerate(ints))
            series.append((0.5 * (lo + hi), half, ints[::-1], acc))
            part = sum(v * sign ** k for k, v in enumerate(ints))
            totals.append(part)
            acc += part
        self.total = acc
        if downward:
            fitted, series, totals = fitted[::-1], series[::-1], totals[::-1]
        self.cuts = [hi for _, hi, _ in fitted[:-1]]
        self.panels = [(lo, hi, len(coefs) - 1) for lo, hi, coefs in fitted]
        self.panel_totals = totals
        self._series = series

    def __call__(self, x):
        if x == (self.a if self.downward else self.b):
            return self.total
        if x == (self.b if self.downward else self.a):
            return 0.0 + 0.0j
        mid, half, rev, offset = self._series[bisect_right(self.cuts, x)]
        t = min(1.0, max(-1.0, (x - mid) / half))
        t2 = 2.0 * t
        b1 = b2 = 0j
        for coef in rev[:-1]:
            b1, b2 = coef + t2 * b1 - b2, b1
        return offset + (rev[-1] + t * b1 - b2)


def reference_cumulative_integral(f, a, b, *, downward=False, breaks=(),
                                  abs_tol=1e-10, rel_tol=1e-10,
                                  max_subdivisions=200):
    """quadrature.cumulative_integral with reference_fit panels and series
    built from their full coefficient lists; None where it would raise
    QuadratureFailure."""
    edges = [a, *sorted({x for x in breaks if a < x < b}), b]
    pending = list(zip(edges, edges[1:]))[::1 if downward else -1]
    fitted = []
    splits = 0
    scale = 0.0
    while pending:
        lo, hi = pending.pop()
        coefs, scale = reference_fit(f, lo, hi, abs_tol, rel_tol, scale)
        if coefs is not None:
            fitted.append((lo, hi, coefs))
            continue
        mid = 0.5 * (lo + hi)
        if splits >= max_subdivisions or mid <= lo or mid >= hi:
            return None
        splits += 1
        if downward:
            pending += [(lo, mid), (mid, hi)]
        else:
            pending += [(mid, hi), (lo, mid)]
    return ReferenceRunningIntegral(a, b, downward, fitted)
