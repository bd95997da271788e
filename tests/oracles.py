"""Independent oracles the test expectations are derived from.

Each routine recomputes a library quantity by a different method
(arbitrary-precision series, brute-force enumeration, a different closed
form), so tests never compare the implementation against itself.  Frozen
constants in the test modules carry a comment naming the oracle call that
produced them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


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
    u1 = F(a, b; 2a; sigma), u2 = F(a, b; 1+s; 1-sigma) and
    g1 = Gamma(a)Gamma(b)/Gamma(2a) u1, with a = 1/2 - i lambda, b = a + s."""
    with mp.workdps(dps):
        s = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + mp.mpf(mu_sq))
        a = mp.mpf(1) / 2 - 1j * mp.mpc(lam)
        b = a + s
        x = mp.mpf(sigma)
        u1 = mp.hyp2f1(a, b, 2 * a, x)
        u2 = mp.hyp2f1(a, b, 1 + s, 1 - x)
        g1 = mp.gamma(a) * mp.gamma(b) / mp.gamma(2 * a) * u1
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
                           dps: int = 30) -> complex:
    """(R(lambda) f)(sigma) straight from the kernel formula

        P sigma^alpha (1-sigma)^beta [u1(sigma) int_sigma^hi f u2 w
                                      + u2(sigma) int_lo^sigma f u1 w],

    u1 = F(a, b; 2a; rho), u2 = F(a, b; 1+s; 1-rho),
    P = Gamma(a)Gamma(b) / (Gamma(2a)Gamma(1+s)),
    w = rho^(-1-n/2-i lambda) (1-rho)^(s/2+(n-1)/4),
    alpha = n/2 - i lambda, beta = -(n-1)/4 + s/2, a = 1/2 - i lambda,
    b = a + s, with mp.hyp2f1 and mp.quad at dps digits; each integral
    runs over its part of the support [lo, hi] and is skipped when that
    part is empty.  func takes and returns mp numbers.
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

        x, lo, hi = mp.mpf(sigma), mp.mpf(lo), mp.mpf(hi)
        upper = lower = mp.mpc(0)
        if x < hi:
            upper = mp.quad(lambda r: func(r) * u2(r) * w(r), [max(x, lo), hi])
        if x > lo:
            lower = mp.quad(lambda r: func(r) * u1(r) * w(r), [lo, min(x, hi)])
        pref = (mp.gamma(a) * mp.gamma(b) / (mp.gamma(2 * a) * mp.gamma(1 + s))
                * x ** (mp.mpf(n) / 2 - 1j * lam)
                * (1 - x) ** (s / 2 - mp.mpf(n - 1) / 4))
        return complex(pref * (u1(x) * upper + u2(x) * lower))
