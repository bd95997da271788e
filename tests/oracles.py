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
