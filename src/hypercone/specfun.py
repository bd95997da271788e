"""Complex special functions: Gamma, log-Gamma, reciprocal Gamma, Pochhammer
symbols, and the Gauss hypergeometric function 2F1 on the real interval [0, 1).

All of it is self-contained double precision.  Gamma comes from a fixed
15-coefficient Lanczos rational approximation (g = 607/128, the Godfrey set)
which holds ~15 significant digits on Re z >= 1/2; the left half-plane is
reached by reflection.  Log-Gamma uses upward recurrence instead of
reflection, which keeps the principal branch on the cut plane C \\ (-inf, 0]
without any winding bookkeeping: log Gamma(z) = log Gamma(z+m) - sum log(z+j)
holds branch-for-branch there.

2F1 follows the defining series up to z = 1/2 and the standard two-term 1-z
connection formula above, with an epsilon-shift fallback when c - a - b is
within 1e-8 of an integer (the connection coefficients degenerate).  The
regularized function F/Gamma(c) is entire in c and is summed term by term
with reciprocal-Gamma factors, so non-positive integer c is an ordinary
input, not an error.

Poles and non-convergence surface as typed exceptions, never as inf/nan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    LowerParameterPole,
    NoConvergence,
    PoleAtNonPositiveInteger,
)

_LANCZOS_G = 607.0 / 128.0

# Godfrey's 15-term coefficient set for g = 607/128.
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LN_SQRT_2PI = 0.91893853320467274178  # log(sqrt(2*pi))
_LN_PI = 1.1447298858494001741


@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for hypergeometric series.

    A series stops once |term| <= rel_tol * |partial sum| for three
    consecutive terms; exceeding max_terms raises NoConvergence.
    """

    rel_tol: float = 1e-14
    max_terms: int = 10000


_DEFAULT_CTL = SeriesControl()


def is_nonpositive_integer(z: complex) -> bool:
    """Exact membership test for {0, -1, -2, ...}: zero imaginary part and
    integral non-positive real part.  No threshold is applied."""
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


def _sinpi(z: complex) -> complex:
    # sin(pi z) with the argument reduced mod 1 first, so accuracy does not
    # degrade near large-real z (needed by reflection close to Gamma poles).
    z = complex(z)
    m = math.floor(z.real + 0.5)
    w = complex(z.real - m, z.imag)
    s = cmath.sin(math.pi * w)
    return -s if (m & 1) else s


def _lanczos_ln_gamma(z: complex) -> complex:
    # valid for Re z >= 0.5 only
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _LN_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma; exp(ln_gamma(z)) = Gamma(z).

    Raises PoleAtNonPositiveInteger at z in {0, -1, -2, ...}.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleAtNonPositiveInteger(f"ln_gamma pole at z = {z}")
    if z.real >= 0.5:
        return _lanczos_ln_gamma(z)
    # Upward recurrence: principal-branch-safe on the cut plane, unlike the
    # reflection formula which needs winding corrections for large |Im z|.
    m = int(math.ceil(0.5 - z.real))
    acc = 0.0 + 0.0j
    for j in range(m):
        acc += cmath.log(z + j)
    return _lanczos_ln_gamma(z + m) - acc


def gamma(z: complex) -> complex:
    """Gamma function on the complex plane minus {0, -1, -2, ...}."""
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleAtNonPositiveInteger(f"gamma pole at z = {z}")
    if z.real >= 0.5:
        return cmath.exp(_lanczos_ln_gamma(z))
    # Reflection evaluated in log space; exp() erases any 2*pi*i branch
    # mismatch between the log terms, and intermediates cannot overflow.
    return cmath.exp(_LN_PI - cmath.log(_sinpi(z)) - _lanczos_ln_gamma(1.0 - z))


def recip_gamma(z: complex) -> complex:
    """1/Gamma(z), entire: returns exactly 0 at z in {0, -1, -2, ...}."""
    z = complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    if z.real >= 0.5:
        return cmath.exp(-_lanczos_ln_gamma(z))
    return cmath.exp(cmath.log(_sinpi(z)) + _lanczos_ln_gamma(1.0 - z) - _LN_PI)


def pochhammer(a: complex, k: int) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"pochhammer order must be an integer >= 0, got {k!r}")
    a = complex(a)
    acc = 1.0 + 0.0j
    for j in range(k):
        acc *= a + j
    return acc


def gauss_series(a: complex, b: complex, c: complex, z: float,
                 ctl: SeriesControl | None = None) -> complex:
    """Defining 2F1 series sum_k (a)_k (b)_k / ((c)_k k!) z^k.

    Converges for |z| < 1; the caller guarantees c is not a non-positive
    integer.  This is the raw engine: hyp2f1 adds the domain split, and the
    resolvent kernel seeds its Taylor expansions with the defining series
    (through the same term loop) at anchors across (0,1) because the
    connection formula degenerates exactly on the parameter families the
    kernel needs (integer c-a-b).
    """
    ctl = ctl or _DEFAULT_CTL
    return _sum_series(1.0 + 0.0j,
                       _StepRatios(complex(a), complex(b), complex(c)), z, ctl)


class _StepRatios:
    """Step ratios (a+k)(b+k)/((c+k)(k+1)), k = k0, k0+1, ..., of one 2F1
    series, computed the first time _sum_series reaches them.

    A caller that sums the same series at many z keeps one instance and
    pays for each ratio once; a one-shot sum passes a fresh one.
    """

    __slots__ = ("a", "b", "c", "k0", "steps")

    def __init__(self, a, b, c, k0: int = 0) -> None:
        self.a, self.b, self.c, self.k0 = a, b, c, k0
        self.steps: list[complex] = []


def _sum_series(term: complex, ratios: _StepRatios, z: float,
                ctl: SeriesControl, kmin: int = 0) -> complex:
    # the one 2F1 term loop: term is the k0-th term, step k multiplies it
    # by ratio_k * z; SeriesControl's rule, applied once k >= kmin, ends
    # the sum
    a, b, c, k0 = ratios.a, ratios.b, ratios.c, ratios.k0
    steps = ratios.steps
    cached = len(steps)
    tol = ctl.rel_tol
    total = term
    small = 0
    for i in range(ctl.max_terms):
        if i < cached:
            r = steps[i]
        else:
            k = k0 + i
            r = (a + k) * (b + k) / ((c + k) * (k + 1))
            steps.append(r)
        term *= r * z
        total += term
        if abs(term) <= tol * abs(total):
            small += 1
            if small >= 3 and k0 + i >= kmin:
                return total
        else:
            small = 0
    raise NoConvergence(
        f"2F1 series did not settle within {ctl.max_terms} terms at z = {z}")


def _ode_taylor(a: complex, b: complex, c: complex, m: float, y0: complex,
                dy0: complex, r: float, ctl: SeriesControl) -> list[complex]:
    """Scaled Taylor coefficients y_j r^j, j = 0, 1, ..., about z = m of the
    solution of z(1-z)y'' + [c - (a+b+1)z]y' - ab y = 0 (DLMF 15.10.1) with
    y(m) = y0 and y'(m) = dy0, so y(m + r tau) = sum_j coeffs[j] tau^j.

    With z = m + t the ODE gives the three-term recurrence

        y_{j+2} = [(j+a)(j+b) y_j - (j+1)((1-2m)j + c - (a+b+1)m) y_{j+1}]
                  / (m(1-m)(j+1)(j+2)),

    which converges for |t| < min(m, 1-m).  The coefficients stop by
    SeriesControl's rule, with the largest |y_j| r^j so far as the scale:
    three consecutive |y_j| r^j <= rel_tol * scale end the list and are
    left out of it, and max_terms steps without that raise NoConvergence.
    Scaling by r keeps the coefficients finite for anchors m near 0 or 1.
    """
    lin = c - (a + b + 1.0) * m
    slope = 1.0 - 2.0 * m
    q0 = r * r / (m * (1.0 - m))
    q1 = r / (m * (1.0 - m))
    coeffs = [y0, dy0 * r]
    scale = max(abs(y0), abs(coeffs[1]))
    tol = ctl.rel_tol
    small = 0
    for j in range(ctl.max_terms):
        nxt = (((j + a) * (j + b) * q0 * coeffs[j]
                - (j + 1) * (slope * j + lin) * q1 * coeffs[j + 1])
               / ((j + 1) * (j + 2)))
        coeffs.append(nxt)
        size = abs(nxt)
        if size > scale:
            scale = size
        if size <= tol * scale:
            small += 1
            if small >= 3:
                return coeffs[:-3]
        else:
            small = 0
    raise NoConvergence(
        f"2F1 Taylor expansion about z = {m} did not settle within "
        f"{ctl.max_terms} terms")


def _gamma_quotient(numers, denoms) -> complex:
    # product Gamma(numers) / product Gamma(denoms); a pole in a denominator
    # kills the quotient (returns 0), evaluated in log space otherwise.
    for d in denoms:
        if is_nonpositive_integer(d):
            return 0.0 + 0.0j
    for n in numers:
        if is_nonpositive_integer(n):
            raise PoleAtNonPositiveInteger(
                f"gamma quotient has a numerator pole at {n}")
    acc = 0.0 + 0.0j
    for n in numers:
        acc += ln_gamma(n)
    for d in denoms:
        acc -= ln_gamma(d)
    return cmath.exp(acc)


def _connection_1mz(a: complex, b: complex, c: complex, z: float,
                    ctl: SeriesControl) -> complex:
    # two-term connection formula in powers of w = 1 - z, for z > 1/2
    w = 1.0 - z
    m = c - a - b
    # all m-dependent parameters must come from the same rounded m, or the
    # near-degenerate cancellation amplifies the rounding mismatch by 1/m
    t1 = _gamma_quotient((c, m), (c - a, c - b))
    if t1 != 0.0:
        t1 *= gauss_series(a, b, 1.0 - m, w, ctl)
    t2 = _gamma_quotient((c, -m), (a, b))
    if t2 != 0.0:
        t2 *= cmath.exp(m * math.log(w)) * gauss_series(c - a, c - b, m + 1.0, w, ctl)
    return t1 + t2


def hyp2f1(a: complex, b: complex, c: complex, z: float,
           ctl: SeriesControl | None = None) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for real z in [0, 1).

    Defining series for z <= 1/2; two-term 1-z connection formula above,
    with an epsilon-shift in c (Richardson average of +/- 1e-6*(1+i)) when
    c - a - b sits within 1e-8 of an integer and the connection coefficients
    degenerate.  Raises LowerParameterPole for c in {0, -1, -2, ...}.
    """
    ctl = ctl or _DEFAULT_CTL
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if not isinstance(z, (int, float)) or not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1 argument must be a real in [0, 1), got {z!r}")
    z = float(z)
    if is_nonpositive_integer(c):
        raise LowerParameterPole(f"hyp2f1 lower parameter c = {c}")
    if is_nonpositive_integer(a) or is_nonpositive_integer(b):
        # polynomial case: the series terminates exactly, any z
        return gauss_series(a, b, c, z, ctl)
    if z <= 0.5:
        return gauss_series(a, b, c, z, ctl)
    gap = c - a - b
    dist = math.hypot(gap.real - round(gap.real), gap.imag)
    if dist < 1e-8:
        shift = 1e-6 * (1.0 + 1.0j)
        plus = _connection_1mz(a, b, c + shift, z, ctl)
        minus = _connection_1mz(a, b, c - shift, z, ctl)
        return 0.5 * (plus + minus)
    return _connection_1mz(a, b, c, z, ctl)


def hyp2f1_regularized(a: complex, b: complex, c: complex, z: float,
                       ctl: SeriesControl | None = None) -> complex:
    """Regularized hypergeometric F(a, b; c; z) / Gamma(c), entire in c.

    At c = -m in {0, -1, -2, ...} the value is the limit: the series starts
    at k = m + 1.  Summed with reciprocal-Gamma term weights near (and at)
    those c; routed through hyp2f1/Gamma(c) for z > 1/2 at safely generic c.
    """
    ctl = ctl or _DEFAULT_CTL
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if not isinstance(z, (int, float)) or not 0.0 <= z < 1.0:
        raise DomainError(
            f"hyp2f1_regularized argument must be a real in [0, 1), got {z!r}")
    z = float(z)
    c_dist = math.hypot(c.real - min(round(c.real), 0), c.imag)
    if z > 0.5 and c_dist > 0.1:
        return hyp2f1(a, b, c, z, ctl) * recip_gamma(c)
    if is_nonpositive_integer(c):
        k0 = int(-c.real) + 1
    else:
        k0 = 0
    term = (pochhammer(a, k0) * pochhammer(b, k0) * recip_gamma(c + k0)
            * (z ** k0) / math.factorial(k0))
    # c + k stays off the poles for k > k0 by construction
    return _sum_series(term, _StepRatios(a, b, c, k0), z, ctl)
