"""Explicit mode resolvent on the hyperbolic cone and its numerical checks.

Radial coordinate r > 0 maps to sigma = 1/cosh^2(r/2) in (0, 1).  In sigma
the mode operator is hypergeometric: with a = 1/2 - i*lambda, b = a + s,
c = 2a, the kernel is built from u1 = F(a,b;c;sigma), the solution selected
at sigma = 0 (r = infinity), and u2 = F(a,b;1+s;1-sigma), selected at
sigma = 1 (r = 0).  The resolvent applied to a compactly supported radial
profile f is

    (R f)(sigma) = P [ u1(sigma) int_sigma^1 f u2 w drho
                       + u2(sigma) int_0^sigma f u1 w drho ],

P = Gamma(a)Gamma(b) / (Gamma(c)Gamma(1+s)), and the weight factorizes as
w(sigma, rho) = sigma^alpha (1-sigma)^beta rho^e1 (1-rho)^e2 with
alpha = n/2 - i*lambda, beta = -(n-1)/4 + s/2, e1 = -1 - n/2 - i*lambda,
e2 = s/2 + (n-1)/4.  The sigma factors leave the integrals, so every
evaluation point reads the same two running integrals: f g1 w accumulated
upward from the bottom of the support and f u2 w downward from its top.
Both run in u = log rho, where rho^e1 drho = exp((e1+1) u) du: the weight
becomes an entire exponential, not a power law that steepens as
Im lambda < 0 (where the resonances lie).  Each is one piecewise Chebyshev
interpolant with its indefinite integral (quadrature.cumulative_integral),
so a grid point costs one Clenshaw sum per integral, and nearby points
differ only by the smooth interpolant between them; that is what keeps
finite-difference residual checks clean.

Evaluation: g1 = P F(a,b;c;z) and u2 = F(a,b;1+s;w) at w = 1 - sigma both
solve the hypergeometric ODE (DLMF 15.10.1), in either half plane, and a
kernel reads each from specfun's ODE continuation (_Ladder): one Horner sum
per point, a list of points per read (the nodes of a quadrature level, or
every point a check asks for).  The kernel built last is kept (_kernel), so
calls at one (n, mu^2, lambda), such as the two orientations of a Green
pairing, seed and continue it once.  g1 and public u1 read F(a, b; 2a; sigma)
through Kummer's quadratic transformation, a series in zeta = sech^2 r, the
cone's own Legendre variable (_KernelData._quadratic_seed): it needs fewer
terms than the series in sigma, and its seed bound starts g1's climb toward
sigma = 1, against the growing second solution, near sigma = 0.7 rather
than at about 4/|lambda|.  Below that bound g1 is read from one list of the
series' terms per kernel, formed only as far as the points read reach and
summed in one loop per point up to that point's own cut, so a value does
not depend on what was read before.  g1's seed carries P whole,
one sum of log-Gammas in the series' parameters, where Legendre's
duplication formula cancels the poles of Gamma(a) and Gamma(c)
(_prefactor).  At exact lattice parameters P is its limit along lambda,
and at odd c the series is a head plus the DLMF 15.2.3 tail.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DomainError,
    LowerParameterPole,
    NoConvergence,
    ParameterPole,
    PoleEvaluation,
    ProbeInconclusive,
    ValidationError,
    _complex,
    _integer,
    _real,
)
from .quadrature import QuadratureControl, cumulative_integral
from .resonances import (
    HypergeomParams,
    _lattice_indices,
    hypergeom_params,
)
from .specfun import (
    _MAX_TERMS,
    _ROUNDOFF,
    _Ladder,
    _hyp2f1,
    _seed_bound,
    _series_seed,
    _series_terms,
    is_nonpositive_integer,
    ln_gamma,
)
from .crosssec import Mode


# a point value's running integrals take the default tolerances; those that
# feed finite differences run tight
_POINT_QC = QuadratureControl()
_GRID_QC = QuadratureControl(abs_tol=1e-15, rel_tol=5e-14, max_subdivisions=60)

# the largest zeta = sech^2 r at which g1's quadratic seed sums its series
# (_KernelData._quadratic_seed): sigma = 0.708 in the kernel's own variable
_ZETA_CAP = 0.3

_LN_2 = math.log(2.0)
_LN_SQRT_PI = 0.5 * math.log(math.pi)


# -- coordinates and measure --------------------------------------------------

def sigma_of_r(r: float) -> float:
    """sigma = 1/cosh^2(r/2), mapping r in (0, inf) onto (0, 1).  Past
    r = 711.1, where cosh^2(r/2) overflows a double (sigma < 6e-309),
    raises DomainError."""
    r = _real(r, "r", DomainError, "(0, inf)")
    try:
        return 1.0 / math.cosh(0.5 * r) ** 2
    except OverflowError:
        raise DomainError(f"sigma at r = {r!r} is below the double "
                          f"range") from None


def r_of_sigma(sigma: float) -> float:
    """Inverse map r = 2 acosh(1/sqrt(sigma)) on (0, 1]."""
    sigma = _real(sigma, "sigma", DomainError, "(0, 1]")
    return 2.0 * math.acosh(1.0 / math.sqrt(sigma))


def measure_density(n: int, sigma: float) -> float:
    """Density of sinh(r)^n dr in sigma: 2^n (1-sigma)^((n-1)/2) sigma^-(n+1).

    At sigma = 1 (the cone tip) the limit is 2 for n = 1 and 0 for n >= 2.
    A density beyond the double range raises DomainError.
    """
    n = _integer(n, "n", DomainError, 1)
    sigma = _real(sigma, "sigma", DomainError, "(0, 1]")
    try:
        density = (2.0 ** n * (1.0 - sigma) ** ((n - 1) / 2.0)
                   * sigma ** (-(n + 1)))
    except OverflowError:
        density = math.inf
    if not math.isfinite(density):
        raise DomainError(f"measure_density at n = {n}, sigma = {sigma!r} "
                          f"exceeds the double range")
    return density


# -- radial source profiles ---------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """A radial source f(sigma) supported in a compact subinterval of (0, 1).

    Calling the profile gives func inside the open support and exactly zero
    elsewhere.  The resolvent's integrals read func itself on the closed
    support, so a profile that is nonzero at lo or hi is integrated as the
    smooth function it is there.  Compact support away from both endpoints
    keeps the kernel integrals convergent for every lambda.
    """

    func: Callable[[float], complex]
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not (_real(lo, "support lo", ValidationError, "(0, 1)")
                < _real(hi, "support hi", ValidationError, "(0, 1)")):
            raise ValidationError(
                f"support must satisfy 0 < lo < hi < 1, got {self.support!r}")

    def __call__(self, sigma: float) -> complex:
        lo, hi = self.support
        if lo < sigma < hi:
            return self.func(sigma)
        return 0.0

    @classmethod
    def bump(cls, lo: float = 0.3, hi: float = 0.6) -> "RadialProfile":
        """C^2 bump ((sigma-lo)(hi-sigma))^3, normalized to peak value 1."""
        scale = ((hi - lo) / 2.0) ** 6

        def f(x: float) -> float:
            return ((x - lo) * (hi - x)) ** 3 / scale

        return cls(f, (lo, hi))


# -- kernel basis functions ---------------------------------------------------

def u1(p: HypergeomParams, sigma: float) -> complex:
    """F(a, b; c; sigma): the solution selected at sigma = 0.

    Read through Kummer's quadratic transformation (DLMF 15.8.13),
    F(a, b; 2a; sigma) = (1 - sigma/2)^(-b) F(b/2, b/2 + 1/2; a + 1/2; zeta)
    with zeta = (sigma / (2 - sigma))^2 = sech^2 r, by hyp2f1 at zeta given
    its exact distance 1 - zeta = 4 (1 - sigma) / (2 - sigma)^2.  Undefined
    when c is a non-positive integer (use the fused resolvent routines
    there); diverges like (1-sigma)^(-s) as sigma -> 1.  A value past the
    double range raises DomainError.
    """
    sigma = _real(sigma, "sigma", DomainError, "[0, 1)")
    if is_nonpositive_integer(p.c) or _lattice_indices(p)[2] is not None:
        raise LowerParameterPole(
            f"c = {p.c} is a non-positive integer; F(a,b;c;z) is undefined")
    a, b = complex(p.a), complex(p.b)
    t = 2.0 - sigma
    f = _hyp2f1(0.5 * b, 0.5 * b + 0.5, a + 0.5, (sigma / t) ** 2,
                4.0 * (1.0 - sigma) / (t * t))
    val = _quadratic_scale(0.0, b, sigma) * f
    if not cmath.isfinite(val):
        raise DomainError(f"u1 at sigma = {sigma!r}, lambda = {p.lam} "
                          f"exceeds the double range")
    return val


def _quadratic_scale(log_p: complex, b: complex, z: float) -> complex:
    # P (1 - z/2)^(-b), the factor of Kummer's quadratic transformation, as
    # exp(log P - b log(1 - z/2)); inf past the double range
    try:
        return cmath.exp(log_p - b * math.log1p(-0.5 * z))
    except OverflowError:
        return complex(math.inf)


def u2(p: HypergeomParams, sigma: float) -> complex:
    """F(a, b; 1+s; 1-sigma): the solution selected at sigma = 1.

    Evaluated as hyp2f1 at w = 1 - sigma, in either half plane, with sigma
    kept as the exact distance of w from 1.
    """
    sigma = _real(sigma, "sigma", DomainError, "(0, 1]")
    return _hyp2f1(complex(p.a), complex(p.b), complex(1.0 + p.s),
                   1.0 - sigma, sigma)


def _prefactor(p: HypergeomParams, pole: type[Exception]):
    """(log P, order, (ib, m), log t): the mode prefactor
    P = Gamma(a)Gamma(b)/(Gamma(c)Gamma(1+s)) in the parameters of g1's
    series in zeta, where Legendre's duplication formula (DLMF 5.5.5)
    cancels the poles of Gamma(a) and Gamma(c):

        P = sqrt(pi) 2^(1-c) Gamma(b) / (Gamma(C') Gamma(1+s)),

    C' = a + 1/2.  As lambda moves along its line through p, b and C' move
    by delta and P ~ exp(log P) delta^-order.  ib and m are their exact indices (the
    parameter symbolically -x, else None; C' = -m at odd c = -(2m+1)),
    each adding the pole coefficient (-1)^x/x! of Gamma(-x + delta) and one
    order.  At C' = -m, t = sqrt(pi) 2^(1-c-2k) Gamma(b+2k)/(k! Gamma(1+s)),
    k = m + 1, is the coefficient of the series' DLMF 15.2.3 tail; else
    log t is None.  A float parameter on a Gamma pole without exact data
    raises pole.
    """
    _, ib, ic = _lattice_indices(p)
    m = None if ic is None or ic % 2 == 0 else ic // 2

    def log_gamma(val, x: int | None) -> tuple[complex, int]:
        if x is not None:
            return complex(-math.lgamma(x + 1), math.pi * x), 1
        if is_nonpositive_integer(val):
            raise pole(f"{val} lands exactly on a Gamma pole but carries no "
                       f"exact form to resolve the limit")
        return ln_gamma(val), 0

    (lb, ob), (lc, oc) = log_gamma(p.b, ib), log_gamma(p.a + 0.5, m)
    base = _LN_SQRT_PI - ln_gamma(1.0 + p.s)
    log_t = None
    if m is not None:
        k = m + 1
        log_t = (base + (1.0 - p.c - 2 * k) * _LN_2 + ln_gamma(p.b + 2 * k)
                 - math.lgamma(k + 1))
    return base + (1.0 - p.c) * _LN_2 + lb - lc, ob - oc, (ib, m), log_t


def wronskian_closed_form(p: HypergeomParams, sigma: float) -> complex:
    """W(u1, u2) = -sigma^-c (1-sigma)^(-1-s) / P, one exponential of
    -c log sigma - (1+s) log(1-sigma) - log P (_prefactor).

    At exact parameter points where a Gamma factor is singular the limit is
    taken along lambda: W = 0 where P diverges (a genuine pole, u1 and u2
    proportional), and ParameterPole is raised where it vanishes (the
    (u1, u2) basis degenerates) or a float parameter sits on a Gamma pole
    without exact data.  A W beyond the double range raises DomainError.
    """
    sigma = _real(sigma, "sigma", DomainError, "(0, 1)")
    log_p, order, _, _ = _prefactor(p, ParameterPole)
    if order > 0:
        return 0.0 + 0.0j
    if order < 0:
        raise ParameterPole(
            f"Gamma(c) is singular at c = {p.c} and neither a nor b rescues "
            f"the limit; the (u1, u2) basis degenerates here")
    try:
        return -cmath.exp(-p.c * math.log(sigma)
                          - (1.0 + p.s) * math.log(1.0 - sigma) - log_p)
    except OverflowError:
        raise DomainError(f"the Wronskian at sigma = {sigma!r}, lambda = "
                          f"{p.lam} exceeds the double range") from None


# -- the kernel functions ------------------------------------------------------

class _KernelData:
    """Per-(n, mode, lambda) evaluation state for the resolvent kernel.

    g1 reads P F(a, b; c; z), its poles fused into the terms, and u2
    reads f2 = F(a, b; 1+s; 1 - sigma), each a specfun._Ladder whose values
    depend only on the kernel and the point; both read a list of points.
    g1's seed is _quadratic_seed, a series in zeta = sech^2 r whose one
    list of terms, grown only as far as the reads reach, gives g1 itself
    at every z up to its bound x0 (0.62 to 0.71), a list of points in one
    loop, and whose own pass seeds the ladder's climb above it; f2's is
    the series in 1 - sigma, seeding the ladder alone.  A genuine pole
    raises PoleEvaluation, a g1 value beyond the double range
    DomainError.
    """

    def __init__(self, n: int, p: HypergeomParams) -> None:
        self.p = p
        self.alpha = 0.5 * n - 1j * p.lam
        self.beta = -(n - 1) / 4.0 + 0.5 * p.s
        self.e1 = -1.0 - 0.5 * n - 1j * p.lam
        self.e2 = 0.5 * p.s + (n - 1) / 4.0
        a, b, c = complex(p.a), complex(p.b), complex(p.c)
        log_p, order, (ib, m), log_t = _prefactor(p, PoleEvaluation)
        if order > 0:
            raise PoleEvaluation(
                f"lambda = {p.lam} is a genuine pole of the mode resolvent "
                f"(a = {p.a}, b = {p.b}, c = {p.c})")
        ha, hc, lead = 0.5 * b, a + 0.5, None
        if m is not None:
            # C' = -m: the series' limit over t is the head, P / t
            # continued by the step ratios up to the index b // 2 of b/2 or
            # b/2 + 1/2 (none without one, P being 0) and then 0 up to
            # k = m + 1, plus zeta^k F(b/2 + k, b/2 + 1/2 + k; k + 1; zeta)
            lead = [0.0j] * (m + 1)
            if ib is not None:  # P / t, inf past the double range
                lead[0] = _quadratic_scale(log_p - log_t, 0.0, 0.0)
                for j in range(ib // 2):
                    lead[j + 1] = (lead[j] * (ha + j) * (ha + 0.5 + j)
                                   / ((j - m) * (j + 1)))
            log_p, ha, hc = log_t, ha + m + 1, complex(m + 2)
        seed = self._quadratic_seed(log_p, b, ha, hc, lead)
        # g1 reads z in [0, 1) and u2 sigma in (0, 1]; every caller has
        # checked its points, so neither checks them again
        self.g1 = _Ladder(a, b, c, seed)
        c2 = complex(1.0 + p.s)
        self.f2 = _Ladder(a, b, c2, _series_seed(1.0 + 0.0j, a, b, c2))

    def u2(self, sigmas: list[float]) -> list[complex]:
        return self.f2([1.0 - x for x in sigmas], sigmas)

    def _quadratic_seed(self, log_p: complex, b: complex, ha: complex,
                        hc: complex, lead: list[complex] | None):
        """z -> (g1(z), g1'(z)) by Kummer's quadratic transformation
        (DLMF 15.8.13) of F(a, b; 2a; z):

            g1(z) = P (1 - z/2)^(-b) H(zeta),  zeta = (z / (2 - z))^2,
            H = F(b/2, b/2 + 1/2; C'; .),  C' = a + 1/2,

        zeta being sech^2 r, for z up to the seed's bound x0: the series'
        own bound zeta0 = min(_ZETA_CAP, _seed_bound) in zeta, mapped back
        by x0 = 2 sqrt(zeta0) / (1 + sqrt(zeta0)).  H(zeta) = sum_k t_k tau^k
        with tau = zeta / zeta0 <= 1 and t_k the terms of
        F(ha, ha + 1/2; hc; .) at zeta0, (ha, hc) = (b/2, C'), t_0 = 1.

        seed.point(zs) is [g1(z) for z in zs], every z <= x0, for the
        ladder to serve those points with.  The terms are formed by the
        term recurrence only as far as the largest tau of a read needs.
        Term k >= 1 is cut at tau <= cut_k, the largest tau at which t_k,
        t_(k+1) and t_(k+2) are all below _ROUNDOFF in |t_i| tau^i, or -1
        (never) below the term floor -Re hc / (1 - zeta0), past which the
        terms no longer grow back (specfun._sum_series).  A point sums
        t_0 .. t_(j-1), j its least k with tau <= cut_k: each row holds t_k
        and the largest cut of rows 1 .. k, so one pass down the rows skips
        those at and above j and sums the rest by Horner in tau, on the
        real and imaginary parts apart.  A row reads only its own terms and
        those below, so the cut of a point does not depend on how far the
        list has grown, and a value depends only on its point.  seed.terms
        is the list of terms formed so far.  seed(z)
        is (g1(z), g1'(z)), g1' = P (1 - z/2)^(-b)
        (b/(2-z) H + zeta' H'(zeta)), zeta' = 4z/(2-z)^3, read at the
        anchors where the ladder's climb above x0 starts: H and H' by
        Horner in tau over the whole list as the read at x0 forms it.  No
        read reaches past x0, so that list is the same whatever was read
        before, and so is the seed.  P (1 - z/2)^(-b) is one exponential,
        so a value past the double range raises DomainError.

        At C' = -m on the exact lattice P H is its limit along lambda, t
        times the lead's k = m + 1 terms and then zeta^k times the DLMF
        15.2.3 tail F(ha, ha + 1/2; hc; .), (ha, hc) = (b/2 + k, k + 1),
        with log_p = log t (_prefactor).  That sum need not be near its
        first term, so its list is formed whole, to roundoff at zeta0
        (specfun._series_terms), and no row cuts it.
        """
        p = self.p
        hb = ha + 0.5
        zeta0 = min(_ZETA_CAP, _seed_bound(ha, hb, hc))
        if lead is None:
            terms = [1.0 + 0.0j]
            reached = -1.0  # the largest cut of a row formed so far
        else:  # in tau, zeta0^k taken into the scale
            k = len(lead)
            terms = ([t * zeta0 ** (j - k) for j, t in enumerate(lead)]
                     + _series_terms(ha, hb, hc, zeta0))
            log_p += k * math.log(zeta0)
            reached = math.inf
        # (t_k, the largest cut of rows 1 .. k) for Horner from the top;
        # t_0's row sets no cut, so every point sums it
        rows = [(t.real, t.imag, -1.0) for t in terms]
        root = math.sqrt(zeta0)
        x0 = 2.0 * root / (1.0 + root)
        full = (x0 / (2.0 - x0)) ** 2 / zeta0  # the largest tau read
        floor = -hc.real / (1.0 - zeta0)
        # the largest tau at which each of the last two terms is negligible
        tail = [math.inf, math.inf]

        def grow(top: float) -> None:
            # form terms by _sum_series's recurrence, and each row once its
            # three terms are formed, until a row cuts at a tau >= top
            nonlocal reached
            t = terms[-1]
            s1, s2 = tail
            for k in range(len(terms) - 1, _MAX_TERMS):
                t = t * ((ha + k) * (hb + k) / ((hc + k) * (k + 1))) * zeta0
                terms.append(t)
                size = abs(t)
                if size <= _ROUNDOFF:
                    s3 = math.inf
                elif size < math.inf:
                    s3 = (_ROUNDOFF / size) ** (1.0 / (k + 1))
                else:  # inf or nan
                    raise DomainError(f"g1's series in zeta at lambda = "
                                      f"{p.lam} exceeds the double range")
                if k >= 2:  # row k - 1: t_(k-1), t_k and t_(k+1) formed
                    cut = s1 if s1 < s2 else s2
                    if s3 < cut:
                        cut = s3
                    if k - 1 < floor:
                        cut = -1.0
                    if cut > reached:
                        reached = cut
                    u = terms[k - 1]
                    rows.append((u.real, u.imag, reached))
                    if reached >= top:
                        tail[:] = s2, s3
                        return
                s1, s2 = s2, s3
            raise NoConvergence(f"g1's series in zeta did not settle within "
                                f"{_MAX_TERMS} terms")

        def point(zs: list[float]) -> list[complex]:
            taus = [(z / (2.0 - z)) ** 2 / zeta0 for z in zs]
            top = max(taus, default=-1.0)
            if top > reached:
                grow(top)
            out = []
            for z, tau in zip(zs, taus):
                # skip the rows from the point's cut up, then Horner down
                terms_down = reversed(rows)
                for vr, vi, most in terms_down:
                    if most < tau:
                        break
                for cr, ci, _ in terms_down:
                    vr = vr * tau + cr
                    vi = vi * tau + ci
                try:
                    val = (cmath.exp(log_p - b * math.log1p(-0.5 * z))
                           * complex(vr, vi))
                except OverflowError:
                    raise refused(z) from None
                if not cmath.isfinite(val):
                    raise refused(z)
                out.append(val)
            return out

        def refused(z: float) -> DomainError:
            return DomainError(f"g1 at z = {z!r}, lambda = {p.lam}, "
                               f"s = {p.s!r} exceeds the double range")

        def scaled(z: float, h: complex) -> complex:
            # P (1 - z/2)^(-b) h, refused past the double range
            val = _quadratic_scale(log_p, b, z) * h
            if cmath.isfinite(val):
                return val
            raise refused(z)

        def seed(z: float) -> tuple[complex, complex]:
            if reached < full:
                grow(full)
            t = 2.0 - z
            tau = (z / t) ** 2 / zeta0
            h = dh = 0.0 + 0.0j
            for term in reversed(terms):
                dh = dh * tau + h
                h = h * tau + term
            return scaled(z, h), scaled(
                z, b / t * h + 4.0 * z / t ** 3 / zeta0 * dh)
        seed.x0, seed.point, seed.terms = x0, point, terms
        return seed


# _kernel's slot, one per thread: a kernel's seeds extend shared lists (step
# ratios, g1's terms) as they are read, so no two threads read one kernel
_slot = threading.local()


def _kernel(n: int, p: HypergeomParams) -> _KernelData:
    """The _KernelData of (n, p), kept in one slot: the kernel built last
    when (n, p) compares equal to its own, lambda's signed zeros included
    (the kernel's messages name lambda), else a new one, which takes the
    slot.  A kernel's values depend only on it and the point
    (specfun._Ladder), so one read again gives the bits of a fresh one.
    apply_resolvent, residual_check and green_pairing all read it, so the
    two orientations of a Green pairing seed and continue one kernel.
    """
    key = (n, p, repr(p.lam))
    last, kd = getattr(_slot, "last", (None, None))
    if last != key:
        kd = _KernelData(n, p)
        _slot.last = (key, kd)
    return kd


def apply_resolvent(n: int, mode: Mode, lam: complex, f: RadialProfile,
                    sigma: float, *, control: QuadratureControl | None = None
                    ) -> complex:
    """(R(lambda) f)(sigma) for a single evaluation point.

    The one-point span of _resolvent: the running integral of f g1 w
    over [lo, sigma] and that of f u2 w over [sigma, hi], either skipped
    when sigma lies outside the support on its side (the other then spans
    the whole support).  control sets their tolerances and bisection
    budget; an integrand they cannot resolve, such as a source with a jump,
    raises QuadratureFailure rather than returning a low-accuracy value.
    Raises PoleEvaluation at exactly classified genuine poles; removable
    and regular parameter points evaluate through the fused limits, and
    DomainError where the value leaves the double range (as it does near
    sigma = 0 when Re(n/2 - i lambda) < 0).
    """
    sigma = _real(sigma, "sigma", DomainError, "(0, 1)")
    p = hypergeom_params(n, mode, lam)
    return _resolvent(_kernel(n, p), f, sigma, sigma,
                      control or _POINT_QC)[0]([sigma])[0]


def _resolvent(kd: _KernelData, f: RadialProfile, a: float, b: float,
               control: QuadratureControl
               ) -> tuple[Callable[[list[float]], list[complex]], list[float]]:
    """xs -> [(R f)(x) for x in xs] on [a, b], and the panel cuts it reads
    across.

    Both running integrals run in u = log rho: rho^e1 drho is
    exp((e1+1) u) du, an entire exponential in u, where in rho it is a
    power law that steepens as Im lambda falls below 0 and needs high
    Chebyshev degrees.  f g1 w is integrated upward from log lo as far as
    log min(b, hi) when that is above log lo, and f u2 w downward from
    log hi as far as log max(a, lo) when that is below log hi.  Each is one
    quadrature.cumulative_integral under control, whose panels depend only
    on its span, so a point costs one Clenshaw sum per integral and any
    span straddling the support costs the same integrand evaluations.  An
    integrand maps the nodes u a Chebyshev level adds to rho = exp(u), and
    the ends log lo and log hi to lo and hi themselves, reads the kernel
    there with one list read (kd.g1, or kd.u2) and forms
    f.func(rho) kernel(rho) exp((e1+1) u) (1-rho)^e2 at each.  f.func is
    read on the closed support, so a profile that is nonzero at lo or hi
    is still smooth there.  rf takes log x once per point and reads g1,
    u2 and both running integrals with one list read each, an integral at
    log x clamped to f's support (where its far end gives its total), and
    forms sigma^alpha (1-sigma)^beta as exp(alpha log x) (1-x)^beta.  The
    cuts are the interior panel boundaries of both integrals, mapped back
    to sigma, where (R f) is smooth only to the integrals' tolerance.
    This is the only place the kernel g1 (upper u2 integral) + u2 (lower
    g1 integral) is formed, and a value of rf beyond the double range
    raises DomainError.
    """
    lo, hi = f.support
    ulo, uhi = math.log(lo), math.log(hi)
    ua, ub = math.log(a), math.log(b)
    func, e1, e2 = f.func, kd.e1 + 1.0, kd.e2
    alpha, beta = kd.alpha, kd.beta

    def weighted(kernel):
        def integrand(us: list[float]) -> list[complex]:
            rs = [lo if u <= ulo else hi if u >= uhi else math.exp(u)
                  for u in us]
            return [func(r) * v * (cmath.exp(e1 * u) * (1.0 - r) ** e2)
                    for r, u, v in zip(rs, us, kernel(rs))]
        return integrand

    cuts = []
    if ub > ulo:
        lower = cumulative_integral(weighted(kd.g1), ulo, min(ub, uhi),
                                    control=control)
        cuts += lower.cuts
    if ua < uhi:
        upper = cumulative_integral(weighted(kd.u2), max(ua, ulo), uhi,
                                    control=control, downward=True)
        cuts += upper.cuts

    def rf(xs: list[float]) -> list[complex]:
        us = [math.log(x) for x in xs]
        g1 = iter(kd.g1([x for x, u in zip(xs, us) if u < uhi]))
        u2 = iter(kd.u2([x for x, u in zip(xs, us) if u > ulo]))
        up = iter(upper([max(u, ulo) for u in us if u < uhi])
                  if ua < uhi else ())
        low = iter(lower([min(u, uhi) for u in us if u > ulo])
                   if ub > ulo else ())
        out = []
        for x, u in zip(xs, us):
            val = 0.0 + 0.0j
            if u < uhi:
                val += next(g1) * next(up)
            if u > ulo:
                val += next(u2) * next(low)
            try:
                val = val * (cmath.exp(alpha * u) * (1.0 - x) ** beta)
            except OverflowError:
                val = complex(math.inf)
            if not cmath.isfinite(val):
                raise DomainError(
                    f"(R f)(sigma) at sigma = {x!r}, lambda = {kd.p.lam} "
                    f"exceeds the double range")
            out.append(val)
        return out

    return rf, [math.exp(c) for c in cuts]


# -- finite-difference residual of the radial equation ------------------------

@dataclass(frozen=True)
class ResidualReport:
    coordinate: str
    h: float
    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    normalization: float


def _default_grid() -> list[float]:
    return [0.1 + 0.016 * i for i in range(51)]


def residual_check(n: int, mode: Mode, lam: complex, f: RadialProfile, *,
                   grid: Sequence[float] | None = None, h: float = 1e-3,
                   coordinate: str = "sigma",
                   control: QuadratureControl | None = None) -> ResidualReport:
    """Max norm of L (R f) - f over a validation grid, via 5-point stencils.

    coordinate selects the form of the radial operator that is differenced:
    "sigma" checks
        -sigma^2(1-sigma) u'' + sigma((n-1) + (3-n)sigma/2) u'
            + (mu^2 sigma^2/(4(1-sigma)) - lambda^2 - n^2/4) u = f,
    and "r" independently checks the same identity in the r variable,
        -u'' - n coth(r) u' + (mu^2/sinh^2(r) - lambda^2 - n^2/4) u = f,
    with the grid still given in sigma.  Residuals are normalized by
    1 + max |f| over the grid.  Grid spacing must be at least 10 h.
    The stencils divide the kernel values' roundoff by h^2 (about 5e6 at
    the default h = 1e-3), so a residual below ~1e-8 carries that roundoff
    in its 3rd-4th significant digit: any change in how kernel values are
    computed moves those digits.
    """
    if coordinate not in ("sigma", "r"):
        raise ValidationError(f"coordinate must be 'sigma' or 'r', "
                              f"got {coordinate!r}")
    h = _real(h, "h", ValidationError, "(0, 1e-2]")
    pts = [_real(x, "grid point", ValidationError, "(0, 1)")
           for x in (_default_grid() if grid is None else grid)]
    if not pts:
        raise ValidationError("grid needs at least one point")
    if any(y <= x for x, y in zip(pts, pts[1:])):
        raise ValidationError("grid must be strictly increasing")
    # the outermost stencil points, as sigma, bound every point read, so
    # they alone are checked; the grid and the other stencil points are
    # converted by the bare formulas of r_of_sigma and sigma_of_r
    if coordinate == "sigma":
        xs, to_sigma, where = pts, (lambda x: x), ""
        ends = [xs[0] - 2 * h, xs[-1] + 2 * h]

        def radial(x, d2, d1, u):
            return (-x * x * (1.0 - x) * d2
                    + x * ((n - 1) + (3 - n) * x / 2.0) * d1
                    + (mu_sq * x * x / (4.0 * (1.0 - x)) - shift) * u)
    else:
        xs = [2.0 * math.acosh(1.0 / math.sqrt(x)) for x in reversed(pts)]
        to_sigma, where = (lambda r: 1.0 / math.cosh(0.5 * r) ** 2), " in r"
        ends = [sigma_of_r(r) if r > 0.0 else 0.0
                for r in (xs[0] - 2 * h, xs[-1] + 2 * h)]

        def radial(r, d2, d1, u):
            sh = math.sinh(r)
            return (-d2 - n * math.cosh(r) / sh * d1
                    + (mu_sq / (sh * sh) - shift) * u)
    if not all(0.0 < x < 1.0 for x in ends):
        raise ValidationError("grid (with stencils) must stay in (0, 1)")
    if any(y - x < 10 * h for x, y in zip(xs, xs[1:])):
        raise ValidationError(f"grid spacing{where} must be at least 10 h")
    p = hypergeom_params(n, mode, lam)
    lam = p.lam
    mu_sq = mode.mu_sq
    shift = lam * lam + 0.25 * n * n
    rf, _ = _resolvent(_kernel(n, p), f, min(ends), max(ends),
                       control or _GRID_QC)
    fs = [f(to_sigma(x)) for x in xs]
    norm = 1.0 + max(abs(v) for v in fs)
    vals = rf([to_sigma(x + j * h) for x in xs for j in (-2, -1, 0, 1, 2)])
    residuals = []
    for i, (x, fx) in enumerate(zip(xs, fs)):
        v0, v1, v2, v3, v4 = vals[5 * i:5 * i + 5]
        # 5-point stencils (-1, 16, -30, 16, -1) / (12 h^2) for u'' and
        # (1, -8, 0, 8, -1) / (12 h) for u', summed left to right
        d2 = (-1.0 * v0 + 16.0 * v1 + -30.0 * v2 + 16.0 * v3
              + -1.0 * v4) / (12.0 * h * h)
        d1 = (1.0 * v0 + -8.0 * v1 + 0.0 * v2 + 8.0 * v3
              + -1.0 * v4) / (12.0 * h)
        residuals.append(abs(radial(x, d2, d1, v2) - fx) / norm)
    if coordinate == "r":
        residuals.reverse()
    return ResidualReport(coordinate, h, tuple(pts), tuple(residuals),
                          max(residuals), norm)


# -- symmetry of the Green pairing --------------------------------------------

def green_pairing(n: int, mode: Mode, lam: complex, f: RadialProfile,
                  g: RadialProfile, *,
                  control: QuadratureControl | None = None) -> complex:
    """<R f, g> = int (R f)(sigma) g(sigma) mu_n(sigma) dsigma.

    The kernel satisfies G(sigma, rho) mu_n(sigma) = G(rho, sigma) mu_n(rho),
    so swapping f and g must reproduce the same value; comparing the two
    orientations is an end-to-end check of the kernel's branch structure.
    Both orientations read the one kernel _kernel keeps for (n, p), so
    the second seeds and continues no expansion the first has not.  The
    outer integral over the support of g is a cumulative_integral of
    (R f) g mu_n under the same control as (R f), its first panels cut where
    (R f) is not smooth: at the ends of f's support (a jump in a high
    derivative) and at the running integrals' panel cuts.  An integrand it
    cannot resolve raises QuadratureFailure, not a low-accuracy value.
    mu_n is measure_density's formula; it falls on (0, 1), so the one
    check at lo that it fits a double (else DomainError) covers every node.
    """
    p = hypergeom_params(n, mode, lam)
    control = control or _GRID_QC
    lo, hi = g.support
    rf, cuts = _resolvent(_kernel(n, p), f, lo, hi, control)
    measure_density(n, lo)
    scale, e1, e2 = 2.0 ** n, (n - 1) / 2.0, -(n + 1)
    return cumulative_integral(
        lambda xs: [v * g.func(x) * (scale * (1.0 - x) ** e1 * x ** e2)
                    for x, v in zip(xs, rf(xs))], lo, hi,
        control=control, breaks=[*f.support, *cuts]).total


# -- contour probe for genuine poles -------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a small-circle residue probe around lambda0.

    residue approximates (1/2 pi i) of the contour integral of
    (R(lambda) f)(sigma0); ratio = |residue| / max |samples| is the
    scale-free pole indicator compared against the threshold.
    """

    lam0: complex
    residue: complex
    max_abs_sample: float
    ratio: float
    is_pole: bool
    radius: float
    points: int


def residue_probe(n: int, mode: Mode, lam0: complex, *,
                  profile: RadialProfile | None = None, sigma0: float = 0.45,
                  radius: float = 1e-2, points: int = 16,
                  threshold: float = 1e-6,
                  control: QuadratureControl | None = None) -> ProbeResult:
    """Detect a genuine resolvent pole at lambda0 by a contour residue.

    Samples u_m = (R(lambda_m) f)(sigma0) on the circle
    lambda_m = lambda0 + radius e^(i theta_m) and forms the trapezoidal
    residue (radius/points) sum u_m e^(i theta_m), which converges
    geometrically in points for a meromorphic resolvent.  Verdict: pole if
    ratio >= 10*threshold, regular if ratio <= threshold/10; the band in
    between raises ProbeInconclusive.

    The mode operator has real coefficients, so for real profile values
    (R(-conj(lambda)) f)(sigma0) = conj((R(lambda) f)(sigma0)), bit for bit
    in floating point.  On the imaginary axis (Re lambda0 = 0) with even
    points, -conj(lambda_m) is lambda_(N/2-m), so that sample is the
    conjugate of its already computed twin: points/2 + 1 samples (9 of 16)
    are evaluated.  This holds while every value f.func has returned during
    the probe is real (a float, or a complex with zero imaginary part);
    after a non-real value the remaining samples are evaluated directly.
    The result equals the full circle up to the placement of the mirrored
    points, which lie within about 5e-18 of the nominal ones.
    """
    radius = _real(radius, "radius", ValidationError, "(0, 0.2)")
    points = _integer(points, "points", ValidationError, 8)
    threshold = _real(threshold, "threshold", ValidationError, "(0, inf)")
    f = profile if profile is not None else RadialProfile.bump()
    lam0 = _complex(lam0, "lambda", DomainError)
    mirror = lam0.real == 0.0 and points % 2 == 0
    real = True   # every value f.func has returned so far is real

    def observed(x: float) -> complex:
        nonlocal real
        v = f.func(x)
        real = real and (isinstance(v, (int, float)) or (
            isinstance(v, complex) and v.imag == 0.0))
        return v

    src = RadialProfile(observed, f.support) if mirror else f
    samples: list[complex] = []
    acc = 0.0 + 0.0j
    max_abs = 0.0
    for m in range(points):
        theta = 2.0 * math.pi * m / points
        phase = cmath.exp(1j * theta)
        twin = (points // 2 - m) % points
        if mirror and twin < m and real:
            um = samples[twin].conjugate()
        else:
            lam = lam0 + radius * phase
            um = apply_resolvent(n, mode, lam, src, sigma0, control=control)
        samples.append(um)
        acc += um * phase
        max_abs = max(max_abs, abs(um))
    residue = acc * radius / points
    if max_abs == 0.0:
        raise ProbeInconclusive(
            "all probe samples vanished; choose sigma0 inside the support")
    ratio = abs(residue) / max_abs
    if ratio >= 10.0 * threshold:
        return ProbeResult(lam0, residue, max_abs, ratio, True, radius, points)
    if ratio <= threshold / 10.0:
        return ProbeResult(lam0, residue, max_abs, ratio, False, radius,
                           points)
    raise ProbeInconclusive(
        f"residue ratio {ratio:.3e} falls between {threshold / 10.0:.1e} and "
        f"{10.0 * threshold:.1e}; refine the probe before trusting it")
