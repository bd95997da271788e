"""Complex special functions: log-Gamma and the Gauss hypergeometric
function 2F1 on the real interval [0, 1).

All of it is self-contained double precision.  Log-Gamma comes from a fixed
15-coefficient Lanczos rational approximation (g = 607/128, the Godfrey set)
which holds ~15 significant digits on Re z >= 1/2; left of it up to ten
steps of upward recurrence, and past them the reflection formula, keep the
principal branch in bounded time (ln_gamma).

2F1 sums the defining series up to a seed bound where it is benign, and
beyond it continues the series' value and derivative along the 2F1 ODE by
Taylor expansions (_Ladder), so integer c - a - b needs no special case.
Each expansion is centred on the band of points it serves, and the series
seeds of one ladder share one list of step ratios.  A seed may also serve
every point below its bound itself, a list at a time, as the kernel's g1
does from one list of series terms grown as far as its reads reach; the
ladder then serves only the points above.
The regularized function F/Gamma(c) is entire in c and reads hyp2f1 too:
at non-positive integer c its limit is a shifted 2F1 (DLMF 15.2.3), so such
c is an ordinary input, not an error.

Poles, non-convergence and non-finite arguments surface as typed
exceptions, never as inf/nan.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    DomainError,
    LowerParameterPole,
    NoConvergence,
    PoleAtNonPositiveInteger,
    _complex,
    _real,
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
_LN_2PI = 1.8378770664093454836  # log(2*pi)
# ln_gamma's upward recurrence runs at most this many steps before the
# reflection formula takes over: against 30-digit mpmath on 6000 seeded
# points, |Im z| <= 8, the recurrence's mean error is the smaller above
# Re z = -8 (9.2e-16 against 1.3e-15 on [0, 1/2)), the two are even to
# Re z = -14, and the reflection's is the smaller beyond (5.8e-15 against
# 7.8e-15 on [-18, -16)) and stays O(1) in time
_RECURRENCE_STEPS = 10


# sums stop at _ROUNDOFF; an expansion whose edge seeds its successor runs
# on to _EDGE_TOL, as the derivative read there weights coefficient j by j.
# Every sum and expansion that has not settled after _MAX_TERMS terms raises
# NoConvergence.
_ROUNDOFF = 3e-16
_EDGE_TOL = 1e-19
_MAX_TERMS = 10000
_LIFT = 2.0 ** 960  # a 2F1 series term below 1/_LIFT is held times _LIFT


def is_nonpositive_integer(z: complex) -> bool:
    """Exact membership test for {0, -1, -2, ...}: zero imaginary part and
    integral non-positive real part.  No threshold is applied, and a
    non-finite z is not a member."""
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def _lanczos_ln_gamma(z: complex) -> complex:
    # valid for Re z >= 0.5 only
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _LN_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma; exp(ln_gamma(z)) = Gamma(z).

    Lanczos on Re z >= 1/2.  Left of it, for Re z >= -9.5, the upward
    recurrence log Gamma(z) = log Gamma(z+m) - sum_{j<m} log(z+j), which
    holds branch for branch on the cut plane, in m <= _RECURRENCE_STEPS
    steps; further left, in O(1) time, the reflection formula, for
    Im z >= 0 (-0.0 included: the cut reads its limit from above)

        log Gamma(z) = log 2 pi + i pi (z - 1/2) - log(1 - w)
                       - log Gamma(1 - z),   w = e^(2 pi i z),

    with no 2 pi i correction, as |w| <= 1 keeps 1 - w in the right
    half-plane; below the axis by conjugation.  w is formed from the exact
    remainder Re z - round(Re z), and 1 - w by expm1, so no digit is lost
    to the size of Re z or next to a pole.

    Raises PoleAtNonPositiveInteger at z in {0, -1, -2, ...} and
    DomainError at a non-finite z.
    """
    z = _complex(z, "ln_gamma argument z", DomainError)
    if is_nonpositive_integer(z):
        raise PoleAtNonPositiveInteger(f"ln_gamma pole at z = {z}")
    if z.real >= 0.5:
        return _lanczos_ln_gamma(z)
    m = math.ceil(0.5 - z.real)
    if m <= _RECURRENCE_STEPS:
        acc = 0.0 + 0.0j
        for j in range(m):
            acc += cmath.log(z + j)
        return _lanczos_ln_gamma(z + m) - acc
    if z.imag < 0.0:
        return _reflected_ln_gamma(z.conjugate()).conjugate()
    return _reflected_ln_gamma(z)


def _reflected_ln_gamma(z: complex) -> complex:
    # ln_gamma at Re z < 1/2, Im z >= 0 (including -0.0)
    x, y = z.real, z.imag
    ur, ui = -2.0 * math.pi * y, 2.0 * math.pi * (x - round(x))
    # 1 - w = -expm1(ur + i ui), its real part formed as
    # 2 sin^2(ui/2) - expm1(ur) cos ui, which does not cancel near a pole
    em = math.expm1(ur)
    one_minus_w = complex(2.0 * math.sin(0.5 * ui) ** 2 - em * math.cos(ui),
                          -math.exp(ur) * math.sin(ui))
    return (complex(_LN_2PI + ur / 2.0, math.pi * (x - 0.5))
            - cmath.log(one_minus_w) - _lanczos_ln_gamma(1.0 - z))


def _sum_series(term: complex, a: complex, b: complex, c: complex, z: float,
                ratios: list[complex] | None = None,
                terms: list[complex] | None = None
                ) -> tuple[complex, complex]:
    # the one 2F1 term loop, returning (F, F') for the 0th term `term`:
    # step k forms u_k = t_k (a+k)(b+k)/((c+k)(k+1)), so t_{k+1} = u_k z
    # and F' = sum_k (k+1) u_k, never dividing by z.  Three steps in a row
    # that leave both sums within _ROUNDOFF end it once k >= floor =
    # -Re c / (1-z): for Re c < 0 the terms can dip below roundoff and
    # grow back near k = -Re c, where c + k is small, and the step ratio,
    # about z k / (k + Re c) for moderate a and b, stays below 1 only once
    # k (1-z) > -Re c.  A floor past the budget raises NoConvergence, and
    # an F past the double range DomainError; F', about k times larger, may
    # leave the range alone, and is returned as it is for its one reader,
    # _series_seed, to refuse.  An inf or nan sum passes its term as
    # negligible, so the finiteness test of F sits in the branch of
    # negligible terms, which the common step never takes; it ends the loop
    # once F' has left the range too or its term is negligible.
    # A term of 0 ends it at once, as every later term is 0 too.  So that
    # no term is lost to underflow, a negligible term below 1/_LIFT is
    # parked: held times _LIFT (again at each fall below 1/_LIFT) and not
    # added, and taken back down by _LIFT each time it reaches 1, until it
    # is added again or the floor ends the sum.  The step ratios are read
    # from `ratios` as far as it goes and appended past that, so the sums
    # that share one list form each ratio once.  Each term t_1, t_2, ... is
    # appended to `terms` when it is given, a parked one as 0 (_series_terms)
    if ratios is None:
        ratios = []
    known = len(ratios)
    floor = -c.real / (1.0 - z)
    total = term
    dtotal = 0.0 + 0.0j
    small = lift = 0
    try:
        for k in range(_MAX_TERMS):
            if k < known:
                step = ratios[k]
            else:
                step = (a + k) * (b + k) / ((c + k) * (k + 1))
                ratios.append(step)
            term *= step
            dterm = (k + 1) * term
            term *= z
            if lift:  # parked: the term is held times _LIFT ** lift
                if k >= floor or term == 0.0:
                    break
                if abs(term) * _LIFT < 1.0:
                    term, lift = term * _LIFT, lift + 1
                elif abs(term) >= 1.0:
                    term, dterm, lift = term / _LIFT, dterm / _LIFT, lift - 1
                if lift:
                    if terms is not None:
                        terms.append(0.0j)
                    continue
            if terms is not None:
                terms.append(term)
            dtotal += dterm
            total += term
            if (abs(term) > _ROUNDOFF * abs(total)
                    or abs(dterm) > _ROUNDOFF * abs(dtotal)):
                small = 0
            else:  # negligible terms, or an overflow: inf and nan land here
                if not cmath.isfinite(total):
                    break
                small += 1
                if small >= 3 and k >= floor or term == 0.0:
                    break
                if abs(term) * _LIFT < 1.0:
                    term, lift = term * _LIFT, 1
        else:
            raise NoConvergence(f"2F1 series did not settle within "
                                f"{_MAX_TERMS} terms at z = {z}")
        if cmath.isfinite(total):
            return total, dtotal
    except OverflowError:  # |term| or |total| past the double range
        pass
    raise DomainError(f"the 2F1 series at z = {z} exceeds the double range")


def _ode_taylor(a: complex, b: complex, c: complex, m: float, y0: complex,
                dy0: complex, r: float, tol: float) -> list[complex]:
    """Scaled Taylor coefficients y_j r^j, j = 0, 1, ..., about z = m of the
    solution of z(1-z)y'' + [c - (a+b+1)z]y' - ab y = 0 (DLMF 15.10.1) with
    y(m) = y0 and y'(m) = dy0, so y(m + r tau) = sum_j coeffs[j] tau^j.

    With z = m + t the ODE gives the three-term recurrence

        y_{j+2} = [(j+a)(j+b) y_j - (j+1)((1-2m)j + c - (a+b+1)m) y_{j+1}]
                  / (m(1-m)(j+1)(j+2)),

    which converges for |t| < min(m, 1-m).  The coefficients stop at tol
    relative to the largest |y_j| r^j so far: three consecutive
    |y_j| r^j <= tol * scale end the list and are left out of it, and
    _MAX_TERMS steps without that raise NoConvergence.
    Scaling by r keeps the coefficients finite for anchors m near 0 or 1.
    """
    lin = c - (a + b + 1.0) * m
    slope = 1.0 - 2.0 * m
    q0 = r * r / (m * (1.0 - m))
    q1 = r / (m * (1.0 - m))
    coeffs = [y0, dy0 * r]
    scale = max(abs(y0), abs(coeffs[1]))
    small = 0
    for j in range(_MAX_TERMS):
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
        f"{_MAX_TERMS} terms")


_MAX_RUNGS = 10000  # expansions per ladder; the count grows like S ln(1/dist)


def _seed_bound(a: complex, b: complex, c: complex) -> float:
    # x0 = min(3/4, 2/g), g = |ab| / max(|c|, 1): up to x0 the first step
    # ratio |ab z / c| is at most 2.  For Re c >= 0 the later ratios fall
    # and ~130 terms reach roundoff; for Re c < 0 they rise again near
    # k = -Re c, where c + k is small, and _sum_series sums on past that.
    # A lower x0 lengthens the climb against a growing second solution
    # (Im lambda < 0): at the kernel's c = 2a, x0 ~ 4/|lambda| lost up to
    # 5 digits, so its g1 seeds from a series in sech^2 r instead
    # (resolvent._KernelData._quadratic_seed)
    g = abs(a * b) / max(abs(c), 1.0)
    return min(0.75, 2.0 / g) if g else 0.75


def _series_seed(term: complex, a: complex, b: complex, c: complex):
    """m -> (term F(a, b; c; m), term F'(a, b; c; m)) from one pass of the
    series, its derivative being the contiguous (ab/c) F(a+1, b+1; c+1; m).
    Every call reads and extends one list of step ratios, so the seeds of
    one ladder form each ratio once.  A derivative past the double range
    raises DomainError."""
    ratios: list[complex] = []

    def seed(m: float) -> tuple[complex, complex]:
        val, slope = _sum_series(term, a, b, c, m, ratios)
        if not cmath.isfinite(slope):
            raise DomainError(f"the 2F1 series derivative at z = {m} "
                              f"exceeds the double range")
        return val, slope
    return seed


def _series_terms(a: complex, b: complex, c: complex, z: float
                  ) -> list[complex]:
    """[t_0 = 1, t_1, ...]: the terms of F(a, b; c; z) that one pass of the
    series sums at z (_sum_series, a parked term as 0), so that
    sum_k t_k tau^k is F(a, b; c; tau z), to roundoff at tau = 1."""
    terms = [1.0 + 0.0j]
    _sum_series(terms[0], a, b, c, z, terms=terms)
    return terms


class _Ladder:
    """A solution y of z(1-z)y'' + [c - (a+b+1)z]y' - ab y = 0 on [0, 1),
    read from Taylor expansions (_ode_taylor) about a ladder of anchors,
    each built on first use and kept.

    Key i >= 0 serves the points at distance (q D(i), D(i)] from 0, key -i
    those at that distance from 1, D(i) = q^i / 2.  q = 1 - min(1/4, 2/S),
    S the largest exponent difference |1-c|, |c-a-b|, |a-b| or 1, keeps a
    step within the local oscillation scale.  Key 0 serves both sides of
    1/2 and is anchored there; every other anchor sits at the midpoint
    (1+q)/2 D(i) of its band (_anchor).  seed(m) = (y(m), y'(m)), the
    series and its derivative from one term loop (_series_seed), starts the
    anchors at z <= x0, where the series is benign: the seed's own bound
    seed.x0 where it carries one, else _seed_bound(a, b, c); key k
    beyond starts from the value and derivative of expansion k + 1 at
    k's anchor (F. Johansson, arXiv:1606.06977, sec. 4), and a value or
    derivative handed on past the double range raises DomainError.  Right
    of 1/2 the expansions run in t = 1 - z (the same ODE with c replaced by
    a + b + 1 - c), so positions near z = 1 are exact distances.

    A seed that also reads values alone, seed.point(zs) = [y(z) for z in
    zs] for a list of points z <= seed.x0 (the kernel's g1, from one list
    of its series terms grown as far as the largest point of a read, each
    point summed to a cut of its own), serves those points itself
    (reach = x0), one list per read: the anchors and expansions then serve
    only the points above x0.  Any other seed serves z = 0 alone
    (reach = 0), and the ladder every point above it.

    A leaf, an expansion no successor continues from, is scaled by its
    half-band: its points lie at |tau| <= 1 and its coefficients fall like
    (1-q)/(1+q) per step, 1/7 at q = 3/4.  An edge expansion is scaled by
    the step to its successor's anchor, tau = +-1, where it is summed to
    _EDGE_TOL; its points lie at |tau| <= half-band/step (at most 8/11, at
    key 0, when q = 3/4), and their Horner sums stop at the coefficients
    that still reach roundoff there.

    A read takes a list of points (with their exact distances from 1 where
    they round) and returns the list of values; a one-point read is a list
    of one.  Every point is keyed by one rule, the two-sided test
    0.5 q^(i+1) < dist <= 0.5 q^i against the floats the bands are built
    at, so a value depends only on its point.  Key 0 runs in z, so tau
    follows the key's sign, not the side.
    """

    def __init__(self, a: complex, b: complex, c: complex, seed) -> None:
        self.a, self.b, self.c = a, b, c
        self.c_right = a + b + 1.0 - c
        self.seed = seed
        # a seed that carries its own bound x0 gives it; else the series'
        self.x0 = getattr(seed, "x0", None) or _seed_bound(a, b, c)
        # the points x <= reach are read from point(xs), the rest from
        # the ladder
        point = getattr(seed, "point", None)
        self.point, self.reach = (
            (point, self.x0) if point
            else (lambda zs: [seed(z)[0] for z in zs], 0.0))
        spread = max(abs(1.0 - c), abs(c - a - b), abs(a - b), 1.0)
        self.q = 1.0 - min(0.25, 2.0 / spread)
        if self.q == 1.0:  # the step 2/S rounds away, as when |ab| overflows
            raise NoConvergence(f"2F1 parameter spread {spread:.3g} too large")
        self.log_q = math.log(self.q)
        self.expansions: dict = {}

    def __call__(self, xs: list[float], ds: list[float] | None = None
                 ) -> list[complex]:
        """y at each point of xs; ds[k] = 1 - xs[k] exactly, for points
        near 1 where xs[k] itself rounds (computed from xs[k] when ds is
        not given, which is exact for x >= 1/2).  Consecutive points of one
        anchor share its lookup.  Horner runs on the real and imaginary
        parts apart: bit for bit the complex loop on finite values, and
        about a fifth faster."""
        q, log_q, expansions = self.q, self.log_q, self.expansions
        reach, served = self.reach, None
        if min(xs, default=math.inf) <= reach:  # the seed serves some
            if max(xs) <= reach:
                return self.point(xs)
            served = iter(self.point([x for x in xs if x <= reach]))
        out = []
        key = None
        low = high = -1.0  # the current anchor serves low < dist <= high
        for k, x in enumerate(xs):
            if x <= reach:
                out.append(next(served))
                continue
            right = x > 0.5
            dist = (1.0 - x if ds is None else ds[k]) if right else x
            if not low < dist <= high:
                i = math.floor(math.log(2.0 * dist) / log_q)
                low, high = 0.5 * q ** (i + 1), 0.5 * q ** i
                if high < dist:  # log rounding at a ladder point
                    i, low, high = i - 1, high, 0.5 * q ** (i - 1)
                elif dist <= low:
                    i, low, high = i + 1, 0.5 * q ** (i + 2), low
            if key != (-i if right else i):
                key = -i if right else i
                m, r, coeffs, _ = expansions.get(key) or self._expansion(key)
            tau = ((dist if key < 0 else x) - m) / r
            vr = vi = 0.0
            for cr, ci in coeffs:
                vr = vr * tau + cr
                vi = vi * tau + ci
            out.append(complex(vr, vi))
        return out

    def _expansion(self, key: int):
        top = key  # build from top down: top is seeded, or top+1 built
        while not self._seeded(top) and top + 1 not in self.expansions:
            top += 1
            if top - key + 1 + len(self.expansions) > _MAX_RUNGS:
                raise NoConvergence(
                    f"2F1 continuation needs over {_MAX_RUNGS} expansions")
        for k in range(top, key - 1, -1):
            self.expansions[k] = self._build(k)
        return self.expansions[key]

    def _anchor(self, key: int) -> float:
        # the anchor's distance from the nearer end: 1/2 for key 0, the
        # midpoint of the band (q D, D] for the others
        if key == 0:
            return 0.5
        return 0.25 * (1.0 + self.q) * self.q ** abs(key)

    def _seeded(self, key: int) -> bool:
        m = self._anchor(key)
        return (m if key >= 0 else 1.0 - m) <= self.x0

    def _build(self, key: int):
        # (anchor, scale, the point coefficients highest first for Horner
        # as (real, imaginary) pairs, and, for an edge, (value, derivative)
        # at its successor's anchor)
        m = self._anchor(key)
        if self._seeded(key):
            y, dy = self.seed(m if key >= 0 else 1.0 - m)
            if key < 0:  # right of 1/2 the expansions run in t = 1 - z
                dy = -dy
        else:
            y, dy = self.expansions[key + 1][3]
            if not (cmath.isfinite(y) and cmath.isfinite(dy)):
                raise DomainError(
                    f"the 2F1 continuation at z = {m if key >= 0 else 1.0 - m}"
                    f" exceeds the double range")
        band = 0.5 * self.q ** abs(key)
        half = (1.0 - self.q) * (band if key == 0 else 0.5 * band)
        c = self.c if key >= 0 else self.c_right
        if self._seeded(key - 1):  # a leaf
            coeffs = _ode_taylor(self.a, self.b, c, m, y, dy, half, _ROUNDOFF)
            return m, half, [(v.real, v.imag) for v in reversed(coeffs)], None
        r = abs(self._anchor(key - 1) - m)
        coeffs = _ode_taylor(self.a, self.b, c, m, y, dy, r, _EDGE_TOL)
        edge = -1.0 if key < 0 else 1.0
        val = slope = 0.0 + 0.0j
        for cj in reversed(coeffs):
            slope = slope * edge + val
            val = val * edge + cj
        if key == 0:  # the successor of 1/2 runs in t = 1 - z
            slope = -slope
        # the size of each term at the points' reach |tau| <= half / r
        reach = half / r
        sizes = [abs(cj) * reach ** j for j, cj in enumerate(coeffs)]
        floor = _ROUNDOFF * max(sizes)
        keep = len(coeffs)
        while keep > 1 and sizes[keep - 1] <= floor:
            keep -= 1
        return (m, r, [(v.real, v.imag) for v in coeffs[keep - 1::-1]],
                (val, slope / r))


def _arguments(name: str, a: complex, b: complex, c: complex, z: float
               ) -> tuple[complex, complex, complex, float]:
    # (a, b, c, z) of a public 2F1 as complex parameters and a float z,
    # each refused before any sum
    return (_complex(a, f"{name} parameter a", DomainError),
            _complex(b, f"{name} parameter b", DomainError),
            _complex(c, f"{name} parameter c", DomainError),
            _real(z, f"{name} argument z", DomainError, "[0, 1)"))


def hyp2f1(a: complex, b: complex, c: complex, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for real z in [0, 1).

    General (a, b, c), not only the kernel's c = 2a or 1 + s: verify's
    identities and the benchmark's point values (c = a + b + gap) read it
    at other c.  The defining series up to the seed bound
    x0 = min(3/4, 2 max(|c|, 1)/|ab|) and for terminating (polynomial)
    cases; above x0 the ODE continuation of _Ladder, seeded by the series.
    Every sum and expansion stops at roundoff.  A series stops no earlier
    than its term floor -Re c/(1-z), as for Re c < 0 its terms can fall
    below roundoff, even below the double range, and grow back near
    k = -Re c; a term that is exactly 0, as in a polynomial case, ends it
    at once.  Raises DomainError for z outside [0, 1), a non-finite
    parameter or a series value past the double range, LowerParameterPole
    for c in {0, -1, ...} and NoConvergence past _MAX_TERMS terms (so for
    a floor past it) or _MAX_RUNGS expansions.
    """
    a, b, c, z = _arguments("hyp2f1", a, b, c, z)
    return _hyp2f1(a, b, c, z, 1.0 - z)


def _hyp2f1(a: complex, b: complex, c: complex, z: float, d: float) -> complex:
    # hyp2f1 at z given with its exact distance d = 1 - z
    if is_nonpositive_integer(c):
        raise LowerParameterPole(f"hyp2f1 lower parameter c = {c}")
    if (z <= _seed_bound(a, b, c) or is_nonpositive_integer(a)
            or is_nonpositive_integer(b)):
        # a polynomial case terminates exactly, at any z
        return _sum_series(1.0 + 0.0j, a, b, c, z)[0]
    return _Ladder(a, b, c, _series_seed(1.0 + 0.0j, a, b, c))([z], [d])[0]


def hyp2f1_regularized(a: complex, b: complex, c: complex, z: float) -> complex:
    """Regularized hypergeometric F(a, b; c; z) / Gamma(c), entire in c.

    hyp2f1 times exp(-ln_gamma(c)) off the lattice; at c = -m in
    {0, -1, -2, ...} the limit (a)_{m+1} (b)_{m+1} z^{m+1} / (m+1)!
    F(a+m+1, b+m+1; m+2; z) (DLMF 15.2.3), again by hyp2f1, with the binary
    exponent carried apart so that c <= -170 stays finite; exactly 0 where
    a or b is -j, j <= m.
    A value or a 1/Gamma(c) past the double range, z outside [0, 1) or a
    non-finite parameter raises DomainError.
    """
    a, b, c, z = _arguments("hyp2f1_regularized", a, b, c, z)
    if not is_nonpositive_integer(c):
        try:
            rgamma = cmath.exp(-ln_gamma(c))
        except OverflowError:
            raise DomainError(f"1/Gamma(c) at c = {c} exceeds the double "
                              f"range") from None
        val, exp2 = rgamma * hyp2f1(a, b, c, z), 0
    else:
        k = int(-c.real) + 1
        if any(is_nonpositive_integer(x) and -x.real < k for x in (a, b)):
            return 0.0 + 0.0j  # (a)_k or (b)_k vanishes
        # the value is val * 2^exp2, val kept in [1/2, 1) after each factor
        val, exp2 = hyp2f1(a + k, b + k, k + 1, z), 0
        for j in range(k):
            val *= (a + j) * (b + j) / (j + 1) * z
            e = math.frexp(abs(val))[1]
            val, exp2 = val * 2.0 ** -e, exp2 + e
    if exp2 > 1024 or not cmath.isfinite(val):
        raise DomainError(
            f"hyp2f1_regularized at c = {c} exceeds the double range")
    return complex(math.ldexp(val.real, exp2), math.ldexp(val.imag, exp2))
