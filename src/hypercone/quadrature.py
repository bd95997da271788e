"""Quadrature for complex-valued integrands on a real interval.

cumulative_integral: a piecewise Chebyshev interpolant of the integrand and
its running integral from one end of the interval (the Clenshaw-Curtis /
chebfun cumsum construction; Trefethen, Approximation Theory and
Approximation Practice, ch. 19).  Only the coefficients that are read are
formed: the last few decide most levels of a panel, Clenshaw-Curtis weights
give each panel's integral from its samples, and a panel's series is built
only when a point inside the span is read from it.  Lists go both ways: the
integrand is read a list of nodes at a time, one call per level of a panel,
and the running integral a list of points at a time, one Clenshaw sum per
point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import mul

from .errors import (DomainError, QuadratureFailure, ValidationError,
                     _integer, _real)

# -- piecewise Chebyshev running integrals -------------------------------------

_DEGREES = (16, 32, 64)   # nested Clenshaw-Curtis levels tried per panel
_TAIL = 4                 # trailing coefficients that must have decayed
_MARGIN = 1.0 + 1e-12     # keeps roundoff from flipping a shortcut decision


@dataclass(frozen=True)
class QuadratureControl:
    """Tolerances of a running integral (cumulative_integral).

    Each Chebyshev panel is accepted once its last coefficients fall below
    max(rel_tol * its largest coefficient, abs_tol * S), S the largest
    |sample| the running integral has taken so far, so a panel's error is
    at most about rel_tol relative to the integrand there or abs_tol
    relative to the integrand's scale over the span: both are relative,
    and abs_tol = 1e-300 still means no floor.  max_subdivisions is the
    number of panel bisections one running integral may spend before
    QuadratureFailure is raised.  Each field lies in [0, inf).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        _real(self.abs_tol, "abs_tol", ValidationError, "[0, inf)")
        _real(self.rel_tol, "rel_tol", ValidationError, "[0, inf)")
        _integer(self.max_subdivisions, "max_subdivisions", ValidationError, 0)


@cache
def _table(n: int) -> tuple[list[float], list[list[float]], list[float]]:
    # Chebyshev points cos(pi j/n), j = 0..n, the DCT-I rows mapping values
    # there to the coefficients of the interpolating series sum_k c_k T_k,
    # and the Clenshaw-Curtis weights.  cos(pi (n-j) k/n) = (-1)^k
    # cos(pi j k/n), so row k acts on the folded values f_j + f_(n-j)
    # (k even) or f_j - f_(n-j) (k odd), j = 0..n/2; T_k integrates to
    # 2/(1-k^2) over [-1, 1] for even k and to 0 for odd k, so the weights
    # act on the even folded values.  Each weight is added up left to
    # right, not by sum(), which compensates from Python 3.12 on and would
    # move the last bit with the version.  Built on first use
    nodes = [math.cos(math.pi * j / n) for j in range(n + 1)]
    rows = []
    for k in range(n + 1):
        scale = (1.0 if 0 < k < n else 0.5) * 2.0 / n
        rows.append([scale * (0.5 if j == 0 else 1.0)
                     * math.cos(math.pi * (j * k % (2 * n)) / n)
                     for j in range(n // 2 + 1)])
    weights = [0.0] * (n // 2 + 1)
    for k in range(0, n + 1, 2):
        weights = [w + 2 * v / (1 - k * k) for w, v in zip(weights, rows[k])]
    return nodes, rows, weights


def _fit(f, lo: float, hi: float, abs_tol: float, rel_tol: float,
         scale: float) -> tuple[tuple[int, list[complex], list[complex]] | None,
                                float]:
    # Folded samples (n, even, odd) of the list integrand f on [lo, hi],
    # read once per level, at the first degree whose last _TAIL Chebyshev
    # coefficients fall below max(rel_tol * largest, abs_tol * scale), with
    # scale the running maximum of |sample| (taken in, and returned raised
    # by this panel's samples); None when even the highest degree does not
    # resolve f there.  The tail rows decide most levels alone: every |c_k|
    # is at most U = (2/n)(|f_0|/2 + |f_1| + ... + |f_(n-1)| + |f_n|/2), so
    # a tail above max(rel_tol U, floor) rejects, and one at most
    # max(rel_tol |c_0|, floor) accepts; only between them are all rows
    # formed for the full test
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals: list = []
    for n in _DEGREES:
        nodes, rows, _ = _table(n)
        if not vals:
            vals = f([hi] + [mid + half * t for t in nodes[1:-1]] + [lo])
        else:  # the previous level's samples are the even-indexed nodes
            merged = [0j] * (n + 1)
            merged[0::2] = vals
            merged[1::2] = f([mid + half * t for t in nodes[1::2]])
            vals = merged
        mags = list(map(abs, vals))
        scale = max(scale, *mags)
        floor = abs_tol * scale
        m = n // 2
        even = [u + v for u, v in zip(vals[:m], vals[:m:-1])] + [vals[m]]
        odd = [u - v for u, v in zip(vals[:m], vals[:m:-1])] + [0j]
        last = [sum(map(mul, rows[k], odd if k % 2 else even))
                for k in range(n + 1 - _TAIL, n + 1)]
        tail = max(map(abs, last))
        bound = (2.0 / n * _MARGIN
                 * (0.5 * (mags[0] + mags[-1]) + sum(mags[1:-1])))
        if tail > max(rel_tol * bound, floor):
            continue
        c0 = sum(map(mul, rows[0], even))
        if tail <= max(rel_tol * abs(c0), floor):
            return (n, even, odd), scale
        coefs = [c0] + [sum(map(mul, rows[k], odd if k % 2 else even))
                        for k in range(1, n + 1 - _TAIL)] + last
        if tail <= max(rel_tol * max(map(abs, coefs)), floor):
            return (n, even, odd), scale
    return None, scale


def _integral_series(n: int, even: list[complex], odd: list[complex],
                     half: float, sign: float) -> list[complex]:
    # Chebyshev series, highest degree first, of a panel's running integral
    # in t = (x - mid) / half, zero at the anchor end t = -sign
    rows = _table(n)[1]
    c = [sum(map(mul, row, odd if k % 2 else even))
         for k, row in enumerate(rows)] + [0j, 0j]
    ints = [0j, sign * half * (c[0] - 0.5 * c[2])]
    ints += [sign * half * (c[k - 1] - c[k + 1]) / (2 * k)
             for k in range(2, n + 2)]
    ints[0] = -sum(v * (-sign) ** k for k, v in enumerate(ints))
    return ints[::-1]


class RunningIntegral:
    """xs -> [integral of f from the anchor end of [a, b] to x for x in xs].

    The anchor is a (upward) or b (downward, giving the integral from x to
    b).  Each panel's integral is its Clenshaw-Curtis sum, and whole panels
    are summed outward from the anchor into offsets and total, never
    obtained as a total minus a prefix, so a value near the anchor is not
    the difference of two larger sums.  The Chebyshev series of a panel's
    own running integral is built the first time a point strictly inside
    (a, b) reads that panel; reads at the anchor end and the far end return
    0 and total without one.  A point outside [a, b] raises DomainError.
    cuts holds the interior panel boundaries, in order.
    """

    __slots__ = ("a", "b", "downward", "total", "cuts", "_panels", "_series")

    def __init__(self, a: float, b: float, downward: bool,
                 fitted: list[tuple[float, float, tuple]]) -> None:
        # fitted: (lo, hi, (n, even, odd)) panels in order from the anchor
        self.a, self.b, self.downward = a, b, downward
        acc = 0.0 + 0.0j
        panels = []
        for lo, hi, fold in fitted:
            half = 0.5 * (hi - lo)
            panels.append((0.5 * (lo + hi), half, fold, acc))
            acc += half * sum(map(mul, _table(fold[0])[2], fold[1]))
        self.total = acc
        if downward:
            fitted = fitted[::-1]
            panels.reverse()
        self.cuts = [hi for _, hi, _ in fitted[:-1]]
        self._panels = panels
        self._series: list[list[tuple[float, float]] | None] = (
            [None] * len(panels))

    def __call__(self, xs: list[float]) -> list[complex]:
        a, b, downward, cuts = self.a, self.b, self.downward, self.cuts
        far, anchor = (a, b) if downward else (b, a)
        out = []
        for x in xs:
            if not (a <= x <= b):
                raise DomainError(
                    f"{x!r} lies outside the integration span [{a!r}, {b!r}]")
            if x == far:
                out.append(self.total)
                continue
            if x == anchor:
                out.append(0.0 + 0.0j)
                continue
            i = bisect_right(cuts, x)
            mid, half, fold, offset = self._panels[i]
            series = self._series[i]
            if series is None:
                rev = _integral_series(*fold, half, -1.0 if downward else 1.0)
                series = self._series[i] = [(v.real, v.imag) for v in rev]
            t = min(1.0, max(-1.0, (x - mid) / half))
            t2 = 2.0 * t
            # Clenshaw from the highest degree down, on the real and
            # imaginary parts apart: bit for bit the complex recurrence on
            # finite values
            r1 = r2 = i1 = i2 = 0.0
            for cr, ci in islice(series, len(series) - 1):
                r1, r2 = cr + t2 * r1 - r2, r1
                i1, i2 = ci + t2 * i1 - i2, i1
            cr, ci = series[-1]
            out.append(offset + complex(cr + t * r1 - r2, ci + t * i1 - i2))
        return out


def cumulative_integral(f, a: float, b: float, *,
                        control: QuadratureControl = QuadratureControl(),
                        downward: bool = False,
                        breaks=()) -> RunningIntegral:
    """Running integral of complex-valued f on [a, b], from a (or from b
    when downward), to control's tolerances.

    f reads a list of points and returns the list of its values there.
    Each panel samples f at nested Clenshaw-Curtis points of degree 16, 32
    and 64, with one call per level: the first call gets the 17 nodes
    [hi, interior..., lo] and each later level the odd-indexed nodes it
    adds (16, then 32).  A panel is accepted once its last Chebyshev
    coefficients fall below max(control.rel_tol * its largest coefficient,
    control.abs_tol * S), S the largest |sample| taken so far on [a, b]:
    a running maximum, so the floor scales with the integrand, a span that
    starts on a zero stretch gets its floor once f rises, and abs_tol =
    1e-300 means no floor.  Those coefficients,
    against a bound on the largest from the samples' magnitudes, decide
    most levels; the other rows are formed only when they do not.  The
    panel's integral is the Clenshaw-Curtis weighted sum of its samples,
    and its running-integral series is built on the first read inside it,
    so reading only the ends of [a, b] forms no series.  A panel that fails
    at degree 64 is bisected; after control.max_subdivisions bisections, or
    when a panel reaches machine width, QuadratureFailure is raised instead
    of returning an unresolved value.
    f must be smooth on each accepted panel, so a kink or jump costs
    bisections down to it unless it is one of the breaks, where the first
    panels are cut.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got [{a!r}, {b!r}]")
    edges = [a, *sorted({x for x in breaks if a < x < b}), b]
    pending = list(zip(edges, edges[1:]))[::1 if downward else -1]
    fitted = []
    splits = 0
    scale = 0.0
    while pending:
        lo, hi = pending.pop()
        fold, scale = _fit(f, lo, hi, control.abs_tol, control.rel_tol, scale)
        if fold is not None:
            fitted.append((lo, hi, fold))
            continue
        if splits >= control.max_subdivisions:
            raise QuadratureFailure(
                f"Chebyshev panels unresolved after {control.max_subdivisions}"
                f" subdivisions (at [{lo!r}, {hi!r}])")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureFailure(
                "panel narrowed to machine width before meeting tolerance")
        splits += 1
        # the half nearer the anchor is popped first, so panels are fitted
        # in order outward from it
        if downward:
            pending += [(lo, mid), (mid, hi)]
        else:
            pending += [(mid, hi), (lo, mid)]
    return RunningIntegral(a, b, downward, fitted)
