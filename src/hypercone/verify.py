"""Self-verification batteries behind the ``verify`` subcommand.

Four seeded suites re-derive library outputs from independent numerics:
log-Gamma/hypergeometric identities, finite-difference Wronskians, ODE
residuals with Green symmetry, and contour residue probes cross-checked
against the exact pole classifier.  Each check reports its measured error
next to the tolerance it was held to.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass

from .crosssec import Mode, circle_spectrum, sphere_spectrum
from .errors import ProbeInconclusive, ValidationError
from .resonances import PoleVerdict, candidate_params, classify_pole, hypergeom_params
from .resolvent import (
    RadialProfile,
    apply_resolvent,
    green_pairing,
    residual_check,
    residue_probe,
    u1,
    u2,
    wronskian_closed_form,
)
from .specfun import hyp2f1, hyp2f1_regularized, ln_gamma

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "format_results",
    "residual_suite",
    "residue_suite",
    "run_all",
    "run_suite",
    "specfun_suite",
    "wronskian_suite",
]


@dataclass(frozen=True)
class CheckResult:
    """One named check: the measured error and the tolerance it met (or not).
    A measured value below floor is roundoff; the report shows "<floor"."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    elapsed: float
    detail: str = ""
    floor: float = 0.0


# roundoff floors: residue ratios of regular and removable points (1e-17 to
# 1e-19) below 1e-15; the residue separation and Green symmetry below 1e-13
_NULL_FLOOR, _ROUNDOFF_FLOOR = 1e-15, 1e-13


def _shown(value: float, floor: float, eq: str = "") -> str:
    return f"<{floor:.1e}" if value < floor else f"{eq}{value:.3e}"


def _bounded(name: str, measured: float, tol: float, t0: float,
             detail: str = "", floor: float = 0.0) -> CheckResult:
    return CheckResult(name, measured <= tol, measured, tol,
                       time.monotonic() - t0, detail, floor)


# ---------------------------------------------------------------------------
# specfun suite


def _pole_distance(z: complex) -> float:
    # the distance from z to the nearest Gamma pole 0, -1, -2, ...
    return math.hypot(z.real - min(round(z.real), 0), z.imag)


def _gamma_grid(rng: random.Random, count: int) -> list[complex]:
    """Random z with |z| <= 20 staying 0.1 away from the gamma poles."""
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-14, 14), rng.uniform(-14, 14))
        if _pole_distance(z) >= 0.1:
            out.append(z)
    return out


def specfun_suite(seed: int = 0) -> list[CheckResult]:
    """log-Gamma identities, each compared through exp so that it holds
    modulo 2 pi i, then 2F1 identities, with log-Gamma in closed forms.
    ln_gamma is the Gamma the kernel's prefactor reads."""
    rng = random.Random(seed)
    results = []
    grid = _gamma_grid(rng, 200)

    t0 = time.monotonic()
    worst = max(abs(cmath.exp(ln_gamma(z + 1) - ln_gamma(z) - cmath.log(z))
                    - 1) for z in grid)
    results.append(_bounded("ln_gamma recurrence mod 2 pi i (200 pts)",
                            worst, 1e-12, t0))

    t0 = time.monotonic()
    worst = max(abs(cmath.exp(ln_gamma(z) + ln_gamma(1 - z))
                    * cmath.sin(math.pi * z) / math.pi - 1) for z in grid)
    results.append(_bounded("ln_gamma reflection (200 pts)", worst, 1e-10,
                            t0))

    # Legendre duplication (DLMF 5.5.5), the Gamma(a)/Gamma(2a) of the
    # kernel's c = 2a; z + 1/2 and 2z are kept 0.1 from the poles too
    t0 = time.monotonic()
    dup = [z for z in grid if min(_pole_distance(z + 0.5),
                                  _pole_distance(2 * z)) >= 0.1]
    worst = max(abs(cmath.exp(ln_gamma(z) + ln_gamma(z + 0.5)
                              - ln_gamma(2 * z) - (1 - 2 * z) * math.log(2)
                              - 0.5 * math.log(math.pi)) - 1) for z in dup)
    results.append(_bounded(f"ln_gamma duplication ({len(dup)} pts)", worst,
                            1e-12, t0))

    # Gauss summation: the z -> 1 limit is realized one ulp below 1, where
    # (1-z)^(c-a-b) <= (2.3e-16)^0.6 ~ 4e-10 already sits under tolerance.
    t0 = time.monotonic()
    z1 = 1.0 - 2.220446049250313e-16
    worst = 0.0
    for _ in range(30):
        a = complex(rng.uniform(-1.5, 2), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 2), rng.uniform(-1.5, 1.5))
        c = a + b + complex(rng.uniform(0.6, 2.5), rng.uniform(-1, 1))
        closed = cmath.exp(ln_gamma(c) + ln_gamma(c - a - b)
                           - ln_gamma(c - a) - ln_gamma(c - b))
        worst = max(worst, abs(hyp2f1(a, b, c, z1) - closed) / abs(closed))
    results.append(_bounded("Gauss summation at z->1 (30 draws)", worst,
                            1e-8, t0))

    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10):
        a = complex(rng.uniform(-1.5, 2), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 2), rng.uniform(-1.5, 1.5))
        c = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
        for i in range(9):
            z = 0.1 * (i + 1)
            lhs = hyp2f1(a, b, c, z)
            rhs = (1 - z) ** complex(c - a - b) * hyp2f1(c - a, c - b, c, z)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    results.append(_bounded("Euler transform (10 draws x 9 z)", worst,
                            1e-10, t0))

    # Gauss contiguous relation c(1-z)F(a,b;c) - cF(a-1,b;c) + (c-b)zF(a,b;c+1) = 0.
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
        z = rng.uniform(0.05, 0.9)
        f0 = hyp2f1(a, b, c, z)
        fm = hyp2f1(a - 1, b, c, z)
        fp = hyp2f1(a, b, c + 1, z)
        resid = c * (1 - z) * f0 - c * fm + (c - b) * z * fp
        scale = abs(c * f0) + abs(c * fm) + abs((c - b) * z * fp)
        worst = max(worst, abs(resid) / scale)
    results.append(_bounded("contiguous relation (20 draws)", worst, 1e-9, t0))

    # Continuity across the lower-parameter lattice.  The value at c = -m
    # opens at order z^(m+1), so small z starves the scale while the
    # c-derivative keeps (m-k)! sized terms; z >= 0.45 keeps the one-sided
    # differences measuring the crossing rather than that derivative.
    t0 = time.monotonic()
    worst = 0.0
    eps = 1e-6
    for m in (0, 1, 2, 3):
        a = complex(rng.uniform(0.8, 1.6), rng.uniform(-0.6, 0.6))
        b = complex(rng.uniform(0.8, 1.6), rng.uniform(-0.6, 0.6))
        for z in (0.45, 0.65):
            mid = hyp2f1_regularized(a, b, -m, z)
            hi = hyp2f1_regularized(a, b, -m + eps, z)
            lo = hyp2f1_regularized(a, b, -m - eps, z)
            scale = max(abs(mid), abs(hi), abs(lo))
            worst = max(worst, max(abs(hi - mid), abs(lo - mid)) / scale)
    results.append(_bounded("regularized continuity in c (m=0..3)", worst,
                            1e-5, t0))
    return results


# ---------------------------------------------------------------------------
# Wronskian suite


def _fd4(fn, p, x: float, h: float) -> complex:
    return (fn(p, x - 2 * h) - 8 * fn(p, x - h)
            + 8 * fn(p, x + h) - fn(p, x + 2 * h)) / (12 * h)


def wronskian_suite(seed: int = 7) -> list[CheckResult]:
    """Closed-form Wronskian against a 4th-order finite difference.

    Step h = 5e-4 puts the O(h^4) truncation (~1e-7 * (h/1e-3)^4) and the
    roundoff amplification (~3e-16 * 1.5/h * conditioning) both near 1e-9.
    The nine points span [0.2, 0.8]; closer to sigma = 0 the combination
    u1*u2' - u1'*u2 loses up to four digits to cancellation and no double
    precision difference scheme can certify 1e-8 there.
    """
    rng = random.Random(seed)
    h = 5e-4
    grid = [0.2 + 0.075 * i for i in range(9)]
    results = []
    for d in range(20):
        n = rng.choice([1, 2, 3, 4])
        mu2 = rng.uniform(0.0, 9.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam.real) < 0.05:
            lam += 0.1
        t0 = time.monotonic()
        p = hypergeom_params(n, Mode(mu_sq=mu2, multiplicity=1), lam)
        worst = 0.0
        for s in grid:
            w_cf = wronskian_closed_form(p, s)
            w_fd = (u1(p, s) * _fd4(u2, p, s, h)
                    - _fd4(u1, p, s, h) * u2(p, s))
            worst = max(worst, abs(w_cf - w_fd) / abs(w_cf))
        results.append(_bounded(
            f"wronskian draw {d:02d}", worst, 1e-8, t0,
            detail=f"n={n} mu_sq={mu2:.4f} lambda={lam.real:.4f}"
                   f"{lam.imag:+.4f}i"))
    return results


# ---------------------------------------------------------------------------
# residual suite (ODE identity, linearity, Green symmetry)

_RESIDUAL_CASES = [(1, 0.0), (1, 1.0), (2, 2.0), (3, 8.0)]
_RESIDUAL_LAMBDAS = [3j, 1 - 0.7j, -0.3 - 1.1j]


def residual_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    bump = RadialProfile.bump()
    for n, mu2 in _RESIDUAL_CASES:
        mode = Mode(mu_sq=mu2, multiplicity=1)
        for lam in _RESIDUAL_LAMBDAS:
            t0 = time.monotonic()
            tol = 1e-6 if lam == 3j else 1e-5
            rep = residual_check(n, mode, lam, bump)
            results.append(_bounded(
                f"residual n={n} mu_sq={mu2:g} lambda={lam.real:g}"
                f"{lam.imag:+g}i", rep.max_residual, tol, t0))

    t0 = time.monotonic()
    zero = RadialProfile(lambda s: 0.0, (0.3, 0.6))
    rep = residual_check(2, Mode(mu_sq=2.0, multiplicity=1), 3j, zero)
    results.append(_bounded("residual f=0", rep.max_residual, 0.0, t0))

    t0 = time.monotonic()
    mode = Mode(mu_sq=2.0, multiplicity=1)
    f = RadialProfile.bump(0.3, 0.6)
    g = RadialProfile.bump(0.35, 0.7)
    alpha = 0.37 + 0.21j
    combo = RadialProfile(lambda s: f(s) + alpha * g(s), (0.3, 0.7))
    worst = 0.0
    for s in (0.25, 0.45, 0.65):
        direct = apply_resolvent(2, mode, 1 - 0.7j, combo, s)
        split = (apply_resolvent(2, mode, 1 - 0.7j, f, s)
                 + alpha * apply_resolvent(2, mode, 1 - 0.7j, g, s))
        worst = max(worst, abs(direct - split) / max(abs(direct), 1e-30))
    results.append(_bounded("linearity R(f + a g) = Rf + a Rg", worst,
                            5e-9, t0))

    # Green symmetry: five random bump pairs inside [0.2, 0.8], lambda = 2i, 3i.
    pair_cases = []
    for _ in range(5):
        lo1 = rng.uniform(0.2, 0.4)
        f1 = RadialProfile.bump(lo1, lo1 + rng.uniform(0.15, 0.35))
        lo2 = rng.uniform(0.25, 0.45)
        g1 = RadialProfile.bump(lo2, lo2 + rng.uniform(0.15, 0.3))
        pair_cases.append((f1, g1))
    for i, (fp, gp) in enumerate(pair_cases):
        n, mu2 = _RESIDUAL_CASES[i % len(_RESIDUAL_CASES)]
        mode = Mode(mu_sq=mu2, multiplicity=1)
        for lam in (2j, 3j):
            t0 = time.monotonic()
            ab = green_pairing(n, mode, lam, fp, gp)
            ba = green_pairing(n, mode, lam, gp, fp)
            rel = abs(ab - ba) / max(abs(ab), abs(ba))
            results.append(_bounded(
                f"green symmetry pair {i} n={n} mu_sq={mu2:g} "
                f"lambda={lam.imag:g}i", rel, 1e-7, t0, floor=_ROUNDOFF_FLOOR))
    return results


# ---------------------------------------------------------------------------
# residue suite (classifier vs contour probe)


def _battery_spectra():
    return [
        ("circle rho=1", circle_spectrum(1, 2)),
        ("circle rho=2", circle_spectrum(2, 2)),
        ("sphere n=2", sphere_spectrum(2, 2)),
        ("sphere n=3", sphere_spectrum(3, 2)),
    ]


def residue_suite(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    genuine_ratios = []
    null_ratios = []
    for label, spec in _battery_spectra():
        for mode in spec.modes:
            for k in range(3):
                t0 = time.monotonic()
                p = candidate_params(spec.dimension_n, mode, k)
                verdict = classify_pole(p).verdict
                expect_pole = verdict is PoleVerdict.GENUINE_POLE
                try:
                    probe = residue_probe(spec.dimension_n, mode, p.lam)
                    agree = probe.is_pole == expect_pole
                    ratio = probe.ratio
                    probe_word = "pole" if probe.is_pole else "regular"
                except ProbeInconclusive:
                    agree, ratio, probe_word = False, float("nan"), "inconclusive"
                if not math.isnan(ratio):
                    (genuine_ratios if expect_pole else null_ratios).append(ratio)
                results.append(CheckResult(
                    f"residue {label} j={mode.label} k={k}", agree, ratio,
                    float("nan"), time.monotonic() - t0,
                    detail=f"classifier={verdict.value} probe={probe_word} "
                           f"lambda={p.lam.imag:g}i",
                    floor=0.0 if expect_pole else _NULL_FLOOR))

    # ten non-candidate lambdas: off the imaginary axis, so never a pole
    spectra = _battery_spectra()
    for i in range(10):
        label, spec = spectra[i % len(spectra)]
        mode = spec.modes[i % len(spec.modes)]
        re = rng.uniform(0.3, 1.5) * rng.choice([-1, 1])
        lam = complex(re, rng.uniform(-1.5, 1.5))
        t0 = time.monotonic()
        verdict = classify_pole(
            hypergeom_params(spec.dimension_n, mode, lam)).verdict
        try:
            probe = residue_probe(spec.dimension_n, mode, lam)
            agree = (verdict is PoleVerdict.REGULAR) and not probe.is_pole
            ratio = probe.ratio
        except ProbeInconclusive:
            agree, ratio = False, float("nan")
        if not math.isnan(ratio):
            null_ratios.append(ratio)
        results.append(CheckResult(
            f"residue non-candidate {i} ({label})", agree, ratio,
            float("nan"), time.monotonic() - t0,
            detail=f"lambda={lam.real:.3f}{lam.imag:+.3f}i "
                   f"classifier={verdict.value}", floor=_NULL_FLOOR))

    t0 = time.monotonic()
    if genuine_ratios and null_ratios:
        sep = max(null_ratios) / min(genuine_ratios)
        results.append(_bounded(
            "residue separation null/genuine", sep, 1e-4, t0,
            detail=f"max null ratio {_shown(max(null_ratios), _NULL_FLOOR)}, "
                   f"min genuine ratio {min(genuine_ratios):.3e}",
            floor=_ROUNDOFF_FLOOR))
    else:
        results.append(CheckResult(
            "residue separation null/genuine", False, float("nan"), 1e-4,
            time.monotonic() - t0, detail="inconclusive probes left a side empty"))
    return results


# ---------------------------------------------------------------------------
# registry

SUITE_NAMES = ("specfun", "wronskian", "residual", "residue")

_SUITES = {
    "specfun": specfun_suite,
    "wronskian": wronskian_suite,
    "residual": residual_suite,
    "residue": residue_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if not isinstance(name, str) or name not in _SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](seed)


def run_all(seed: int = 0) -> list[CheckResult]:
    out = []
    for name in SUITE_NAMES:
        out.extend(_SUITES[name](seed))
    return out


def format_results(results: list[CheckResult]) -> list[str]:
    """Report lines; byte-stable for a fixed seed (no timing fields)."""
    lines = []
    for r in results:
        tol = "" if math.isnan(r.tolerance) else f" tol={r.tolerance:.1e}"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
            f"measured{_shown(r.measured, r.floor, '=')}{tol}{detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return lines
