"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test prints exactly one line of the form

    ACCEPTANCE <k> PASS|FAIL <detail> elapsed=<t>s budget=<b>s

through the real stdout (bypassing pytest capture) and then asserts both the
mathematical check and the runtime budget.
"""

import math
import random
import time
from fractions import Fraction

from hypercone.crosssec import Mode, circle_spectrum, sphere_spectrum
from hypercone.resonances import (
    PoleVerdict,
    candidate_params,
    classify_pole,
    enumerate_resonances,
    hypergeom_params,
    s_param,
    weyl_count,
    weyl_leading_term,
)
from hypercone.resolvent import (
    RadialProfile,
    green_pairing,
    residual_check,
    residue_probe,
    u1,
    u2,
    wronskian_closed_form,
)
from hypercone.verify import _NULL_FLOOR, specfun_suite

from oracles import brute_force_circle


def _criterion(num: int, budget: float, body, capsys):
    t0 = time.perf_counter()
    try:
        detail = body()
        ok, msg = True, detail
    except Exception as exc:  # noqa: BLE001 - verdict line must always print
        ok, msg = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {status} {msg} "
              f"elapsed={elapsed:.2f}s budget={budget:g}s", flush=True)
    assert ok, msg
    assert within, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_round_sphere_closed_forms(capsys):
    def body():
        for n in (1, 3, 5):
            lam_max = n / 2 + 5.5
            rset = enumerate_resonances(sphere_spectrum(n, 8), 8, lam_max)
            assert rset.exact and rset.complete_up_to(lam_max)
            expected = [Fraction(n, 2) + m for m in range(6)]
            assert [r.im_part_exact for r in rset.resonances] == expected
            for r in rset.resonances:
                assert r.lam == complex(0.0, -float(r.im_part_exact))
        for n in (2, 4):
            rset = enumerate_resonances(sphere_spectrum(n, 8), 8, 6.0)
            assert rset.complete_up_to(6.0)
            assert rset.resonances == []
        return "spheres n=1,3,5 on the exact lattice; n=2,4 empty"

    _criterion(1, 1.0, body, capsys)


def test_criterion_2_circle_lattice_vs_brute_force(capsys):
    def body():
        bound = Fraction(6)
        for rho in (Fraction(1), Fraction(2), Fraction(1, 3)):
            j_max, k_max = 16, 16
            spec = circle_spectrum(rho, j_max)
            rset = enumerate_resonances(spec, k_max, float(bound))
            assert rset.exact and rset.complete_up_to(float(bound))
            oracle = brute_force_circle(rho, j_max, k_max, bound)
            got = {r.im_part_exact: (r.multiplicity, list(r.contributors))
                   for r in rset.resonances}
            assert got == oracle, f"rho={rho}: mismatch vs double loop"
        return "circle rho=1,2,1/3 multiplicity-exact vs (j,k) double loop"

    _criterion(2, 1.0, body, capsys)


def test_criterion_3_resolvent_identity_residual(capsys):
    def body():
        bump = RadialProfile.bump(0.3, 0.6)
        grid = [0.1 + 0.08 * i for i in range(11)]
        cases = [(1, Fraction(0)), (1, Fraction(1)),
                 (2, Fraction(2)), (3, Fraction(8))]
        worst = worst_3i = 0.0
        for n, mu2 in cases:
            mode = Mode(float(mu2), 1, mu2)
            for lam in (3j, 1 - 0.7j, -0.3 - 1.1j):
                rep = residual_check(n, mode, lam, bump, grid=grid)
                worst = max(worst, rep.max_residual)
                if lam == 3j:
                    worst_3i = max(worst_3i, rep.max_residual)
        assert worst <= 1e-5, f"max residual {worst:.3e} > 1e-5"
        assert worst_3i <= 1e-6, f"lambda=3i residual {worst_3i:.3e} > 1e-6"
        return f"max residual {worst:.3e} (lambda=3i: {worst_3i:.3e})"

    _criterion(3, 60.0, body, capsys)


def test_criterion_4_wronskian_closed_form_vs_fd(capsys):
    def body():
        rng = random.Random(7)
        h = 5e-4
        grid = [0.2 + 0.075 * i for i in range(9)]
        worst = 0.0
        for _ in range(20):
            n = rng.choice([1, 2, 3, 4])
            mu2 = rng.uniform(0.0, 9.0)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(lam.real) < 0.05:
                lam += 0.1
            p = hypergeom_params(n, Mode(mu_sq=mu2, multiplicity=1), lam)
            for s in grid:
                fd_u2 = (u2(p, s - 2 * h) - 8 * u2(p, s - h)
                         + 8 * u2(p, s + h) - u2(p, s + 2 * h)) / (12 * h)
                fd_u1 = (u1(p, s - 2 * h) - 8 * u1(p, s - h)
                         + 8 * u1(p, s + h) - u1(p, s + 2 * h)) / (12 * h)
                w_cf = wronskian_closed_form(p, s)
                rel = abs(w_cf - (u1(p, s) * fd_u2 - fd_u1 * u2(p, s)))
                worst = max(worst, rel / abs(w_cf))
        assert worst <= 1e-8, f"worst rel err {worst:.3e} > 1e-8"
        return f"20 draws x 9 points, worst rel err {worst:.3e}"

    _criterion(4, 10.0, body, capsys)


def test_criterion_5_probe_agrees_with_classification(capsys):
    def body():
        batteries = [circle_spectrum(1, 2), circle_spectrum(2, 2),
                     sphere_spectrum(2, 2), sphere_spectrum(3, 2)]
        pole_ratios, zero_ratios = [], []
        checked = 0
        anchor_pole = anchor_removable = False
        for spec in batteries:
            n = spec.dimension_n
            for mode in spec.modes:
                s = s_param(n, mode).value
                for k in range(3):
                    verdict = classify_pole(candidate_params(n, mode, k))
                    lam0 = complex(0.0, -(0.5 + k + s))
                    probe = residue_probe(n, mode, lam0)
                    genuine = verdict.verdict is PoleVerdict.GENUINE_POLE
                    assert probe.is_pole == genuine, (
                        f"n={n} mu_sq={mode.mu_sq} k={k}: probe "
                        f"{probe.ratio:.3e} vs {verdict.verdict.value}")
                    (pole_ratios if genuine else zero_ratios).append(
                        probe.ratio)
                    checked += 1
                    if n == 1 and mode.mu_sq == 0 and lam0 == -0.5j:
                        assert genuine and abs(probe.residue) > 0
                        anchor_pole = True
                    if n == 2 and mode.mu_sq == 2 and lam0 == -2j:
                        assert verdict.verdict is PoleVerdict.REMOVABLE
                        assert not probe.is_pole
                        anchor_removable = True
        assert anchor_pole and anchor_removable
        non_candidates = [
            (1, Mode(1.0, 2, Fraction(1)), -0.8j),
            (1, Mode(1.0, 2, Fraction(1)), -1.1j),
            (1, Mode(0.0, 1, Fraction(0)), 0.3 - 1.9j),
            (1, Mode(4.0, 2, Fraction(4)), -0.25 - 2.2j),
            (2, Mode(2.0, 3, Fraction(2)), 0.1 - 0.7j),
            (2, Mode(6.0, 5, Fraction(6)), -1.3j),
            (3, Mode(3.0, 3, Fraction(3)), -0.9j),
            (3, Mode(8.0, 9, Fraction(8)), 0.2 - 2.8j),
            (1, Mode(0.25, 2, Fraction(1, 4)), -1.2j),
            (2, Mode(2.0, 3, Fraction(2)), -0.4 - 1.6j),
        ]
        for n, mode, lam in non_candidates:
            verdict = classify_pole(hypergeom_params(n, mode, lam))
            assert verdict.verdict is PoleVerdict.REGULAR
            probe = residue_probe(n, mode, lam)
            assert not probe.is_pole
            zero_ratios.append(probe.ratio)
            checked += 1
        # null ratios are roundoff (1e-17 to 1e-19): measure the margin
        # against the null floor verify reports, not against roundoff
        separation = min(pole_ratios) / max(max(zero_ratios), _NULL_FLOOR)
        assert separation >= 1e4, f"separation {separation:.3e} < 1e4"
        return (f"{checked} probes agree with classification, "
                f"magnitude separation {separation:.1e}")

    _criterion(5, 300.0, body, capsys)


def test_criterion_6_weyl_law_circle(capsys):
    def body():
        lam_grid = [50.0, 80.0, 110.0, 140.0, 170.0, 200.0]
        details = []
        for rho, j_max in (("1/2", 110), ("1", 205), ("3", 620)):
            spec = circle_spectrum(rho, j_max)
            rset = enumerate_resonances(spec, 205, 200.0)
            assert rset.complete_up_to(200.0)
            ratio = (weyl_count(rset, 200.0)
                     / weyl_leading_term(1, spec.volume, 200.0))
            assert 0.95 <= ratio <= 1.05, f"rho={rho}: ratio {ratio:.4f}"
            xs = [math.log(l) for l in lam_grid]
            ys = [math.log(weyl_count(rset, l)) for l in lam_grid]
            xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                     / sum((x - xbar) ** 2 for x in xs))
            assert abs(slope - 2.0) <= 0.04, f"rho={rho}: slope {slope:.4f}"
            details.append(f"rho={rho}: ratio {ratio:.3f} slope {slope:.3f}")
        return "; ".join(details)

    _criterion(6, 10.0, body, capsys)


def test_criterion_7_special_function_suite(capsys):
    def body():
        results = specfun_suite(seed=0)
        assert len(results) == 7
        failed = [r.name for r in results if not r.passed]
        assert not failed, f"failed checks: {failed}"
        names = " ".join(r.name for r in results)
        for invariant in ("recurrence", "reflection", "Gauss summation",
                          "Euler transform", "contiguous",
                          "regularized continuity"):
            assert invariant in names, f"suite lacks {invariant} check"
        worst = max(r.measured / r.tolerance for r in results)
        return f"7/7 invariants pass, worst margin {worst:.2e} of tolerance"

    _criterion(7, 30.0, body, capsys)


def test_criterion_8_green_kernel_symmetry(capsys):
    def body():
        rng = random.Random(42)
        cases = [(1, Fraction(1)), (2, Fraction(2)), (3, Fraction(8)),
                 (1, Fraction(0)), (2, Fraction(6))]
        worst = 0.0
        for n, mu2 in cases:
            mode = Mode(float(mu2), 1, mu2)
            lo1 = rng.uniform(0.15, 0.45)
            lo2 = rng.uniform(0.15, 0.45)
            f = RadialProfile.bump(lo1, lo1 + rng.uniform(0.15, 0.3))
            g = RadialProfile.bump(lo2, lo2 + rng.uniform(0.15, 0.3))
            for lam in (2j, 3j):
                fg = green_pairing(n, mode, lam, f, g)
                gf = green_pairing(n, mode, lam, g, f)
                rel = abs(fg - gf) / max(abs(fg), abs(gf))
                worst = max(worst, rel)
        assert worst <= 1e-7, f"worst asymmetry {worst:.3e} > 1e-7"
        return f"5 bump pairs x lambda=2i,3i, worst asymmetry {worst:.3e}"

    _criterion(8, 60.0, body, capsys)
