"""Kernel-level tests: coordinates, measure, basis solutions, Wronskian,
resolvent application, residual check, Green pairing, and the residue probe.

Frozen constants come from tests/oracles.py (the producing call is named in
a comment next to each one).
"""

import cmath
import math
import random
import re
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

from hypercone import (
    DomainError,
    HyperconeError,
    LowerParameterPole,
    Mode,
    ParameterPole,
    PoleEvaluation,
    ProbeInconclusive,
    QuadratureControl,
    QuadratureFailure,
    RadialProfile,
    ValidationError,
    apply_resolvent,
    candidate_params,
    classify_pole,
    green_pairing,
    hypergeom_params,
    measure_density,
    r_of_sigma,
    residual_check,
    residue_probe,
    s_param,
    sigma_of_r,
    u1,
    u2,
    wronskian_closed_form,
)

from hypercone import quadrature, resolvent, resonances, specfun
from hypercone.quadrature import cumulative_integral
from hypercone.resolvent import _GRID_QC, _KernelData, _resolvent
from hypercone.specfun import _MAX_TERMS, _ROUNDOFF
from oracles import (
    OracleDisagreement,
    lattice_grid,
    oracle_apply_resolvent,
    oracle_boundary_exponents,
    oracle_g1_limit,
    oracle_hyp2f1,
    oracle_kernel_functions,
    oracle_u2_series,
    reference_classify_pole,
    reference_cumulative_integral,
    reference_fit,
    reference_gauss_series,
    reference_ladder_band,
)


def exact_point(n, p, f, sigma):
    # apply_resolvent's one-point read at parameters p, which may carry an
    # exact imaginary part of lambda (hypergeom_params's lam_im_exact)
    return _resolvent(resolvent._kernel(n, p), f, sigma, sigma,
                      resolvent._POINT_QC)[0]([sigma])[0]


# oracle_u2_series(1, 1.0, 1.0, 0.3, dps=30)
U2_POINT = complex(0.21904546690772356, -0.5701142135439057)
# oracle_wronskian(n, mu_sq, lam, sigma, dps=40)
W_POINTS = [
    (1, 1.0, 1.0 + 0j, 0.3,
     complex(3.371466621327416, -0.6794506941203422)),
    (2, 2.0, 0.5 - 0.5j, 0.5,
     complex(-2.474487756708712, 1.6961457313269652)),
    (3, 5.0, -0.7 - 0.4j, 0.6,
     complex(-15.660801590784056, -7.128725796973331)),
]
# oracle_wronskian(3, 982.5775398672805,
#                  -102.4045879065857 + 3.1946142304372245j,
#                  0.9999999999072108, dps=40), and at dps=60 the same
W_POWER = complex(-5.589157126097742e+297, 3.0222710954228663e+298)
# oracle_wronskian(2, 1753.4234749779062,
#                  19.76389076119264 - 5.127820225568083j,
#                  0.9999999019563356, dps=40), and at dps=60 the same
W_PRODUCT = complex(-1.3624303591307094e+289, -1.2496872513997797e+289)
# oracle_measure_integral(n, lo, hi, dps=30): the same bump integrated
# against sinh(r)^n dr in the r coordinate
MEASURE_INTEGRALS = [(1, 0.3, 0.6, 1.4073600674266193),
                     (3, 0.2, 0.7, 40.864950253648956)]


def _each(f):
    """The list integrand of cumulative_integral that reads scalar f at
    each node of a level."""
    return lambda xs: [f(x) for x in xs]


@pytest.fixture
def cold_kernel(monkeypatch):
    """Empty the slot resolvent._kernel keeps, so that a test counting work
    or kernel builds builds its own kernel whatever ran before it."""
    monkeypatch.setattr(resolvent, "_slot", threading.local())


class TestQuadratureControlFields:
    """A control checks its fields when it is built: an infinite rel_tol
    once let apply_resolvent return a value off by 3.8e-5 unannounced."""

    @pytest.mark.parametrize("kw,field", [
        ({"abs_tol": -1e-10}, "abs_tol"),
        ({"rel_tol": 1j}, "rel_tol"),
        ({"abs_tol": True}, "abs_tol"),
        ({"max_subdivisions": -1}, "max_subdivisions"),
        ({"max_subdivisions": 2.5}, "max_subdivisions"),
        ({"max_subdivisions": True}, "max_subdivisions"),
    ])
    def test_bad_field_named(self, kw, field):
        with pytest.raises(ValidationError, match=field):
            QuadratureControl(**kw)

    def test_positional_infinite_tolerance(self):
        with pytest.raises(ValidationError, match="rel_tol"):
            QuadratureControl(1e-10, math.inf, 200)

    def test_edge_values_accepted(self):
        qc = QuadratureControl(0, 0.0, 0)
        assert (qc.abs_tol, qc.rel_tol, qc.max_subdivisions) == (0, 0.0, 0)
        QuadratureControl(1e-300, 1e-14, 10 ** 6)


class TestQuadrature:
    def test_cumulative_polynomial_exact(self):
        run = cumulative_integral(_each(lambda x: 3 * x ** 5 - x ** 2 + 2),
                                  -1.0, 2.0)
        for x in (-1.0, -0.3, 0.5, 1.7, 2.0):
            want = (x ** 6 - 1) / 2 - (x ** 3 + 1) / 3 + 2 * (x + 1)
            assert abs(run([x])[0] - want) <= 1e-14 * (1 + abs(want))

    def test_cumulative_running_exp(self):
        run = cumulative_integral(_each(lambda x: cmath.exp(1j * x)), 0.0,
                                  3.0, control=QuadratureControl(1e-14, 1e-14))
        for i in range(50):
            x = 3.0 * i / 49
            assert abs(run([x])[0] - (cmath.exp(1j * x) - 1) / 1j) <= 1e-13

    def test_cumulative_downward(self):
        # downward accumulation from b gives int_x^b directly
        run = cumulative_integral(_each(lambda x: cmath.exp(1j * x)), 0.0,
                                  3.0, control=QuadratureControl(1e-14, 1e-14),
                                  downward=True)
        for i in range(50):
            x = 3.0 * i / 49
            want = (cmath.exp(3j) - cmath.exp(1j * x)) / 1j
            assert abs(run([x])[0] - want) <= 1e-13
        assert run([3.0])[0] == 0.0

    def test_cumulative_kink_splits(self):
        calls = []

        def kink(x):
            calls.append(x)
            return abs(x - 1 / math.pi)

        run = cumulative_integral(_each(kink), 0.0, 1.0)
        c = 1 / math.pi
        for x in (0.1, c, 0.5, 1.0):
            want = (c * c - (c - x) * abs(c - x)) / 2
            assert abs(run([x])[0] - want) <= 1e-9
        assert len(calls) > 65  # one panel of degree 64 is not enough

    @pytest.mark.parametrize("downward", [False, True])
    def test_cumulative_kink_at_break(self, downward):
        # a break at the kink leaves two smooth panels, fitted at degree 16
        # (17 evaluations each), and anything outside (a, b) is ignored
        calls = []
        c = 1 / math.pi

        def kink(x):
            calls.append(x)
            return abs(x - c)

        run = cumulative_integral(_each(kink), 0.0, 1.0, downward=downward,
                                  breaks=[c, c, -1.0, 1.0])
        assert run.cuts == [c]
        assert len(calls) == 34
        whole = (c * c + (1 - c) ** 2) / 2
        for x in (0.1, c, 0.5, 0.9):
            upto = (c * c - (c - x) * abs(c - x)) / 2
            want = whole - upto if downward else upto
            assert abs(run([x])[0] - want) <= 1e-15

    def test_cumulative_budget_failure(self):
        with pytest.raises(QuadratureFailure):
            cumulative_integral(_each(lambda x: abs(x - 1 / math.pi) ** -0.5),
                                0.0, 1.0,
                                control=QuadratureControl(1e-13, 1e-13, 2))

    def test_interior_read_builds_only_its_panel(self):
        # a panel's series is built on the first read strictly inside the
        # span that lands in it; the ends read the offsets alone
        c = 1 / math.pi
        for downward in (False, True):
            run = cumulative_integral(_each(lambda x: abs(x - c)), 0.0, 1.0,
                                      downward=downward, breaks=[c, 0.6])
            assert run.cuts == [c, 0.6]
            run([0.0, 1.0])
            assert run._series == [None, None, None]
            run([0.5])
            assert [s is not None for s in run._series] == [False, True, False]

    @pytest.mark.parametrize("downward", [False, True])
    def test_list_read_matches_reference(self, downward):
        # one list read, its points out of order and revisiting panels,
        # gives each point the reference's value: 0 at the anchor end, the
        # total at the far end, and on a cut the value read from the panel
        # beyond it; alone or in a list, a point reads the same bits
        c = 1 / math.pi

        def f(x):
            return (1.0 + x * x) * cmath.exp(3j * x)

        run = cumulative_integral(_each(f), 0.0, 1.0, downward=downward,
                                  breaks=[c, 0.6])
        ref = reference_cumulative_integral(f, 0.0, 1.0, downward=downward,
                                            breaks=[c, 0.6])
        assert run.cuts == ref.cuts == [c, 0.6]
        anchor, far = (1.0, 0.0) if downward else (0.0, 1.0)
        xs = [0.9, anchor, c, 0.45, far, 0.6, 0.05, c, 0.75, 0.45]
        got = run(xs)
        assert len(got) == len(xs)
        assert got[1] == ref(anchor) == 0.0
        assert got[4] == run.total
        assert abs(run.total - ref.total) <= 1e-15
        for x, v in zip(xs, got):
            assert abs(v - ref(x)) <= 1e-15, x
            assert run([x]) == [v]

    def test_list_read_outside_span(self):
        run = cumulative_integral(_each(lambda x: x), 0.0, 1.0)
        assert run([]) == []
        for xs in ([0.5, 1.0 + 1e-9], [-5e-324], [math.nan]):
            with pytest.raises(DomainError, match="outside the integration"):
                run(xs)


def _cheb_sum(coefs):
    """t -> sum_k coefs[k] T_k(t) on [-1, 1]."""
    def f(t):
        th = math.acos(min(1.0, max(-1.0, t)))
        return sum(c * math.cos(k * th) for k, c in enumerate(coefs))
    return f


def _panel_cases(kind):
    """(f, a, b, keywords) integrands of one kind for the panel-decision
    comparison, seeded."""
    rng = random.Random(1313)
    if kind == "smooth":
        out = []
        for _ in range(6):
            a = rng.uniform(-2.0, 1.0)
            b = a + rng.uniform(0.1, 3.0)
            p, q = rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)
            out += [(lambda x, p=p: math.exp(p * x), a, b, {}),
                    (lambda x, p=p, q=q: 1 / (1 + 25 * p * (x - q) ** 2),
                     a, b, {}),
                    (lambda x, a=a, p=p: math.sqrt(x - a + 0.01 * p),
                     a, b, {"rel_tol": 1e-12})]
        return out
    if kind == "oscillatory":
        omegas = [0.5, 3.0, 10.0, 40.0, 100.0, 200.0]
        omegas += [rng.uniform(1.0, 200.0) for _ in range(4)]
        return [(lambda x, w=w: cmath.exp(1j * w * x), 0.0, 1.0, {})
                for w in omegas]
    if kind == "near_pole":
        out = []
        for _ in range(6):
            x0, eps = rng.uniform(0.1, 0.9), 10 ** rng.uniform(-3.0, -1.0)
            out.append((lambda x, x0=x0, eps=eps: 1 / (x - x0 - 1j * eps),
                        0.0, 1.0, {}))
        return out
    if kind == "kink":
        out = []
        for _ in range(4):
            c = rng.uniform(0.2, 0.8)
            out += [(lambda x, c=c: abs(x - c) ** 1.5 + x, 0.0, 1.0,
                     {"breaks": [c]}),
                    (lambda x, c=c: abs(x - c), 0.0, 1.0, {})]
        return out
    # the levels the tail rows cannot decide alone: c_0 = 0 (odd about the
    # panel midpoint), samples of T_k (at degree 2k, |c_k| equals the
    # bound on every coefficient), tails within 1% of rel_tol * max |c_k|
    # on either side, and zero
    out = [(lambda x: math.sin(3.0 * (x - 0.5)), 0.0, 1.0, {}),
           (lambda x: (x - 0.2) ** 3 - (x - 0.2), -0.8, 1.2, {})]
    for k in (16, 32, 64):
        t_k = _cheb_sum([0.0] * k + [1.0])
        out += [(t_k, -1.0, 1.0, {"abs_tol": 0.0}),
                (t_k, -1.0, 1.0, {"abs_tol": 0.0, "rel_tol": 0.5})]
    for scale in (0.99, 1.01):
        coefs = [1e-3, 1.0] + [0.5 ** k for k in range(2, 13)]
        coefs += [0.0, 0.0, 0.0, scale * 1e-8]
        out.append((_cheb_sum(coefs), -1.0, 1.0,
                    {"abs_tol": 0.0, "rel_tol": 1e-8}))
        # at degree 32, |c_16| = 1 is the bound itself
        out.append((_cheb_sum([0.0] * 16 + [1.0] + [0.0] * 15 + [1e-8]),
                    -1.0, 1.0, {"abs_tol": 0.0, "rel_tol": 1e-8 / scale}))
    out += [(lambda x: 0.0, 0.0, 1.0, {}),
            (lambda x: 0j, 0.0, 1.0, {"abs_tol": 0.0})]
    return out


class TestPanelDecisions:
    """cumulative_integral forms only the Chebyshev rows it reads; it must
    take the decisions of the full-coefficient reference."""

    @pytest.mark.parametrize("kind", ["smooth", "oscillatory", "near_pole",
                                      "kink", "undecidable"])
    @pytest.mark.parametrize("downward", [False, True])
    def test_same_panels_as_full_coefficients(self, kind, downward):
        for f, a, b, kw in _panel_cases(kind):
            seen, ref_seen, calls = [], [], []

            def g(xs):
                calls.append(len(xs))
                seen.extend((x, f(x)) for x in xs)
                return [v for _, v in seen[-len(xs):]]

            def ref_g(x):
                ref_seen.append((x, f(x)))
                return ref_seen[-1][1]

            tol = {k: v for k, v in kw.items() if k != "breaks"}
            run = cumulative_integral(g, a, b,
                                      control=QuadratureControl(**tol),
                                      downward=downward,
                                      breaks=kw.get("breaks", ()))
            ref = reference_cumulative_integral(ref_g, a, b,
                                                downward=downward, **kw)
            assert seen == ref_seen
            assert run.cuts == ref.cuts
            edges = [a, *run.cuts, b]
            panels = [(lo, hi, fold[0]) for (lo, hi), (_, _, fold, _)
                      in zip(zip(edges, edges[1:]), run._panels)]
            assert panels == ref.panels
            # one integrand call per level per panel: an accepted panel of
            # degree 16, 32 or 64 took 1, 2 or 3 levels, and each bisected
            # panel, one per panel beyond the first of each piece between
            # breaks, took all 3; each call holds the nodes its level adds
            pieces = 1 + len({x for x in kw.get("breaks", ()) if a < x < b})
            levels = {16: 1, 32: 2, 64: 3}
            assert len(calls) == (sum(levels[n] for *_, n in ref.panels)
                                  + 3 * (len(ref.panels) - pieces))
            assert set(calls) <= {17, 16, 32}
            # totals differ only by the roundoff of the sums: against
            # width * max |f| per panel, since the panel integrals
            # themselves cancel (oscillatory) or vanish (odd integrands)
            scale = sum((hi - lo) * max(abs(v) for x, v in seen
                                        if lo <= x <= hi)
                        for lo, hi, _ in ref.panels)
            assert abs(run.total - ref.total) <= 1e-15 * scale
            first_lo, first_hi, _ = ref.panels[-1 if downward else 0]
            for i in range(1, 40):
                x = a + (b - a) * i / 40
                if first_lo < x < first_hi:
                    assert run([x])[0] == ref(x)
                else:
                    assert abs(run([x])[0] - ref(x)) <= 1e-15 * scale

    def test_resolvent_fits_take_reference_decisions(self, monkeypatch):
        # every fit of the resolvent's running integrals, of the Green
        # pairing's outer integral and of the residual check samples the
        # integrand where the reference does and accepts the same degree
        degrees = []
        inner = quadrature._fit

        def checked(f, lo, hi, abs_tol, rel_tol, scale):
            # the reference reads the integrand one node at a time
            seen, ref_seen = [], []
            got = inner(lambda xs: seen.extend(xs) or f(xs), lo, hi,
                        abs_tol, rel_tol, scale)
            want = reference_fit(lambda x: ref_seen.append(x) or f([x])[0],
                                 lo, hi, abs_tol, rel_tol, scale)
            assert seen == ref_seen
            assert got[1] == want[1]
            degree = None if got[0] is None else got[0][0]
            assert degree == (None if want[0] is None else len(want[0]) - 1)
            degrees.append(degree)
            return got

        monkeypatch.setattr(quadrature, "_fit", checked)
        residue_probe(1, Mode(0.0, 1, Fraction(0)), -0.5j)
        residue_probe(2, Mode(2.0, 1), 0.7 + 0.9j)
        green_pairing(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.45),
                      RadialProfile.bump(0.41, 0.56))
        residual_check(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.6))
        assert {16, 32} <= set(degrees)


class TestCoordinateMap:
    def test_half_point(self):
        # sigma = 1/2 exactly at r = acosh(3) = 2 acosh(sqrt(2))
        r_half = math.acosh(3.0)
        assert sigma_of_r(r_half) == pytest.approx(0.5, rel=1e-15)
        assert r_of_sigma(0.5) == pytest.approx(r_half, rel=1e-15)
        assert r_of_sigma(0.5) == pytest.approx(2.0 * math.acosh(math.sqrt(2)),
                                                rel=1e-15)

    def test_matches_independent_form(self):
        for r in (0.05, 0.7, 2.0, 10.0):
            assert sigma_of_r(r) == pytest.approx(2.0 / (1.0 + math.cosh(r)),
                                                  rel=1e-14)

    def test_round_trip(self):
        for sig in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.999):
            assert sigma_of_r(r_of_sigma(sig)) == pytest.approx(sig, rel=1e-13)
        for r in (0.1, 1.0, 5.0, 20.0):
            assert r_of_sigma(sigma_of_r(r)) == pytest.approx(r, rel=1e-13)

    def test_tip_and_decay(self):
        assert r_of_sigma(1.0) == 0.0
        assert sigma_of_r(50.0) < 1e-20

    def test_domains(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(DomainError):
                sigma_of_r(bad)
        for bad in (0.0, -0.5, 1.0 + 1e-12):
            with pytest.raises(DomainError):
                r_of_sigma(bad)

    def test_sigma_below_double_range(self):
        # cosh^2(r/2) overflows a double just past r = 711.1, where sigma
        # is subnormal; that once raised an untyped OverflowError
        assert 0.0 < sigma_of_r(711.0) < sys.float_info.min
        for r in (712.0, 800.0, 1e6):
            with pytest.raises(DomainError, match=f"r = {r!r}"):
                sigma_of_r(r)


class TestMeasureDensity:
    def test_values(self):
        assert measure_density(1, 0.5) == pytest.approx(8.0, rel=1e-15)
        assert measure_density(1, 1.0) == 2.0
        assert measure_density(2, 1.0) == 0.0
        assert measure_density(3, 1.0) == 0.0

    @pytest.mark.parametrize("n,lo,hi,want", MEASURE_INTEGRALS)
    def test_change_of_variables(self, n, lo, hi, want):
        # integrating a bump against the density in sigma reproduces the
        # frozen r-coordinate integral of the same bump against sinh^n r dr
        bump = RadialProfile.bump(lo, hi)
        got = cumulative_integral(_each(lambda x: bump(x)
                                        * measure_density(n, x)),
                                  lo, hi).total
        assert got == pytest.approx(want, rel=1e-9)

    def test_domains(self):
        with pytest.raises(DomainError):
            measure_density(1, 0.0)
        with pytest.raises(DomainError):
            measure_density(1, 1.5)
        with pytest.raises(DomainError):
            measure_density(0, 0.5)

    def test_beyond_double_range(self):
        # sigma^-(n+1) = 1e400 once raised an untyped OverflowError
        with pytest.raises(DomainError, match="exceeds the double range"):
            measure_density(3, 1e-100)


class TestRadialProfile:
    def test_support_validation(self):
        for bad in ((0.0, 0.5), (0.3, 0.3), (0.5, 1.0), (0.6, 0.4)):
            with pytest.raises(ValidationError):
                RadialProfile(lambda s: 1.0, bad)
            with pytest.raises(ValidationError, match=re.escape(
                    f"support must satisfy 0 < lo < hi < 1, got {bad!r}")
                    + r"|^support (lo|hi) must be a real in \(0, 1\), got "):
                RadialProfile.bump(*bad)

    def test_zero_outside_support(self):
        b = RadialProfile.bump(0.3, 0.6)
        assert b(0.2) == 0.0 and b(0.7) == 0.0
        assert b(0.3) == 0.0 and b(0.6) == 0.0

    def test_peak_normalization(self):
        assert RadialProfile.bump(0.3, 0.6)(0.45) == pytest.approx(1.0,
                                                                   rel=1e-12)


class TestBasisSolutions:
    def test_u1_at_origin(self):
        p = hypergeom_params(2, Mode(3.0, 1), 0.7 + 0.2j)
        assert u1(p, 0.0) == 1.0

    def test_u1_log_point(self):
        # mu^2 = 0, lambda = i/2 gives (a, b, c) = (1, 1, 2):
        # F(1, 1; 2; 1/2) = 2 ln 2
        p = hypergeom_params(1, Mode(0.0, 1), 0.5j)
        assert (p.a, p.b, p.c) == (1.0, 1.0, 2.0)
        assert u1(p, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_u1_continuous_across_branch_switch(self):
        # second difference across the series/continuation split, at the
        # seed bound 3/4 for these parameters
        p = hypergeom_params(2, Mode(2.0, 1), 0.3 + 0.2j)
        vals = [u1(p, 0.75 + t) for t in (-2e-6, -1e-6, 1e-6, 2e-6)]
        jump = (vals[3] - vals[2]) - (vals[1] - vals[0])
        assert abs(jump) <= 1e-9

    def test_u1_lattice_c_raises(self):
        p = candidate_params(1, Mode(0.0, 1, Fraction(0)), 0)  # c = 0 exact
        with pytest.raises(LowerParameterPole):
            u1(p, 0.3)
        q = hypergeom_params(1, Mode(4.0, 1), -1j)  # c = -1.0 float
        with pytest.raises(LowerParameterPole):
            u1(q, 0.3)

    def test_u1_domain(self):
        p = hypergeom_params(1, Mode(1.0, 1), 1j)
        with pytest.raises(DomainError):
            u1(p, 1.0)

    def test_u2_at_tip(self):
        for lam in (2j, -0.7 - 0.4j):  # one draw per half plane
            p = hypergeom_params(1, Mode(1.0, 1), lam)
            assert u2(p, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_u2_frozen_point(self):
        p = hypergeom_params(1, Mode(1.0, 1), 1.0 + 0j)
        assert u2(p, 0.3) == pytest.approx(U2_POINT, rel=1e-12)

    def test_u2_branches_agree_with_series_oracle(self):
        rng = random.Random(17)
        for _ in range(6):
            n = rng.choice([1, 2, 3])
            mu2 = rng.uniform(0.0, 6.0)
            # the lower half plane, where the direct series once cancelled
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, -0.2))
            p = hypergeom_params(n, mode := Mode(mu2, 1), lam)
            for sig in (0.35, 0.7):
                want = oracle_u2_series(n, mu2, lam, sig)
                assert u2(p, sig) == pytest.approx(want, rel=1e-11), (
                    n, mu2, lam, sig)

    def test_u2_domain(self):
        p = hypergeom_params(1, Mode(1.0, 1), 1j)
        with pytest.raises(DomainError):
            u2(p, 0.0)


class TestWronskian:
    @pytest.mark.parametrize("n,mu2,lam,sig,want", W_POINTS)
    def test_frozen_points(self, n, mu2, lam, sig, want):
        p = hypergeom_params(n, Mode(mu2, 1), lam)
        assert wronskian_closed_form(p, sig) == pytest.approx(want, rel=1e-12)

    def test_against_finite_differences(self):
        p = hypergeom_params(1, Mode(1.0, 1), 1.0 + 0j)
        sig, h = 0.3, 1e-4
        # 4th-order first-derivative stencil on u1, u2
        def d(fn):
            return (fn(p, sig - 2 * h) - 8 * fn(p, sig - h)
                    + 8 * fn(p, sig + h) - fn(p, sig + 2 * h)) / (12 * h)
        w_fd = u1(p, sig) * d(u2) - d(u1) * u2(p, sig)
        assert w_fd == pytest.approx(wronskian_closed_form(p, sig), rel=1e-8)

    def test_exponent_structure(self):
        # W(s1)/W(s2) = (s2/s1)^c ((1-s1)/(1-s2))^(-1-s)
        p = hypergeom_params(2, Mode(2.5, 1), 0.4 - 0.3j)
        ratio = wronskian_closed_form(p, 0.25) / wronskian_closed_form(p, 0.75)
        want = (cmath.exp(p.c * math.log(0.75 / 0.25))
                * (0.75 / 0.25) ** (-1.0 - p.s))
        assert ratio == pytest.approx(want, rel=1e-12)

    def test_vanishes_at_genuine_pole(self):
        # at a resonance u1 and u2 are proportional
        p = hypergeom_params(1, Mode(1.0, 1, Fraction(1)), -1.5j)
        assert wronskian_closed_form(p, 0.4) == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("n,q", [(1, Fraction(13, 4)), (2, Fraction(1, 3)),
                                     (3, Fraction(2, 5)), (1, Fraction(5, 7))])
    def test_vanishes_at_classified_b_poles(self, n, q, k):
        # case cN_bY: b = -k exactly while the float b rounds to either side
        # of it, or onto it
        p = candidate_params(n, Mode(float(q), 1, q), k)
        assert wronskian_closed_form(p, 0.4) == 0.0

    def test_limit_matches_nearby_floats(self):
        # removable point (a = -3/2, b = 0, c = -3): exact limit versus the
        # generic formula slightly off the point
        p0 = hypergeom_params(2, Mode(2.0, 1, Fraction(2)), -2j)
        w0 = wronskian_closed_form(p0, 0.45)
        eps = 1e-6
        p1 = hypergeom_params(2, Mode(2.0, 1), complex(eps, -2.0 + eps))
        w1 = wronskian_closed_form(p1, 0.45)
        assert abs(w1 - w0) <= 1e-4 * abs(w0)

    def test_parameter_pole_with_exact_data(self):
        # c = -3 exact, a = -3/2, b = -7/6: no rescuing integer parameter
        p = hypergeom_params(1, Mode(1.0 / 9.0, 1, Fraction(1, 9)), -2j,
                             lam_im_exact=Fraction(-2))
        with pytest.raises(ParameterPole):
            wronskian_closed_form(p, 0.5)

    def test_parameter_pole_float_lattice(self):
        # c = -1.0 hit by a float-only lambda, so C' = a + 1/2 = 0: no exact
        # data to take a limit, for the Wronskian or the kernel
        p = hypergeom_params(1, Mode(2.0, 1), -1j)
        with pytest.raises(ParameterPole):
            wronskian_closed_form(p, 0.5)
        with pytest.raises(PoleEvaluation):
            _KernelData(1, p)

    def test_domain(self):
        p = hypergeom_params(1, Mode(1.0, 1), 1j)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                wronskian_closed_form(p, bad)

    def test_power_overflow(self):
        # (1 - sigma)^(-1-s) once raised an untyped OverflowError, then a
        # DomainError, though W = 3.1e298 there fits a double: W is one
        # exponential now, refused only where W itself is beyond the range,
        # as at 1 - sigma = 1e-11 (|W| = 6.3e329 in mpmath)
        p = hypergeom_params(3, Mode(982.5775398672805, 1),
                             -102.4045879065857 + 3.1946142304372245j)
        got = wronskian_closed_form(p, 0.9999999999072108)
        assert abs(got - W_POWER) <= 1e-12 * abs(W_POWER)
        with pytest.raises(DomainError, match="exceeds the double range"):
            wronskian_closed_form(p, 0.99999999999)

    def test_product_overflow(self):
        # finite factors whose product once came back as -inf+nanj, then
        # were refused, though W fits a double
        p = hypergeom_params(2, Mode(1753.4234749779062, 1),
                             19.76389076119264 - 5.127820225568083j)
        got = wronskian_closed_form(p, 0.9999999019563356)
        assert abs(got - W_PRODUCT) <= 1e-12 * abs(W_PRODUCT)


_TIGHT = QuadratureControl(abs_tol=1e-13, rel_tol=1e-13)


class TestApplyResolvent:
    def test_default_control_built_once(self, monkeypatch):
        # every call without a control reads the one module default
        f = RadialProfile.bump(0.2, 0.5)
        want = apply_resolvent(1, Mode(200.0, 1), 35 + 2j, f, 0.35,
                               control=QuadratureControl())

        def refuse(self):
            raise AssertionError("built a QuadratureControl")

        monkeypatch.setattr(QuadratureControl, "__post_init__", refuse)
        assert apply_resolvent(1, Mode(200.0, 1), 35 + 2j, f, 0.35) == want

    def test_zero_source(self):
        zero = RadialProfile(lambda s: 0.0, (0.3, 0.6))
        assert apply_resolvent(1, Mode(1.0, 1), 2j, zero, 0.45) == 0.0

    def test_linearity(self):
        f = RadialProfile.bump(0.3, 0.6)
        doubled = RadialProfile(lambda s: 2.0 * f(s), (0.3, 0.6))
        a = apply_resolvent(2, Mode(2.0, 1), 1.5j, f, 0.45)
        b = apply_resolvent(2, Mode(2.0, 1), 1.5j, doubled, 0.45)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_pole_evaluation_raised(self):
        f = RadialProfile.bump()
        with pytest.raises(PoleEvaluation):
            apply_resolvent(1, Mode(1.0, 1, Fraction(1)), -1.5j, f, 0.45)

    def test_float_irrational_candidate_evaluates_honestly(self):
        # without exact mode data the pole membership is undecidable, so the
        # kernel evaluates to its honestly huge near-pole value instead
        f = RadialProfile.bump()
        t = 0.5 + math.sqrt(13.0) / 2.0
        val = apply_resolvent(1, Mode(3.25, 1), complex(0, -t), f, 0.45)
        assert abs(val) > 1e12

    def test_continuous_through_removable_point(self):
        f = RadialProfile.bump()
        at = apply_resolvent(2, Mode(2.0, 1, Fraction(2)), -2j, f, 0.45,
                             control=_TIGHT)
        near = apply_resolvent(2, Mode(2.0, 1), complex(1e-6, -2.0), f, 0.45,
                               control=_TIGHT)
        assert abs(near - at) <= 1e-4 * abs(at)

    def test_boundary_exponents_match_indicial_roots(self):
        # physical half plane: the solution decays with the selected
        # exponents sigma^(n/2 - i lambda) at 0 and (1-sigma)^beta_plus at 1
        n, mode, lam = 1, Mode(1.0, 1), 3j
        alpha, beta = oracle_boundary_exponents(n, 1.0, lam)
        f = RadialProfile.bump(0.3, 0.6)

        def u(sig):
            return apply_resolvent(n, mode, lam, f, sig, control=_TIGHT)

        slope0 = (math.log(abs(u(2e-3))) - math.log(abs(u(1e-3)))) / math.log(2.0)
        assert abs(slope0 - alpha.real) <= 0.02  # = 3.5
        s1 = math.log(abs(u(1.0 - 1e-4)) / abs(u(1.0 - 2e-4))) / math.log(0.5)
        assert abs(s1 - beta) <= 0.02  # = 0.5

    def test_domain(self):
        f = RadialProfile.bump()
        with pytest.raises(DomainError):
            apply_resolvent(1, Mode(1.0, 1), 2j, f, 1.0)

    def test_value_beyond_double_range(self):
        # Re(n/2 - i lambda) = -2.4 < 0, so (R f)(sigma) grows like
        # sigma^-2.4 toward 0 and leaves the doubles: at 1e-128 it once
        # came back as nan+nanj, at 1e-130 as an untyped OverflowError
        f, mode, lam = RadialProfile.bump(0.3, 0.6), Mode(1.0, 1), -0.5 - 2.9j
        val = apply_resolvent(1, mode, lam, f, 1e-124)
        assert cmath.isfinite(val) and abs(val) > 1e299
        for sigma in (1e-128, 1e-130):
            with pytest.raises(DomainError, match=re.escape(
                    f"sigma = {sigma!r}, lambda = {lam}")):
                apply_resolvent(1, mode, lam, f, sigma)


class TestGridPath:
    """apply_resolvent is the one-point span of _resolvent."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Record each running integral the resolvent builds, as
        (a, b, downward), and count its integrand evaluations; the
        integrals themselves are kept in counted.runs."""
        spans, evals, runs = [], [], []

        def counting(f, a, b, **kw):
            spans.append((a, b, kw.get("downward", False)))

            def g(xs):
                evals.extend(xs)
                return f(xs)
            runs.append(quadrature.cumulative_integral(g, a, b, **kw))
            return runs[-1]

        monkeypatch.setattr(resolvent, "cumulative_integral", counting)
        return spans, evals, runs

    def test_running_integral_spans(self, counted):
        # f g1 w runs upward from lo, f u2 w downward from hi, each only as
        # far as the evaluation point needs; spans are in u = log sigma
        spans, _, _ = counted
        f = RadialProfile.bump(0.3, 0.6)
        lo, mid, hi = math.log(0.3), math.log(0.45), math.log(0.6)
        for sigma, want in ((0.2, [(lo, hi, True)]),
                            (0.45, [(lo, mid, False), (mid, hi, True)]),
                            (0.7, [(lo, hi, False)])):
            spans.clear()
            apply_resolvent(2, Mode(2.0, 1), 1 + 0.5j, f, sigma)
            assert sorted(spans) == want

    def test_grid_size_does_not_change_evaluations(self, counted):
        spans, evals, _ = counted
        n, mode, lam = 2, Mode(2.0, 1), 1 - 0.7j
        f = RadialProfile.bump(0.3, 0.6)
        kd = _KernelData(n, hypergeom_params(n, mode, lam))
        counts = []
        for grid in ([0.2, 0.45, 0.7], [0.1 + 0.8 * i / 254 for i in range(255)]):
            spans.clear()
            evals.clear()
            rf, _ = _resolvent(kd, f, grid[0], grid[-1], _TIGHT)
            rf(grid)
            assert sorted(spans) == [(math.log(0.3), math.log(0.6), False),
                                     (math.log(0.3), math.log(0.6), True)]
            counts.append(len(evals))
        assert counts[0] == counts[1]

    def test_residual_check_evaluation_budget(self, counted):
        # two running integrals of degree 32 (66 evaluations) on this case;
        # the per-segment adaptive Gauss-Kronrod path it replaced made
        # about 7,600
        _, evals, _ = counted
        residual_check(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.6))
        assert len(evals) == 66

    @pytest.mark.parametrize("sigma,count", [(0.2, 33), (0.45, 34),
                                             (0.7, 33)])
    def test_one_point_reads_totals_only(self, counted, sigma, count):
        # below, inside and above the support: the evaluations the
        # full-coefficient panels made, and a point at the ends of both
        # integrals builds no panel series
        _, evals, runs = counted
        f = RadialProfile.bump(0.3, 0.6)
        apply_resolvent(2, Mode(2.0, 1), 1 + 0.5j, f, sigma)
        assert len(evals) == count
        assert runs
        assert all(s is None for run in runs for s in run._series)

    @pytest.mark.parametrize("n,mode,lam0,count", [
        (1, Mode(0.0, 1, Fraction(0)), -0.5j, 306),   # 9 resolvents, on axis
        (2, Mode(2.0, 1), 0.7 + 0.9j, 800),   # 16, off the axis, where the
                                              # floor scales with a small
                                              # integrand
    ])
    def test_residue_probe_evaluations(self, counted, n, mode, lam0, count):
        _, evals, runs = counted
        residue_probe(n, mode, lam0)
        assert len(evals) == count
        assert all(s is None for run in runs for s in run._series)

    @pytest.mark.parametrize("lam", [1 + 0.5j, 1 - 0.7j])
    def test_grid_matches_single_points(self, lam):
        # points below lo, at lo, inside, at hi and above hi
        n, mode = 2, Mode(2.0, 1)
        f = RadialProfile.bump(0.3, 0.6)
        grid = [0.2, 0.3, 0.38, 0.45, 0.52, 0.6, 0.75]
        kd = _KernelData(n, hypergeom_params(n, mode, lam))
        rf, _ = _resolvent(kd, f, grid[0], grid[-1], _TIGHT)
        for x, got in zip(grid, rf(grid)):
            want = apply_resolvent(n, mode, lam, f, x, control=_TIGHT)
            assert abs(got - want) <= 1e-10 * abs(want)


def _mp_bump(lo, hi):
    # the RadialProfile.bump polynomial, in mp arithmetic for the oracle
    def f(r):
        return ((r - lo) * (hi - r)) ** 3 / ((hi - lo) / 2) ** 6
    return f


class TestResolventOracle:
    """apply_resolvent against the 30-digit kernel-formula oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [0.7 + 0.9j, -0.6 - 0.5j])
    def test_bump_below_inside_above(self, n, lam):
        f = RadialProfile.bump(0.3, 0.6)
        for sigma in (0.2, 0.45, 0.75):
            want = oracle_apply_resolvent(n, 2.0, lam, _mp_bump(0.3, 0.6),
                                          0.3, 0.6, sigma)
            got = apply_resolvent(n, Mode(2.0, 1), lam, f, sigma)
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("lam", [20 + 0.1j, 30 + 1j, 40 + 0.5j])
    def test_large_real_lambda(self, lam):
        # where the defining series of u2 at w = 1 - sigma cancels badly
        f = RadialProfile.bump(0.3, 0.6)
        for sigma in (0.2, 0.45):
            want = oracle_apply_resolvent(2, 2.0, lam, _mp_bump(0.3, 0.6),
                                          0.3, 0.6, sigma)
            got = apply_resolvent(2, Mode(2.0, 1), lam, f, sigma)
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("lam", [1 + 0.5j, 1 - 0.7j])
    def test_source_nonzero_at_its_ends(self, lam):
        # the integrands read func on the closed support, so a constant
        # source is smooth up to lo and hi
        f = RadialProfile(lambda s: 1.0, (0.3, 0.6))
        for sigma in (0.2, 0.45, 0.75):
            want = oracle_apply_resolvent(2, 2.0, lam, lambda r: 1, 0.3, 0.6,
                                          sigma)
            got = apply_resolvent(2, Mode(2.0, 1), lam, f, sigma)
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("control", [None, _TIGHT,
                                         QuadratureControl(max_subdivisions=5)])
    def test_source_with_a_jump(self, control):
        # a jump inside the support is either resolved by bisection down to
        # it, agreeing with the constant source it truncates, or refused
        step = RadialProfile(lambda s: 1.0 if s < 0.45 else 0.0, (0.3, 0.6))
        const = RadialProfile(lambda s: 1.0, (0.3, 0.45))
        refused = 0
        for n, lam in ((1, 0.7 + 0.9j), (2, 1 - 0.7j), (3, 3j)):
            for sigma in (0.2, 0.4, 0.45, 0.5, 0.75):
                want = apply_resolvent(n, Mode(2.0, 1), lam, const, sigma,
                                       control=control)
                try:
                    got = apply_resolvent(n, Mode(2.0, 1), lam, step, sigma,
                                          control=control)
                except QuadratureFailure:
                    refused += 1
                    continue
                assert abs(got - want) <= 5e-9 * abs(want)
        if control is not None and control.max_subdivisions == 5:
            assert refused > 0


class TestNonFiniteLambda:
    """hypergeom_params refuses a lambda with an infinite or NaN part by
    name, so every entry point that reads it does too."""

    @pytest.mark.parametrize("lam", [math.nan, math.inf,
                                     complex(0.0, math.inf),
                                     complex(0.0, math.nan)],
                             ids=["nan", "inf", "inf_im", "nan_im"])
    def test_entry_points_refuse(self, lam):
        n, mode, f = 2, Mode(2.0, 1), RadialProfile.bump()
        calls = [
            lambda: u1(hypergeom_params(n, mode, lam), 0.3),
            lambda: u2(hypergeom_params(n, mode, lam), 0.3),
            lambda: apply_resolvent(n, mode, lam, f, 0.45),
            lambda: residual_check(n, mode, lam, f),
            lambda: green_pairing(n, mode, lam, f, f),
            lambda: residue_probe(n, mode, lam),
        ]
        for call in calls:
            with pytest.raises(DomainError,
                               match="lambda must be a finite complex"):
                call()


class TestLargeParameterSweep:
    """apply_resolvent at mu^2 up to 400 and |Re lambda| up to 40, where
    the two running integrals can differ in size by 26 orders (6.2e16 and
    3.1e-10 at n = 2, mu^2 = 110, lambda = -35-2.9i): the default control
    must agree with a relative-only one, whose floor is off."""

    TIGHT = QuadratureControl(abs_tol=1e-300, rel_tol=1e-14)

    def test_default_matches_relative_only_control(self):
        # 200 seeded draws: n in 1..4, mu^2 = p/16 with p <= 6400,
        # Re lambda in [-40, 40], Im lambda in [-3, 3], sigma in [0.1, 0.9]
        rng = random.Random(17)
        f = RadialProfile.bump()
        misses = []
        for _ in range(200):
            n = rng.randint(1, 4)
            mode = Mode(rng.randint(0, 6400) / 16, 1)
            lam = complex(rng.uniform(-40.0, 40.0), rng.uniform(-3.0, 3.0))
            sigma = rng.uniform(0.1, 0.9)
            got = apply_resolvent(n, mode, lam, f, sigma)
            want = apply_resolvent(n, mode, lam, f, sigma, control=self.TIGHT)
            if not abs(got - want) <= 1e-10 * abs(want):
                misses.append((n, mode.mu_sq, lam, sigma))
        assert misses == []

    @pytest.mark.parametrize("n,mu_sq,lam,sigma", [
        (1, 6129 / 16, 38.943 + 2.460j, 0.1165),
        (2, 110.0, 35 + 2.9j, 0.45),
        (2, 110.0, -35 - 2.9j, 0.45),
    ])
    def test_worst_draws_match_oracle(self, n, mu_sq, lam, sigma):
        # the draws an absolute floor of 1e-10/width got wrong by 0.44,
        # 8.6e-8 and 4.5e-6: the small integral was accepted against the
        # floor, not against its own size
        got = apply_resolvent(n, Mode(mu_sq, 1), lam, RadialProfile.bump(),
                              sigma)
        want = oracle_apply_resolvent(n, mu_sq, lam, _mp_bump(0.3, 0.6),
                                      0.3, 0.6, sigma)
        assert abs(got - want) <= 1e-10 * abs(want)


class TestLargeModePrefactor:
    """Past s = 171, Gamma(b) and Gamma(1+s) overflow a double apart while
    the mode prefactor P = Gamma(a)Gamma(b)/(Gamma(c)Gamma(1+s)) stays
    moderate.  Formed as two factors, it made every resolvent entry point
    and the Wronskian raise an untyped OverflowError from mu^2 = 3e4."""

    def test_every_entry_point_finite_or_typed(self):
        # 15 seeded draws (about 4 s): three per mu^2, n in 1..4,
        # Re lambda in [-4, 4], Im lambda in [-1.2, 3]
        rng = random.Random(5)
        f, g = RadialProfile.bump(0.3, 0.6), RadialProfile.bump(0.4, 0.55)
        for mu_sq in (3e4, 1e5, 1e6, 1e8, 1e12):
            for _ in range(3):
                n, mode = rng.randint(1, 4), Mode(mu_sq, 1)
                lam = complex(rng.uniform(-4.0, 4.0), rng.uniform(-1.2, 3.0))
                p = hypergeom_params(n, mode, lam)
                for call in (
                        lambda: apply_resolvent(n, mode, lam, f, 0.45),
                        lambda: residual_check(
                            n, mode, lam, f,
                            grid=[0.35, 0.45, 0.55]).max_residual,
                        lambda: green_pairing(n, mode, lam, f, g),
                        lambda: residue_probe(n, mode, lam,
                                              points=8).residue,
                        lambda: wronskian_closed_form(p, 0.45),
                        lambda: u1(p, 0.45), lambda: u2(p, 0.45)):
                    try:
                        val = call()
                    except HyperconeError:
                        continue
                    assert cmath.isfinite(val), (n, mu_sq, lam)

    def test_prefactor_beyond_double_range(self):
        # log |P| = 765.0 in mpmath at s = 1000, lambda = 600: a typed
        # refusal naming both, where an untyped OverflowError once came
        with pytest.raises(DomainError,
                           match=r"lambda = \(600\+0j\), s = 1000\.0 exceeds"):
            apply_resolvent(1, Mode(1e6, 1), 600, RadialProfile.bump(), 0.45)

    def test_resolvent_matches_split_oracle(self):
        # s = 173.2; the oracle's integrals in 4 pieces each (about 6 s),
        # which agree with 16 to 2.4e-14
        got = apply_resolvent(1, Mode(3e4, 1), 1 + 0.5j, RadialProfile.bump(),
                              0.45)
        want = oracle_apply_resolvent(1, 3e4, 1 + 0.5j, _mp_bump(0.3, 0.6),
                                      0.3, 0.6, 0.45, pieces=4)
        assert abs(got - want) <= 1e-10 * abs(want)


def _inline_ratio_series(term, a, b, c, z):
    # the 2F1 term loop written out here, the reference for bit-identity:
    # step k forms u_k = t_k (a+k)(b+k)/((c+k)(k+1)), adds (k+1) u_k to the
    # derivative and t_{k+1} = u_k z to the value; three steps in a row
    # leaving both within roundoff, once k >= -Re c / (1-z), end it, and so
    # does one such step with a zero term.  A negligible term below 2^-960
    # is held times 2^960 (again at each fall below 2^-960) and not added,
    # and is taken back down by 2^960 each time it reaches 1, until it is
    # added again or the floor ends the sum
    value, slope = term, 0.0 + 0.0j
    small = lift = 0
    floor = -c.real / (1 - z)
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1))
        dterm = (k + 1) * term
        term *= z
        if lift:
            if k >= floor or term == 0.0:
                return value, slope
            if abs(term) < 2.0 ** -960:
                term, lift = term * 2.0 ** 960, lift + 1
            elif abs(term) >= 1.0:
                term, dterm = term * 2.0 ** -960, dterm * 2.0 ** -960
                lift -= 1
            if lift:
                continue
        slope += dterm
        value += term
        if (abs(term) <= _ROUNDOFF * abs(value)
                and abs(dterm) <= _ROUNDOFF * abs(slope)):
            small += 1
            if small >= 3 and k >= floor or term == 0.0:
                return value, slope
            if abs(term) < 2.0 ** -960:
                term, lift = term * 2.0 ** 960, 1
        else:
            small = 0
    raise AssertionError("reference series did not settle")


def _log_prefactor(p):
    return resolvent._prefactor(p, PoleEvaluation)[0]


def _inline_quadratic_params(a, b):
    # (zeta0, (ha, hb, hc)) of g1's series in zeta off the lattice,
    # H = F(b/2, b/2 + 1/2; a + 1/2; .) at zeta0 = min(0.3, _seed_bound)
    ha, hb, hc = 0.5 * b, 0.5 * b + 0.5, a + 0.5
    return min(0.3, specfun._seed_bound(ha, hb, hc)), (ha, hb, hc)


def _inline_quadratic_terms(a, b, tau):
    # (the terms t_0 = 1, t_1, ... of H at zeta0 that g1's read at tau
    # forms, and the number k of them it sums), written out as a linear
    # scan: t_i comes from t_(i-1) by the recurrence t_(i-1) (ha + i - 1)
    # (hb + i - 1) / ((hc + i - 1) i) zeta0, term i is negligible at tau
    # when |t_i| <= _ROUNDOFF or tau <= (_ROUNDOFF / |t_i|)^(1/i), and k is
    # the least index >= 1, and >= the floor -Re hc / (1 - zeta0), at which
    # terms k, k + 1 and k + 2 are all negligible: t_0 .. t_(k-1) are
    # summed and t_0 .. t_(k+2) formed
    zeta0, (ha, hb, hc) = _inline_quadratic_params(a, b)
    floor = -hc.real / (1.0 - zeta0)
    terms = [1.0 + 0.0j]

    def negligible(i):
        while len(terms) <= i:
            j = len(terms) - 1
            step = (ha + j) * (hb + j) / ((hc + j) * (j + 1))
            terms.append(terms[j] * step * zeta0)
        size = abs(terms[i])
        return size <= _ROUNDOFF or tau <= (_ROUNDOFF / size) ** (1.0 / i)

    k = 1
    while k < floor or not all(negligible(i) for i in (k, k + 1, k + 2)):
        k += 1
    return terms, k


def _inline_tau(a, b, z):
    # tau = zeta / zeta0 at z, and at x0 = 2 sqrt(zeta0) / (1 + sqrt(zeta0))
    zeta0, _ = _inline_quadratic_params(a, b)
    root = math.sqrt(zeta0)
    x0 = 2.0 * root / (1.0 + root)
    return [(x / (2.0 - x)) ** 2 / zeta0 for x in (z, x0)]


def _inline_quadratic_seed(p, z):
    # g1's seed off the lattice, written out: Kummer's quadratic
    # transformation g1(z) = P (1 - z/2)^(-b) H(zeta), zeta = (z/(2-z))^2,
    # H and dH/dtau by Horner over the terms the read at x0 forms, in
    # tau = zeta / zeta0, and g1' = P (1 - z/2)^(-b) (b/(2-z) H
    # + 4z/(2-z)^3 H'(zeta))
    a, b = complex(p.a), complex(p.b)
    zeta0, _ = _inline_quadratic_params(a, b)
    tau, full = _inline_tau(a, b, z)
    h = dh = 0.0 + 0.0j
    for term in reversed(_inline_quadratic_terms(a, b, full)[0]):
        dh = dh * tau + h
        h = h * tau + term
    t = 2.0 - z
    scale = cmath.exp(_log_prefactor(p) - b * math.log1p(-0.5 * z))
    return scale * h, scale * (b / t * h + 4.0 * z / t ** 3 / zeta0 * dh)


def _inline_quadratic_point(p, z):
    # g1(z) at z <= x0 off the lattice as the ladder serves it, written
    # out: Horner in tau over the terms _inline_quadratic_terms sums, from
    # the highest, on the real and imaginary parts apart, and the sum
    # times P (1 - z/2)^(-b)
    a, b = complex(p.a), complex(p.b)
    tau, _ = _inline_tau(a, b, z)
    terms, k = _inline_quadratic_terms(a, b, tau)
    vr, vi = terms[k - 1].real, terms[k - 1].imag
    for t in reversed(terms[:k - 1]):
        vr = vr * tau + t.real
        vi = vi * tau + t.imag
    return (cmath.exp(_log_prefactor(p) - b * math.log1p(-0.5 * z))
            * complex(vr, vi))


class TestStepRatioCache:
    """Every series seed is bit-identical to the term loop written out
    here, whatever order its points are asked in: u2's in 1 - sigma, and
    g1's, off the lattice, in zeta = (z/(2-z))^2 (_inline_quadratic_seed).
    g1 at every z <= x0 is bit-identical to its term list and cut rule
    written out (_inline_quadratic_point), however far earlier points have
    grown the list."""

    KERNELS = [(1, Mode(1.0, 1), 1 + 0.5j), (2, Mode(2.0, 1), 1 - 0.7j),
               (3, Mode(8.0, 1), -0.3 - 1.1j), (4, Mode(0.5, 1), 3j)]
    # out of order, so a seed that kept state from earlier points, with
    # later points needing more terms, would show it
    POINTS = [0.45, 0.05, 0.62, 0.3, 0.9, 0.2, 0.6]

    @pytest.mark.parametrize("n,mode,lam", KERNELS)
    def test_g1_and_u2_match_inline_ratios(self, n, mode, lam):
        # the value and derivative seeds of the kernel expansions, and
        # public u2 where it sums the series itself
        p = hypergeom_params(n, mode, lam)
        kd = _KernelData(n, p)
        a, b, c2 = (complex(v) for v in (p.a, p.b, 1.0 + p.s))
        for x in self.POINTS:
            if x <= kd.g1.x0:
                assert kd.g1.seed(x) == _inline_quadratic_seed(p, x)
                assert kd.g1([x]) == [_inline_quadratic_point(p, x)]
            w = 1.0 - x
            series = _inline_ratio_series(1.0 + 0.0j, a, b, c2, w)
            assert kd.f2.seed(w) == series
            if w <= kd.f2.x0:
                assert u2(p, x) == series[0]


class TestSeedDerivative:
    """Each series seed sums (F, F') in one pass, F' being the contiguous
    (ab/c) F(a+1, b+1; c+1; m), to 1e-13 of mpmath from the anchor m = 0
    through a subnormal-adjacent m to 3/4; g1's, off the lattice, through
    the quadratic transformation in zeta = (m/(2-m))^2, up to its bound
    x0 (seeds_to_x0)."""

    POINTS = [0.0, 1e-300, 1e-8, 0.05, 0.375, 0.5, 0.75]

    @classmethod
    def seeds_to_x0(cls, ladder):
        # g1's seed serves z <= x0 (0.62 to 0.71), the ladder's reach
        return [m for m in cls.POINTS if m < ladder.x0] + [ladder.x0]

    def check(self, seed, t0, a, b, c, points=POINTS):
        for m in points:
            val, slope = seed(m)
            with mp.workdps(30):
                t0, a, b, c = (mp.mpc(v) for v in (t0, a, b, c))
                want = complex(t0 * mp.hyp2f1(a, b, c, m))
                dwant = complex(t0 * a * b / c
                                * mp.hyp2f1(a + 1, b + 1, c + 1, m))
            assert abs(val - want) <= 1e-13 * abs(want), m
            assert abs(slope - dwant) <= 1e-13 * abs(dwant), m

    @pytest.mark.parametrize("n,mode,lam", TestStepRatioCache.KERNELS)
    def test_kernel_seeds(self, n, mode, lam):
        p = hypergeom_params(n, mode, lam)
        kd = _KernelData(n, p)
        a, b, c = complex(p.a), complex(p.b), complex(p.c)
        self.check(kd.g1.seed, kd.g1.seed(0.0)[0], a, b, c,
                   self.seeds_to_x0(kd.g1))
        self.check(kd.f2.seed, 1.0, a, b, complex(1.0 + p.s))

    def test_exact_seed_past_kmin(self):
        # exact s = 1/3 and lambda = -5i/4: a = -3/4, b = -5/12, c = -3/2,
        # off every Gamma pole, and the series at m runs at least to its
        # floor -Re c / (1-m) = 1.5 / (1-m)
        p = hypergeom_params(1, Mode(1 / 9, 1, Fraction(1, 9)), -1.25j,
                             lam_im_exact=Fraction(-5, 4))
        kd = _KernelData(1, p)
        a, b, c = complex(p.a), complex(p.b), complex(p.c)
        assert c == -1.5 and resonances._lattice_indices(p) == (
            None, None, None)
        t0 = kd.g1.seed(0.0)[0]
        for m in self.POINTS[3:]:
            ratios = []
            specfun._sum_series(t0, a, b, c, m, ratios)
            assert len(ratios) - 1 >= 1.5 / (1 - m), m
        self.check(kd.g1.seed, t0, a, b, c, self.seeds_to_x0(kd.g1))

    def test_lattice_tail(self):
        # c = -3 on the exact lattice, so C' = a + 1/2 = -1: g1's seed is
        # zeta^2 times the tail t F(b/2 + 2, b/2 + 5/2; 3; zeta) of its
        # series in zeta (P = 0, no head), against the value and derivative
        # of P F(a, b; c; m) at lambda + 1e-25 i, which moves (a, b, c) by
        # (delta, delta, 2 delta) off the poles, from m = 0.05 to x0
        p = hypergeom_params(1, Mode(1 / 9, 1, Fraction(1, 9)), -2j,
                             lam_im_exact=Fraction(-2))
        assert resonances._lattice_indices(p)[2] == 3
        kd = _KernelData(1, p)
        with mp.workdps(40):
            a = mp.mpf(-3) / 2 + mp.mpf("1e-25")
            s = mp.mpf(1) / 3
            b, c = a + s, 2 * a
            t0 = mp.gamma(a) * mp.gamma(b) / (mp.gamma(c) * mp.gamma(1 + s))
            for m in self.seeds_to_x0(kd.g1)[3:]:
                val, slope = kd.g1.seed(m)
                want = complex(t0 * mp.hyp2f1(a, b, c, m))
                dwant = complex(t0 * a * b / c
                                * mp.hyp2f1(a + 1, b + 1, c + 1, m))
                assert abs(val - want) <= 1e-13 * abs(want), m
                assert abs(slope - dwant) <= 1e-13 * abs(dwant), m


class TestIntegrandClosures:
    """Each running integral of _resolvent reads one closure, which is bit
    for bit f g1 w or f u2 w, w = exp((e1+1) u) (1-rho)^e2, at every node
    u = log rho, with rho = exp(u) and the span ends log lo, log hi read
    at lo and hi themselves."""

    def test_closures_match_kernel_methods(self, monkeypatch):
        seen = []
        inner = resolvent.cumulative_integral

        def recording(f, a, b, **kw):
            nodes = []

            def sampled(rs):
                nodes.extend(rs)
                return f(rs)
            seen.append((f, nodes, kw.get("downward", False)))
            return inner(sampled, a, b, **kw)

        monkeypatch.setattr(resolvent, "cumulative_integral", recording)
        n, lam, prof = 2, 1 - 0.7j, RadialProfile.bump(0.3, 0.6)
        kd = _KernelData(n, hypergeom_params(n, Mode(2.0, 1), lam))
        _resolvent(kd, prof, 0.2, 0.8, _GRID_QC)
        assert [down for *_, down in seen] == [False, True]
        for (f, nodes, _), kernel in zip(seen, (kd.g1, kd.u2)):
            assert len(nodes) > 16
            for u in nodes:
                r = 0.3 if u == math.log(0.3) else (
                    0.6 if u == math.log(0.6) else math.exp(u))
                w = cmath.exp((kd.e1 + 1.0) * u) * (1.0 - r) ** kd.e2
                assert f([u])[0] == prof.func(r) * kernel([r])[0] * w
            assert f(nodes) == [f([r])[0] for r in nodes]


def _ladder_points(q):
    # the anchor boundaries in [0.004, 0.996] (distances q^i / 2 from
    # either end) and their float neighbours on both sides
    out = []
    d = 0.5
    while d >= 0.004:
        for x in (d, 1.0 - d):
            out += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
        d *= q
    return sorted(set(out))


class TestExactLatticeKernels:
    """g1 at exact lattice parameters, the limit along lambda: the regular
    case c = -3, a- and b-removable points and a surd s.  Every kernel
    reads g1 from its series in zeta = sech^2 r, where Legendre's
    duplication formula cancels the poles of Gamma(a) and Gamma(c): at
    even c, C' = a + 1/2 is off the lattice, and at odd c g1 is a head
    and the DLMF 15.2.3 tail."""

    CASES = [(1, Fraction(1, 9), -2j), (1, Fraction(1, 9), -1.5j),
             (1, Fraction(1, 9), -3.5j), (3, Fraction(1, 4), -2.5j),
             (2, Fraction(2), -2j), (2, Fraction(2), -3j)]

    @pytest.mark.parametrize("n,q,lam", CASES)
    def test_g1_matches_shifted_oracle(self, n, q, lam):
        # lambda + delta i moves (a, b, c) by (delta, delta, 2 delta), the
        # direction the kernel's limits take; oracle_g1_limit checks its
        # two shifts against each other
        p = hypergeom_params(n, Mode(float(q), 1, q), lam)
        kd = _KernelData(n, p)
        for i in range(24):
            z = 0.01 + 0.94 * i / 23
            want = oracle_g1_limit(n, q, lam, z)
            assert abs(kd.g1([z])[0] - want) <= 1e-12 * abs(want), z

    # even c = -16 and -20, and the b-removable c = -21 (b = -9): the
    # series in sigma, climbed from about 4/|lambda|, was 2.2e-7 to 8.6e-2
    # off here with no error raised
    LARGE_C = [(1, Fraction(1, 9), -8.5j, 1e-10),
               (3, Fraction(1, 4), -8.5j, 1e-10),
               (1, Fraction(1, 9), -10.5j, 1e-8),
               (3, Fraction(1, 4), -10.5j, 1e-8),
               (2, Fraction(2), -11j, 1e-8)]

    @pytest.mark.parametrize("n,q,lam,tol", LARGE_C)
    def test_large_c_matches_checked_oracle(self, n, q, lam, tol):
        # the shifted oracle leaves its digits to the shift where g1 is
        # small against its terms, as at large |c|: oracle_g1_limit
        # refuses a value its two shifts disagree on
        p = hypergeom_params(n, Mode(float(q), 1, q), lam)
        kd = _KernelData(n, p)
        for i in range(24):
            z = 0.01 + 0.94 * i / 23
            want = oracle_g1_limit(n, q, lam, z)
            assert abs(kd.g1([z])[0] - want) <= tol * abs(want), z

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [-0.5j, -1.5j, -2.5j])
    def test_float_even_c_evaluates(self, n, lam):
        # mu^2 = 2 without an exact form puts a = 0, -1 or -2 and c = 2a on
        # Gamma poles, which the duplication formula cancels: the kernel
        # and the Wronskian evaluate, where both once raised
        p = hypergeom_params(n, Mode(2.0, 1), lam)
        kd = _KernelData(n, p)
        assert cmath.isfinite(wronskian_closed_form(p, 0.4))
        with mp.workdps(50):
            lam_mp = mp.mpc(0, lam.imag) + mp.mpc(0, "1e-30")
        for z in (0.05, 0.3, 0.6, 0.8, 0.95):
            want = oracle_kernel_functions(n, 2, lam_mp, z, dps=50)[2]
            assert abs(kd.g1([z])[0] - want) <= 1e-13 * abs(want), z

    def test_oracle_refuses_split_shifts(self):
        # c = -29 (n = 1, mu^2 = 1/9, lambda = -15i): g1 is 1e-69 at
        # sigma = 0.01, below the terms either shift leaves, and the two
        # shifted values part by 1.5e-2 relative at sigma = 0.1
        with pytest.raises(OracleDisagreement):
            oracle_g1_limit(1, Fraction(1, 9), -15j, 0.1)

    def test_residual_check_ln_gamma_calls(self, monkeypatch):
        # the lattice limit takes none, Gamma(1+s) one and the tail
        # coefficient one
        count = [0]
        inner = specfun.ln_gamma

        def counting(z):
            count[0] += 1
            return inner(z)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("hypercone")
                    and getattr(mod, "ln_gamma", None) is inner):
                monkeypatch.setattr(mod, "ln_gamma", counting)
        residual_check(2, Mode(2.0, 1, Fraction(2)), -2j,
                       RadialProfile.bump(0.3, 0.6))
        assert count[0] == 2


class TestOneLatticeDecision:
    """classify_pole and the kernel read one lattice decision: the verdict
    and case id match the six-way reference split, and the kernel refuses
    exactly the genuine poles, on a seeded slice of the 26,880-case grid."""

    SLICE = random.Random(11).sample(lattice_grid(), 2400)

    @staticmethod
    def params(n, mode, k, lam_im):
        if k is not None:
            return candidate_params(n, mode, k)
        return hypergeom_params(n, mode, complex(0.0, float(lam_im)),
                                lam_im_exact=lam_im)

    def test_verdicts_match_reference(self):
        for n, q, k, lam_im in self.SLICE:
            p = self.params(n, Mode(float(q), 1, q), k, lam_im)
            pc = classify_pole(p)
            assert (pc.verdict.value, pc.case_id.value) == \
                reference_classify_pole(p), (n, q, k, lam_im)

    def test_kernel_refuses_exactly_genuine_poles(self):
        f = RadialProfile.bump()
        for n, q, k, lam_im in self.SLICE[::4]:
            mode = Mode(float(q), 1, q)
            p = self.params(n, mode, k, lam_im)
            s = s_param(n, mode).exact
            if lam_im is None and s is not None:  # a rational candidate
                lam_im = -(Fraction(1, 2) + k + s)
            try:
                if lam_im is None:  # a surd candidate is exact only in p
                    _KernelData(n, p)
                else:
                    exact_point(n, hypergeom_params(
                        n, mode, complex(0.0, float(lam_im)),
                        lam_im_exact=lam_im), f, 0.45)
                refused = False
            except PoleEvaluation:
                refused = True
            genuine = reference_classify_pole(p)[0] == "genuine_pole"
            assert refused == genuine, (n, q, k, lam_im)


@pytest.mark.usefixtures("cold_kernel")
class TestLatticeWorkCounts:
    """One kernel build makes the lattice decision once and never runs the
    classifier.  It calls ln_gamma once for each of b and C' = a + 1/2 off
    the lattice and once for 1+s, all for the one prefactor P, and once
    more for the DLMF 15.2.3 tail coefficient when C' is on it.  The
    prefactor in a, b and c made four calls, and six at c = -C."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = {"indices": 0, "classify": 0, "ln_gamma": 0}

        def counted(key, inner):
            def wrapper(*args, **kw):
                count[key] += 1
                return inner(*args, **kw)
            return wrapper

        monkeypatch.setattr(resolvent, "_lattice_indices",
                            counted("indices", resolvent._lattice_indices))
        for key, name, inner in (
                ("classify", "classify_pole", resonances.classify_pole),
                ("ln_gamma", "ln_gamma", specfun.ln_gamma)):
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("hypercone")
                        and getattr(mod, name, None) is inner):
                    monkeypatch.setattr(mod, name, counted(key, inner))
        return count

    # ln_gammas counts every call: those for b, C' and the tail
    # coefficient, and the one for 1+s
    @pytest.mark.parametrize("n,q,lam,lam_im,ln_gammas", [
        (2, None, 1 - 0.7j, None, 3),                 # off the lattice
        (2, Fraction(2), -2j, None, 2),               # b-removable, c = -3
        (1, Fraction(4), -1j, None, 3),               # c = -1 alone
        (1, Fraction(13, 4), -1.5j, Fraction(-3, 2), 3),  # c = -2, surd
        (1, Fraction(1, 9), -3.5j, None, 3),          # c = -6
        (3, Fraction(1, 4), -2.5j, None, 3),          # c = -4, surd
    ])
    def test_kernel_build(self, calls, n, q, lam, lam_im, ln_gammas):
        mode = Mode(2.0, 1) if q is None else Mode(float(q), 1, q)
        p = hypergeom_params(n, mode, lam, lam_im_exact=lam_im)
        _KernelData(n, p)
        assert calls == {"indices": 1, "classify": 0, "ln_gamma": ln_gammas}

    def test_entry_points(self, calls):
        # the three entry points at one (n, p) read one kernel (_kernel),
        # so the decision is made once, where each once made its own
        mode = Mode(2.0, 1, Fraction(2))
        f, g = RadialProfile.bump(0.3, 0.45), RadialProfile.bump(0.4, 0.55)
        apply_resolvent(2, mode, -2j, f, 0.4)
        residual_check(2, mode, -2j, f)
        green_pairing(2, mode, -2j, f, g)
        assert (calls["indices"], calls["classify"]) == (1, 0)


class TestKernelExpansions:
    """g1 and u2 read from continued Taylor expansions of the 2F1 ODE."""

    KERNELS = [(n, Mode(2.0, 1), lam) for n in (1, 2, 3, 4)
               for lam in (1 + 0.5j, 0.8 - 0.6j, 3j)]
    # every ladder of these kernels has ratio q = 3/4
    GRID = sorted(set([0.004 + 0.008 * k for k in range(125)]
                      + _ladder_points(0.75)))

    @pytest.mark.parametrize("n,mode,lam", KERNELS)
    def test_match_series_and_oracle(self, n, mode, lam):
        p = hypergeom_params(n, mode, lam)
        kd = _KernelData(n, p)
        assert kd.g1.q == kd.f2.q == 0.75
        t0 = kd.g1.seed(0.0)[0]
        c2 = 1 + p.s
        for i, x in enumerate(self.GRID):
            for got, series, oracle in (
                    (lambda x: kd.g1([x])[0],
                     lambda x: t0 * reference_gauss_series(p.a, p.b, p.c, x),
                     lambda x: t0 * oracle_hyp2f1(p.a, p.b, p.c, x)),
                    (lambda x: kd.u2([x])[0],
                     lambda x: reference_gauss_series(p.a, p.b, c2, 1 - x),
                     lambda x: oracle_hyp2f1(p.a, p.b, c2, 1 - x))):
                val = got(x)  # every point evaluates
                want = series(x)  # None where the series does not settle
                if want is not None:
                    assert abs(val - want) <= 1e-12 * abs(want)
                if want is None or i % 3 == 0:
                    ref = oracle(x)
                    assert abs(val - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("n,mode,lam", KERNELS[::4])
    def test_values_do_not_depend_on_earlier_points(self, n, mode, lam):
        p = hypergeom_params(n, mode, lam)
        warm = _KernelData(n, p)
        for x in reversed(self.GRID[::7]):
            warm.g1([x])
            warm.u2([x])
        for x in self.GRID[::11]:
            fresh = _KernelData(n, p)
            assert fresh.g1([x]) == warm.g1([x])
            assert fresh.u2([x]) == warm.u2([x])


@pytest.mark.usefixtures("cold_kernel")
class TestSeriesWorkCounts:
    """Series sums per call, counted at specfun's one term loop, which
    sums a seed's value and derivative in one pass.  Continuation makes
    13, 3 and 48, as series seeds at every anchor did, and 2 at
    lambda = 20+0.1i."""

    @pytest.fixture
    def sums(self, monkeypatch):
        count = [0]
        inner = specfun._sum_series

        def counting(*args, **kw):
            count[0] += 1
            return inner(*args, **kw)

        monkeypatch.setattr(specfun, "_sum_series", counting)
        return count

    def test_residual_check(self, sums):
        residual_check(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.6))
        assert 0 < sums[0] <= 13

    def test_green_pairing(self, sums):
        green_pairing(2, Mode(2.0, 1), 2j, RadialProfile.bump(0.3, 0.45),
                      RadialProfile.bump(0.4, 0.55))
        assert 0 < sums[0] <= 3

    def test_residue_probe(self, sums):
        residue_probe(2, Mode(2.0, 1), 0.7 + 0.9j)
        assert 0 < sums[0] <= 48

    def test_residue_probe_on_axis(self, sums):
        # 9 of 16 samples evaluated: 27 sums where the full circle takes 48
        residue_probe(2, Mode(2.0, 1), 0.9j)
        assert 0 < sums[0] <= 27

    def test_continuation_does_not_reseed(self, sums):
        # each kernel function is seeded once, value and derivative in one
        # sum; the anchors past the seed bounds, sigma = 0.71 for g1 (its
        # series in sech^2 r) and 0.012 for u2, are continued from it: 83
        # Taylor expansions here, 82 of them u2's
        apply_resolvent(2, Mode(2.0, 1), 20 + 0.1j,
                        RadialProfile.bump(0.3, 0.6), 0.2)
        assert 0 < sums[0] <= 2


@pytest.mark.usefixtures("cold_kernel")
class TestLadderWorkCounts:
    """Work in specfun._Ladder per call, counted by wrappers: Horner steps
    (one per coefficient of the expansion a point is read from), Taylor
    coefficients returned by _ode_taylor, 2F1 step ratios formed by the
    series term loop (the growth of the ratio list each sum reads), the
    terms of g1's series in zeta = sech^2 r summed for each point at or
    below its seed bound x0 (by its cut rule written out,
    _inline_quadratic_terms), and the terms of that series each g1
    formed.
    Anchors at the midpoints of their bands and one ratio list per seed
    took them from 8597, 221 and 466 to 7338, 182 and 143 for the residual
    check, and g1's seed in zeta the ratios to 104.  Reading g1 below x0
    from one list of its zeta-series terms per kernel leaves the ladder
    only the points above x0: Taylor coefficients fall to 99, ladder
    Horner steps to 3652 (and 2578 zeta terms), while the list, formed to
    roundoff at zeta0 = 0.3 in the term loop, took the ratios to 120.
    Formed only as far as the reads need, by its own recurrence, the list
    leaves the term loop the ratios of u2's seeds alone: 83 (and 24 zeta
    terms formed), with the same zeta terms summed.  The residue probes
    build a kernel per sample, so their seeds share less."""

    @pytest.fixture
    def work(self, monkeypatch):
        count = {"horner": 0, "taylor": 0, "ratios": 0, "zeta": 0,
                 "formed": 0}
        read, taylor, series = (specfun._Ladder.__call__,
                                specfun._ode_taylor, specfun._sum_series)
        formed = {}  # the terms t_1, t_2, ... each g1 ladder's seed formed

        def counted_read(ladder, xs, ds=None):
            out = read(ladder, xs, ds)
            if hasattr(ladder.seed, "terms"):
                formed[ladder] = len(ladder.seed.terms) - 1
                count["formed"] = sum(formed.values())
            for k, x in enumerate(xs):
                if x > ladder.reach:
                    key = reference_ladder_band(
                        ladder, x, None if ds is None else ds[k])
                    count["horner"] += len(ladder.expansions[key][2])
                else:  # g1's point read sums t_0 .. t_(k-1)
                    tau, _ = _inline_tau(ladder.a, ladder.b, x)
                    count["zeta"] += _inline_quadratic_terms(
                        ladder.a, ladder.b, tau)[1]
            return out

        def counted_taylor(*args):
            coeffs = taylor(*args)
            count["taylor"] += len(coeffs)
            return coeffs

        def counted_series(term, a, b, c, z, ratios=None, terms=None):
            ratios = [] if ratios is None else ratios
            known = len(ratios)
            out = series(term, a, b, c, z, ratios, terms)
            count["ratios"] += len(ratios) - known
            return out

        monkeypatch.setattr(specfun._Ladder, "__call__", counted_read)
        monkeypatch.setattr(specfun, "_ode_taylor", counted_taylor)
        monkeypatch.setattr(specfun, "_sum_series", counted_series)
        return count

    def check(self, count, horner, taylor, ratios, zeta, formed):
        assert 0 < count["horner"] <= horner
        assert 0 < count["taylor"] <= taylor
        assert 0 < count["ratios"] <= ratios
        assert 0 < count["zeta"] <= zeta
        assert 0 < count["formed"] <= formed

    def test_residual_check(self, work):
        residual_check(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.6))
        # 7338, 182 and 104 with g1's seeded leaves
        self.check(work, 3652, 99, 83, 2578, 24)

    def test_green_pairing(self, work):
        green_pairing(2, Mode(2.0, 1), 2j, RadialProfile.bump(0.3, 0.45),
                      RadialProfile.bump(0.4, 0.55))
        # 4487, 91 and 177 before; 4325, 94 and 92 with g1's seeded leaves
        self.check(work, 2739, 51, 70, 910, 18)

    def test_symmetric_green_pair(self, work):
        # the swapped orientation reads the kernel the first one built: it
        # forms no Taylor coefficient and no step ratio of its own, where
        # a kernel per call made 188 and 264 for the pair.  With g1's
        # seeded leaves the pair formed 94 and 92; g1 read from its list
        # of zeta-series terms below x0 builds no expansion of its own
        f, g = RadialProfile.bump(0.3, 0.45), RadialProfile.bump(0.4, 0.55)
        green_pairing(2, Mode(2.0, 1), 2j, f, g)
        one = dict(work)
        green_pairing(2, Mode(2.0, 1), 2j, g, f)
        assert (one["taylor"], one["ratios"], one["formed"]) == (51, 70, 18)
        assert (work["taylor"], work["ratios"], work["formed"]) == (51, 70, 18)
        assert work["horner"] > one["horner"]
        assert work["zeta"] > one["zeta"]

    def test_residue_probe(self, work):
        residue_probe(2, Mode(2.0, 1), 0.7 + 0.9j)
        # 21996, 1270 and 2674 before; 19116, 1110 and 1346 with g1's
        # seeded leaves
        self.check(work, 8172, 454, 994, 7184, 288)

    def test_residue_probe_on_axis(self, work):
        residue_probe(2, Mode(2.0, 1), 0.9j)
        # 12456, 720 and 1503 before; 10836, 630 and 756 with g1's seeded
        # leaves
        self.check(work, 4536, 252, 558, 4041, 162)


class TestSharedStepRatios:
    """A ladder's series seed reads and extends one list of step ratios,
    and at every seeded anchor it returns the bits of a fresh term loop:
    u2's in 1 - sigma, g1's in zeta (_inline_quadratic_seed).  g1 reads
    every point at or below x0 from its series, so its only seeded anchor
    on this grid is the one its climb above x0 starts from."""

    @pytest.mark.parametrize("n,mode,lam", TestStepRatioCache.KERNELS)
    def test_seeds_at_anchors(self, n, mode, lam):
        p = hypergeom_params(n, mode, lam)
        kd = _KernelData(n, p)
        a, b, c2 = complex(p.a), complex(p.b), complex(1.0 + p.s)
        for ladder, fresh, least in (
                (kd.g1, lambda z: _inline_quadratic_seed(p, z), 1),
                (kd.f2, lambda z: specfun._sum_series(1.0 + 0.0j, a, b, c2,
                                                      z), 2)):
            ladder([0.004 + 0.008 * k for k in range(125)])
            seeded = [key for key in ladder.expansions if ladder._seeded(key)]
            assert len(seeded) >= least
            for key in seeded:
                m = ladder.expansions[key][0]
                z = m if key >= 0 else 1.0 - m
                assert ladder.seed(z) == fresh(z), key


class TestKernelCorner:
    """g1, u2 and public u1 where |Re lambda| is large and Im lambda < 0,
    against oracle_kernel_functions at 30 digits, 0 misses of 1e-10
    (ROADMAP items 13 and 18).  The sigma-series seed bound of g1 and u1
    is about 4/|lambda|, and the climb from it toward sigma = 1 runs
    against the growing second solution: it missed 1e-10 in g1 or u2 on
    15 to 19 of 60 corner draws, and in u1 on 20, worst 1.1e-8, with no
    error raised.  The series in zeta = sech^2 r starts the climb at
    sigma = 0.6 to 0.7.

    Samplers, 60 draws per seed:
    - item 13's corner (seeds 5 and 31): n in 1..4, mu^2 in [0, 9],
      |Re lambda| in [20, 40] of either sign, Im lambda in [-3, -2],
      sigma in [0.85, 0.999];
    - item 18's integer s (seeds 5 and 6): as the corner, but n = 1 with
      mu^2 = m^2 or n = 3 with mu^2 = j(j+2), m and j in 0..6, exact mu^2,
      each with probability 1/2;
    - the wide sample (seed 8): n in 1..4, mu^2 in [0, 9],
      |Re lambda| <= 40, |Im lambda| <= 3, sigma in [0.5, 0.999]."""

    @staticmethod
    def corner_lambda(rng):
        return complex(rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 40.0),
                       rng.uniform(-3.0, -2.0))

    def item_13(self, rng):
        n, mu_sq = rng.randint(1, 4), rng.uniform(0.0, 9.0)
        return (n, Mode(mu_sq, 1), mu_sq, self.corner_lambda(rng),
                rng.uniform(0.85, 0.999))

    def item_18(self, rng):
        if rng.random() < 0.5:
            n, q = 1, rng.randint(0, 6) ** 2
        else:
            j = rng.randint(0, 6)
            n, q = 3, j * (j + 2)
        return (n, Mode(float(q), 1, Fraction(q)), q, self.corner_lambda(rng),
                rng.uniform(0.85, 0.999))

    @staticmethod
    def wide(rng):
        n, mu_sq = rng.randint(1, 4), rng.uniform(0.0, 9.0)
        lam = complex(rng.uniform(-40.0, 40.0), rng.uniform(-3.0, 3.0))
        return n, Mode(mu_sq, 1), mu_sq, lam, rng.uniform(0.5, 0.999)

    @pytest.mark.parametrize("sampler,seed", [
        ("item_13", 5), ("item_13", 31), ("item_18", 5), ("item_18", 6),
        ("wide", 8)])
    def test_no_misses(self, sampler, seed):
        rng = random.Random(seed)
        draw = getattr(self, sampler)
        misses = []
        for _ in range(60):
            n, mode, mu_sq, lam, x = draw(rng)
            p = hypergeom_params(n, mode, lam)
            kd = _KernelData(n, p)
            got = (u1(p, x), kd.u2([x])[0], kd.g1([x])[0])
            want = oracle_kernel_functions(n, mu_sq, lam, x)
            err = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            if not err <= 1e-10:
                misses.append((n, mu_sq, lam, x, err))
        assert misses == []


class TestG1Series:
    """Off the exact lattice g1 at every z <= x0 is read from one list of
    the terms of its series in zeta = sech^2 r (_quadratic_seed's point),
    grown as far as the reads need, each point cut off by a rule of its
    own: a value depends only on its point, whatever was read before,
    meets the ladder's continuation at x0, and matches 30-digit mpmath to
    1e-12."""

    KERNELS = TestStepRatioCache.KERNELS + [
        (1, Mode(4.0, 1, Fraction(4)), -25 - 2.5j),   # integer s = 2
        (3, Mode(3e2, 1), 35 + 2.9j)]

    @staticmethod
    def hexes(values):
        return [(v.real.hex(), v.imag.hex()) for v in values]

    @pytest.mark.parametrize("n,mode,lam", KERNELS)
    def test_value_depends_only_on_its_point(self, n, mode, lam):
        kd = _KernelData(n, hypergeom_params(n, mode, lam))
        x0 = kd.g1.x0
        rng = random.Random(35)
        xs = ([rng.uniform(0.0, x0) for _ in range(40)]
              + [1e-300, 1e-8, math.nextafter(x0, 0.0), x0])
        assert kd.g1.reach == x0 and kd.g1.point is kd.g1.seed.point
        scalar = self.hexes(kd.g1([x])[0] for x in xs)
        assert self.hexes(kd.g1(xs)) == scalar
        assert self.hexes(kd.g1(xs[::-1])) == scalar[::-1]
        twice = [x for x in xs for _ in range(2)]
        assert self.hexes(kd.g1(twice)) == [h for h in scalar for _ in (0, 1)]
        fresh = _KernelData(n, hypergeom_params(n, mode, lam))
        assert self.hexes(fresh.g1(xs[::-1])) == scalar[::-1]
        assert kd.g1.expansions == fresh.g1.expansions == {}
        # read history: a small tau, then x0 and the next double up, which
        # grow the term list and start the climb above x0, then the small
        # tau again, against a fresh kernel that reads the small tau alone
        small = [0.05]
        grown = _KernelData(n, hypergeom_params(n, mode, lam))
        first = self.hexes(grown.g1(small))
        formed = len(grown.g1.seed.terms)
        grown.g1([x0, math.nextafter(x0, 1.0)])
        assert len(grown.g1.seed.terms) > formed and grown.g1.expansions
        alone = _KernelData(n, hypergeom_params(n, mode, lam))
        assert self.hexes(grown.g1(small)) == first == self.hexes(
            alone.g1(small))

    @pytest.mark.parametrize("n,mode,lam", KERNELS)
    def test_continuous_across_x0(self, n, mode, lam):
        # x0 is read from the series, the next double up from the
        # expansion its climb starts with, seeded from the same list
        kd = _KernelData(n, hypergeom_params(n, mode, lam))
        x0 = kd.g1.x0
        below, above = kd.g1([x0, math.nextafter(x0, 1.0)])
        assert kd.g1.expansions
        assert abs(above - below) <= 1e-13 * abs(below)

    @staticmethod
    def draw(rng):
        # n in 1..4 with mu^2 in [0, 9], or an integer s (n = 1 with
        # mu^2 = m^2, n = 3 with mu^2 = j(j+2)) with probability 1/3
        if rng.random() < 1 / 3:
            if rng.random() < 0.5:
                n, q = 1, rng.randint(0, 6) ** 2
            else:
                j = rng.randint(0, 6)
                n, q = 3, j * (j + 2)
            mode, mu_sq = Mode(float(q), 1, Fraction(q)), q
        else:
            n, mu_sq = rng.randint(1, 4), rng.uniform(0.0, 9.0)
            mode = Mode(mu_sq, 1)
        lam = complex(rng.uniform(-40.0, 40.0), rng.uniform(-3.0, 3.0))
        return n, mode, mu_sq, lam

    @pytest.mark.parametrize("seed", [5, 31])
    def test_sweep_against_oracle(self, seed):
        rng = random.Random(seed)
        misses = []
        for _ in range(450):
            n, mode, mu_sq, lam = self.draw(rng)
            kd = _KernelData(n, hypergeom_params(n, mode, lam))
            x = rng.uniform(0.005, kd.g1.x0)
            got = kd.g1([x])[0]
            want = oracle_kernel_functions(n, mu_sq, lam, x)[2]
            err = abs(got - want) / abs(want)
            if not err <= 1e-12:
                misses.append((n, mu_sq, lam, x, err))
        assert misses == []


@pytest.mark.usefixtures("cold_kernel")
class TestG1SeriesWorkCounts:
    """A probe sample at the default profile (bump(0.3, 0.6), sigma0 =
    0.45) reads g1 only on [0.3, 0.45], below every x0 (0.62 to 0.71), so
    each kernel forms the terms of its series in zeta only as far as
    roundoff at sigma = 0.45 needs, by its own recurrence, and nothing
    else for g1: no Taylor expansion and no series pass.  That is the
    terms the read at 0.45 sums and the two past them that close its cut;
    a list formed to roundoff at zeta0 held 39 terms on average.
    Exact-lattice kernels form their one list whole, the head and the tail
    of the series in zeta."""

    @pytest.fixture
    def calls(self, monkeypatch):
        built, taylor, series = [], [], []
        init, ode, term_loop = (_KernelData.__init__, specfun._ode_taylor,
                                specfun._sum_series)

        def counted_init(kd, n, p):
            init(kd, n, p)
            built.append(kd)

        def counted_ode(a, b, c, *rest):
            taylor.append((a, b, c))
            return ode(a, b, c, *rest)

        def counted_series(term, a, b, c, z, ratios=None, terms=None):
            series.append(((a, b, c), terms is not None))
            return term_loop(term, a, b, c, z, ratios, terms)

        monkeypatch.setattr(_KernelData, "__init__", counted_init)
        monkeypatch.setattr(specfun, "_ode_taylor", counted_ode)
        monkeypatch.setattr(specfun, "_sum_series", counted_series)
        return built, taylor, series

    @pytest.mark.parametrize("n,mode,lam0,samples", [
        (2, Mode(2.0, 1), 0.7 + 0.9j, 16), (1, Mode(0.0, 1), 0.5j, 9),
        (3, Mode(8.0, 1), -1.2 - 0.4j, 16)])
    def test_default_probe(self, calls, n, mode, lam0, samples):
        built, taylor, series = calls
        residue_probe(n, mode, lam0)
        assert len(built) == samples
        for kd in built:
            g1 = kd.g1
            assert g1.reach == g1.x0 > 0.45 and g1.expansions == {}
            assert (g1.a, g1.b, g1.c) not in taylor
            _, zeta_params = _inline_quadratic_params(g1.a, g1.b)
            assert zeta_params not in [params for params, _ in series]
            tau, _ = _inline_tau(g1.a, g1.b, 0.45)
            needed, _ = _inline_quadratic_terms(g1.a, g1.b, tau)
            assert g1.seed.terms == needed and len(needed) < 39
        assert taylor  # u2 keeps its ladder

    def test_exact_lattice_kernel(self, calls):
        # c = -3: the tail F(b/2 + 2, b/2 + 5/2; 3; zeta) is the one list
        built, taylor, series = calls
        p = hypergeom_params(1, Mode(1 / 9, 1, Fraction(1, 9)), -2j,
                             lam_im_exact=Fraction(-2))
        kd = resolvent._kernel(1, p)
        assert built == [kd] and kd.g1.reach == kd.g1.x0 > 0.45
        kd.g1([0.05, 0.3, 0.45])
        assert kd.g1.expansions == {}
        assert (kd.g1.a, kd.g1.b, kd.g1.c) not in taylor
        tail = (0.5 * kd.g1.b + 2, 0.5 * kd.g1.b + 2.5, 3.0)
        assert [listed for params, listed in series
                if params == tail] == [True]


class TestLargeModeRange:
    """From mu^2 = 3e4, u1 near sigma = 1 (~ (1 - sigma)^(-s)) leaves the
    double range.  The continuation refuses a non-finite value or
    derivative handed on from an edge with DomainError; it used to run the
    next Taylor expansion on nan coefficients to its term budget and raise
    NoConvergence."""

    @pytest.mark.parametrize("mu_sq", [3e4, 1e5, 1e6])
    def test_u1_past_the_double_range(self, mu_sq):
        p = hypergeom_params(2, Mode(mu_sq, 1), 1 + 0.5j)
        assert cmath.isfinite(u1(p, 0.45))
        with pytest.raises(DomainError, match="exceeds the double range"):
            u1(p, 0.999)


class TestNearEndDomain:
    """Narrow sources near sigma = 0 and 1: every centre evaluates, and the
    centres the per-anchor series seeds once refused match the oracle."""

    CENTRES = ([k / 1000 for k in range(2, 11)]
               + [k / 1000 for k in range(990, 999)])
    LAMS = [1 - 0.7j, 0.7 + 0.9j, -2.5 - 1.1j, 3j]

    @staticmethod
    def formerly_refused(n, lam, centre):
        return (centre in (0.002, 0.003, 0.998)
                or (n == 3 and centre == 0.997)
                or (lam == 3j and centre == 0.004))

    @pytest.mark.parametrize("n,mu_sq", [(1, 0.0), (3, 8.0)])
    @pytest.mark.parametrize("lam", LAMS)
    def test_scan(self, n, mu_sq, lam):
        for centre in self.CENTRES:
            lo, hi = centre - 1e-3, centre + 1e-3
            got = apply_resolvent(n, Mode(mu_sq, 1), lam,
                                  RadialProfile.bump(lo, hi), centre)
            assert cmath.isfinite(got)
            if self.formerly_refused(n, lam, centre):
                # 15 digits agree with the 30-digit oracle to 4e-15 here
                want = oracle_apply_resolvent(
                    n, mu_sq, lam, _mp_bump(lo, hi), lo, hi, centre, dps=15)
                assert abs(got - want) <= 1e-8 * abs(want)


class TestResidualCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.45, 0.0)], ids=repr)
    def test_grid_point_must_be_finite_real(self, bad):
        # NaN fails every ordering test, so it once passed them all and
        # left a nan among the residuals
        f = RadialProfile.bump(0.3, 0.6)
        for coordinate in ("sigma", "r"):
            with pytest.raises(ValidationError,
                               match="grid point must be a real in"):
                residual_check(1, Mode(1.0, 1), 3j, f, grid=[0.3, bad, 0.6],
                               coordinate=coordinate)

    def test_zero_source_zero_residual(self):
        zero = RadialProfile(lambda s: 0.0, (0.3, 0.6))
        rep = residual_check(1, Mode(1.0, 1), 2j, zero,
                             grid=[0.2, 0.45, 0.7])
        assert rep.max_residual == 0.0

    def test_bump_residual_small(self):
        f = RadialProfile.bump(0.3, 0.6)
        rep = residual_check(1, Mode(1.0, 1), 3j, f,
                             grid=[0.2, 0.35, 0.5, 0.65, 0.8])
        assert rep.max_residual <= 1e-6
        assert rep.coordinate == "sigma"
        assert len(rep.residuals) == len(rep.grid) == 5
        # normalization is 1 + max |f| over the grid (peak sits off-grid)
        assert rep.normalization == pytest.approx(1.0 + f(0.5), rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
    def test_large_mode_within_acceptance(self):
        # ACCEPTANCE 3's bound at mu^2 = 3e4, where the check misreports
        # while apply_resolvent's values are right: it reads 2.17e4
        rep = residual_check(3, Mode(3e4, 1), 1.93 + 2.14j,
                             RadialProfile.bump(0.3, 0.6))
        assert rep.max_residual <= 1e-5

    def test_residual_at_exact_removable_point(self):
        # the lattice seed's terms vanish between the b and c indices
        # (k = 1..3 here), and the tail from k = 4 carries the rest
        f = RadialProfile.bump(0.3, 0.6)
        rep = residual_check(2, Mode(2.0, 1, Fraction(2)), -2j, f,
                             grid=[0.2, 0.35, 0.5, 0.65, 0.8])
        assert rep.max_residual <= 1e-5

    def test_r_coordinate_route(self):
        f = RadialProfile.bump(0.3, 0.6)
        rep = residual_check(1, Mode(1.0, 1), 3j, f,
                             grid=[0.25, 0.45, 0.65], coordinate="r")
        assert rep.coordinate == "r"
        assert rep.max_residual <= 1e-5

    def test_validation(self):
        f = RadialProfile.bump()
        with pytest.raises(ValidationError, match="strictly increasing"):
            residual_check(1, Mode(1.0, 1), 2j, f, grid=[0.4, 0.3])
        with pytest.raises(ValidationError):
            residual_check(1, Mode(1.0, 1), 2j, f, grid=[0.4, 0.405],
                           h=1e-3)
        with pytest.raises(ValidationError):
            residual_check(1, Mode(1.0, 1), 2j, f, grid=[0.3, 0.5], h=0.05)
        with pytest.raises(ValidationError):
            residual_check(1, Mode(1.0, 1), 2j, f, grid=[0.3, 0.5],
                           coordinate="rho")
        with pytest.raises(ValidationError):
            residual_check(1, Mode(1.0, 1), 2j, f, grid=[1e-4, 0.5])

    @pytest.mark.parametrize("coordinate", ["sigma", "r"])
    @pytest.mark.parametrize("grid", [[0.5, 1.0], [0.5, 0.9999999]])
    def test_grid_out_of_range_refused_first(self, monkeypatch, grid,
                                             coordinate):
        # in r, a stencil point past sigma = 1 once reached sigma_of_r and
        # raised a DomainError naming r = -0.002 after the kernel was built
        def no_kernel(*args):
            raise AssertionError("built a kernel")

        monkeypatch.setattr(resolvent, "_KernelData", no_kernel)
        with pytest.raises(ValidationError, match="grid"):
            residual_check(1, Mode(1.0, 1), 3j, RadialProfile.bump(),
                           grid=grid, coordinate=coordinate)

    def test_empty_grid(self):
        with pytest.raises(ValidationError, match="at least one point"):
            residual_check(1, Mode(1.0, 1), 2j, RadialProfile.bump(), grid=[])

    def test_stencil_cross_check_and_sensitivity(self):
        """Rebuild the residual at one point with an independent stencil on
        apply_resolvent values; a small additive perturbation of the
        candidate solution must push the residual back up."""
        n, mu_sq, lam = 1, 1.0, 3j
        f = RadialProfile.bump(0.3, 0.6)
        x, h = 0.45, 1e-3
        vals = [apply_resolvent(n, Mode(mu_sq, 1), lam, f, x + j * h,
                                control=_TIGHT) for j in (-2, -1, 0, 1, 2)]

        def operator(st):
            d2 = (-st[0] + 16 * st[1] - 30 * st[2] + 16 * st[3]
                  - st[4]) / (12 * h * h)
            d1 = (st[0] - 8 * st[1] + 8 * st[3] - st[4]) / (12 * h)
            shift = lam * lam + 0.25 * n * n
            return (-x * x * (1 - x) * d2 + x * ((n - 1) + (3 - n) * x / 2) * d1
                    + (mu_sq * x * x / (4 * (1 - x)) - shift) * st[2])

        assert abs(operator(vals) - f(x)) <= 2e-5
        # perturb by 1e-3 * sigma(1 - sigma): the residual must see it
        pert = [v + 1e-3 * (x + j * h) * (1 - (x + j * h))
                for v, j in zip(vals, (-2, -1, 0, 1, 2))]
        assert abs(operator(pert) - f(x)) > 1e-4


def _simpson_pairing(n, mode, lam, f, g):
    # composite Simpson rule on 4097 nodes for <R f, g> on the support of g,
    # reading R f from one _resolvent span under green_pairing's default
    # control; its own error is about 4e-14 relative on the cases below
    kd = _KernelData(n, hypergeom_params(n, mode, lam))
    lo, hi = g.support
    rf, _ = _resolvent(kd, f, lo, hi, _GRID_QC)
    step = (hi - lo) / 4096
    xs = [lo + i * step for i in range(4097)]
    xs[-1] = hi
    ys = [v * g(x) * measure_density(n, x) for x, v in zip(xs, rf(xs))]
    total = ys[0] + ys[-1] + 4.0 * sum(ys[1:-1:2]) + 2.0 * sum(ys[2:-2:2])
    return total * step / 3.0


class TestGreenPairing:
    def test_symmetry(self):
        f = RadialProfile.bump(0.25, 0.5)
        g = RadialProfile.bump(0.55, 0.8)
        ab = green_pairing(2, Mode(2.0, 1), 2.5j, f, g)
        ba = green_pairing(2, Mode(2.0, 1), 2.5j, g, f)
        scale = max(abs(ab), abs(ba), 1e-30)
        assert abs(ab - ba) / scale <= 1e-7

    @pytest.mark.parametrize("n,mu_sq,lam,f_sup,g_sup", [
        (2, 2.0, 1 - 1.1j, (0.3, 0.45), (0.41, 0.56)),    # f's hi inside g
        (1, 1.0, 3j, (0.45, 0.6), (0.34, 0.49)),          # f's lo inside g
        (3, 8.0, -0.8 - 1.1j, (0.2, 0.35), (0.5, 0.7)),   # disjoint
        (2, 6.0, 3j, (0.6, 0.75), (0.25, 0.4)),           # disjoint, f above
        (4, 3.0, 0.5 + 2j, (0.2, 0.7), (0.35, 0.5)),      # f contains g
    ])
    def test_matches_fine_simpson_rule(self, n, mu_sq, lam, f_sup, g_sup):
        mode = Mode(mu_sq, 1)
        f, g = RadialProfile.bump(*f_sup), RadialProfile.bump(*g_sup)
        got = green_pairing(n, mode, lam, f, g)
        want = _simpson_pairing(n, mode, lam, f, g)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("lam", [1 - 1.1j, 3j, -2.5 + 0.5j])
    def test_symmetry_to_roundoff(self, lam):
        mode = Mode(2.0, 1)
        f, g = RadialProfile.bump(0.3, 0.45), RadialProfile.bump(0.41, 0.56)
        ab = green_pairing(2, mode, lam, f, g)
        ba = green_pairing(2, mode, lam, g, f)
        assert abs(ab - ba) <= 1e-12 * max(abs(ab), abs(ba))

    def test_outer_evaluation_budget(self, monkeypatch):
        # the outer integral is the cumulative_integral given breaks: two
        # degree-32 panels (66 evaluations) on this overlap, against the
        # 257 fixed Simpson nodes it replaced
        outer, runs = [], []

        def counting(func, a, b, **kw):
            if "breaks" not in kw:
                return quadrature.cumulative_integral(func, a, b, **kw)

            def counted(xs):
                outer.extend(xs)
                return func(xs)
            runs.append(quadrature.cumulative_integral(counted, a, b, **kw))
            return runs[-1]

        monkeypatch.setattr(resolvent, "cumulative_integral", counting)
        green_pairing(2, Mode(2.0, 1), 1 - 0.7j, RadialProfile.bump(0.3, 0.45),
                      RadialProfile.bump(0.41, 0.56))
        assert len(outer) == 66
        # only the total of the outer integral is read
        assert runs[-1]._series == [None, None]

    def test_unresolved_outer_integrand_raises(self):
        # a pairing profile with an inverse square root singularity inside
        # its support defeats every panel; the outer rule refuses instead
        # of returning what the fixed Simpson nodes happened to sample
        f = RadialProfile.bump(0.3, 0.45)
        g = RadialProfile(lambda x: abs(x - 1 / math.e) ** -0.5, (0.3, 0.45))
        with pytest.raises(QuadratureFailure):
            green_pairing(2, Mode(2.0, 1), 2j, f, g)


@pytest.mark.usefixtures("cold_kernel")
class TestKernelSlot:
    """resolvent._kernel keeps the kernel it built last and returns it for
    an equal (n, p): a symmetric Green pair builds one kernel, and a kernel
    read again, or one built fresh for an unequal key, gives the bits of a
    run with the slot emptied."""

    @pytest.fixture
    def built(self, monkeypatch):
        kernels = []

        class Counted(_KernelData):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr(resolvent, "_KernelData", Counted)
        return kernels

    @staticmethod
    def cold(fn, *args, **kw):
        resolvent._slot = threading.local()
        return fn(*args, **kw)

    @pytest.mark.parametrize("lam", [2j, 1 - 1.1j, -0.8 - 1.1j])
    def test_symmetric_pair_builds_one_kernel(self, built, lam):
        mode = Mode(2.0, 1)
        f, g = RadialProfile.bump(0.3, 0.45), RadialProfile.bump(0.41, 0.56)
        ab = green_pairing(2, mode, lam, f, g)
        ba = green_pairing(2, mode, lam, g, f)
        assert len(built) == 1
        assert self.cold(green_pairing, 2, mode, lam, g, f) == ba
        assert self.cold(green_pairing, 2, mode, lam, f, g) == ab
        assert len(built) == 3

    def test_entry_points_read_one_kernel(self, built):
        n, mode, lam = 2, Mode(2.0, 1), 1 - 0.7j
        f = RadialProfile.bump(0.3, 0.6)
        rep = residual_check(n, mode, lam, f)
        val = apply_resolvent(n, mode, lam, f, 0.45)
        assert len(built) == 1
        assert self.cold(apply_resolvent, n, mode, lam, f, 0.45) == val
        assert self.cold(residual_check, n, mode, lam, f) == rep
        p = hypergeom_params(n, mode, lam)
        assert resolvent._kernel(n, p) is built[-1]

    def test_threads_do_not_share_a_kernel(self, built):
        p = hypergeom_params(2, Mode(2.0, 1), 1 - 0.7j)
        mine, theirs = resolvent._kernel(2, p), []
        worker = threading.Thread(
            target=lambda: theirs.append(resolvent._kernel(2, p)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert theirs[0] is not mine
        assert resolvent._kernel(2, p) is mine
        assert len(built) == 2

    # (n, mode, lambda, lam_im_exact) pairs whose kernels differ
    UNEQUAL = {
        # equal parameters (s = 3/2 both), different n
        "n": ((1, Mode(2.25, 1), 1 - 0.7j, None),
              (2, Mode(2.0, 1), 1 - 0.7j, None)),
        "lam_im_exact": ((1, Mode(1 / 9, 1, Fraction(1, 9)), -1j / 3,
                          Fraction(-1, 3)),
                         (1, Mode(1 / 9, 1, Fraction(1, 9)), -1j / 3, None)),
        "signed_zero_up": ((2, Mode(2.0, 1), complex(0.0, 1.3), None),
                           (2, Mode(2.0, 1), complex(-0.0, 1.3), None)),
        "signed_zero_down": ((2, Mode(2.0, 1), complex(0.0, -1.3), None),
                             (2, Mode(2.0, 1), complex(-0.0, -1.3), None)),
    }

    @pytest.mark.parametrize("key", sorted(UNEQUAL))
    def test_unequal_keys_build_fresh(self, built, key):
        f = RadialProfile.bump(0.3, 0.6)

        def value(n, mode, lam, lam_im):
            if lam_im is None:
                return apply_resolvent(n, mode, lam, f, 0.45)
            return exact_point(n, hypergeom_params(n, mode, lam,
                                                   lam_im_exact=lam_im),
                               f, 0.45)

        first, second = self.UNEQUAL[key]
        for a, b in ((first, second), (second, first)):
            want = self.cold(value, *b)
            value(*a)
            del built[:]
            assert value(*b) == want
            assert len(built) == 1
        if key == "n":
            assert (hypergeom_params(*first[:3])
                    == hypergeom_params(*second[:3]))
        if key.startswith("signed_zero"):
            # lambda compares equal; its sign of zero reaches the messages
            assert first[2] == second[2]
            p = hypergeom_params(*second[:3])
            assert repr(resolvent._kernel(2, p).p.lam) == repr(second[2])


class TestResidueProbe:
    def test_genuine_pole_detected(self):
        res = residue_probe(1, Mode(0.0, 1, Fraction(0)), -0.5j)
        assert res.is_pole
        assert res.ratio >= 1e-5
        assert res.lam0 == -0.5j and res.points == 16

    def test_removable_point_clean(self):
        res = residue_probe(2, Mode(2.0, 1, Fraction(2)), -2j)
        assert not res.is_pole
        assert res.ratio <= 1e-7

    def test_non_candidate_regular(self):
        res = residue_probe(1, Mode(0.0, 1, Fraction(0)), -1j)
        assert not res.is_pole

    def test_inconclusive_on_vanishing_samples(self):
        zero = RadialProfile(lambda s: 0.0, (0.3, 0.6))
        with pytest.raises(ProbeInconclusive):
            residue_probe(1, Mode(1.0, 1), -1.5j, profile=zero)

    @pytest.mark.parametrize("n,mode,lam0", [
        (1, Mode(0.0, 1, Fraction(0)), -0.5j),                 # genuine
        (3, Mode(0.0, 1, Fraction(0)), -1.5j),                 # genuine
        (3, Mode(1.0, 1), -(1.5 + math.sqrt(2)) * 1j),         # genuine, surd s
        (1, Mode(2.0, 1), -(0.5 + math.sqrt(2)) * 1j),         # genuine, surd s
        (2, Mode(2.0, 1, Fraction(2)), -2j),                   # removable
        (1, Mode(0.0, 1, Fraction(0)), -1j),                   # regular
        (1, Mode(2.0, 1), -1.2j),                              # regular, surd s
    ])
    def test_mirrored_probe_equals_full_circle(self, n, mode, lam0):
        res = residue_probe(n, mode, lam0)
        residue, max_abs, is_pole = _full_circle(n, mode, lam0)
        assert abs(res.max_abs_sample - max_abs) <= 1e-14 * max_abs
        assert res.is_pole == is_pole
        if is_pole:
            assert abs(res.residue - residue) <= 1e-13 * abs(residue)
            # a real f gives a residue i * (real) on the imaginary axis
            assert abs(res.residue.real) <= 1e-12 * abs(res.residue)

    @pytest.fixture
    def builds(self, monkeypatch, cold_kernel):
        count = [0]

        class Counted(_KernelData):
            def __init__(self, *args):
                count[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(resolvent, "_KernelData", Counted)
        return count

    def test_on_axis_builds_nine_kernels(self, builds):
        residue_probe(1, Mode(0.0, 1, Fraction(0)), -0.5j)
        assert builds[0] == 9

    def test_off_axis_builds_every_kernel(self, builds):
        residue_probe(2, Mode(2.0, 1), 0.7 + 0.9j)
        assert builds[0] == 16

    def test_odd_points_build_every_kernel(self, builds):
        residue_probe(1, Mode(0.0, 1, Fraction(0)), -0.5j, points=9)
        assert builds[0] == 9
        builds[0] = 0
        residue_probe(1, Mode(0.0, 1, Fraction(0)), -0.5j, points=11)
        assert builds[0] == 11

    def test_complex_profile_builds_every_kernel(self, builds):
        bump = RadialProfile.bump()
        f = RadialProfile(lambda x: (1 + 1j) * bump(x), bump.support)
        n, mode, lam0 = 1, Mode(0.0, 1, Fraction(0)), -0.5j
        res = residue_probe(n, mode, lam0, profile=f)
        assert builds[0] == 16
        residue, max_abs, is_pole = _full_circle(n, mode, lam0, f)
        assert res.is_pole and is_pole
        assert abs(res.max_abs_sample - max_abs) <= 1e-14 * max_abs
        assert abs(res.residue - residue) <= 1e-13 * abs(residue)

    def test_validation(self):
        with pytest.raises(ValidationError):
            residue_probe(1, Mode(1.0, 1), -1j, radius=0.5)
        with pytest.raises(ValidationError):
            residue_probe(1, Mode(1.0, 1), -1j, points=4)
        with pytest.raises(ValidationError):
            residue_probe(1, Mode(1.0, 1), -1j, threshold=0.0)

    def test_non_finite_threshold_refused(self):
        # at this genuine pole an infinite threshold once read the ratio
        # 9.6e-3 as regular, with no error
        mode = Mode(1.0, 1)
        assert residue_probe(1, mode, -1.5j).is_pole
        for bad in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="threshold"):
                residue_probe(1, mode, -1.5j, threshold=bad)

    @pytest.mark.parametrize("points", [16.0, "16", True, None])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(ValidationError, match="points"):
            residue_probe(1, Mode(1.0, 1), -1j, points=points)


def _full_circle(n, mode, lam0, f=None, points=16, radius=1e-2,
                 sigma0=0.45):
    """(residue, max |sample|, is_pole) from all points resolvent calls at
    the nominal circle points, with residue_probe's default verdict."""
    f = f if f is not None else RadialProfile.bump()
    phases = [cmath.exp(2j * math.pi * m / points) for m in range(points)]
    us = [apply_resolvent(n, mode, lam0 + radius * ph, f, sigma0)
          for ph in phases]
    residue = sum(u * ph for u, ph in zip(us, phases)) * radius / points
    max_abs = max(abs(u) for u in us)
    ratio = abs(residue) / max_abs
    assert ratio >= 1e-5 or ratio <= 1e-7
    return residue, max_abs, ratio >= 1e-5
