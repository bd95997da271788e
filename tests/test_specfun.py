"""Log-Gamma and hypergeometric function tests.

Expected values are closed forms, or constants frozen from the independent
oracles in tests/oracles.py (each carries the producing call in a comment).
Batteries at the end compare against mpmath live.
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from hypercone import (
    DomainError,
    HyperconeError,
    LowerParameterPole,
    NoConvergence,
    PoleAtNonPositiveInteger,
    hyp2f1,
    hyp2f1_regularized,
    ln_gamma,
)

from hypercone import specfun

from oracles import (
    OracleDisagreement,
    exp_equal,
    oracle_hyp2f1,
    oracle_hyp2f1_terms,
    oracle_ln_gamma,
    oracle_pochhammer,
    oracle_reg_2f1,
    oracle_reg_hyp2f1,
)

# oracle_ln_gamma(0.5 + 1.0j, dps=40)
LN_GAMMA_HALF_PLUS_I = complex(-0.6527906442043729, -0.9550077243425691)
# oracle_reg_2f1(0.5, 1.5, -2, 0.1, dps=30); independently reproduced by the
# shifted-parameter form (a)_3 (b)_3 z^3 / 3! * F(a+3, b+3; 4; z).
REG_HALF_THREEHALF_M2 = 0.006212058128127211
# oracle_hyp2f1_terms(0.5+3j, 0.5-3j, -50.3+0.2j, 0.6), and mp.hyp2f1 at 30
# digits: the terms fall below roundoff at k = 18 and grow back to 1.7e11
# at k = 125
F_C_MINUS_50 = complex(-5651319105704.297, -1767315752397.7559)
# oracle_hyp2f1_terms(1.5-2j, 2+1j, -600.5, 0.3, dps=40): the terms fall
# below 1e-300 and the lost tail is negligible
F_C_MINUS_600 = complex(0.9975069162957179, 0.0012438203138413055)
# oracle_hyp2f1_terms(-2.687200673146881+1.4530916448597457j,
# 1.3029195802050646-1.2161479363455383j,
# -758.3196418175877-0.6704036959376503j, 0.547422112865249, dps=40): the
# terms fall to 8.9e-394 and grow back to 7.8e54 at k = 1673
F_C_MINUS_758 = complex(8.518435894554216e+56, 2.0585818738270213e+56)
# oracle_hyp2f1_terms(1.5-2j, 2+1j, -2000.5, 0.5, dps=40): the terms fall
# to 5.2e-948, three factors of 2^960 below the double range, and grow back
F_C_MINUS_2000 = complex(3688593580.484252, 18982934437.569103)
# oracle_hyp2f1_terms(1.5-2j, 2+1j, c, 0.62, dps=40) at c = -1383.5 and
# -1400.5: |F| is 3.47e304 and 1.47e308, in the double range, while the
# derivative sum F' leaves it
F_C_MINUS_1383 = complex(-3.401527222570334e+303, -3.4525004070151608e+304)
F_C_MINUS_1400 = complex(1.6214253471017242e+307, 1.4627354388583372e+308)


class TestGammaValues:
    def test_factorial_point(self):
        assert abs(ln_gamma(5.0) - math.log(24.0)) <= 1e-14

    def test_ln_gamma_half(self):
        assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-14

    def test_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi), whose log is ln(2 sqrt(pi)) +- i pi
        want = complex(math.log(2.0 * math.sqrt(math.pi)), math.pi)
        assert exp_equal(ln_gamma(-0.5), want, 1e-14)

    def test_complex_point_against_oracle(self):
        got = ln_gamma(0.5 + 1.0j)
        # real part is branch-independent; the full value modulo 2 pi i
        assert abs(got.real - LN_GAMMA_HALF_PLUS_I.real) <= 1e-12
        assert exp_equal(got, LN_GAMMA_HALF_PLUS_I, 1e-12)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -3.0, 0j, complex(-7, 0)):
            with pytest.raises(PoleAtNonPositiveInteger):
                ln_gamma(z)


class TestLnGammaReflection:
    """Left of Re z = -9.5, ln_gamma is the reflection formula, O(1) at any
    Re z and on the principal branch, compared with mp.loggamma itself, not
    modulo 2 pi i.  The upward recurrence, now kept for at most ten steps,
    summed ceil(1/2 - Re z) logs at any Re z: |exp(error) - 1| grew to
    2.8e-12 at -999.5+0.3i and 7.2e-8 at -999999.5+0.3i, and -1e9+0.3i
    took minutes.  Far left the imaginary part is about pi Re z, so the
    error is stated relative to |log Gamma|; the ulp of that part alone is
    4.8e-7 at Re z = -1e9."""

    FAR_LEFT = [-999.5 + 0.3j, -9999.5 + 0.3j, -999999.5 + 0.3j,
                -1e9 + 0.3j, -1e9 - 0.3j, -123456.789 + 5j, -2.5e8 - 40j,
                -1e9 + 1e5j, -17.25 + 300j, -17.25 - 300j]

    @staticmethod
    def mp_loggamma(z):
        with mp.workdps(40):
            return mp.loggamma(mp.mpc(z))

    def test_far_left_against_mpmath(self):
        for z in self.FAR_LEFT:
            want = self.mp_loggamma(z)
            assert abs(ln_gamma(z) - want) <= 1e-15 * abs(want), z

    def test_near_poles(self):
        # sin(pi z) from the exact remainder Re z - round(Re z), and
        # 1 - e^(2 pi i z) by expm1, keep the digits beside each pole,
        # on the cut (its limit from above, as mpmath) and off it
        for k in (0, 1, 5, 30, 170, 10 ** 6):
            for d in (1e-12, -1e-9, 1e-6, 0.25, 1e-3j, 1e-9 - 1e-9j,
                      -1e-6 + 1e-12j):
                z = -k + d  # -10^6 + 1e-12 rounds onto the pole
                if z.real >= 0.5 or specfun.is_nonpositive_integer(z):
                    continue
                want = self.mp_loggamma(z)
                assert abs(ln_gamma(z) - want) <= 1e-15 * abs(want), z

    def test_both_sides_of_the_line(self):
        # 200 seeded points with Re z in [-60, 1.5], |Im z| <= 60, across
        # both switches: Lanczos to recurrence at Re z = 1/2, recurrence to
        # reflection at -9.5
        rng = random.Random(34)
        for _ in range(200):
            z = complex(rng.uniform(-60.0, 1.5), rng.uniform(-60.0, 60.0))
            want = self.mp_loggamma(z)
            assert abs(ln_gamma(z) - want) <= 2e-15 * max(1.0, abs(want)), z

    def test_signed_zero_on_the_cut(self):
        # Im z = -0.0 reads the limit from above, as +0.0 and mpmath do
        for x in (-2.5, -0.5, -1e9 + 0.5):
            assert ln_gamma(complex(x, -0.0)) == ln_gamma(complex(x, 0.0))
            want = self.mp_loggamma(x)
            assert abs(ln_gamma(x) - want) <= 1e-15 * abs(want), x

    @pytest.mark.parametrize("z", FAR_LEFT + [-3.7 + 0.01j, -0.3 - 2j])
    def test_verify_identities(self, z):
        # verify's three identities, which hold on the principal branch in
        # either open half plane, without reduction modulo 2 pi i:
        # recurrence, reflection (sin from mpmath, as a double's pi z
        # loses Re z's digits) and Legendre duplication
        scale = 2e-15 * max(1.0, abs(ln_gamma(2 * z)))
        assert abs(ln_gamma(z + 1) - ln_gamma(z) - cmath.log(z)) <= scale
        with mp.workdps(40):
            zm = mp.mpc(z)
            log_sin = mp.log(mp.sin(mp.pi * zm))
            want = complex(mp.log(mp.pi) - log_sin)
            wrap = 2 * mp.pi * mp.nint(mp.im(mp.loggamma(zm)
                                             + mp.loggamma(1 - zm)
                                             - want) / (2 * mp.pi))
        got = ln_gamma(z) + ln_gamma(1 - z) - 1j * float(wrap)
        assert abs(got - want) <= scale
        dup = (ln_gamma(z) + ln_gamma(z + 0.5) - ln_gamma(2 * z)
               - (1 - 2 * z) * math.log(2) - 0.5 * math.log(math.pi))
        assert abs(dup) <= scale


class TestHyp2f1Values:
    def test_at_zero(self):
        assert hyp2f1(0.3 + 2j, -1.7, 0.9 - 1j, 0.0) == 1.0

    def test_log_point(self):
        # F(1, 1; 2; z) = -log(1 - z)/z
        assert abs(hyp2f1(1, 1, 2, 0.5) - 2.0 * math.log(2.0)) <= 1e-13

    def test_b_equals_c_reduces_to_power(self):
        a = 0.5 - 1.0j
        got = hyp2f1(a, 1.5 - 1.0j, 1.5 - 1.0j, 0.3)
        want = cmath.exp(-a * cmath.log(0.7))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_polynomial_case(self):
        # terminating series: F(-2, b; c; z) is a quadratic in z
        b, c, z = 1.7 + 0.3j, 2.2, 0.8
        want = 1 + (-2 * b / c) * z + ((-2) * (-1) * b * (b + 1)
                                       / (c * (c + 1) * 2)) * z * z
        assert abs(hyp2f1(-2.0, b, c, z) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("a,b,c,z,want,tol", [
        (0.5 + 3j, 0.5 - 3j, -50.3 + 0.2j, 0.6, F_C_MINUS_50, 1e-14),
        (1.5 - 2j, 2 + 1j, -600.5, 0.3, F_C_MINUS_600, 1e-15),
        (-2.687200673146881 + 1.4530916448597457j,
         1.3029195802050646 - 1.2161479363455383j,
         -758.3196418175877 - 0.6704036959376503j, 0.547422112865249,
         F_C_MINUS_758, 1e-13),
        (1.5 - 2j, 2 + 1j, -2000.5, 0.5, F_C_MINUS_2000, 1e-13),
        (1.5 - 2j, 2 + 1j, -1383.5, 0.62, F_C_MINUS_1383, 1e-13),
        (1.5 - 2j, 2 + 1j, -1400.5, 0.62, F_C_MINUS_1400, 1e-13)])
    def test_negative_c_term_floor(self, a, b, c, z, want, tol):
        # Re c < 0: three negligible terms do not end the series before
        # k = -Re c/(1-z), 125.75 in the first case, where stopping at them
        # gives 0.8968 - 0.0004i.  In the next three the terms pass below
        # the double range before the floor and are parked, not lost: in
        # the third, terms left to run into the subnormals grow back from
        # their last bits to 1.7e78.  In the last two F is in the double
        # range and F' is not, which no caller of hyp2f1 reads
        got = hyp2f1(a, b, c, z)
        assert abs(got - want) <= tol * abs(want)

    @pytest.mark.parametrize("c,z,err", [
        (-20000.5, 0.5, NoConvergence), (-3000.5, 0.7, DomainError),
        (-1450.5, 0.64, DomainError)])
    def test_negative_c_refusals(self, c, z, err):
        # oracle_hyp2f1_terms(1.5-2j, 2+1j, c, z, dps=40) is 3.686e12 -
        # 4.866e12i at c = -20000.5, where the floor of 40,001 terms is
        # past the budget, and 5.19e1115 + 2.59e1115i at c = -3000.5, past
        # the double range, where mp.hyp2f1 at 60 digits and the sum cut
        # at the first underflow both give about 0.999; its sum overflows
        # at step 3,872, before its floor of 10,002.  At c = -1450.5 |F|
        # is 9.8e372, and |term| passes the double range while both its
        # parts are finite
        with pytest.raises(err):
            hyp2f1(1.5 - 2j, 2 + 1j, c, z)

    def test_derivative_past_double_range(self):
        # F is in the double range at c = -1400.5, z = 0.62 and F' is not:
        # the term loop returns both, and _series_seed, whose ladders read
        # F', refuses
        a, b, c = 1.5 - 2j, 2 + 1j, -1400.5
        val, slope = specfun._sum_series(1.0 + 0.0j, a, b, c, 0.62)
        assert val == hyp2f1(a, b, c, 0.62) and not cmath.isfinite(slope)
        with pytest.raises(DomainError, match="derivative"):
            specfun._series_seed(1.0 + 0.0j, a, b, c)(0.62)

    def test_nan_overflow_refused_at_once(self):
        # at c = -1500.5, z = 0.75 (a value of about 7.5e726 + 1.1e727i)
        # the sums leave the double range from step 2,135 on, and inf
        # times a finite complex turns them to nan; the loop stops at step
        # 2,144, where it once ran on to the 10,000-term budget and raised
        # NoConvergence
        ratios = []
        with pytest.raises(DomainError, match="exceeds the double range"):
            specfun._sum_series(1.0 + 0.0j, 1.5 - 2j, 2 + 1j, -1500.5, 0.75,
                                ratios)
        assert len(ratios) < 2200
        with pytest.raises(DomainError):
            hyp2f1(1.5 - 2j, 2 + 1j, -1500.5, 0.75)

    def test_zero_terms_before_floor(self):
        # a zero term ends the sum at once, before the floor too: z = 0 and
        # a 0th term of 0.  At z = 1e-20 (the floor 40.5) the terms are
        # parked from the 15th on and stay negligible up to the floor
        a, b, c = 1.5 - 2j, 2 + 1j, -40.5
        assert hyp2f1(a, b, c, 0.0) == 1.0
        want = 1.0 + a * b / c * 1e-20
        assert abs(hyp2f1(a, b, c, 1e-20) - want) <= 1e-16
        # a term list records each parked term as 0, up to the floor
        terms = specfun._series_terms(a, b, c, 1e-20)
        assert len(terms) > 41 and terms[16:] == [0.0] * (len(terms) - 16)
        assert abs(sum(terms) - want) <= 1e-16
        ratios = []
        got = specfun._sum_series(0.0j, a, b, c, 0.5, ratios)
        assert got == (0.0, 0.0) and len(ratios) == 1

    def test_polynomial_stops_at_zero_term(self):
        # the floor 10.5/0.001 would pass the budget; the first zero term,
        # the 4th, ends the sum
        z = 0.999
        want = 1.0
        term = 1.0
        for k in range(3):
            term *= (-3 + k) * (2 + k) / ((-10.5 + k) * (k + 1)) * z
            want += term
        ratios = []
        got = specfun._sum_series(1.0 + 0.0j, -3.0, 2.0, -10.5, z, ratios)[0]
        assert len(ratios) == 4
        assert abs(got - want) <= 1e-14 * abs(want)
        assert abs(hyp2f1(-3, 2, -10.5, z) - want) <= 1e-14 * abs(want)

    def test_domain_errors(self):
        for z in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                hyp2f1(0.5, 0.5, 1.5, z)

    def test_lower_parameter_pole(self):
        with pytest.raises(LowerParameterPole):
            hyp2f1(0.5, 0.7, 0.0, 0.25)
        with pytest.raises(LowerParameterPole):
            hyp2f1(0.5, 0.7, -2.0, 0.25)

    @pytest.mark.parametrize("a,b,c,z", [(1, 1, -2, 0.3),
                                         (0.5 + 1j, 2, 0, 0.1),
                                         (-1, 2, -2, 0.3)])
    def test_gauss_series_lower_parameter_pole(self, a, b, c, z):
        # typed, also where a terminates the sum before the zero of (c)_k;
        # the Gauss series these cases were written for is hyp2f1's own
        with pytest.raises(LowerParameterPole):
            hyp2f1(a, b, c, z)

    def test_no_convergence_budget(self, monkeypatch):
        # z = 0.74 is below the seed bound 3/4, so the series alone answers
        monkeypatch.setattr("hypercone.specfun._MAX_TERMS", 20)
        with pytest.raises(NoConvergence, match="series"):
            hyp2f1(0.5, 0.7, 1.1, 0.74)
        with pytest.raises(NoConvergence):
            hyp2f1_regularized(0.5, 0.7, -1.0, 0.45)

    def test_budget_binds_taylor_expansions(self, monkeypatch):
        # z = 0.9 is past the seed bound, so the value comes from the ODE
        # ladder; its seed sums settle in 17 terms, so the expansions that
        # climb from them are what exceed the budget
        monkeypatch.setattr("hypercone.specfun._MAX_TERMS", 20)
        with pytest.raises(NoConvergence, match="Taylor expansion"):
            hyp2f1(10, 10, 1, 0.9)

    def test_ladder_refuses_long_climbs(self):
        # the rung count grows like S ln(1/dist): spread S = 1e6 needs
        # millions of expansions, and at S = 1e17 the step 2/S rounds away,
        # as it does wherever |ab| overflows
        for a, b in ((0.5, 0.5 + 1e6j), (1e17, 1e-17), (1e200, 1e200)):
            with pytest.raises(NoConvergence):
                hyp2f1(a, b, 1.0, 0.9)

    def test_default_control_sums_to_roundoff(self):
        # every sum stops at roundoff: a relative stop at 1e-14 would leave
        # a tail of about 1e-14 z/(1-z), measured 1.6e-15 at z = 1/2 below
        # and 3.2e-12 at z = 0.997, where summing on to roundoff leaves
        # 3.5e-16 and 1.0e-13
        for z in (0.3, 0.4, 0.5):
            want = oracle_hyp2f1(0.5, 1.5, 2.0, z)
            assert abs(hyp2f1(0.5, 1.5, 2.0, z) - want) <= 1e-15 * abs(want)
        for z in (0.6, 0.7, 0.74, 0.8, 0.95):
            want = oracle_hyp2f1(0.5, 1.5, 2.0, z)
            assert abs(hyp2f1(0.5, 1.5, 2.0, z) - want) <= 3e-15 * abs(want)
        for z in (0.99, 0.997):
            # the series term loop alone: ~36/(1-z) terms, whose roundoff
            # grows like 1/(1-z)
            want = oracle_hyp2f1(0.5, 0.5, 1.0, z)
            got = specfun._sum_series(1.0 + 0.0j, 0.5, 0.5, 1.0, z)[0]
            assert abs(got - want) <= 1e-15 / (1 - z) * abs(want)


class TestRegularized:
    def test_generic_c_is_quotient(self):
        want = 2.0 * math.log(2.0)  # F(1,1;2;1/2) = 2 ln 2, Gamma(2) = 1
        assert abs(hyp2f1_regularized(1, 1, 2, 0.5) - want) <= 1e-13

    def test_limit_at_c_zero(self):
        # a = b = 1, c = 0, z = 1/4: limit is z*F(2,2;2;z)/Gamma(2)
        #   = z (1-z)^{-2} = 4/9
        got = hyp2f1_regularized(1.0, 1.0, 0.0, 0.25)
        assert abs(got - 4.0 / 9.0) <= 1e-13

    def test_limit_at_c_minus_two(self):
        got = hyp2f1_regularized(0.5, 1.5, -2.0, 0.1)
        assert abs(got - REG_HALF_THREEHALF_M2) <= 1e-12

    def test_shifted_parameter_identity(self):
        # F~(a, b; -m; z) = (a)_{m+1} (b)_{m+1} z^{m+1}/(m+1)!
        #                     * F(a+m+1, b+m+1; m+2; z)
        a, b, z, m = 0.5, 1.5, 0.1, 2
        rebuilt = (oracle_pochhammer(a, m + 1) * oracle_pochhammer(b, m + 1)
                   * z ** (m + 1) / math.factorial(m + 1)
                   * hyp2f1(a + m + 1, b + m + 1, m + 2, z))
        assert abs(rebuilt - REG_HALF_THREEHALF_M2) <= 1e-15

    def test_near_lattice_continuity(self):
        # approaching c = -1 from both sides matches the lattice value
        at = hyp2f1_regularized(0.8, 1.2, -1.0, 0.45)
        for eps in (1e-7, -1e-7, 1e-7j):
            near = hyp2f1_regularized(0.8, 1.2, -1.0 + eps, 0.45)
            assert abs(near - at) <= 1e-5 * (1.0 + abs(at))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hyp2f1_regularized(1, 1, 2, 1.0)

    @pytest.mark.parametrize("a,b,c,z", [
        (0.5, 0.5, -170.0, 0.5),   # 2.31e306 while (m+1)! alone overflows
        (0.5, 0.5, -250.0, 0.02),
        (0.3 + 2j, -1.7, -2.0, 0.6),
    ])
    def test_deep_lattice_against_dlmf_15_2_3(self, a, b, c, z):
        m = int(-c)
        with mp.workdps(50):
            want = complex(mp.rf(a, m + 1) * mp.rf(b, m + 1)
                           * mp.mpf(z) ** (m + 1) / mp.factorial(m + 1)
                           * mp.hyp2f1(a + m + 1, b + m + 1, m + 2, z))
        got = hyp2f1_regularized(a, b, c, z)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_terminating_numerator_on_deep_lattice(self):
        # (a)_{m+1} = 0 for a = -j, j <= m: the limit is exactly 0
        assert hyp2f1_regularized(-3.0, 0.5, -5.0, 0.5) == 0.0
        assert hyp2f1_regularized(0.5, -200.0, -300.0, 0.5) == 0.0

    def test_beyond_double_range_is_typed(self):
        with pytest.raises(DomainError):  # the value is 9.7e613
            hyp2f1_regularized(0.5, 0.5, -300.0, 0.5)

    @pytest.mark.parametrize("c", [-200.5, 100 + 1e5j])
    def test_recip_gamma_beyond_double_range_is_typed(self, c):
        # |1/Gamma(c)| is 3.56e375 at c = -200.5 and 8.29e67720 at
        # 100 + 1e5i, while F stays moderate: exp(-ln_gamma(c)) overflows
        with pytest.raises(DomainError, match="exceeds the double range"):
            hyp2f1_regularized(0.5, 0.5, c, 0.5)

    def test_off_lattice_beyond_double_range_is_typed(self):
        # 1/Gamma(-109.5) = 4.8e176 times F = -1.9e293 + 6.0e292i
        with pytest.raises(DomainError):
            hyp2f1_regularized(145.36 - 77.53j, -226.12 + 252.49j, -109.5,
                               0.705)

    def test_large_parameters_finite_or_typed(self):
        # every value is finite or a HyperconeError, never inf or nan
        rng = random.Random(12)
        for _ in range(60):
            a, b = (complex(rng.uniform(-300, 300), rng.uniform(-300, 300))
                    for _ in range(2))
            c = rng.choice([
                complex(rng.randint(-200, 0)),
                complex(rng.randint(-200, 200) + 0.5),
                complex(rng.uniform(-200, 200), rng.uniform(-50, 50))])
            z = rng.uniform(0.0, 0.99)
            try:
                got = hyp2f1_regularized(a, b, c, z)
            except HyperconeError:
                continue
            assert cmath.isfinite(got), (a, b, c, z, got)

    @pytest.mark.parametrize("a,b,c,z", [
        (0.5 - 20j, 1.7 - 20j, -0.9999, 0.9),  # near the lattice, z > 1/2
        (0.5 - 20j, 1.7 - 20j, 2.0, 0.3),      # generic c, z < 1/2
    ])
    def test_large_imaginary_parameters(self, a, b, c, z):
        # a term-by-term sum cancels here, to errors of 1.1e3 and 2.5e-7
        want = oracle_reg_hyp2f1(a, b, c, z)
        got = hyp2f1_regularized(a, b, c, z)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_kernel_parameter_battery(self):
        # the kernel's a = 1/2 - i lambda, b = a + s with c on, near or off
        # the lattice, and z up to 0.99
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(1, 4)
            s = math.sqrt(rng.uniform(0.0, 9.0) + (n - 1) ** 2 / 4.0)
            lam = complex(rng.uniform(-20, 20), rng.uniform(-2, 3))
            a = 0.5 - 1j * lam
            b = a + s
            m = rng.randint(0, 3)
            c = rng.choice([
                complex(-m),
                complex(-m + rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)),
                complex(rng.uniform(-4, 4), rng.uniform(-3, 3))])
            z = rng.uniform(0.05, 0.99)
            want = oracle_reg_hyp2f1(a, b, c, z)
            got = hyp2f1_regularized(a, b, c, z)
            assert abs(got - want) <= 1e-10 * abs(want), (a, b, c, z)


class TestNonFiniteArguments:
    """Non-finite parameters are refused before any sum; test_contract.py
    checks every entry point's typed error."""

    @pytest.mark.parametrize("args", [(1, 1, -math.inf, 0.5),
                                      (-math.inf, 1, 2, 0.5),
                                      (math.nan, 1, 2, 0.5)], ids=repr)
    def test_refused_before_any_sum(self, monkeypatch, args):
        # a nan parameter never settles a sum, so it would spend the whole
        # term budget, and int(-inf) overflows in a lattice test
        def no_sum(*args, **kw):
            raise AssertionError("summed a series")

        monkeypatch.setattr(specfun, "_sum_series", no_sum)
        for f in (hyp2f1, hyp2f1_regularized):
            with pytest.raises(DomainError,
                               match="must be a finite complex"):
                f(*args)

    def test_nonpositive_integer_membership(self):
        for z in (math.nan, math.inf, -math.inf, complex(-math.inf, 0.0)):
            assert not specfun.is_nonpositive_integer(z)
        for z in (0.0, -0.0, -3.0, complex(-170.0, 0.0)):
            assert specfun.is_nonpositive_integer(z)
        for z in (0.5, 1.0, complex(-2.0, 1e-300)):
            assert not specfun.is_nonpositive_integer(z)


class TestAgainstMpmath:
    def test_gamma_battery(self):
        rng = random.Random(11)
        for _ in range(60):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if z.real <= 0 and abs(z.imag) < 0.05:
                continue  # too close to the pole line for a fair comparison
            want = oracle_ln_gamma(z)
            got = ln_gamma(z)
            assert abs(got.real - float(mp.re(want))) <= 1e-10 * (1 + abs(got))
            assert exp_equal(got, complex(want), 1e-10)

    def test_hyp2f1_battery(self):
        rng = random.Random(23)
        for _ in range(40):
            a = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            c = complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
            z = rng.uniform(0.0, 0.95)
            want = oracle_hyp2f1(a, b, c, z)
            got = hyp2f1(a, b, c, z)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_oracle_checks_truncated_series(self):
        # mp.hyp2f1 at 30 digits drops the terms that dip below its
        # precision and grow back near k = -Re c: 1.9e-9 off here, which
        # the 60-digit term sum oracle_hyp2f1 checks against refuses
        a, b = complex(-5.5139, 6.6442), complex(-7.8213, -3.4246)
        c, z = complex(-70.1458, 0.9268), 0.63099
        with pytest.raises(OracleDisagreement):
            oracle_hyp2f1(a, b, c, z)
        assert oracle_hyp2f1(a, b, c, z, dps=60) == pytest.approx(
            complex(oracle_hyp2f1_terms(a, b, c, z, dps=60)), rel=1e-15)

    def test_hyp2f1_integer_gap_battery(self):
        # c - a - b exactly integer, where the 1-z connection formula
        # degenerates; ODE continuation does not see it
        rng = random.Random(5)
        for gap in (-1, 0, 1, 2):
            for _ in range(8):
                a = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
                b = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
                c = a + b + gap
                z = rng.uniform(0.55, 0.9)
                want = oracle_hyp2f1(a, b, c, z)
                got = hyp2f1(a, b, c, z)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("a,b,c,z", [
        (-2.687200673146881 + 1.4530916448597457j,
         1.3029195802050646 - 1.2161479363455383j,
         -758.3196418175877 - 0.6704036959376503j, 0.547422112865249),
        (1.5 - 2j, 2 + 1j, -2000.5, 0.5)])
    def test_parked_series_derivative(self, a, b, c, z):
        # terms parked below the double range and grown back: the value and
        # the derivative (ab/c) F(a+1, b+1; c+1; z) of one term loop
        val, slope = specfun._sum_series(1.0 + 0.0j, a, b, c, z)
        with mp.workdps(30):
            want = complex(oracle_hyp2f1_terms(a, b, c, z))
            dwant = complex(mp.mpc(a) * b / c
                            * oracle_hyp2f1_terms(a + 1, b + 1, c + 1, z))
        assert abs(val - want) <= 1e-13 * abs(want)
        assert abs(slope - dwant) <= 1e-13 * abs(dwant)

    def test_negative_c_sweep(self):
        # Re c in [-60, -2], where the terms can fall below roundoff and
        # grow back: each value is right to 1e-10 or a typed refusal.
        # Stopping at the first three negligible terms misses on 43 of the
        # 400 draws, the worst with no digit right.
        # The reference is the plain term sum, as mp.hyp2f1 can stop early
        # in the same way (off by 4.6e-9 at 30 digits at Re c = -70)
        rng = random.Random(29)
        for _ in range(400):
            a = complex(rng.uniform(-3, 3), rng.uniform(-4, 4))
            b = complex(rng.uniform(-3, 3), rng.uniform(-4, 4))
            c = complex(rng.uniform(-60, -2), rng.uniform(-1, 1))
            z = rng.uniform(0, 0.75)
            with mp.workdps(30):
                f = oracle_hyp2f1_terms(a, b, c, z)
                wants = complex(f), complex(f * mp.rgamma(c))
            for fn, want in zip((hyp2f1, hyp2f1_regularized), wants):
                try:
                    got = fn(a, b, c, z)
                except HyperconeError:
                    continue
                assert abs(got - want) <= 1e-10 * abs(want), (a, b, c, z)

    def test_regularized_battery(self):
        rng = random.Random(31)
        for _ in range(25):
            a = complex(rng.uniform(0.2, 2.5), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.2, 2.5), rng.uniform(-1, 1))
            c = rng.choice([0.0, -1.0, -2.0, -3.0,
                            rng.uniform(0.2, 3.0) + 0.5j * rng.random()])
            z = rng.uniform(0.05, 0.45)
            want = oracle_reg_2f1(a, b, c, z)
            got = hyp2f1_regularized(a, b, complex(c), z)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
