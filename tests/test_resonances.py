"""Resonance parameter, classification, enumeration, and counting tests.

Enumeration results are checked against the brute-force double loops in
tests/oracles.py, which use independent genericity and multiplicity formulas.
"""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercone import (
    CaseId,
    GenericityVerdict,
    InconsistentParams,
    InvalidDimension,
    Mode,
    PoleVerdict,
    SpectrumSpec,
    TruncationInsufficient,
    UndecidableMembership,
    ValidationError,
    candidate_params,
    circle_spectrum,
    classify_pole,
    count_resonances,
    enumerate_resonances,
    hypergeom_params,
    is_generic,
    load_spectrum,
    s_param,
    sphere_spectrum,
    weyl_count,
    weyl_leading_term,
)

from oracles import brute_force_circle, brute_force_count, brute_force_sphere


class TestSParam:
    def test_circle_is_j_over_rho(self):
        for j, m in enumerate(circle_spectrum(Fraction(1, 3), 4).modes):
            assert s_param(1, m).exact == 3 * j

    def test_sphere_rational(self):
        m = sphere_spectrum(3, 2).modes[2]
        sv = s_param(3, m)
        assert sv.exact == 3 and sv.sq_exact == 9 and sv.value == 3.0

    def test_irrational_sq_only(self):
        sv = s_param(1, Mode(3.25, 1, Fraction(13, 4)))
        assert sv.exact is None
        assert sv.sq_exact == Fraction(13, 4)
        assert abs(sv.value - math.sqrt(13) / 2) <= 1e-15

    def test_float_only(self):
        sv = s_param(2, Mode(2.0, 1))
        assert sv.exact is None and sv.sq_exact is None
        assert abs(sv.value - 1.5) <= 1e-15

    def test_validation(self):
        with pytest.raises(InvalidDimension):
            s_param(0, Mode(1.0, 1))


class TestHypergeomParams:
    def test_integer_s_point(self):
        # n = 1, mu^2 = 1 (s = 1) at lambda = -3i/2
        p = hypergeom_params(1, Mode(1.0, 1, Fraction(1)), -1.5j)
        assert (p.a, p.b, p.c, p.s) == (-1.0, 0.0, -2.0, 1.0)
        assert p.a_sym == (Fraction(-1), Fraction(0))
        assert p.b_sym == (Fraction(0), Fraction(0))
        assert p.c_sym == (Fraction(-2), Fraction(0))

    def test_half_odd_s_point(self):
        # n = 2, mu^2 = 2 (s = 3/2) at lambda = -2i
        p = hypergeom_params(2, Mode(2.0, 1, Fraction(2)), -2j)
        assert (p.a, p.b, p.c) == (-1.5, 0.0, -3.0)
        assert p.s == 1.5

    def test_lambda_zero(self):
        p = hypergeom_params(1, Mode(4.0, 1, Fraction(4)), 0j)
        assert (p.a, p.b, p.c) == (0.5, 2.5, 1.0)

    def test_invariants_on_float_draws(self):
        import random
        rng = random.Random(3)
        for _ in range(20):
            n = rng.choice([1, 2, 3, 4])
            mode = Mode(rng.uniform(0, 9), 1)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            p = hypergeom_params(n, mode, lam)
            assert abs(p.c - 2 * p.a) <= 1e-15 * (1 + abs(p.c))
            assert abs(p.b - (p.a + p.s)) <= 1e-15 * (1 + abs(p.b))
            assert p.a == 0.5 - 1j * lam
            if lam.real != 0.0:
                assert p.a_sym is None

    def test_exact_im_mismatch(self):
        with pytest.raises(InconsistentParams):
            hypergeom_params(1, Mode(1.0, 1), -1.5j,
                             lam_im_exact=Fraction(-1, 2))
        with pytest.raises(InconsistentParams):
            hypergeom_params(1, Mode(1.0, 1), 1.0 - 1.5j,
                             lam_im_exact=Fraction(-3, 2))


class TestCandidateParams:
    def test_irrational_candidate_is_symbolic(self):
        # s = sqrt(13)/2: a = -s, b = 0, c = -2s
        p = candidate_params(1, Mode(3.25, 1, Fraction(13, 4)), 0)
        assert p.a_sym == (Fraction(0), Fraction(-1))
        assert p.b_sym == (Fraction(0), Fraction(0))
        assert p.c_sym == (Fraction(0), Fraction(-2))
        assert abs(p.a + math.sqrt(13) / 2) <= 1e-14
        assert abs(p.b) <= 1e-14
        assert p.lam.imag == pytest.approx(-(0.5 + math.sqrt(13) / 2))

    def test_rational_candidate(self):
        p = candidate_params(1, Mode(1.0, 1, Fraction(1)), 1)
        # t = 1/2 + 1 + 1 = 5/2: a = -2, b = -1, c = -4
        assert (p.a, p.b, p.c) == (-2.0, -1.0, -4.0)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            candidate_params(1, Mode(1.0, 1), -1)


class TestClassifyCases:
    def test_genuine_all_integer(self):
        p = hypergeom_params(1, Mode(1.0, 1, Fraction(1)), -1.5j)
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.GENUINE_POLE
        assert cls.case_id is CaseId.cY_bY_aY

    def test_removable_half_odd(self):
        p = hypergeom_params(2, Mode(2.0, 1, Fraction(2)), -2j)
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.REMOVABLE
        assert cls.case_id is CaseId.cY_bY_aN

    def test_genuine_irrational(self):
        p = candidate_params(1, Mode(3.25, 1, Fraction(13, 4)), 0)
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.GENUINE_POLE
        assert cls.case_id is CaseId.cN_bY

    def test_removable_a_pole_only(self):
        # s = sqrt(13)/2, lambda = -3i/2: a = -1, b = -1 + s, c = -2
        p = hypergeom_params(1, Mode(3.25, 1, Fraction(13, 4)), -1.5j,
                             lam_im_exact=Fraction(-3, 2))
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.REMOVABLE
        assert cls.case_id is CaseId.cY_bN_aY

    def test_regular_c_lattice_only(self):
        # s = 2, lambda = -i: a = -1/2, b = 3/2, c = -1
        p = hypergeom_params(1, Mode(4.0, 1, Fraction(4)), -1j)
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.REGULAR
        assert cls.case_id is CaseId.cY_bN_aN

    def test_regular_generic_point(self):
        p = hypergeom_params(1, Mode(1.0, 1), 0.3 + 0.2j)
        cls = classify_pole(p)
        assert cls.verdict is PoleVerdict.REGULAR
        assert cls.case_id is CaseId.cN_bN_aN

    def test_exhaustive_candidates(self):
        """Candidate positions classify genuine exactly when the mode is
        generic; non-generic (half-odd s) candidates are removable."""
        spectra = [(1, circle_spectrum(1, 8)), (1, circle_spectrum(2, 8)),
                   (1, circle_spectrum(Fraction(1, 3), 8)),
                   (2, sphere_spectrum(2, 8)), (3, sphere_spectrum(3, 8)),
                   (4, sphere_spectrum(4, 8)), (5, sphere_spectrum(5, 8))]
        for n, spec in spectra:
            for mode in spec.modes:
                generic = is_generic(mode, n) is GenericityVerdict.GENERIC
                for k in range(9):
                    cls = classify_pole(candidate_params(n, mode, k))
                    if generic:
                        assert cls.verdict is PoleVerdict.GENUINE_POLE, (
                            n, mode.label, k)
                    else:
                        assert cls.verdict is PoleVerdict.REMOVABLE, (
                            n, mode.label, k)
                    # rational s: the plain constructor with an exact
                    # imaginary part must agree with the symbolic one
                    sv = s_param(n, mode)
                    if sv.exact is not None:
                        t = Fraction(1, 2) + k + sv.exact
                        q = hypergeom_params(n, mode, complex(0, -float(t)),
                                             lam_im_exact=-t)
                        cls2 = classify_pole(q)
                        assert cls2 == cls, (n, mode.label, k)


class TestEnumerate:
    def test_two_sphere_has_no_resonances(self):
        rset = enumerate_resonances(sphere_spectrum(2, 4), 4, 6.0)
        assert rset.resonances == []
        assert rset.exact is True

    def test_unit_circle(self):
        rset = enumerate_resonances(circle_spectrum(1, 3), 3, 3.0)
        got = [(r.im_part_exact, r.multiplicity, r.contributors)
               for r in rset.resonances]
        assert got == [
            (Fraction(1, 2), 1, ((0, 0),)),
            (Fraction(3, 2), 3, ((0, 1), (1, 0))),
            (Fraction(5, 2), 5, ((0, 2), (1, 1), (2, 0))),
        ]
        assert all(r.lam == complex(0, -float(r.im_part_exact))
                   for r in rset.resonances)

    def test_three_sphere(self):
        rset = enumerate_resonances(sphere_spectrum(3, 4), 4, 4.0)
        got = {r.im_part_exact: r.multiplicity for r in rset.resonances}
        assert got == {Fraction(3, 2): 1, Fraction(5, 2): 5,
                       Fraction(7, 2): 14}

    @pytest.mark.parametrize("rho,j_max,k_max,bound", [
        (Fraction(1), 6, 6, Fraction(11, 2)),
        (Fraction(2), 10, 6, Fraction(23, 4)),
        (Fraction(1, 3), 4, 12, Fraction(37, 4)),
    ])
    def test_circle_matches_brute_force(self, rho, j_max, k_max, bound):
        rset = enumerate_resonances(circle_spectrum(rho, j_max), k_max,
                                    float(bound))
        got = {r.im_part_exact: (r.multiplicity, list(r.contributors))
               for r in rset.resonances}
        assert got == brute_force_circle(rho, j_max, k_max, bound)

    @pytest.mark.parametrize("n,j_max,k_max,bound", [
        (3, 8, 8, Fraction(42, 5)),
        (4, 8, 8, Fraction(42, 5)),
    ])
    def test_sphere_matches_brute_force(self, n, j_max, k_max, bound):
        rset = enumerate_resonances(sphere_spectrum(n, j_max), k_max,
                                    float(bound))
        got = {r.im_part_exact: (r.multiplicity, list(r.contributors))
               for r in rset.resonances}
        assert got == brute_force_sphere(n, j_max, k_max, bound)

    def test_mixed_rational_and_surd(self):
        spec = SpectrumSpec(1, [Mode(1.0, 1, Fraction(1), 0),
                                Mode(3.25, 1, Fraction(13, 4), 1)],
                            None, "file")
        rset = enumerate_resonances(spec, 1, 4.0)
        assert rset.exact is True
        rational = [r for r in rset.resonances if r.im_part_exact is not None]
        surd = [r for r in rset.resonances if r.im_part_exact is None]
        assert [r.im_part_exact for r in rational] == [Fraction(3, 2),
                                                       Fraction(5, 2)]
        assert [r.surd_key for r in surd] == [(Fraction(13, 4), 0),
                                              (Fraction(13, 4), 1)]
        assert all(r.multiplicity == 1 for r in rset.resonances)
        # exact ordering decisions survive the float sort
        ts = [r.t for r in rset.resonances]
        assert ts == sorted(ts)

    def test_surd_bound_comparisons(self):
        spec = SpectrumSpec(1, [Mode(3.25, 1, Fraction(13, 4), 0)],
                            None, "file")
        r = enumerate_resonances(spec, 0, 3.0).resonances[0]
        # t = 1/2 + sqrt(13)/2 = 2.302775...
        assert r.t_le(2.31) and not r.t_le(2.30)
        assert not r.t_le(0.4)

    def test_rational_and_float_bound_comparisons(self):
        r = enumerate_resonances(circle_spectrum(1, 3), 3, 3.0).resonances[-1]
        assert r.im_part_exact == Fraction(5, 2)
        assert r.t_le(2.5) and not r.t_le(math.nextafter(2.5, 0.0))
        spec = SpectrumSpec(1, [Mode(1.69, 1, None, 0)], None, "file")
        r = enumerate_resonances(spec, 0, 3.0).resonances[0]
        assert r.t_le(r.t) and not r.t_le(math.nextafter(r.t, 0.0))

    def test_undecidable_float_mode(self):
        spec = SpectrumSpec(1, [Mode(2.25 + 1e-12, 1)], None, "file")
        with pytest.raises(UndecidableMembership, match="j = 0"):
            enumerate_resonances(spec, 2, 5.0)

    def test_boundary_inclusive(self):
        rset = enumerate_resonances(circle_spectrum(1, 3), 3, 2.5)
        assert rset.resonances[-1].im_part_exact == Fraction(5, 2)

    def test_positions_at_least_half_dimension(self):
        for n, spec in [(1, circle_spectrum(2, 6)),
                        (3, sphere_spectrum(3, 6)),
                        (4, sphere_spectrum(4, 6))]:
            for r in enumerate_resonances(spec, 4, 12.0).resonances:
                if r.im_part_exact is not None:
                    assert r.im_part_exact >= Fraction(n, 2)
                else:
                    assert r.t >= n / 2.0

    def test_deterministic(self):
        a = enumerate_resonances(circle_spectrum(2, 10), 6, 5.75)
        b = enumerate_resonances(circle_spectrum(2, 10), 6, 5.75)
        assert a.resonances == b.resonances

    def test_validation(self):
        spec = circle_spectrum(1, 2)
        with pytest.raises(ValidationError):
            enumerate_resonances(spec, -1, 3.0)
        with pytest.raises(ValidationError):
            enumerate_resonances(spec, 2, -1.0)


class TestCompleteness:
    def test_complete_up_to(self):
        rset = enumerate_resonances(circle_spectrum(1, 3), 3, 3.0)
        assert rset.complete_up_to(3.0)
        assert not rset.complete_up_to(3.5)

    def test_resonance_free_spectrum_counts_zero(self):
        # every 2-sphere mode is excluded, but completeness is still a
        # property of the truncation: certified only below 1/2 + s_last = 3
        rset = enumerate_resonances(sphere_spectrum(2, 2), 2, 50.0)
        assert rset.complete_up_to(2.9)
        assert not rset.complete_up_to(3.0)
        assert weyl_count(rset, 2.9) == 0

    def test_bound_beyond_enumeration_refuses(self):
        # j_max and k_max reach past 5, but the set was only listed to 3
        spec = circle_spectrum(1, 10)
        rset = enumerate_resonances(spec, 10, 3.0)
        assert not rset.complete_up_to(5.0)
        with pytest.raises(TruncationInsufficient):
            weyl_count(rset, 5.0)
        assert count_resonances(spec, 10, 5.0) == 25


class TestWeylCount:
    def test_unit_circle_count(self):
        rset = enumerate_resonances(circle_spectrum(1, 3), 3, 3.0)
        assert weyl_count(rset, 3.0) == 9

    def test_count_matches_brute_force(self):
        bound = Fraction(41, 2)
        rset = enumerate_resonances(circle_spectrum(2, 42), 21, float(bound))
        want = sum(m for m, _ in
                   brute_force_circle(Fraction(2), 42, 21, bound).values())
        assert weyl_count(rset, float(bound)) == want

    def test_truncation_insufficient(self):
        rset = enumerate_resonances(circle_spectrum(1, 3), 3, 3.0)
        with pytest.raises(TruncationInsufficient):
            weyl_count(rset, 4.0)

    def test_leading_term_circle(self):
        assert weyl_leading_term(1, 2 * math.pi, 10.0) == pytest.approx(100.0)
        assert weyl_leading_term(1, 4 * math.pi, 10.0) == pytest.approx(200.0)
        assert weyl_leading_term(1, 2 * math.pi, 0.0) == 0.0

    def test_leading_term_three_sphere(self):
        # |B_3| Vol(S^3) lam^4 / ((2 pi)^3 * 4) = lam^4 / 12
        got = weyl_leading_term(3, 2 * math.pi ** 2, 2.0)
        assert got == pytest.approx(16.0 / 12.0, rel=1e-12)

    def test_leading_term_validation(self):
        with pytest.raises(InvalidDimension):
            weyl_leading_term(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            weyl_leading_term(1, -1.0, 1.0)
        with pytest.raises(ValidationError):
            weyl_leading_term(1, 1.0, -1.0)

    def test_asymptotic_ratio_circle(self):
        lam = 100.0
        rset = enumerate_resonances(circle_spectrum(1, 101), 100, lam)
        ratio = weyl_count(rset, lam) / weyl_leading_term(1, 2 * math.pi, lam)
        assert abs(ratio - 1.0) <= 2e-2

    def test_asymptotic_ratio_three_sphere(self):
        lam = 30.0
        rset = enumerate_resonances(sphere_spectrum(3, 30), 29, lam)
        ratio = weyl_count(rset, lam) / weyl_leading_term(
            3, 2 * math.pi ** 2, lam)
        assert abs(ratio - 1.0) <= 5e-2


# radii whose positions 1/2 + k + j/rho are all floats, so a bound can sit
# exactly on one
DYADIC_RADII = [Fraction(1), Fraction(2), Fraction(4), Fraction(1, 3),
                Fraction(4, 3), Fraction(2, 5)]
PLACES = ["on", "below", "between"]


def _bound_at(position: float, place: str) -> float:
    if place == "on":
        return position
    if place == "below":
        return math.nextafter(position, 0.0)
    return position + 0.125  # positions of the dyadic lattices are 1/4 apart


def _file_spectrum(n, modes):
    entries = []
    for exact, mu_sq, mult in modes:
        entry = {"mu_sq": mu_sq, "m": mult}
        if exact is not None:
            entry["mu_sq_exact"] = f"{exact.numerator}/{exact.denominator}"
        entries.append(entry)
    return load_spectrum(io.StringIO(json.dumps({"n": n, "modes": entries})))


def _surd_modes(j_max):
    # n = 2, mu^2 = j(j+1) + 1/3: s = sqrt((j + 1/2)^2 + 1/3) is irrational
    return [(Fraction(j * (j + 1)) + Fraction(1, 3),
             float(Fraction(j * (j + 1)) + Fraction(1, 3)), 2 * j + 1)
            for j in range(j_max + 1)]


def _float_modes(j_max):
    # circle of radius 1.37 written without exact forms (2s stays > 1e-3
    # from every odd integer for j <= 40)
    return [(None, (j / 1.37) ** 2, 1 if j == 0 else 2)
            for j in range(j_max + 1)]


def _mixed_modes(j_max):
    # exact rational s = j, exact s = sqrt(j^2 + 5/4) (a surd except the
    # excluded s = 3/2 at j = 1), float-only s = sqrt(j^2 + 0.37), in one file
    modes = []
    for j in range(j_max + 1):
        modes.append((Fraction(j * j), float(j * j), 2))
        modes.append((Fraction(4 * j * j + 5, 4), j * j + 1.25, 1))
        modes.append((None, j * j + 0.37, 3))
    return modes


def _position(n, mode, k) -> float:
    exact, mu_sq, _ = mode
    if exact is None:
        return 0.5 + k + math.sqrt(((n - 1) / 2.0) ** 2 + mu_sq)
    return 0.5 + k + math.sqrt(float(Fraction(n - 1, 2) ** 2 + exact))


class TestCountResonances:
    """count_resonances against the brute-force oracles and against the
    total multiplicity enumerate_resonances lists up to the same bound."""

    @staticmethod
    def _agree(spec, k_max, bound, want):
        assert count_resonances(spec, k_max, bound) == want
        listed = enumerate_resonances(spec, k_max, bound).resonances
        assert sum(r.multiplicity for r in listed) == want

    @settings(max_examples=60, deadline=None)
    @given(rho=st.sampled_from(DYADIC_RADII), j=st.integers(0, 12),
           k=st.integers(0, 12), place=st.sampled_from(PLACES))
    def test_circle(self, rho, j, k, place):
        bound = _bound_at(float(Fraction(1, 2) + k + j / rho), place)
        j_max = math.ceil(rho * Fraction(bound)) + 1
        k_max = math.ceil(bound) + 1
        want = sum(m for m, _ in brute_force_circle(
            rho, j_max, k_max, Fraction(bound)).values())
        self._agree(circle_spectrum(rho, j_max), k_max, bound, want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 5, 7]), j=st.integers(0, 8),
           k=st.integers(0, 8), place=st.sampled_from(PLACES))
    def test_sphere(self, n, j, k, place):
        bound = _bound_at(0.5 + k + j + (n - 1) / 2, place)
        j_max = k_max = math.ceil(bound) + 1
        want = sum(m for m, _ in brute_force_sphere(
            n, j_max, k_max, Fraction(bound)).values())
        self._agree(sphere_spectrum(n, j_max), k_max, bound, want)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["surd", "float", "mixed"]),
           j=st.integers(0, 8), k=st.integers(0, 8),
           which=st.integers(0, 2), place=st.sampled_from(PLACES))
    # the float guess of the last k falls one short here and must be raised
    @example(kind="float", j=3, k=2, which=2, place="on")
    def test_file_spectra(self, kind, j, k, which, place):
        n, build = {"surd": (2, _surd_modes), "float": (1, _float_modes),
                    "mixed": (1, _mixed_modes)}[kind]
        near = build(j)[-3:]
        probe = near[which % len(near)]
        bound = _bound_at(_position(n, probe, k), place)
        k_max = math.ceil(bound) + 1
        modes = build(2 * math.ceil(bound) + 2)
        want = brute_force_count(n, modes, k_max, bound)
        self._agree(_file_spectrum(n, modes), k_max, bound, want)

    def test_exact_position_is_inclusive(self):
        spec = circle_spectrum(1, 12)
        assert count_resonances(spec, 12, 10.5) == 121
        assert count_resonances(spec, 12, math.nextafter(10.5, 0.0)) == 100

    def test_refusals(self):
        with pytest.raises(UndecidableMembership, match="j = 0"):
            count_resonances(SpectrumSpec(1, [Mode(2.25 + 1e-12, 1)], None,
                                          "file"), 2, 5.0)
        with pytest.raises(TruncationInsufficient):
            count_resonances(circle_spectrum(1, 3), 3, 4.0)
        with pytest.raises(TruncationInsufficient):
            count_resonances(circle_spectrum(1, 10), 3, 4.0)
        with pytest.raises(ValidationError):
            count_resonances(circle_spectrum(1, 3), -1, 2.0)
        with pytest.raises(ValidationError):
            count_resonances(circle_spectrum(1, 3), 3, -1.0)
