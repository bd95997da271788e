"""Resonance parameter, classification, enumeration, and counting tests.

Enumeration results are checked against the brute-force double loops in
tests/oracles.py, which use independent genericity and multiplicity formulas.
"""

import dataclasses
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hypercone import (
    CaseId,
    DomainError,
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
    spectrum_to_dict,
    weyl_count,
    weyl_leading_term,
)

from hypercone.resonances import _listing, _scan
from oracles import (
    brute_force_circle,
    brute_force_count,
    brute_force_sphere,
    oracle_weyl_leading_term,
    reference_count,
    reference_listing,
    sphere_multiplicity,
)
from test_cli import GOLDEN_SPECTRA
from test_cli import run as run_cli


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

    def test_float_only_candidate(self):
        # without an exact mu^2 the candidate has no symbolic forms; b = -k
        # is then a float within 1e-9 of the lattice, and the classifier
        # refuses rather than decide it
        for n, mu_sq, k in ((1, 1.69, 0), (1, 2.0, 3), (3, 0.3, 1)):
            p = candidate_params(n, Mode(mu_sq, 1), k)
            assert (p.a_sym, p.b_sym, p.c_sym) == (None, None, None)
            assert p.lam == complex(0.0, -(0.5 + k + p.s))
            assert abs(p.b + k) <= 1e-9
            with pytest.raises(UndecidableMembership, match="^b = "):
                classify_pole(p)


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

    def test_symbolic_form_without_s_data(self):
        # a surd candidate's forms carry s; stripped of s^2 they cannot be
        # decided, and the classifier says so instead of guessing
        p = candidate_params(1, Mode(3.25, 1, Fraction(13, 4)), 0)
        with pytest.raises(InconsistentParams, match="symbolic form of c"):
            classify_pole(dataclasses.replace(p, s_sq_exact=None))

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

    @pytest.mark.parametrize("count", [False, True])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan,
                                       10 ** 400],
                             ids=["inf", "-inf", "nan", "10**400"])
    def test_non_finite_bound(self, count, bound):
        # a bound the position test cannot read as a double is refused
        # before the scan, by enumeration and counting alike
        fn = count_resonances if count else enumerate_resonances
        with pytest.raises(ValidationError,
                           match="lambda bound must be a real in"):
            fn(circle_spectrum(1, 5), 3, bound)


def listing_rows(spec, k_max, bound):
    """_listing's rows for spec, checked against reference_listing: every
    row's t bit for bit, key, contributors, multiplicity and place, and
    den and all_exact."""
    generic = _scan(spec, k_max, bound)
    rows, den, exact = _listing(generic, k_max, bound)
    want, want_den, want_exact = reference_listing(generic, k_max, bound)
    assert (den, exact) == (want_den, want_exact)
    assert [(r[0].hex(), *r[1:]) for r in rows] == [
        (r[0].hex(), *r[1:]) for r in want]
    return rows


def exact_mode(mu_sq: Fraction, m: int = 1, label: int = 0) -> Mode:
    return Mode(float(mu_sq), m, mu_sq, label)


def random_spectrum(seed: int, kind: str, labels: str) -> SpectrumSpec:
    # exact modes take rational s = p/q over a few denominators, so many
    # share s mod 1; surd modes take a rational mu^2; float modes none
    rng = random.Random(f"{seed}:{kind}")
    n = rng.choice((1, 2, 3))
    shift = Fraction((n - 1) ** 2, 4)
    modes = []
    for _ in range(rng.randint(1, 14)):
        pick = (rng.choice(("exact", "surd", "float")) if kind == "mixed"
                else kind)
        m = rng.randint(1, 3)
        if pick == "exact":
            s = Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 6, 12)))
            if s * s >= shift:
                modes.append(exact_mode(s * s - shift, m))
        elif pick == "surd":
            modes.append(exact_mode(
                Fraction(rng.randint(0, 300), rng.choice((1, 2, 5, 7))), m))
        else:
            mode = Mode(rng.uniform(0.0, 200.0), m)
            if is_generic(mode, n) is not GenericityVerdict.UNKNOWN_FLOAT:
                modes.append(mode)
    modes.sort(key=lambda mode: mode.mu_sq)
    label = {"index": lambda j: j, "reversed": lambda j: len(modes) - j,
             "zero": lambda j: 0}[labels]
    return SpectrumSpec(n, [dataclasses.replace(mode, label=label(j))
                            for j, mode in enumerate(modes)], None, "file")


class TestListingReference:
    """The per-class walk of _listing gives the rows of reference_listing,
    the one-pass walk over every (j, k) pair, in the same order."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECTRA))
    def test_golden_spectra(self, name):
        spec = load_spectrum(io.StringIO(json.dumps(GOLDEN_SPECTRA[name])))
        for bound in (0.9, 4.5, 12.0, 30.0):
            for k_max in (0, 2, 13, 40):
                listing_rows(spec, k_max, bound)

    @pytest.mark.parametrize("rho", ["1", "2", "3", "1/2", "3/2", "2/3",
                                     "5/4", "4/3", "5/2"])
    def test_circles(self, rho):
        for bound in (0.5, 3.7, 17.25):
            spec = circle_spectrum(rho, math.ceil(Fraction(rho) * 18) + 1)
            for k_max in (2, math.ceil(bound) + 1):
                listing_rows(spec, k_max, bound)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_spheres(self, n):
        for bound in (4.5, 20.0):
            for k_max in (1, 21):
                listing_rows(sphere_spectrum(n, 22), k_max, bound)

    @pytest.mark.parametrize("labels", ["index", "reversed", "zero"])
    @pytest.mark.parametrize("kind", ["exact", "surd", "float", "mixed"])
    def test_seeded_random(self, kind, labels):
        for seed in range(25):
            spec = random_spectrum(seed, kind, labels)
            rng = random.Random(seed)
            for _ in range(3):
                listing_rows(spec, rng.choice((0, 1, 3, 10, 40)),
                             round(rng.uniform(0.0, 30.0), 2))

    def test_shared_surd_square(self):
        # two modes with s^2 = 2 give one row per k, keyed by (2, 1, k)
        spec = SpectrumSpec(1, [exact_mode(Fraction(2), 1, 0),
                                exact_mode(Fraction(2), 3, 1)], None, "file")
        rows = listing_rows(spec, 5, 4.0)
        assert [row[1:] for row in rows] == [
            ((2, 1, k), ((0, k), (1, k)), 4) for k in range(3)]

    def test_rational_class(self):
        # s = 1/3, 4/3, 7/3 differ by integers: one class, merged by slot
        spec = SpectrumSpec(1, [exact_mode(Fraction(a * a, 9), 1, j)
                                for j, a in enumerate((1, 4, 7))],
                            None, "file")
        rows = listing_rows(spec, 3, 6.0)
        assert [row[2] for row in rows] == [
            ((0, 0),), ((0, 1), (1, 0)), ((0, 2), (1, 1), (2, 0)),
            ((0, 3), (1, 2), (2, 1)), ((1, 3), (2, 2)), ((2, 3),)]
        assert [row[3] for row in rows] == [1, 2, 3, 3, 2, 1]

    def test_far_apart_class(self):
        # rho = 1e-20 puts every s = j * 1e20 in one class with slot ranges
        # 1e20 apart; each range is merged on its own.  Within a range the
        # doubles of 1/2 + k + s are equal and keep the order of k
        spec = circle_spectrum(Fraction(1, 10 ** 20), 5)
        rows = listing_rows(spec, 3, 5.0e20)
        assert [row[2] for row in rows] == [
            ((j, k),) for j in range(5) for k in range(4)]
        assert rows[4][0] == rows[7][0] == 1e20

    def test_float_cluster_with_mixed_keys(self):
        # a float-only s within 1e-9 of the exact s = 1 and of each other
        spec = SpectrumSpec(1, [exact_mode(Fraction(1), 1, 0),
                                Mode((1 + 4e-10) ** 2, 2, None, 1),
                                Mode((1 + 8e-10) ** 2, 1, None, 2),
                                exact_mode(Fraction(9, 4) ** 2, 1, 3)],
                            None, "file")
        rows = listing_rows(spec, 2, 5.0)
        merged = [row for row in rows if len(row[2]) > 1]
        assert [row[1:] for row in merged] == [
            (None, ((0, k), (1, k), (2, k)), 4) for k in range(3)]

    def test_equal_doubles_keep_walk_order(self):
        # s = 1/3 + e and 4/3 + e (one class) against s = 4/3 (another):
        # distinct exact positions whose doubles are equal.  Ties keep the
        # order in which the walk first reaches each position, so at
        # t = 23/6 the row reached first by mode 1 precedes the row that
        # only mode 2 reaches, although its class comes second
        e = Fraction(1, 3 * 10 ** 20)
        s = [Fraction(1, 3) + e, Fraction(4, 3), Fraction(4, 3) + e]
        spec = SpectrumSpec(1, [exact_mode(x * x, 1, j)
                                for j, x in enumerate(s)], None, "file")
        rows = listing_rows(spec, 2, 6.0)
        assert [row[2] for row in rows] == [
            ((0, 0),), ((0, 1), (2, 0)), ((1, 0),), ((0, 2), (2, 1)),
            ((1, 1),), ((1, 2),), ((2, 2),)]
        assert rows[5][0] == rows[6][0] and rows[5][1] != rows[6][1]


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
        for lam in (math.inf, math.nan):
            with pytest.raises(ValidationError,
                               match="lambda must be a real in"):
                weyl_leading_term(1, 1.0, lam)

    def test_leading_term_overflow(self):
        # the term itself overflows a double: lambda^(n+1), Gamma(n/2 + 1)
        # with a large power of lambda, or the product of finite factors
        for n, vol, lam in ((1, 1.0, 1e300), (400, 1.0, 190.0),
                            (1, 1e300, 1e10)):
            with pytest.raises(DomainError, match=f"n = {n} "):
                weyl_leading_term(n, vol, lam)

    def test_leading_term_underflow(self):
        # a count divides by the term: at lambda > 0 a term below the
        # smallest normal double is refused, naming n, the volume and lambda
        for n, vol, lam in ((1, 5e-324, 0.4), (1, 5e-324, 3.0),
                            (1, 1.0, 1e-160), (3, 1e-300, 1e-3)):
            with pytest.raises(DomainError, match=(
                    f"n = {n}, volume = {vol!r} at lambda = {lam!r} ")):
                weyl_leading_term(n, vol, lam)
        assert weyl_leading_term(1, 5e-324, 0.0) == 0.0
        assert weyl_leading_term(1, 2 * math.pi, 1e-150) == pytest.approx(
            1e-300, rel=1e-15)

    @pytest.mark.parametrize("n,vol,lam", [
        (1, 1e300, 1e-200), (400, 1.0, 10.0), (400, 1.0, 150.0),
        (3, 1e300, 1e-90), (1000, 1e10, 30.0), (343, 1.0, 12.0)])
    def test_leading_term_log_space(self, n, vol, lam):
        # a factor or the direct product leaves the normal range
        # (lambda^(n+1) underflows, Gamma(n/2 + 1) or pi^(n/2) overflows)
        # but the term does not: it is recomputed from logs
        got = weyl_leading_term(n, vol, lam)
        assert got == pytest.approx(oracle_weyl_leading_term(n, vol, lam),
                                    rel=1e-12)

    @pytest.mark.parametrize("n,vol,lam", [(3, 1e300, 1e-80),
                                           (5, 1e200, 1e-55)])
    def test_leading_term_subnormal_factor(self, n, vol, lam):
        # lambda^(n+1) is subnormal (1e-320) or underflows to 0 while the
        # term is a normal double: the direct product kept 1.1e-5 relative
        # error from the subnormal factor, the log form does not
        got = weyl_leading_term(n, vol, lam)
        assert got == pytest.approx(oracle_weyl_leading_term(n, vol, lam),
                                    rel=1e-12)

    def test_leading_term_direct_form_unchanged(self):
        # where the direct product is a normal double it is the term, bit
        # for bit
        for n in (1, 2, 3, 5, 8, 20):
            for vol in (1e-5, 2 * math.pi, 1e5):
                for lam in (1e-3, 0.5, 1.0, 7.25, 40.0, 1e4):
                    try:
                        ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
                        want = (ball * vol * lam ** (n + 1)
                                / ((2.0 * math.pi) ** n * (n + 1)))
                    except OverflowError:
                        continue
                    if sys.float_info.min <= want < math.inf:
                        assert weyl_leading_term(n, vol, lam) == want

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
    # a surd position (s^2 = 7/12) and a rational one (s = 2) with the
    # bound on it and one double below it
    @example(kind="surd", j=1, k=0, which=0, place="on")
    @example(kind="surd", j=1, k=0, which=0, place="below")
    @example(kind="mixed", j=2, k=1, which=0, place="on")
    @example(kind="mixed", j=2, k=1, which=0, place="below")
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

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["circle", "sphere", "surd", "float",
                                 "mixed"]),
           rho=st.sampled_from(DYADIC_RADII), n=st.sampled_from([3, 5]),
           probes=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                     st.integers(0, 2)),
                           min_size=1, max_size=2))
    @example(kind="surd", rho=Fraction(1), n=3,
             probes=[(1, 0, 0), (3, 2, 1)])
    @example(kind="mixed", rho=Fraction(1), n=3,
             probes=[(2, 1, 0), (0, 0, 2)])
    def test_weyl_grid(self, tmp_path_factory, kind, rho, n, probes):
        # one weyl run over a grid of bounds, each on a position and one
        # double below it, counts what count_resonances and the
        # brute-force oracle count bound by bound
        grid = []
        for j, k, which in probes:
            if kind == "circle":
                position = float(Fraction(1, 2) + k + j / rho)
            elif kind == "sphere":
                position = 0.5 + k + j + (n - 1) / 2
            else:
                n, build = {"surd": (2, _surd_modes),
                            "float": (1, _float_modes),
                            "mixed": (1, _mixed_modes)}[kind]
                near = build(j)[-3:]
                position = _position(n, near[which % len(near)], k)
            grid += [position, math.nextafter(position, 0.0)]
        top = max(grid)
        k_max = math.ceil(top) + 1
        if kind == "circle":
            n = 1
            j_max = math.ceil(rho * Fraction(top)) + 1
            modes = [(Fraction(j * j) / (rho * rho), None, 1 if j == 0 else 2)
                     for j in range(j_max + 1)]
            spec, source = circle_spectrum(rho, j_max), ["--circle", str(rho)]
        elif kind == "sphere":
            j_max = k_max
            modes = [(Fraction(j * (j + n - 1)), None,
                      sphere_multiplicity(n, j)) for j in range(j_max + 1)]
            spec, source = sphere_spectrum(n, j_max), ["--sphere", str(n)]
        else:
            modes = build(2 * math.ceil(top) + 2)
            spec = _file_spectrum(n, modes)
            path = tmp_path_factory.mktemp("weyl") / "spec.json"
            path.write_text(json.dumps({**spectrum_to_dict(spec),
                                        "volume": 6.28}), encoding="utf-8")
            source = ["--file", str(path)]
        rc, out, err = run_cli("weyl", *source, "--lambda-grid",
                               ",".join(map(repr, grid)))
        assert (rc, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["lambda"] for row in rows] == grid
        for row, bound in zip(rows, grid):
            want = brute_force_count(n, modes, k_max, bound)
            assert row["count"] == count_resonances(spec, k_max, bound) == want

    def test_early_stop_keeps_reversed_float_order(self, tmp_path):
        # float order reverses exact order: the first mode's exact s =
        # sqrt(1 + 1e-16) lies past the bound 1.5, the second's s = 1 on
        # it; a count that stopped at the first mode with no position
        # would return 0
        spec = _file_spectrum(1, [
            (Fraction(10000000000000001, 10000000000000000), 1.0, 1),
            (Fraction(1), 1.0000000000000002, 1), (Fraction(100), 100.0, 1)])
        below = math.nextafter(1.5, 0.0)
        assert count_resonances(spec, 5, 1.5) == 1
        assert count_resonances(spec, 5, below) == 0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spectrum_to_dict(spec), "volume": 6.28}),
                        encoding="utf-8")
        rc, out, err = run_cli("weyl", "--file", str(path), "--lambda-grid",
                               f"1.5,{below!r}")
        assert (rc, err) == (0, "")
        assert [row["count"] for row in json.loads(out)["rows"]] == [1, 0]

    def test_early_stop_near_zero_s(self):
        # near s = 0 a float/exact gap of 1e-15 in mu^2 moves s by 3e-8:
        # float mu^2 1.5e-15 has exact s = sqrt(2.4e-15) = 4.9e-8, past the
        # bound 0.50000003, and the next mode s = sqrt(8e-16) = 2.8e-8,
        # below it.  A stop 1e-9 (1 + L) past L - 1/2 would count 0 here.
        modes = [(Fraction(24, 10 ** 16), 1.5e-15, 1),
                 (Fraction(8, 10 ** 16), 1.6e-15, 1), (Fraction(100), 100.0, 1)]
        for bound, want in ((0.50000003, 1), (0.50000002, 0)):
            assert brute_force_count(1, modes, 2, bound) == want
            assert count_resonances(_file_spectrum(1, modes), 2, bound) == want

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


def _run_position(n: int, rho: Fraction, j: int, k: int) -> Fraction:
    # 1/2 + k + s_j on a circle of radius rho (n = 1) or a round n-sphere
    return Fraction(1, 2) + k + (j / rho if n == 1
                                 else Fraction(2 * j + n - 1, 2))


def _outcome(count, spec, k_max, bound):
    # the count, or "refused" where the truncation cannot certify it
    try:
        return count(spec, k_max, bound)
    except TruncationInsufficient:
        return "refused"


class TestRunCounts:
    """Counts over generated spectra, made in closed form per arithmetic run
    with no Mode built, against the per-mode walk kept as the oracle
    (oracles.reference_count), through weyl and count_resonances alike."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["circle", "circle", "odd sphere",
                                 "even sphere"]),
           a=st.integers(1, 12), b=st.integers(1, 12),
           n=st.sampled_from([3, 5, 7, 9]),
           probes=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14),
                                     st.sampled_from(PLACES)),
                           min_size=1, max_size=3),
           j_shift=st.none() | st.integers(-3, 3),
           k_max=st.none() | st.integers(0, 10))
    # even num: bounds on and below an excluded mode's position (s = 3/2)
    @example(kind="circle", a=2, b=3, n=3, probes=[(1, 0, "on"),
                                                    (1, 2, "below")],
             j_shift=None, k_max=None)
    @example(kind="circle", a=12, b=5, n=3, probes=[(6, 1, "between")],
             j_shift=None, k_max=0)
    @example(kind="circle", a=4, b=1, n=3, probes=[(9, 3, "on")],
             j_shift=-2, k_max=None)
    @example(kind="even sphere", a=1, b=1, n=5, probes=[(2, 1, "on")],
             j_shift=-3, k_max=0)
    def test_weyl_matches_mode_walk(self, kind, a, b, n, probes, j_shift,
                                    k_max):
        rho = Fraction(a, b)
        n = {"circle": 1, "odd sphere": n, "even sphere": n - 1}[kind]
        # positions lie on 1/2 + (n-1)/2 + Z/num: "between" is halfway
        gap = Fraction(1, 2 * rho.numerator) if n == 1 else Fraction(1, 2)
        grid = []
        for j, k, place in probes:
            t = _run_position(n, rho, j, k)
            if place == "between":
                grid.append(float(t + gap))
            else:
                grid.append(_bound_at(float(t), place))
        top = max(grid)
        if n == 1:
            j_max = math.ceil(rho * Fraction(top)) + 1
            source = ["--circle", f"{rho.numerator}/{rho.denominator}"]
        else:
            j_max = math.ceil(top) + 1
            source = ["--sphere", str(n)]
        argv = ["weyl", *source, "--lambda-grid", ",".join(map(repr, grid))]
        if j_shift is not None:
            j_max = max(0, j_max + j_shift)
            argv += ["--jmax", str(j_max)]
        if k_max is None:
            k_max = math.ceil(top) + 1
        else:
            argv += ["--kmax", str(k_max)]
        spec = (circle_spectrum(rho, j_max) if n == 1
                else sphere_spectrum(n, j_max))
        rc, out, err = run_cli(*argv)
        event(f"{kind}: exit {rc}")
        if not _scan(spec, k_max, top):
            assert n % 2 == 0 and out == "" and rc == 5
            return
        try:
            want = [reference_count(spec, k_max, bound) for bound in grid]
        except TruncationInsufficient:
            assert out == "" and rc == 3 and err.startswith(
                "error:truncation:")
            return
        assert (rc, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["count"] for row in rows] == want
        assert [count_resonances(spec, k_max, bound)
                for bound in grid] == want

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(2), Fraction(7, 3),
                                     Fraction(6, 5), Fraction(12, 11),
                                     Fraction(1, 12)])
    def test_circle_far_bound(self, rho):
        # hundreds of modes, each walked by the oracle
        for bound in (300.0, 301.3, 517.25):
            j_max = math.ceil(rho * Fraction(bound)) + 1
            for k_max in (0, 7, math.ceil(bound) + 1):
                spec = circle_spectrum(rho, j_max)
                assert (_outcome(count_resonances, spec, k_max, bound)
                        == _outcome(reference_count, spec, k_max, bound))

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_sphere_far_bound(self, n):
        for bound in (200.0, 233.7):
            for k_max in (0, 11, math.ceil(bound) + 1):
                spec = sphere_spectrum(n, math.ceil(bound) + 1)
                assert (_outcome(count_resonances, spec, k_max, bound)
                        == _outcome(reference_count, spec, k_max, bound))

    def test_closed_forms_beyond_any_walk(self):
        # the unit circle counts (D + 1)^2 with D = floor(L - 1/2); the
        # 3-sphere (m_j = (j + 1)^2, s_j = j + 1) counts
        # sum_{i <= N} i^2 (N + 1 - i) = (N + 1) N(N+1)(2N+1)/6 - (N(N+1)/2)^2
        # with N = floor(L - 3/2) + 1, when j_max and k_max reach past L
        for bound in (1e6 + 0.25, 1e40, 1e150):
            top = math.ceil(bound) + 1
            d = math.floor(Fraction(bound) - Fraction(1, 2))
            assert count_resonances(circle_spectrum(1, top), top,
                                    bound) == (d + 1) ** 2
        for bound in (1e6 + 0.25, 1e40, 1e75):
            top = math.ceil(bound) + 1
            big_n = math.floor(Fraction(bound) - Fraction(3, 2)) + 1
            want = ((big_n + 1) * big_n * (big_n + 1) * (2 * big_n + 1) // 6
                    - (big_n * (big_n + 1) // 2) ** 2)
            assert count_resonances(sphere_spectrum(3, top), top,
                                    bound) == want
