"""The typed-error contract at the package surface: a public entry point
reads each numeric argument by one rule (errors._real, _integer, _complex
and _rational), so a non-finite value, a complex one where a real is
read, and a string, None, a list or a bool all raise the argument's own
HyperconeError naming it, never an untyped error or a nan, and every
exported name resolves."""

import math
import re
from fractions import Fraction

import pytest

import hypercone
from hypercone import (
    DomainError,
    InconsistentParams,
    InvalidDimension,
    Mode,
    QuadratureControl,
    RadialProfile,
    SpectrumSpec,
    ValidationError,
    apply_resolvent,
    candidate_params,
    circle_spectrum,
    count_resonances,
    enumerate_resonances,
    hyp2f1,
    hyp2f1_regularized,
    hypergeom_params,
    is_generic,
    ln_gamma,
    measure_density,
    r_of_sigma,
    residual_check,
    residue_probe,
    run_suite,
    s_param,
    sigma_of_r,
    sphere_spectrum,
    u1,
    u2,
    weyl_count,
    weyl_leading_term,
    wronskian_closed_form,
)

NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.inf),
              complex(math.nan, 1.0), complex(1.0, math.nan)]
# no rule reads these as numbers; a bool is refused everywhere, where an
# integer is read included
MALFORMED = ["x", None, [1], True]

_BUMP = RadialProfile.bump(0.3, 0.6)
_P = hypergeom_params(2, Mode(2.0, 1), 1 - 0.7j)
_CIRCLE = circle_spectrum(1, 3)
_RSET = enumerate_resonances(_CIRCLE, 3, 5.0)

# complex argument -> (call with the bad value, typed error, what it names)
COMPLEX_ARGUMENTS = {
    "ln_gamma": (ln_gamma, DomainError, "argument z"),
    "hyp2f1(a)": (lambda x: hyp2f1(x, 1.0, 2.0, 0.5), DomainError,
                  "parameter a"),
    "hyp2f1(b)": (lambda x: hyp2f1(1.0, x, 2.0, 0.5), DomainError,
                  "parameter b"),
    "hyp2f1(c)": (lambda x: hyp2f1(1.0, 1.0, x, 0.5), DomainError,
                  "parameter c"),
    "hyp2f1_regularized(a)": (lambda x: hyp2f1_regularized(x, 1.0, 2.0, 0.5),
                              DomainError, "parameter a"),
    "hyp2f1_regularized(b)": (lambda x: hyp2f1_regularized(1.0, x, 2.0, 0.5),
                              DomainError, "parameter b"),
    "hyp2f1_regularized(c)": (lambda x: hyp2f1_regularized(1.0, 1.0, x, 0.2),
                              DomainError, "parameter c"),
    "hypergeom_params(lambda)": (
        lambda x: hypergeom_params(1, Mode(1.0, 1), x), DomainError,
        "lambda must"),
    "apply_resolvent(lambda)": (
        lambda x: apply_resolvent(1, Mode(1.0, 1), x, _BUMP, 0.45),
        DomainError, "lambda must"),
    "residue_probe(lambda)": (lambda x: residue_probe(1, Mode(1.0, 1), x),
                              DomainError, "lambda must"),
}

# real or integer argument -> (call with the bad value, the typed error of
# its own range check, what it names)
REAL_ARGUMENTS = {
    "hyp2f1(z)": (lambda x: hyp2f1(1.0, 1.0, 2.0, x), DomainError,
                  "argument"),
    "hyp2f1_regularized(z)": (lambda x: hyp2f1_regularized(1.0, 1.0, 2.0, x),
                              DomainError, "argument z"),
    "apply_resolvent(sigma)": (
        lambda x: apply_resolvent(1, Mode(1.0, 1), 2j, _BUMP, x),
        DomainError, "sigma"),
    "residual_check(grid)": (
        lambda x: residual_check(1, Mode(1.0, 1), 2j, _BUMP,
                                 grid=[0.3, x, 0.6]),
        ValidationError, "grid"),
    "QuadratureControl(abs_tol)": (lambda x: QuadratureControl(abs_tol=x),
                                   ValidationError, "abs_tol"),
    "QuadratureControl(rel_tol)": (lambda x: QuadratureControl(rel_tol=x),
                                   ValidationError, "rel_tol"),
    "QuadratureControl(max_subdivisions)": (
        lambda x: QuadratureControl(max_subdivisions=x),
        ValidationError, "max_subdivisions"),
    "u1(sigma)": (lambda x: u1(_P, x), DomainError, "sigma"),
    "u2(sigma)": (lambda x: u2(_P, x), DomainError, "sigma"),
    "wronskian_closed_form(sigma)": (lambda x: wronskian_closed_form(_P, x),
                                     DomainError, "sigma"),
    "sigma_of_r(r)": (sigma_of_r, DomainError, "r must"),
    "r_of_sigma(sigma)": (r_of_sigma, DomainError, "sigma"),
    "measure_density(n)": (lambda x: measure_density(x, 0.5), DomainError,
                           "n must"),
    "measure_density(sigma)": (lambda x: measure_density(2, x), DomainError,
                               "sigma"),
    "residual_check(h)": (
        lambda x: residual_check(1, Mode(1.0, 1), 2j, _BUMP, h=x),
        ValidationError, "h must"),
    "RadialProfile(lo)": (lambda x: RadialProfile(_BUMP.func, (x, 0.6)),
                          ValidationError, "support"),
    "RadialProfile(hi)": (lambda x: RadialProfile(_BUMP.func, (0.3, x)),
                          ValidationError, "support"),
    "residue_probe(radius)": (
        lambda x: residue_probe(1, Mode(1.0, 1), -1.5j, radius=x),
        ValidationError, "radius"),
    "residue_probe(points)": (
        lambda x: residue_probe(1, Mode(1.0, 1), -1.5j, points=x),
        ValidationError, "points"),
    "residue_probe(threshold)": (
        lambda x: residue_probe(1, Mode(1.0, 1), -1.5j, threshold=x),
        ValidationError, "threshold"),
    "s_param(n)": (lambda x: s_param(x, Mode(1.0, 1)), InvalidDimension,
                   "n must"),
    "hypergeom_params(n)": (lambda x: hypergeom_params(x, Mode(1.0, 1), 1j),
                            InvalidDimension, "n must"),
    "candidate_params(k)": (lambda x: candidate_params(1, Mode(1.0, 1), x),
                            ValidationError, "k must"),
    "enumerate_resonances(k_max)": (
        lambda x: enumerate_resonances(_CIRCLE, x, 5.0), ValidationError,
        "k_max"),
    "enumerate_resonances(lambda_max)": (
        lambda x: enumerate_resonances(_CIRCLE, 3, x), ValidationError,
        "lambda bound"),
    "count_resonances(k_max)": (lambda x: count_resonances(_CIRCLE, x, 5.0),
                                ValidationError, "k_max"),
    "count_resonances(bound)": (lambda x: count_resonances(_CIRCLE, 3, x),
                                ValidationError, "lambda bound"),
    "weyl_count(lambda_bound)": (lambda x: weyl_count(_RSET, x),
                                 ValidationError, "lambda bound"),
    "complete_up_to(bound)": (_RSET.complete_up_to, ValidationError,
                              "lambda bound"),
    "weyl_leading_term(n)": (lambda x: weyl_leading_term(x, 1.0, 1.0),
                             InvalidDimension, "n must"),
    "weyl_leading_term(vol_y)": (lambda x: weyl_leading_term(1, x, 1.0),
                                 ValidationError, "volume"),
    "weyl_leading_term(lam)": (lambda x: weyl_leading_term(1, 1.0, x),
                               ValidationError, "lambda"),
    "SpectrumSpec(n)": (lambda x: SpectrumSpec(x, [], None, "file"),
                        InvalidDimension, "dimension n"),
    "sphere_spectrum(n)": (lambda x: sphere_spectrum(x, 3), InvalidDimension,
                           "n must"),
    "sphere_spectrum(j_max)": (lambda x: sphere_spectrum(2, x),
                               ValidationError, "j_max"),
    "circle_spectrum(j_max)": (lambda x: circle_spectrum(1, x),
                               ValidationError, "j_max"),
    "is_generic(n)": (lambda x: is_generic(Mode(1.0, 1), x), InvalidDimension,
                      "n must"),
    "Mode(mu_sq)": (lambda x: Mode(x, 1), ValidationError, "mu_sq must"),
    "Mode(multiplicity)": (lambda x: Mode(1.0, x), ValidationError,
                           "multiplicity must"),
}

# an argument with bad values of its own, where None may mean something
# -> (call with the bad value, typed error, what it names, bad values by id)
OTHER_ARGUMENTS = {
    "Mode(mu_sq)": (
        lambda x: Mode(x, 1), ValidationError, "mu_sq must",
        {"10**400": 10 ** 400, "-10**400": -10 ** 400,
         "Fraction": Fraction(1, 2), "str": "1.0"}),
    "Mode(mu_sq_exact)": (
        lambda x: Mode(1.0, 1, x), ValidationError, "mu_sq_exact must",
        {"str": "1", "word": "x", "float": 1.0, "half": 0.5,
         "nan": math.nan, "complex": complex(1.0, 0.0), "bool": True,
         "list": [1]}),
    "SpectrumSpec(modes)": (
        lambda x: SpectrumSpec(1, x, None, "file"), ValidationError,
        "modes must be a list of Mode",
        {"int": 5, "None": None, "str": "x", "tuple": (Mode(1.0, 1),),
         "float entry": [Mode(1.0, 1), 2.0], "None entry": [None],
         "bool entry": [Mode(1.0, 1), Mode(2.0, 1), True]}),
    "run_suite(name)": (
        run_suite, ValidationError, "unknown suite",
        {"unknown": "nope", "empty": "", "None": None, "int": 1,
         "bool": True, "list": ["specfun"]}),
}

ENTRY_POINTS = {**COMPLEX_ARGUMENTS, **REAL_ARGUMENTS}


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_argument_is_typed_error(entry, value):
    call, error, names = ENTRY_POINTS[entry]
    with pytest.raises(error, match=names):
        call(value)


@pytest.mark.parametrize("value", [complex(0.45, 0.0), complex(0.0, math.inf)],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
def test_non_real_argument_is_typed_error(entry, value):
    # a complex argument, even with a zero imaginary part, once reached an
    # ordering test and raised an untyped TypeError
    call, error, names = REAL_ARGUMENTS[entry]
    with pytest.raises(error, match=names):
        call(value)


@pytest.mark.parametrize("value", MALFORMED, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_malformed_argument_is_typed_error(entry, value):
    # a string or None once reached an ordering test or complex() and
    # raised TypeError or ValueError; a bool was read as 0 or 1
    call, error, names = ENTRY_POINTS[entry]
    with pytest.raises(error, match=names):
        call(value)


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry, (_, _, _, values) in sorted(OTHER_ARGUMENTS.items())
    for name, value in values.items()])
def test_other_argument_is_typed_error(entry, value):
    # Mode once took a bool mu_sq and a bool exact form (stored as 1) and
    # raised AttributeError on a string or float exact form; SpectrumSpec
    # raised AttributeError or TypeError on what is no list of Mode, and
    # run_suite ValueError on an unknown name
    call, error, names, _ = OTHER_ARGUMENTS[entry]
    with pytest.raises(error, match=names):
        call(value)


@pytest.mark.parametrize("value", ["x", math.nan, math.inf, 1.5, 2.0, True,
                                   False, complex(1.5, 0.0), [1]], ids=repr)
def test_lam_im_exact_is_an_exact_rational(value):
    # lam_im_exact is carried into the exact lattice forms: a float, even a
    # whole one, is refused along with a string, nan or a bool, never
    # reaching classify_pole as a float (AttributeError) or raising
    # ValueError
    with pytest.raises(DomainError, match="lam_im_exact must be"):
        hypergeom_params(1, Mode(1.0, 1, Fraction(1)), 1.5j,
                         lam_im_exact=value)


def test_lam_im_exact_reads_ints_and_fractions():
    mode = Mode(1.0, 1, Fraction(1))
    for lam, value in ((2j, 2), (2j, Fraction(2)), (-1.5j, Fraction(-3, 2))):
        p = hypergeom_params(1, mode, lam, lam_im_exact=value)
        assert p.a_sym == hypergeom_params(1, mode, lam).a_sym
        assert p.a_sym[0] == Fraction(1, 2) + value
    # one beyond the double range cannot match lambda: refused as such,
    # not by an untyped OverflowError
    with pytest.raises(InconsistentParams, match="disagrees"):
        hypergeom_params(1, mode, 2j, lam_im_exact=Fraction(10 ** 400))


@pytest.mark.parametrize("rho", [1e-320, 5e-324], ids=repr)
def test_float_radius_overflow_is_domain_error(rho):
    # 1 / rho gives inf, not an OverflowError, where it leaves the double
    # range, so such a float radius once reached Mode with mu^2 = inf and
    # raised ValidationError there instead of naming rho and the first j
    with pytest.raises(DomainError, match=(
            f"rho = {re.escape(repr(rho))}: .* at j = 1$")):
        circle_spectrum(rho, 3)


def test_exported_names():
    for name in hypercone.__all__:
        assert hasattr(hypercone, name), name
    for name in ("pochhammer", "gauss_series", "indicial_roots",
                 "IndicialData", "gamma", "recip_gamma"):
        assert name not in hypercone.__all__
        assert not hasattr(hypercone, name), name
    for module, name in ((hypercone.specfun, "pochhammer"),
                         (hypercone.specfun, "gauss_series"),
                         (hypercone.specfun, "gamma"),
                         (hypercone.specfun, "recip_gamma"),
                         (hypercone.specfun, "_sinpi"),
                         (hypercone.specfun, "_exp"),
                         (hypercone.specfun, "_LN_PI"),
                         (hypercone.resolvent, "indicial_roots"),
                         (hypercone.resolvent, "IndicialData")):
        assert not hasattr(module, name), name
