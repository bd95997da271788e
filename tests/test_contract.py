"""The typed-error contract at the package surface: a non-finite argument
to a public entry point, or a complex one where a real is read, raises a
HyperconeError that names it, never an untyped error or a nan, and every
exported name resolves."""

import math

import pytest

import hypercone
from hypercone import (
    DomainError,
    Mode,
    QuadratureControl,
    RadialProfile,
    ValidationError,
    apply_resolvent,
    gamma,
    hyp2f1,
    hyp2f1_regularized,
    hypergeom_params,
    ln_gamma,
    measure_density,
    r_of_sigma,
    recip_gamma,
    residual_check,
    residue_probe,
    sigma_of_r,
    u1,
    u2,
    weyl_leading_term,
    wronskian_closed_form,
)

NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.inf),
              complex(math.nan, 1.0), complex(1.0, math.nan)]

_BUMP = RadialProfile.bump(0.3, 0.6)

# entry point -> (call with the bad value, typed error, what it names)
ENTRY_POINTS = {
    "gamma": (gamma, DomainError, "z = "),
    "ln_gamma": (ln_gamma, DomainError, "z = "),
    "recip_gamma": (recip_gamma, DomainError, "z = "),
    "hyp2f1(a)": (lambda x: hyp2f1(x, 1.0, 2.0, 0.5), DomainError,
                  "parameter a"),
    "hyp2f1(b)": (lambda x: hyp2f1(1.0, x, 2.0, 0.5), DomainError,
                  "parameter b"),
    "hyp2f1(c)": (lambda x: hyp2f1(1.0, 1.0, x, 0.5), DomainError,
                  "parameter c"),
    "hyp2f1(z)": (lambda x: hyp2f1(1.0, 1.0, 2.0, x), DomainError,
                  "argument"),
    "hyp2f1_regularized(a)": (lambda x: hyp2f1_regularized(x, 1.0, 2.0, 0.5),
                              DomainError, "parameter a"),
    "hyp2f1_regularized(c)": (lambda x: hyp2f1_regularized(1.0, 1.0, x, 0.2),
                              DomainError, "parameter c"),
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
}


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_argument_is_typed_error(entry, value):
    call, error, names = ENTRY_POINTS[entry]
    with pytest.raises(error, match=names):
        call(value)


_P = hypergeom_params(2, Mode(2.0, 1), 1 - 0.7j)

# real-coordinate argument -> (call with the bad value, the typed error of
# its own range check, what it names)
REAL_ARGUMENTS = {
    "u1(sigma)": (lambda x: u1(_P, x), DomainError, "sigma"),
    "u2(sigma)": (lambda x: u2(_P, x), DomainError, "sigma"),
    "wronskian_closed_form(sigma)": (lambda x: wronskian_closed_form(_P, x),
                                     DomainError, "sigma"),
    "sigma_of_r(r)": (sigma_of_r, DomainError, "r must"),
    "r_of_sigma(sigma)": (r_of_sigma, DomainError, "sigma"),
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
    "residue_probe(threshold)": (
        lambda x: residue_probe(1, Mode(1.0, 1), -1.5j, threshold=x),
        ValidationError, "threshold"),
    "weyl_leading_term(lam)": (lambda x: weyl_leading_term(1, 1.0, x),
                               ValidationError, "lambda"),
}


@pytest.mark.parametrize("value", [complex(0.45, 0.0), complex(0.0, math.inf)],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
def test_non_real_argument_is_typed_error(entry, value):
    # a complex argument, even with a zero imaginary part, once reached an
    # ordering test and raised an untyped TypeError
    call, error, names = REAL_ARGUMENTS[entry]
    with pytest.raises(error, match=names):
        call(value)


def test_exported_names():
    for name in hypercone.__all__:
        assert hasattr(hypercone, name), name
    for name in ("pochhammer", "gauss_series", "indicial_roots",
                 "IndicialData"):
        assert name not in hypercone.__all__
        assert not hasattr(hypercone, name), name
    for module, name in ((hypercone.specfun, "pochhammer"),
                         (hypercone.specfun, "gauss_series"),
                         (hypercone.resolvent, "indicial_roots"),
                         (hypercone.resolvent, "IndicialData")):
        assert not hasattr(module, name), name
