"""The typed-error contract at the package surface: a non-finite argument
to a public entry point raises a HyperconeError that names it, never an
untyped error or a nan, and every exported name resolves."""

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
    ln_gamma,
    recip_gamma,
    residual_check,
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
