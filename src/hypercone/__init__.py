"""Scattering resonances of hyperbolic cones.

Enumerate and classify the resonance lattice lambda = -i(1/2 + k + s_j) of
the cone over a cross-section with Laplace eigenvalues mu_j^2, and evaluate
the explicit hypergeometric mode resolvent well enough to verify the
classification numerically (ODE residuals, Wronskians, Green symmetry,
contour residue probes).
"""

from .crosssec import (
    GenericityVerdict,
    Mode,
    SpectrumSpec,
    circle_spectrum,
    is_generic,
    load_spectrum,
    save_spectrum,
    sphere_spectrum,
    spectrum_to_dict,
)
from .errors import (
    DomainError,
    HyperconeError,
    InconsistentParams,
    InvalidDimension,
    InvalidRadius,
    LowerParameterPole,
    NoConvergence,
    ParameterPole,
    ParseError,
    PoleAtNonPositiveInteger,
    PoleEvaluation,
    ProbeInconclusive,
    QuadratureFailure,
    TruncationInsufficient,
    UndecidableMembership,
    ValidationError,
)
from .quadrature import integrate
from .resolvent import (
    IndicialData,
    ProbeResult,
    QuadratureControl,
    RadialProfile,
    ResidualReport,
    apply_resolvent,
    green_pairing,
    indicial_roots,
    measure_density,
    r_of_sigma,
    residual_check,
    residue_probe,
    sigma_of_r,
    u1,
    u2,
    wronskian_closed_form,
)
from .resonances import (
    CaseId,
    HypergeomParams,
    PoleClass,
    PoleVerdict,
    Resonance,
    ResonanceSet,
    SValue,
    Truncation,
    candidate_params,
    classify_pole,
    count_resonances,
    enumerate_resonances,
    hypergeom_params,
    s_param,
    weyl_count,
    weyl_leading_term,
)
from .specfun import (
    SeriesControl,
    gamma,
    gauss_series,
    hyp2f1,
    hyp2f1_regularized,
    ln_gamma,
    pochhammer,
    recip_gamma,
)
from .verify import (
    SUITE_NAMES,
    CheckResult,
    format_results,
    run_all,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CaseId", "CheckResult", "DomainError", "GenericityVerdict",
    "HyperconeError", "HypergeomParams", "InconsistentParams",
    "IndicialData", "InvalidDimension", "InvalidRadius",
    "LowerParameterPole", "Mode", "NoConvergence", "ParameterPole",
    "ParseError", "PoleAtNonPositiveInteger", "PoleClass", "PoleEvaluation",
    "PoleVerdict", "ProbeInconclusive", "ProbeResult", "QuadratureControl",
    "QuadratureFailure", "RadialProfile", "Resonance", "ResonanceSet",
    "ResidualReport", "SUITE_NAMES", "SValue", "SeriesControl",
    "SpectrumSpec", "Truncation", "TruncationInsufficient",
    "UndecidableMembership", "ValidationError", "apply_resolvent",
    "candidate_params", "circle_spectrum", "classify_pole",
    "count_resonances", "enumerate_resonances", "format_results", "gamma", "gauss_series",
    "green_pairing", "hyp2f1", "hyp2f1_regularized", "hypergeom_params",
    "indicial_roots", "integrate", "is_generic", "ln_gamma",
    "load_spectrum", "measure_density", "pochhammer", "r_of_sigma",
    "recip_gamma", "residual_check", "residue_probe", "run_all",
    "run_suite", "s_param", "save_spectrum", "sigma_of_r",
    "sphere_spectrum", "spectrum_to_dict", "u1", "u2", "weyl_count",
    "weyl_leading_term", "wronskian_closed_form", "__version__",
]
