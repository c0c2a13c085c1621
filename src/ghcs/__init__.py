"""Generalized hypergeometric (coherent) states.

Numerical toolkit for states whose normalization function is a generalized
hypergeometric series: parameter validation and convergence domains,
truncated Fock representations, ladder operators, photon number statistics,
resolution-of-unity weight functions with moment verification, Husimi and
phase distributions, and analytic (Bargmann/Hardy) representations.
"""

from .errors import (
    CircleNoGoError,
    ConvergenceError,
    DivergenceError,
    GHSError,
    ParameterError,
    PoleError,
    RangeError,
)
from .ladder import (
    apply_lowering,
    eigenvalue_residual,
    f_coeff,
)
from .photstat import (
    DistributionSeries,
    PhotonStats,
    closed_form_stats,
    mean_and_mandel,
    pn_distribution,
)
from .phase import (
    GCoefficientTable,
    PhaseDistribution,
    default_theta_grid,
    g_coefficients,
    gh_husimi,
    phase_distribution,
    radial_phase_check,
    self_dual_husimi,
)
from .analytic import (
    analytic_rep,
    inner_product_via_measure,
)
from .specfun import (
    SeriesResult,
    gauss_2f1,
    ln_bessel_k,
    ln_gamma,
    ln_gamma_ratio,
    pfq,
    tricomi_u,
)
from .states import (
    DomainClass,
    DomainKind,
    FockVector,
    ParameterSet,
    StateSpec,
    classify,
    fock_basis_vector,
    fock_from_coeffs,
    fock_vector,
    normalization,
    overlap,
    rho,
    validate,
)
from .weights import (
    MomentReport,
    circle_weight_attempt,
    moment_check,
    weight,
    weight_tilde,
)

__version__ = "0.1.0"

__all__ = [
    "CircleNoGoError", "ConvergenceError", "DistributionSeries",
    "DivergenceError", "DomainClass", "DomainKind", "FockVector",
    "GCoefficientTable", "GHSError", "MomentReport",
    "ParameterError", "ParameterSet", "PhaseDistribution", "PhotonStats",
    "PoleError", "RangeError", "SeriesResult", "StateSpec", "analytic_rep", "apply_lowering",
    "circle_weight_attempt", "classify", "closed_form_stats", "default_theta_grid",
    "eigenvalue_residual", "f_coeff", "fock_basis_vector",
    "fock_from_coeffs", "fock_vector", "g_coefficients", "gauss_2f1",
    "gh_husimi", "inner_product_via_measure", "ln_bessel_k", "ln_gamma", "ln_gamma_ratio",
    "mean_and_mandel", "moment_check", "normalization", "overlap", "pfq", "phase_distribution",
    "pn_distribution", "radial_phase_check",
    "rho", "self_dual_husimi", "tricomi_u", "validate", "weight", "weight_tilde",
]
