"""Reflection maps, stochastic calculus on sampled paths, and reflected SDEs.

The package builds up from sampled paths and convex domains (projection,
normal cones) to the explicit one-dimensional reflection map, discrete
stochastic integrals and local-time estimators, a multi-dimensional
reflection solver, a projected Euler scheme for reflected SDEs, and a
Monte Carlo experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .domains import (
    ConvexDomain,
    active_normal_cone,
    active_normal_cones,
    ball_domain,
    half_line,
    halfplane,
    normal_cone_residuals,
    orthant,
    strip,
    unit_disc,
)
from .errors import (
    ContractError,
    EvaluationFault,
    GenerationError,
    ProjectionIterationError,
    RefinementLimitError,
)
from .itocalc import (
    Integrand,
    LocalTimeEstimate,
    ito_formula_residual,
    ito_integral,
    ito_isometry_check,
    ito_isometry_samples,
    local_time_occupation,
    local_time_tanaka,
    quadratic_variation,
)
from .paths import PathKind, SampledPath, TimeGrid
from .randomness import InitialLaw, RngSeed, brownian_sample, gaussian_kernel
from .reflect1d import (
    Skorokhod1dSolution,
    rbm_abs,
    rbm_from_skorokhod,
    reflected_density,
    skorokhod_map_1d,
)
from .reflectnd import (
    DomainConditionReport,
    SkorokhodNdSolution,
    check_condition_a,
    check_condition_b,
    modulus_gap,
    solve_skorokhod_continuous,
    solve_skorokhod_continuous_many,
    solve_skorokhod_step,
    tanaka_inequality_gap,
)
from .rsde import (
    SdeCoefficients,
    coefficient_contract_check,
    euler_reflected,
    preset_coefficients,
    semimartingale_skorokhod,
    strong_error_estimate,
)
from .stats import KsResult, McEstimate, half_normal_cdf, ks_test_against_cdf, ks_test_two_sample

__all__ = [
    "__version__",
    "ConvexDomain",
    "ContractError",
    "DomainConditionReport",
    "EvaluationFault",
    "GenerationError",
    "InitialLaw",
    "Integrand",
    "KsResult",
    "LocalTimeEstimate",
    "McEstimate",
    "PathKind",
    "ProjectionIterationError",
    "RefinementLimitError",
    "RngSeed",
    "SampledPath",
    "SdeCoefficients",
    "Skorokhod1dSolution",
    "SkorokhodNdSolution",
    "TimeGrid",
    "active_normal_cone",
    "active_normal_cones",
    "ball_domain",
    "brownian_sample",
    "check_condition_a",
    "check_condition_b",
    "coefficient_contract_check",
    "euler_reflected",
    "gaussian_kernel",
    "half_line",
    "half_normal_cdf",
    "halfplane",
    "ito_formula_residual",
    "ito_integral",
    "ito_isometry_check",
    "ito_isometry_samples",
    "ks_test_against_cdf",
    "ks_test_two_sample",
    "local_time_occupation",
    "local_time_tanaka",
    "modulus_gap",
    "normal_cone_residuals",
    "orthant",
    "preset_coefficients",
    "quadratic_variation",
    "rbm_abs",
    "rbm_from_skorokhod",
    "reflected_density",
    "semimartingale_skorokhod",
    "skorokhod_map_1d",
    "solve_skorokhod_continuous",
    "solve_skorokhod_continuous_many",
    "solve_skorokhod_step",
    "strip",
    "strong_error_estimate",
    "tanaka_inequality_gap",
    "unit_disc",
]
