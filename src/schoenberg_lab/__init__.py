"""Radial positive definiteness meets Gaussian scale mixtures, numerically.

The package certifies (or refutes) positive semi-definiteness of radial
profiles, evaluates and samples the scale mixtures a mixing measure induces,
reproduces the exchangeable / law-of-large-numbers route between the two
descriptions by Monte Carlo, and solves the inverse problem of recovering
the mixing measure from profile samples.
"""

from .definetti import (
    EmpiricalMeasure,
    ExchangeableSample,
    InconsistentInputsError,
    KeyIdentityResult,
    estimate_mixing,
    key_identity_mc,
    lln_statistic,
    sample_exchangeable,
)
from .measures import (
    ConsistencyReport,
    GaussianScaleMixture,
    MixingMeasure,
    dirac,
    exponential_measure,
    levy_measure,
    marginal_consistency_check,
    mixture_cf,
    mixture_laplace,
    profile_from_measure,
    sample_mixture,
)
from .monotonicity import MonotonicityReport, complete_monotonicity_check
from .profiles import (
    RadialProfile,
    catalog_profile,
    eval_radial,
    profile_from_csv,
    tabulated_profile,
)
from .psd import PointSet, PsdReport, certify_psd, gram_matrix, min_eigenvalue, quadratic_form
from .recover import (
    RecoveryProblem,
    RecoveryResult,
    design_matrix,
    ks_distance,
    nnls,
    recover_mixing,
    wasserstein1,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyReport",
    "EmpiricalMeasure",
    "ExchangeableSample",
    "GaussianScaleMixture",
    "InconsistentInputsError",
    "KeyIdentityResult",
    "MixingMeasure",
    "MonotonicityReport",
    "PointSet",
    "PsdReport",
    "RadialProfile",
    "RecoveryProblem",
    "RecoveryResult",
    "catalog_profile",
    "certify_psd",
    "complete_monotonicity_check",
    "design_matrix",
    "dirac",
    "estimate_mixing",
    "eval_radial",
    "exponential_measure",
    "gram_matrix",
    "key_identity_mc",
    "ks_distance",
    "levy_measure",
    "lln_statistic",
    "marginal_consistency_check",
    "min_eigenvalue",
    "mixture_cf",
    "mixture_laplace",
    "nnls",
    "profile_from_csv",
    "profile_from_measure",
    "quadratic_form",
    "recover_mixing",
    "sample_exchangeable",
    "sample_mixture",
    "tabulated_profile",
    "wasserstein1",
]
