"""Radial positive definiteness meets Gaussian scale mixtures, numerically.

The package certifies (or refutes) positive semi-definiteness of radial
profiles, evaluates the radial profile a mixing measure induces, reproduces
the exchangeable / law-of-large-numbers route between the two descriptions
by Monte Carlo, and solves the inverse problem of recovering the mixing
measure from profile samples.
"""

from .definetti import (
    EmpiricalMeasure,
    InconsistentInputsError,
    KeyIdentityResult,
    estimate_mixing,
    key_identity_mc,
)
from .measures import (
    ConsistencyReport,
    MixingMeasure,
    dirac,
    exponential_measure,
    levy_measure,
    marginal_consistency_check,
    mixture_laplace,
    profile_from_measure,
)
from .monotonicity import MonotonicityReport, complete_monotonicity_check
from .profiles import (
    RadialProfile,
    catalog_profile,
    profile_from_csv,
    tabulated_profile,
)
from .psd import PsdReport, certify_psd, gram_matrix, min_eigenvalue, quadratic_form
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
    "InconsistentInputsError",
    "KeyIdentityResult",
    "MixingMeasure",
    "MonotonicityReport",
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
    "exponential_measure",
    "gram_matrix",
    "key_identity_mc",
    "ks_distance",
    "levy_measure",
    "marginal_consistency_check",
    "min_eigenvalue",
    "mixture_laplace",
    "nnls",
    "profile_from_csv",
    "profile_from_measure",
    "quadratic_form",
    "recover_mixing",
    "tabulated_profile",
    "wasserstein1",
]
