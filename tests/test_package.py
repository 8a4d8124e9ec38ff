"""The names ``import schoenberg_lab`` exports."""

import schoenberg_lab

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(schoenberg_lab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(schoenberg_lab, name) is not None, name
