"""Design-based variance estimation for randomized experiments."""

from .core import (
    AssignmentVector,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
    reveal,
)
from .designs import (
    Design,
    ExplicitDesign,
    SampledDesign,
    asmd,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    max_asmd,
)
from .estimators import (
    c_vector,
    difference_in_means,
    hajek,
    horvitz_thompson,
    neyman_variance,
)
from .oracles import (
    estimator_expectation,
    estimator_moments,
    psi,
    psi_mc,
    true_mse_hajek,
    true_variance,
)
from .decomposition import (
    default_q_crd,
    estimate_decomposition,
    q_feasible_for_design,
    v_am,
    v_tilde,
    validate_q,
)
from .contrast import (
    AssumptionReport,
    SubstituteSet,
    check_assumptions,
    full_substitute_map,
    full_substitute_set,
    is_substitute,
    mse_sub_epsem,
    substitution_mode,
    v_pair,
    v_sub,
)
from .imputation import (
    GammaSpec,
    gamma_vector,
    imputation_bias_terms,
    imputation_values,
    impute_c,
    impute_potential_outcomes,
    implicit_beta,
    theta_ht,
    v_imputation,
    v_imputation_mc,
)
from .simulate import (
    OutcomeModel,
    ScenarioSpec,
    SimRecord,
    SimResult,
    emit_outputs,
    gen_covariate_study_a,
    gen_covariates_hainmueller,
    gen_outcomes,
    run_appendix_c,
    run_study,
    run_study_a,
    run_study_b,
    study_a_design,
    study_models,
)
from .io import (
    build_design,
    load_design,
    load_matrix,
    load_observed,
    load_science_table,
    load_substitute_map,
)
from .verify import CheckResult, SUITE_NAMES, run_suite, run_suites

__version__ = "0.1.0"
