"""Tempered-posterior sparse network estimation on finite-state Markov
chain data, with spectral-gap machinery and concentration-bound checkers."""

from .bounds import (
    BoundReport,
    bernstein_mgf_rhs,
    chain_mgf_rhs,
    composition_rate_rhs,
    kl_numeric_check,
    kl_truncated_uniform_rhs,
    mc_check_bernstein,
    mc_check_chain_mgf,
    oracle_rhs,
)
from .gibbs import (
    ClassDef,
    GibbsConfig,
    PosteriorDraws,
    Prior,
    log_prior,
    posterior_predictor,
    sample_batch,
    sample_posterior,
    temperature,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    architecture_rule,
    build_chain,
    build_target,
    emit_report,
    fit_rate_slope,
    run_effective_sample_experiment,
    run_rate_sweep,
)
from .markov import (
    StationaryDist,
    TransitionKernel,
    estimate_pseudo_gap,
    mixing_time,
    pseudo_spectral_gap,
    simulate,
    spectral_gap,
    stationary_distribution,
    time_reversal,
    two_source_kernel,
)
from .model import (
    Dataset,
    TargetSpec,
    conditional_excess_logistic,
    excess_risk_mc,
    generate_classification,
    generate_regression,
    holder_target,
    logistic_link_target,
    logistic_loss,
    logistic_target,
    rate_exponent,
    rate_exponents,
    subgaussian_envelope,
)
from .network import (
    Architecture,
    SparseNetwork,
    forward,
    lipschitz_parameter_bound,
    max_param_count,
    param_count,
)

__version__ = "0.1.0"
