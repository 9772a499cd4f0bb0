"""The refusal rule (see :mod:`gibbsnet.errors`): a library module rejects a
value with a ValueError, or a GibbsNetError that is also one, and never
makes a ConfigError; the config layer alone labels it with its key."""

import numpy as np
import pytest

from gibbsnet import bounds, errors, gibbs, markov, model, network
from gibbsnet.errors import (
    ConfigError,
    DimensionMismatch,
    EigenFailure,
    GibbsNetError,
    InvalidClass,
    LambdaOutOfRange,
    ThetaOutOfRange,
    UnvisitedState,
)
from gibbsnet.gibbs import ClassDef, GibbsConfig, Prior
from gibbsnet.markov import StationaryDist
from gibbsnet.network import Architecture, SparseNetwork

LIBRARY = (bounds, gibbs, markov, model, network)
CONFIG_LAYER = ("ConfigError", "check_value", "check_table", "check_kinded")


def test_every_value_refusal_is_a_value_error():
    # A solver failure and the config errors are not: the config layer's
    # `except ValueError` would relabel a ConfigError a second time.
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, GibbsNetError) and c is not GibbsNetError}
    exempt = {c for c in classes if c is EigenFailure or issubclass(c, ConfigError)}
    assert {c for c in classes if not issubclass(c, ValueError)} == exempt
    assert len(classes - exempt) == 12


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_library_modules_hold_no_config_layer_names(module):
    assert not set(CONFIG_LAYER) & set(vars(module))


UNIFORM_PI = StationaryDist(np.array([0.5, 0.5]))
ONE_INPUT_NET = SparseNetwork(Architecture(0, (1, 1)), np.zeros(2), [], 1.0, 5.0)
TWO_INPUT_NET = SparseNetwork(Architecture(0, (2, 1)), np.zeros(3), [], 1.0, 5.0)
SETTINGS = {"support_decay": 2.0, "weight_bound": 1.0, "output_clip": 5.0, "temperature": 1.0}
RHS = {"lam": 0.5, "n": 100, "gap": 0.5, "k_bernstein": 1.0, "kappa": 1.0, "excess": 0.1}
ORACLE = {"excess_at_best": 0.0, "card": 1, "depth": 1, "n": 100, "gap": 0.5, "slab": 1.0,
          "n_max": 4, "delta": 0.05, "lipschitz_const": 1.0}
KL = {"card": 2, "eta": 0.1, "decay": 2.0, "slab": 1.0, "n_max": 5}

# (library call, the class it documents, a fragment of its message).
REFUSALS = {
    "gibbs-move-probs-sum": (lambda: GibbsConfig(**SETTINGS, move_probs=(0.5, 0.5, 0.5)),
                             ValueError, "sum to 1"),
    "gibbs-step": (lambda: GibbsConfig(**SETTINGS, step=0.0), ValueError, "step must be positive"),
    "gibbs-thin": (lambda: GibbsConfig(**SETTINGS, thin=0), ValueError, "thin must be at least 1"),
    "temperature-n": (lambda: gibbs.temperature(0, 0.5, 1.0), ValueError, "n must be positive"),
    "temperature-gamma": (lambda: gibbs.temperature(10, 1.5, 1.0), ValueError,
                          "gamma must lie in"),
    "sampler-bounds-mismatch": (
        lambda: gibbs.sample_posterior(model.Dataset(np.zeros((2, 1)), np.zeros(2)), "square",
                                       ClassDef(0, 1, 2, 1.0, 5.0),
                                       GibbsConfig(**{**SETTINGS, "weight_bound": 2.0})),
        InvalidClass, "config bounds must match"),
    # The mode is checked before the draws are read.
    "predictor-mode": (lambda: gibbs.posterior_predictor(None, mode="median"), ValueError,
                       "unknown predictor mode"),
    "chain-mgf-variance": (lambda: bounds.chain_mgf_rhs(10, -1.0, 0.5, 0.01), ValueError,
                           "variance must be nonnegative"),
    "chain-mgf-theta": (lambda: bounds.chain_mgf_rhs(10, 1.0, 0.5, 0.05), ThetaOutOfRange,
                        "theta must lie in"),
    "bernstein-excess": (lambda: bounds.bernstein_mgf_rhs(**{**RHS, "excess": -1.0}), ValueError,
                         "excess risk must be nonnegative"),
    "bernstein-kappa": (lambda: bounds.bernstein_mgf_rhs(**{**RHS, "kappa": 2.0}), ValueError,
                        "kappa must lie in"),
    "bernstein-n": (lambda: bounds.bernstein_mgf_rhs(**{**RHS, "n": 0}), ValueError,
                    "n must be at least 1, got 0"),
    "bernstein-lambda": (lambda: bounds.bernstein_mgf_rhs(**{**RHS, "lam": 5.0}),
                         LambdaOutOfRange, "lambda must lie in"),
    "kl-rhs-card": (lambda: bounds.kl_truncated_uniform_rhs(0, 0.5, Prior(5, 5, 2.0, 1.0)),
                    ValueError, "cardinality must be positive"),
    "kl-rhs-eta": (lambda: bounds.kl_truncated_uniform_rhs(1, 0.0, Prior(5, 5, 2.0, 1.0)),
                   ValueError, "radius parameter must lie in"),
    "oracle-delta": (lambda: bounds.oracle_rhs(**{**ORACLE, "delta": 1.5}), ValueError,
                     "delta must lie in"),
    "oracle-xi1": (lambda: bounds.oracle_rhs(**ORACLE, xi1=0.0), ValueError,
                   "xi1 must be positive"),
    "kl-center-shape": (lambda: bounds.kl_numeric_check(**KL, center=[0.0]), ValueError,
                        "one entry per active coordinate"),
    "kl-center-slab": (lambda: bounds.kl_numeric_check(**KL, center=[2.0, 0.0]), ValueError,
                       "inside the slab box"),
    "max-param-count": (lambda: network.max_param_count(-1, 1), ValueError,
                        "need depth >= 0 and width >= 1"),
    "network-theta-length": (
        lambda: SparseNetwork(Architecture(0, (1, 1)), np.zeros(3), [], 1.0, 5.0),
        DimensionMismatch, "theta must have length 2"),
    "param-distance-arch": (lambda: network.param_distance(ONE_INPUT_NET, TWO_INPUT_NET),
                            DimensionMismatch, "share an architecture"),
    "link-eta": (lambda: model.logistic_link_target([0.2, 1.5]), ValueError,
                 "link probabilities must lie in"),
    "dataset-lengths": (lambda: model.Dataset(np.zeros((3, 1)), np.zeros(2)), DimensionMismatch,
                        "equal length"),
    "rate-exponent-shapes": (lambda: model.rate_exponent([1.0, 2.0], [1]), DimensionMismatch,
                             "must align"),
    "rate-exponents-n-eff": (lambda: model.rate_exponents([1.0], [1], 1.0), ValueError,
                             "must exceed 1"),
    "envelope-delta": (lambda: model.subgaussian_envelope(1.0, 1.0, 10, 1.5), ValueError,
                       "delta must lie in"),
    "envelope-n": (lambda: model.subgaussian_envelope(1.0, 1.0, 0, 0.05), ValueError,
                   "n must be positive"),
    "stationary-ndim": (lambda: StationaryDist(np.full((2, 2), 0.25)), DimensionMismatch,
                        "must be a vector"),
    "stationary-negative": (lambda: StationaryDist(np.array([1.5, -0.5])), ValueError,
                            "must be nonnegative"),
    "stationary-sum": (lambda: StationaryDist(np.array([0.5, 0.6])), ValueError,
                       "must sum to 1"),
    "operator-rows": (
        lambda: markov.spectral_gap(np.array([[0.5, 0.6], [0.5, 0.5]]), UNIFORM_PI),
        ValueError, "rows must sum to 1"),
    "operator-size": (lambda: markov.spectral_gap(np.full((3, 3), 1 / 3), UNIFORM_PI),
                      DimensionMismatch, "differs from operator size"),
    "trajectory-short": (lambda: markov.estimate_pseudo_gap(np.array([0]), 2), UnvisitedState,
                         "too short"),
    "trajectory-range": (lambda: markov.estimate_pseudo_gap(np.array([0, 2]), 2), ValueError,
                         "out-of-range state"),
}


@pytest.mark.parametrize("call, cls, message", REFUSALS.values(), ids=REFUSALS)
def test_library_refusal_is_its_documented_value_error(call, cls, message):
    assert issubclass(cls, ValueError)
    with pytest.raises(cls, match=message) as info:
        call()
    assert type(info.value) is cls
