"""Tests for the command-line entry points: exit codes and config errors."""

import copy
import json
import math
import re
import statistics
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsnet.cli import main
from gibbsnet.markov import MAX_POWER

SWEEP = {
    "target": {"kind": "holder", "beta": 1.0, "dim": 1},
    "chain": {"family": "two_source", "p": 0.5, "states": 4},
    "n_grid": [100],
    "classdef": {"depth": 0, "width": 1, "sparsity": 2, "weight_bound": 1.0},
    "gibbs": {"iters": 200, "burn_in": 100},
}
SAMPLE = {
    "chain": {"family": "two_source", "p": 0.5, "states": 4},
    "target": {"kind": "holder"},
    "n": 100,
    "classdef": {"depth": 0, "width": 1, "sparsity": 2, "weight_bound": 1.0},
    "gibbs": {"iters": 200, "burn_in": 100, "temperature": 2.0},
}


# Fixed-seed `sample` runs, each compared byte for byte with
# tests/data/golden_sample_<name>.jsonl; CI's entry-point step also runs each
# through the installed script.  On "idle_clip" (depth 0, slab 1, inputs
# below 1) no output reaches the clip of 5, so the sampler skips it;
# "rule_temperature" has a clip that binds.  "depth2" is a depth-2, width-3
# ReLU class whose sparse supports leave most proposals cut off from the
# output, so the sampler takes their risk without a forward pass.
GOLDEN_SAMPLES = {
    "depth2": {
        **SAMPLE,
        "classdef": {"depth": 2, "width": 3, "sparsity": 6, "weight_bound": 1.5,
                     "output_clip": 2.0},
        "gibbs": {"iters": 600, "burn_in": 100, "thin": 10, "temperature": 2.0},
        "seed": 29,
    },
    "idle_clip": {
        **SAMPLE,
        "gibbs": {"iters": 600, "burn_in": 100, "thin": 5, "temperature": 2.0},
        "seed": 19,
    },
    "rule_temperature": {
        **SAMPLE,
        "n": 300,
        "classdef": {"rule": "holder", "output_clip": 1.2,
                     "constants": {"depth_scale": 0.1, "width_scale": 0.2,
                                   "sparsity_scale": 0.5, "bound_cap": 1.5}},
        "gibbs": {"iters": 600, "burn_in": 200, "thin": 10, "step": 0.3, "temperature": 5.0},
        "noise": ["uniform", 0.3],
        "seed": 11,
    },
    "logistic": {
        **SAMPLE,
        "target": {"kind": "logistic_link", "eta": [0.2, 0.4, 0.7, 0.9]},
        "loss": "logistic",
        "classdef": {"depth": 1, "width": 2, "sparsity": 4, "weight_bound": 1.5,
                     "output_clip": 2.0},
        "gibbs": {"iters": 500, "burn_in": 100, "thin": 10},
        "bernstein_k": 0.01,
        "seed": 5,
    },
}


# The Monte Carlo checks' shape (4 states, n = 110, 400 stationary paths a
# check), compared with tests/data/golden_bounds.json; CI's entry-point step
# also runs it through the installed script.
GOLDEN_BOUNDS = {"checks": [
    {"kind": "chain_mgf",
     "chain": {"family": "explicit", "probs": [[0.1, 0.2, 0.3, 0.4], [0.35, 0.05, 0.45, 0.15],
                                               [0.25, 0.25, 0.3, 0.2], [0.6, 0.1, 0.1, 0.2]]},
     "f_table": [0.7, -0.4, 0.3, -0.9], "n": 110, "theta": 0.02, "replications": 400,
     "seed": 17},
    {"kind": "bernstein_mgf", "chain": {"family": "two_source", "p": 0.3, "states": 4},
     "target": {"kind": "holder"},
     "network": {"depth": 0, "widths": [1, 1], "active_indices": [0, 1], "values": [0.6, -0.2],
                 "weight_bound": 1.0, "output_clip": 5.0},
     "lambda": 0.5, "n": 110, "replications": 400, "seed": 23, "noise": ["uniform", 0.3]},
]}


CHAIN = {"family": "two_source", "p": 0.5, "states": 4}
NETWORK = {"depth": 0, "widths": [1, 1], "active_indices": [1], "values": [1.0],
           "weight_bound": 1.0, "output_clip": 5.0}
BERNSTEIN = {"kind": "bernstein_mgf", "chain": CHAIN, "target": {"kind": "holder"},
             "network": NETWORK, "lambda": 1.0, "n": 100, "replications": 20}
KL = {"kind": "kl", "card": 2, "eta": 0.1, "decay": 2.0, "slab": 1.0, "n_max": 5}
KL_CARD_ABOVE_N_MAX = {**KL, "card": 6}
# 4 * 1e308 overflows, so a perturb's reflection would have no period.
WEIGHT_BOUND_1E308 = {"depth": 1, "width": 2, "sparsity": 4, "weight_bound": 1e308}
COMPOSITION = {"kind": "composition", "dims": [1, 2, 1], "active_coords": [1, 2],
               "betas": [1.0, 0.5]}
EFFSAMPLE = {**{k: v for k, v in SWEEP.items() if k != "n_grid"}, "pairs": [[100, 0.5]]}
# A negative burn_in, under which n_keep would count draws before step 0.
NEGATIVE_BURN_IN = {"iters": 200, "burn_in": -5, "thin": 3}
# Depth 2, width 3: pre-clip outputs of up to about 18 B^3 overflow at B = 1e160.
OVERFLOWING_OUTPUTS = {"depth": 2, "width": 3, "sparsity": 6, "weight_bound": 1e160}
# A perturb's reflection folds up to 2 * 4e307 + 1.7e308, which overflows.
OVERFLOWING_STEP = {"classdef": {"depth": 0, "width": 1, "sparsity": 2, "weight_bound": 4e307},
                    "gibbs": {"iters": 200, "burn_in": 100, "step": 1.7e308}}
GAP = {"chain": CHAIN, "k_max": 10, "mixing_epsilon": 0.1, "t_cap": 50}
SIMULATE = {"chain": CHAIN, "n": 50, "seed": 1}
CHAIN_MGF = {"kind": "chain_mgf", "chain": {"family": "two_source", "p": 0.5},
             "f_table": [1.0, -1.0], "n": 50, "theta": 0.01, "replications": 20}
BOUNDS = {"checks": [CHAIN_MGF, BERNSTEIN, KL]}
# Four distinct n_eff (168, 200, 336, 400): enough points to fit a slope.
SLOPE = {"csv": str(Path(__file__).parent / "data" / "golden_sweep_uniform_grid.csv")}
# State 0 is transient: the stationary law puts no mass on it.
TRANSIENT = {"family": "explicit", "probs": [[0.5, 0.5], [0.0, 1.0]]}
NON_SQUARE = {"family": "explicit", "probs": [[0.5, 0.5]]}
EXPLICIT = {"family": "explicit", "probs": [[0.5, 0.5], [0.2, 0.8]]}
# A rule class cannot be sized at n * gamma <= e: here at p = 0.02 only.
UNSIZABLE_GRID = {**SWEEP, "classdef": {"rule": "holder"}, "n_grid": [30, 60],
                  "p_grid": [0.5, 0.02]}
# In-range sizes no machine can build, each with the key its refusal names:
# classes past gibbs.MAX_PARAMS padded parameters (their layer widths alone
# ran out of memory) and state tables past int64 entries (numpy read the
# overflowed shape as negative).
UNBUILDABLE = {
    "classdef-depth-past-max-params": (
        {**SAMPLE, "classdef": {**SAMPLE["classdef"], "depth": 2**63 - 1}}, "depth"),
    "classdef-depth-2-40": ({**SAMPLE, "classdef": {**SAMPLE["classdef"], "depth": 2**40}},
                            "depth"),
    "classdef-width-past-max-params": (
        {**SAMPLE, "classdef": {**SAMPLE["classdef"], "width": 2**63 - 1}}, "width"),
    "holder-dim-table-past-int64": ({**SAMPLE, "target": {"kind": "holder", "dim": 2**63 - 1}},
                                    "target: dim"),
    "composition-stage-table-past-int64": (
        {**SAMPLE, "target": {**COMPOSITION, "dims": [1, 2**62, 1]}}, "target: dim"),
}


def run(tmp_path, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "command, doc",
    [
        ("gap", {"chain": {"family": "two_source", "p": 0.5, "states": 3}}),
        ("sweep", {**SWEEP, "gibbs": {"iter": 200, "burn_in": 100}}),
        ("sweep", {**SWEEP, "gibbs": {"iters": 200, "burnin": 100}}),
        ("sweep", {**SWEEP, "gibbs": {"iters": 100, "burn_in": 200}}),
        ("sweep", {**SWEEP, "noise": ["gaussian", -0.5]}),
        ("sweep", {**SWEEP, "noise": ["cauchy", 0.5]}),
        ("sweep", {**SWEEP, "classdef": {"depth": 0, "width": 1}}),
        ("sample", {**SAMPLE, "gibbs": {"temperature": 2.0, "burnin": 10}}),
        ("sample", {**SAMPLE, "gibbs": {"iters": 100, "burn_in": 200}}),
        ("sample", {**SAMPLE, "noise": ["uniform", -0.5]}),
        ("gap", {}),
        ("simulate", {"chain": CHAIN}),
        ("sample", {k: v for k, v in SAMPLE.items() if k != "n"}),
        ("bounds", {"checks": [{**BERNSTEIN, "noise": ["cauchy", 0.3]}]}),
        ("bounds", {"checks": [{**KL, "decay": 1.5}]}),
        ("sweep", {**SWEEP, "classdef": {**SWEEP["classdef"], "depth": "one"}}),
        ("sweep", {**SWEEP, "classdef": {**SWEEP["classdef"], "ouput_clip": 1.0}}),
        ("sweep", {**SWEEP, "chain": {"family": "two_source", "p": 0.5, "state": 4}}),
        ("sweep", {**SWEEP, "classdef": {"rule": "holder", "constants": {"depth_scal": 0.1}}}),
        ("sweep", {**SWEEP, "target": {"kind": "holder", "beta": -1.0}}),
        ("sweep", {**SWEEP, "n_grid": ["many"]}),
        ("sample", {**SAMPLE, "nosie": ["gaussian", 0.5]}),
        ("sample", {**SAMPLE, "loss": "hinge"}),
        ("sample", {**SAMPLE, "pairs": [[100, 0.5]]}),
        ("sample", {**SAMPLE, "n": 0}),
        ("sweep", {**SWEEP, "bernstein_k": 0}),
        ("sweep", {**SWEEP, "k_max": 0}),
        ("sweep", {**SWEEP, "predictor": "mean"}),
        ("sweep", {**SWEEP, "loss": "logistic"}),
        ("sample", {**SAMPLE, "loss": "logistic"}),
        ("sweep", {**SWEEP, "xi": "x"}),
        ("sweep", {**SWEEP, "xi": 0}),
        ("sweep", {**SWEEP, "classdef": {**SWEEP["classdef"], "lipschitz_const": "x"}}),
        ("simulate", {"chain": CHAIN, "n": 0}),
        ("sweep", {**SWEEP, "classdef": {**SWEEP["classdef"], "sparsity": 99}}),
        ("sweep", {**SWEEP, "classdef": {**SWEEP["classdef"], "activation": "tanh"}}),
        ("sweep", {**SWEEP, "chain": None}),
        ("sweep", {**SWEEP, "target": [1]}),
        ("sweep", {**SWEEP, "classdef": 50}),
        ("sweep", {**SWEEP, "gibbs": 2.5}),
        ("sample", {**SAMPLE, "gibbs": [1, "a"]}),
        ("sweep", {**SWEEP, "chain": {**CHAIN, "family": []}}),
        ("sweep", {**SWEEP, "seed": None}),
        ("sample", {**SAMPLE, "seed": "x"}),
        ("sweep", {**SWEEP, "seed": -1}),
        ("sweep", {**SWEEP, "k_max": 2.5}),
        ("sweep", {**SWEEP, "replications": 2.5}),
        ("sweep", {**SWEEP, "chain": {"family": "two_source", "p": 1}}),
        ("effsample", {**EFFSAMPLE, "pairs": [[100, 1.0]]}),
        ("sample", {**SAMPLE, "chain": {"family": "two_source", "p": 1}}),
        ("sweep", {**SWEEP, "target": {"kind": "holder", "dim": -0.5}}),
        ("sweep", {**SWEEP, "target": {**COMPOSITION, "betas": [-1.0, 0.5]}}),
        ("sweep", {**SWEEP, "target": {**COMPOSITION, "active_coords": [0, 2]}}),
        ("sweep", {**SWEEP, "target": {**COMPOSITION, "dims": []}}),
        ("sweep", {**SWEEP, "target": {"kind": "holder", "bta": 2.0}}),
        ("sweep", {**SWEEP, "target": {"kind": "logistic_link", "eta": [0.5] * 4,
                                       "beta": 2.0}}),
        ("sweep", {**SWEEP, "target": {**COMPOSITION, "dim": 2}}),
        ("sweep", {**SWEEP, "classdef": {"rule": {"kind": "composition", "betas": [-0.5],
                                                  "active_coords": [1]}}}),
        ("sweep", {**SWEEP, "p_grid": []}),
        ("effsample", {**EFFSAMPLE, "pairs": ["x"]}),
        ("gap", {**GAP, "k_max": "x"}),
        ("gap", {**GAP, "mixing_epsilon": "x"}),
        ("gap", {**GAP, "t_cap": "x"}),
        ("gap", {**GAP, "k_max": 0}),
        ("gap", {**GAP, "kmax": 10}),
        ("bounds", {"checks": 5}),
        ("bounds", {"checks": [5]}),
        ("bounds", {"checks": [{**KL, "centre": [0.0]}]}),
        ("slope", {"csv": 5}),
        ("gap", {**GAP, "chain": {**CHAIN, "p": 0}}),
        ("simulate", {**SIMULATE, "chain": {**CHAIN, "p": 0}}),
        ("sweep", {**SWEEP, "chain": {**CHAIN, "p": 0}}),
        ("simulate", {**SIMULATE, "steps": 50}),
        ("sweep", {**SWEEP, "target": COMPOSITION, "classdef": {"rule": "holder"}}),
        ("sweep", [SWEEP]),
        ("gap", {"chain": TRANSIENT}),
        ("sweep", {**SWEEP, "chain": TRANSIENT}),
        ("sample", {**SAMPLE, "chain": TRANSIENT}),
        ("effsample", {**EFFSAMPLE, "chain": TRANSIENT}),
        ("bounds", {"checks": [{**CHAIN_MGF, "chain": TRANSIENT}]}),
        ("bounds", {"checks": [{**BERNSTEIN, "chain": TRANSIENT}]}),
        ("bounds", {"checks": [{**CHAIN_MGF, "f_table": [100, -100], "n": 20000,
                                "theta": 0.05, "replications": 20}]}),
        ("bounds", {"checks": [{**BERNSTEIN, "lambda": 9.0, "noise": ["gaussian", 1000.0]}]}),
        ("bounds", {"checks": [KL_CARD_ABOVE_N_MAX]}),
        ("bounds", {"checks": [{**KL, "eta": 0}]}),
        ("bounds", {"checks": [{**KL, "eta": -0.5}]}),
        ("bounds", {"checks": [{**KL, "eta": -1}]}),
        ("gap", {"chain": NON_SQUARE}),
        ("sweep", {**SWEEP, "chain": NON_SQUARE}),
        ("bounds", {"checks": [{**BERNSTEIN, "network": {**NETWORK, "widths": [2, 1]}}]}),
        ("bounds", {"checks": [{**BERNSTEIN, "loss": "hinge"}]}),
        ("bounds", {"checks": [{**BERNSTEIN, "noise": ["gaussian", 1e160]}]}),
        ("sample", {**SAMPLE, "classdef": WEIGHT_BOUND_1E308}),
        ("sample", {**SAMPLE, "classdef": {**WEIGHT_BOUND_1E308, "weight_bound": 5e307}}),
        ("sweep", {**SWEEP, "classdef": WEIGHT_BOUND_1E308}),
        ("bounds", {"checks": [{**KL, "slab": 1e308}]}),
        ("sweep", {**SWEEP, "replications": 2, "gibbs": NEGATIVE_BURN_IN}),
        ("sample", {**SAMPLE, "gibbs": NEGATIVE_BURN_IN}),
        ("effsample", {**EFFSAMPLE, "gibbs": NEGATIVE_BURN_IN}),
        ("sample", {**SAMPLE, "classdef": OVERFLOWING_OUTPUTS}),
        ("sweep", {**SWEEP, "classdef": OVERFLOWING_OUTPUTS}),
        ("sample", {**SAMPLE, **OVERFLOWING_STEP}),
        ("sweep", {**SWEEP, **OVERFLOWING_STEP}),
        # Integers past int64 used to escape numpy or float() as OverflowError.
        ("sample", {**SAMPLE, "n": 10**400}),
        ("sweep", {**SWEEP, "n_grid": [10**400]}),
        ("sample", {**SAMPLE, "classdef": {**SAMPLE["classdef"], "depth": 10**400}}),
        ("sample", {**SAMPLE, "classdef": {**SAMPLE["classdef"], "width": 10**400}}),
        ("sample", {**SAMPLE, "gibbs": {**SAMPLE["gibbs"], "thin": 10**400}}),
        ("sample", {**SAMPLE, "gibbs": {**SAMPLE["gibbs"], "burn_in": 10**400}}),
        ("sample", {**SAMPLE, "target": {"kind": "holder", "dim": 10**400}}),
        ("sweep", {**SWEEP, "target": {**COMPOSITION, "dims": [1, 10**400, 1]}}),
        ("bounds", {"checks": [{**CHAIN_MGF, "n": 10**400}]}),
        ("bounds", {"checks": [{**KL, "n_max": 10**400}]}),
        ("sample", {**SAMPLE, "seed": 2**63}),
        # A 400-digit p is an integer too large for a float.
        ("gap", {"chain": {**CHAIN, "p": 10**400}}),
        # An explicit chain has no p: these ran one chain under every p label.
        ("sweep", {**SWEEP, "chain": EXPLICIT, "p_grid": [0.5, 0.1]}),
        ("effsample", {**EFFSAMPLE, "chain": EXPLICIT, "pairs": [[100, 0.5], [100, 0.1]]}),
        *(("sample", doc) for doc, _ in UNBUILDABLE.values()),
    ],
    ids=[
        "odd-two-source-states", "gibbs-iter-typo", "gibbs-burnin-typo",
        "iters-below-burn-in", "negative-noise-scale", "unknown-noise-family",
        "classdef-without-sizes", "sample-burnin-typo", "sample-iters-below-burn-in",
        "sample-negative-noise-scale", "gap-without-chain", "simulate-without-n",
        "sample-without-n", "bounds-unknown-noise-family", "bounds-kl-decay-below-2",
        "classdef-non-numeric-depth", "classdef-key-typo", "chain-key-typo",
        "rule-constant-typo", "target-negative-beta", "non-numeric-n-grid",
        "sample-top-level-key-typo", "sample-unknown-loss", "sample-pairs-key",
        "sample-zero-n", "zero-bernstein-k", "zero-k-max", "unknown-predictor",
        "logistic-loss-holder-target", "sample-logistic-loss-holder-target",
        "non-numeric-xi", "zero-xi", "non-numeric-lipschitz-const", "simulate-zero-n",
        "sparsity-above-class", "unknown-activation", "null-chain", "list-target",
        "numeric-classdef", "numeric-gibbs", "sample-list-gibbs", "list-chain-family",
        "null-seed", "sample-string-seed", "negative-seed", "fractional-k-max",
        "fractional-replications", "zero-gap-chain", "effsample-zero-gap-chain",
        "sample-zero-gap-chain", "holder-negative-dim", "composition-negative-beta",
        "composition-zero-active-coords", "composition-no-dims", "holder-target-key-typo",
        "logistic-target-holder-key", "composition-target-holder-key",
        "composition-rule-negative-beta", "empty-p-grid", "effsample-malformed-pairs",
        "gap-non-numeric-k-max", "gap-non-numeric-mixing-epsilon", "gap-non-numeric-t-cap",
        "gap-zero-k-max", "gap-unknown-key", "bounds-numeric-checks", "bounds-numeric-check",
        "bounds-kl-unknown-key", "slope-numeric-csv", "gap-non-unique-stationary",
        "simulate-non-unique-stationary", "sweep-non-unique-stationary", "simulate-unknown-key",
        "holder-rule-composition-target", "non-table-config", "gap-transient-chain",
        "sweep-transient-chain", "sample-transient-chain", "effsample-transient-chain",
        "bounds-chain-mgf-transient-chain", "bounds-bernstein-transient-chain",
        "bounds-chain-mgf-overflowing-estimate", "bounds-bernstein-overflowing-estimate",
        "bounds-kl-card-above-n-max", "bounds-kl-zero-eta", "bounds-kl-negative-eta",
        "bounds-kl-eta-minus-one", "gap-non-square-chain", "sweep-non-square-chain",
        "bounds-bernstein-network-input-mismatch", "bounds-bernstein-unknown-loss",
        "bounds-bernstein-overflowing-noise-scale", "sample-weight-bound-period-overflows",
        "sample-weight-bound-period-overflows-5e307", "sweep-weight-bound-period-overflows",
        "bounds-kl-slab-period-overflows", "sweep-negative-burn-in",
        "sample-negative-burn-in", "effsample-negative-burn-in",
        "sample-outputs-may-overflow", "sweep-outputs-may-overflow",
        "sample-reflection-overflows", "sweep-reflection-overflows",
        "sample-n-past-int64", "sweep-n-grid-past-int64", "classdef-depth-past-int64",
        "classdef-width-past-int64", "gibbs-thin-past-int64", "gibbs-burn-in-past-int64",
        "holder-dim-past-int64", "composition-dims-past-int64", "chain-mgf-n-past-int64",
        "kl-n-max-past-int64", "seed-past-int64", "chain-p-past-float", "explicit-chain-p-grid",
        "explicit-chain-effsample-pairs", *UNBUILDABLE,
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, doc):
    start = time.perf_counter()
    assert run(tmp_path, command, doc) == 2
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert not list(tmp_path.glob("*_partial.csv"))
    if doc == {"checks": [KL_CARD_ABOVE_N_MAX]}:
        assert "card 6" in err and "n_max 5" in err
    for unbuildable, key in UNBUILDABLE.values():
        if doc == unbuildable:  # refused before any layer or table is built
            assert key in err and seconds < 1.0


@pytest.mark.parametrize(
    "suffix, number",
    [(".json", "Infinity"), (".json", "NaN"), (".json", "1e999"), (".toml", "inf")],
    ids=["infinity", "nan", "overflowing-literal", "toml-inf"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, suffix, number):
    path = tmp_path / f"config{suffix}"
    if suffix == ".toml":
        pytest.importorskip("tomllib")
        path.write_text(f'n = {number}\n[chain]\nfamily = "two_source"\np = 0.5\nstates = 4\n')
    else:
        path.write_text(f'{{"chain": {json.dumps(CHAIN)}, "n": {number}}}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# Config files that never become a document, each with its file name and a
# writer, and what the message names: the path, the byte position, the line
# or the table.  A nesting past the parser's recursion limit escaped as a
# RecursionError traceback (exit 1); TOML configs exit 2 on Python 3.10.
TOML_TOO_DEEP = ("nested too deeply" if sys.version_info >= (3, 11)
                 else "TOML configs need Python >= 3.11")
UNLOADABLE = {
    "missing": ("config.json", lambda path: None, "config.json"),
    "directory": ("config.json", lambda path: path.mkdir(), "config.json"),
    "not-utf-8": ("config.json", lambda path: path.write_bytes(b'{"chain": "\xe4"}'),
                  "position 11"),
    "invalid-json": ("config.json", lambda path: path.write_text('{"chain": '), "line 1"),
    "json-list": ("config.json", lambda path: path.write_text(json.dumps([GAP])),
                  "config must be a table"),
    "array-100000-deep": ("config.json",
                          lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
                          "nested too deeply"),
    "object-100000-deep": ("config.json",
                           lambda path: path.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000),
                           "nested too deeply"),
    "toml-5000-deep": ("config.toml",
                       lambda path: path.write_text("a = " + "[" * 5000 + "]" * 5000 + "\n"),
                       TOML_TOO_DEEP),
}


@pytest.mark.parametrize("name, make, named", UNLOADABLE.values(), ids=list(UNLOADABLE))
def test_unloadable_config_exits_2_at_once(tmp_path, capsys, name, make, named):
    path = tmp_path / name
    make(path)
    start = time.perf_counter()
    assert main(["gap", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, key",
    [({**SWEEP, "delta": 0}, "delta"), ({**SWEEP, "delta": 1}, "delta"),
     ({**SWEEP, "classdef": {"rule": "smooth"}}, "rule 'smooth'")],
    ids=["delta-zero", "delta-one", "unknown-rule"],
)
def test_sweep_refusals_name_their_key(tmp_path, capsys, doc, key):
    assert run(tmp_path, "sweep", doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err
    assert not (tmp_path / "sweep_partial.csv").exists()


@pytest.mark.parametrize("command, base", [("sample", SAMPLE), ("sweep", SWEEP)])
@pytest.mark.parametrize("noise", [["gaussian", 1e160], ["gaussian", 1e308],
                                   ["uniform", 1e160], ["uniform", 1e308]])
def test_overflowing_noise_scale_exits_2(tmp_path, capsys, command, base, noise):
    # Squared outputs of such a scale overflow, so every risk would be inf
    # and every move accepted on a NaN: rejected before any row or draw.
    assert run(tmp_path, command, {**base, "noise": noise}) == 2
    assert capsys.readouterr().err.startswith("config error: noise")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, base", [("sample", SAMPLE), ("sweep", SWEEP)])
def test_large_noise_scale_runs(tmp_path, command, base):
    assert run(tmp_path, command, {**base, "noise": ["gaussian", 1e3]}) == 0


@pytest.mark.parametrize("command, base", [("sample", SAMPLE), ("sweep", SWEEP)])
def test_large_finite_output_bound_runs(tmp_path, command, base):
    # At B = 1e100 every pre-clip output stays below about 2e301.
    classdef = {**OVERFLOWING_OUTPUTS, "weight_bound": 1e100}
    assert run(tmp_path, command, {**base, "classdef": classdef}) == 0


@pytest.mark.parametrize("command, base", [("sample", SAMPLE), ("sweep", SWEEP)])
def test_unallocatable_draws_exit_3(tmp_path, capsys, command, base):
    # 10^18 kept draws are too big for numpy, whose ValueError escaped as a traceback.
    doc = {**base, "gibbs": {**base["gibbs"], "iters": 10**18}}
    assert run(tmp_path, command, doc) == 3
    assert capsys.readouterr().err.startswith("runtime error: cannot allocate")
    assert not (tmp_path / "draws.jsonl").exists()


# 10^15 int64 states or floats are 7.1 PiB, past the x86-64 address space,
# so each allocation fails at once instead of being granted and paged; numpy
# refuses 2 * 10^18 states before it asks for memory at all.  A holder dim
# of 2^45 on 4 states is a 1 PiB state table, past it too.
@pytest.mark.parametrize(
    "command, doc",
    [("sample", {**SAMPLE, "n": 10**15}), ("sweep", {**SWEEP, "n_grid": [10**15]}),
     ("effsample", {**EFFSAMPLE, "pairs": [[10**15, 0.5]]}),
     ("bounds", {"checks": [{**BERNSTEIN, "n": 10**15}]}),
     ("gap", {"chain": {**CHAIN, "states": 10**15}}),
     ("simulate", {**SIMULATE, "n": 2 * 10**18}),
     ("sample", {**SAMPLE, "target": {"kind": "holder", "dim": 2**45}})],
    ids=["sample-n", "sweep-n-grid", "effsample-pair-n", "bernstein-n", "gap-states",
         "simulate-past-intp", "holder-dim-table"],
)
def test_unallocatable_arrays_exit_3_at_once(tmp_path, capsys, command, doc):
    # numpy's MemoryError (and a trajectory's "array is too big" ValueError)
    # escaped as a traceback; each is a runtime failure of an in-range config.
    start = time.perf_counter()
    assert run(tmp_path, command, doc) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("runtime error: ")


@pytest.mark.parametrize("command, base", [("sweep", SWEEP), ("effsample", EFFSAMPLE)])
def test_run_leaves_exactly_its_report_files(tmp_path, command, base):
    # perfbench's sweep workload reads all three files after every pass; the
    # partial CSV, streamed row by row, ends equal to the final one.
    assert run(tmp_path, command, base) == 0
    names = ["config.json", f"{command}.csv", f"{command}.json", f"{command}_partial.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    partial = (tmp_path / f"{command}_partial.csv").read_bytes()
    assert partial == (tmp_path / f"{command}.csv").read_bytes()


# Valid bases for the typed-number test below, one per table shape.
RULE_SWEEP = {**SWEEP, "classdef": {
    "rule": "holder", "output_clip": 1.2, "lipschitz_const": 1.0,
    "constants": {"depth_scale": 0.1, "width_scale": 0.2, "sparsity_scale": 0.5,
                  "bound_scale": 1.0, "bound_cap": 1.5}}}
COMPOSITION_SWEEP = {**SWEEP, "target": COMPOSITION, "classdef": {
    "rule": {"kind": "composition", "betas": [1.0, 0.5], "active_coords": [1, 2]},
    "constants": {"depth_scale": 0.1, "width_scale": 0.1, "sparsity_scale": 0.1}}}
EXPLICIT_SWEEP = {**SWEEP, "chain": EXPLICIT}
LOGISTIC_SWEEP = {**SWEEP, "target": {"kind": "logistic_link", "eta": [0.2, 0.4, 0.7, 0.9]},
                  "loss": "logistic"}
FULL_SWEEP = {**SWEEP, "p_grid": [0.5], "noise": ["gaussian", 0.1],
              "gibbs": {**SWEEP["gibbs"], "step": 0.1, "move_probs": [0.25, 0.25, 0.5]}}
FULL_BERNSTEIN = {**BERNSTEIN, "noise": ["gaussian", 0.1], "bernstein_k": 1.0, "seed": 1}
FULL_KL = {**KL, "center": [0.0, 0.0]}

# Every number key of every subcommand: (command, valid config, path, kind).
# A path ending in an index names an item of a list.
NUMBER_KEYS = [
    *[("sweep", FULL_SWEEP, path, kind) for path, kind in [
        (("n_grid", 0), "int"), (("p_grid", 0), "number"), (("replications",), "int"),
        (("delta",), "number"), (("seed",), "int"), (("bernstein_k",), "number"),
        (("k_max",), "int"), (("xi",), "number"), (("noise", 1), "number"),
        (("chain", "p"), "number"), (("chain", "states"), "int"),
        (("target", "beta"), "number"), (("target", "scale"), "number"),
        (("target", "dim"), "int"),
        (("classdef", "depth"), "int"), (("classdef", "width"), "int"),
        (("classdef", "sparsity"), "int"), (("classdef", "weight_bound"), "number"),
        (("classdef", "output_clip"), "number"), (("classdef", "lipschitz_const"), "number"),
        (("gibbs", "support_decay"), "number"), (("gibbs", "move_probs", 0), "number"),
        (("gibbs", "step"), "number"), (("gibbs", "iters"), "int"),
        (("gibbs", "burn_in"), "int"), (("gibbs", "thin"), "int")]],
    ("sweep", EXPLICIT_SWEEP, ("chain", "probs", 0, 0), "number"),
    ("sweep", LOGISTIC_SWEEP, ("target", "eta", 0), "number"),
    *[("sweep", COMPOSITION_SWEEP, path, kind) for path, kind in [
        (("target", "dims", 0), "int"), (("target", "active_coords", 0), "int"),
        (("target", "betas", 0), "number"), (("target", "scale"), "number"),
        (("classdef", "rule", "betas", 0), "number"),
        (("classdef", "rule", "active_coords", 0), "number")]],
    *[("sweep", RULE_SWEEP, ("classdef", "constants", key), "number")
      for key in ("depth_scale", "width_scale", "sparsity_scale", "bound_scale", "bound_cap")],
    ("sample", SAMPLE, ("n",), "int"),
    ("sample", SAMPLE, ("gibbs", "temperature"), "number"),
    ("effsample", EFFSAMPLE, ("pairs", 0, 0), "int"),
    ("effsample", EFFSAMPLE, ("pairs", 0, 1), "number"),
    ("gap", GAP, ("k_max",), "int"), ("gap", GAP, ("mixing_epsilon",), "number"),
    ("gap", GAP, ("t_cap",), "int"),
    ("simulate", SIMULATE, ("n",), "int"), ("simulate", SIMULATE, ("seed",), "int"),
    *[("bounds", {"checks": [CHAIN_MGF]}, ("checks", 0, *path), kind) for path, kind in [
        (("f_table", 0), "number"), (("n",), "int"), (("theta",), "number"),
        (("replications",), "int"), (("seed",), "int"), (("k_max",), "int"),
        (("chain", "p"), "number")]],
    *[("bounds", {"checks": [FULL_BERNSTEIN]}, ("checks", 0, *path), kind) for path, kind in [
        (("lambda",), "number"), (("n",), "int"), (("replications",), "int"),
        (("seed",), "int"), (("noise", 1), "number"), (("bernstein_k",), "number"),
        (("target", "beta"), "number"), (("network", "depth"), "int"),
        (("network", "widths", 0), "int"), (("network", "active_indices", 0), "int"),
        (("network", "values", 0), "number"), (("network", "weight_bound"), "number"),
        (("network", "output_clip"), "number")]],
    *[("bounds", {"checks": [FULL_KL]}, ("checks", 0, *path), kind) for path, kind in [
        (("card",), "int"), (("eta",), "number"), (("decay",), "number"),
        (("slab",), "number"), (("n_max",), "int"), (("center", 0), "number")]],
]
WRONG_KINDS = {"int": [2.5, True, "1"], "number": [True, "1"]}
# Values a lenient reader would truncate (200.7 -> 200), parse ("1.0") or let
# through (true); 2.0 is not an integer either.
LOOSE_VALUES = [
    ("sweep", SWEEP, ("gibbs", "iters"), 200.7),
    ("sweep", SWEEP, ("n_grid", 0), 100.9),
    ("sweep", SWEEP, ("chain", "states"), 4.9),
    ("sweep", SWEEP, ("classdef", "depth"), 0.5),
    ("bounds", {"checks": [KL]}, ("checks", 0, "card"), 2.9),
    ("sweep", SWEEP, ("replications",), True),
    ("sweep", SWEEP, ("replications",), 2.0),
    ("sweep", SWEEP, ("seed",), True),
    ("sweep", SWEEP, ("xi",), True),
    ("sweep", SWEEP, ("classdef", "weight_bound"), "1.0"),
    ("sweep", SWEEP, ("target", "beta"), "1"),
    ("sweep", FULL_SWEEP, ("gibbs", "move_probs"), ["0.25", "0.25", "0.5"]),
    ("sweep", EXPLICIT_SWEEP, ("chain", "probs"), [["0.5", "0.5"], ["0.2", "0.8"]]),
    ("sweep", SWEEP, ("delta",), "0.5"),
    ("sweep", RULE_SWEEP, ("classdef", "constants", "depth_scale"), "0.1"),
]


def _with(doc, path, value):
    """A copy of ``doc`` with the item at ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = value
    return doc


WRONG_KIND_CASES = [(command, doc, path, value) for command, doc, path, kind in NUMBER_KEYS
                    for value in WRONG_KINDS[kind]] + LOOSE_VALUES


def _case_id(command, doc, path, value):
    name = doc["checks"][0]["kind"] if command == "bounds" else command
    return f"{name}-{'.'.join(map(str, path))}={json.dumps(value)}"


@pytest.mark.parametrize("command, doc, path, value", WRONG_KIND_CASES,
                         ids=[_case_id(*case) for case in WRONG_KIND_CASES])
def test_wrong_number_kind_exits_2_naming_key(tmp_path, capsys, command, doc, path, value):
    # An integer key takes no float, bool or string; a number key no bool or
    # string.  The message names the key.
    assert run(tmp_path, command, _with(doc, path, value)) == 2
    err = capsys.readouterr().err
    key = [k for k in path if isinstance(k, str)][-1]
    assert err.startswith("config error: ") and re.search(rf"\b{key}\b", err), err


BASES = sorted({(command, json.dumps(doc)) for command, doc, _, _ in WRONG_KIND_CASES})


@pytest.mark.parametrize("command, doc", BASES,
                         ids=[f"{command}-{i}" for i, (command, _) in enumerate(BASES)])
def test_typed_number_bases_run(tmp_path, command, doc):
    # Each base of the test above is valid, so its failures come from the key.
    assert run(tmp_path, command, json.loads(doc)) == 0


# The one-row sweep CSV, each malformed CSV below a string edit of its row.
GOLDEN_CSV = (Path(__file__).parent / "data" / "golden_sweep.csv").read_text()
GOLDEN_ROW = GOLDEN_CSV.splitlines()[1]


@pytest.mark.parametrize(
    "text, line",
    [
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace(",42,", ",x,"), 1), 2),
        ("", None),
        (GOLDEN_CSV.replace(GOLDEN_ROW, "100,1,100", 1), 2),
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace("100,1,100,", "100,1,90,"), 1), 2),
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace(",0.210236153844,", ",nan,"), 1), 2),
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace("100,1,100,", "100,0,0,"), 1), 2),
    ],
    ids=["non-numeric-field", "empty-file", "short-row", "n-eff-not-n-gamma", "nan-excess-risk",
         "zero-n-eff"],
)
def test_slope_malformed_csv_exits_2(tmp_path, capsys, text, line):
    (tmp_path / "sweep.csv").write_text(text)
    assert run(tmp_path, "slope", {"csv": str(tmp_path / "sweep.csv")}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert line is None or f"line {line}:" in err


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(GOLDEN_CSV.encode("utf-8").replace(b"gamma", b"g\xe4mma", 1)),
    lambda path: None,
    lambda path: path.mkdir(),
], ids=["not-utf-8", "missing", "directory"])
def test_slope_unreadable_csv_exits_2(tmp_path, capsys, make):
    csv = tmp_path / "data" / "sweep.csv"
    csv.parent.mkdir()
    make(csv)
    assert run(tmp_path, "slope", {"csv": str(csv)}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: slope csv: ") and "Traceback" not in err


def _reject_constant(name):
    raise ValueError(f"a report file holds the non-JSON constant {name}")


@pytest.mark.parametrize("rows", [0, 2])
def test_slope_needs_four_n_eff_values_exit_2(tmp_path, capsys, rows):
    # The CSV alone decides it, as the config alone decides effsample pairs.
    header = GOLDEN_CSV.splitlines()[0]
    lines = [f"{n},1,{n},0.5,1,0,0.0" for n in (100, 200)][:rows]
    (tmp_path / "sweep.csv").write_text("\n".join([header, *lines]) + "\n")
    assert run(tmp_path, "slope", {"csv": str(tmp_path / "sweep.csv")}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: need >= 4 distinct n_eff values, got {rows}"), err
    assert not (tmp_path / "slope.json").exists()


def test_slope_groups_tiny_n_eff_apart(tmp_path):
    # n_eff = 1e-10 is its own group at the CSV's 12 significant digits;
    # the rows follow excess = n_eff^-1/2 exactly.
    header = GOLDEN_CSV.splitlines()[0]
    rows = [f"1,1e-10,1e-10,{1e5:.12g},1,0,0.0"]
    rows += [f"{n},1,{n},{n ** -0.5:.12g},1,0,0.0" for n in (1, 2, 3)]
    (tmp_path / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
    assert run(tmp_path, "slope", {"csv": str(tmp_path / "sweep.csv")}) == 0
    doc = json.loads((tmp_path / "slope.json").read_text(), parse_constant=_reject_constant)
    assert doc["slope"] == pytest.approx(-0.5, abs=1e-9)


def test_slope_fuzz_base_fits(tmp_path):
    # The fuzz's slope base runs through to the fit and its report, so its
    # mutants reach them too.
    assert run(tmp_path, "slope", SLOPE) == 0
    doc = json.loads((tmp_path / "slope.json").read_text(), parse_constant=_reject_constant)
    assert doc["slope"] == pytest.approx(-1.0030, abs=1e-4)


# Values outside the range a library function takes, each with the start of
# its message: the library raises a ValueError, and the config layer labels
# it with the check or subcommand (a sample's n it refuses itself).
LIBRARY_REFUSALS = {
    "theta-outside-interval": (
        "bounds", {"checks": [{**CHAIN_MGF, "chain": CHAIN, "f_table": [0.7, -0.4, 0.3, -0.9],
                               "n": 110, "theta": 5.0}]},
        "chain_mgf check: theta must lie in (0, 0.09"),
    "zero-gap-chain-theta": (
        "bounds", {"checks": [{**CHAIN_MGF, "chain": {"family": "two_source", "p": 1}}]},
        "chain_mgf check: theta must lie in (0, 0.0)"),
    "lambda-outside-interval": (
        "bounds", {"checks": [{**BERNSTEIN, "chain": {"family": "two_source", "p": 0.3,
                                                      "states": 4},
                               "lambda": 500, "n": 110}]},
        "bernstein_mgf check: lambda must lie in (0, 9.2"),
    "bernstein-n-zero": ("bounds", {"checks": [{**BERNSTEIN, "n": 0}]},
                         "bernstein_mgf check: n must be at least 1, got 0"),
    "bernstein-n-negative": ("bounds", {"checks": [{**BERNSTEIN, "n": -1}]},
                             "bernstein_mgf check: n must be at least 1, got -1"),
    "overflowing-estimate": (
        "bounds", {"checks": [{**CHAIN_MGF, "f_table": [100, -100], "n": 20000,
                               "theta": 0.05}]},
        "chain_mgf check: the Monte Carlo estimate (inf)"),
    "mixing-time-past-cap": (
        "gap", {"chain": {"family": "two_source", "p": 0.01}, "mixing_epsilon": 0.01, "t_cap": 2},
        "gap: no t <= 2 reaches TV 0.01"),
    "sample-n-zero": ("sample", {**SAMPLE, "n": 0}, "sample n must be at least 1, got 0"),
    "sample-n-negative": ("sample", {**SAMPLE, "n": -1}, "sample n must be at least 1, got -1"),
}


@pytest.mark.parametrize("command, doc, message", LIBRARY_REFUSALS.values(),
                         ids=LIBRARY_REFUSALS)
def test_library_refusals_exit_2_labelled(tmp_path, capsys, command, doc, message):
    assert run(tmp_path, command, doc) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("check", [CHAIN_MGF, BERNSTEIN], ids=["chain-mgf", "bernstein-mgf"])
def test_mc_checks_need_two_replications(tmp_path, capsys, check):
    # One replication has no standard error, so no 2-SE allowance.
    assert run(tmp_path, "bounds", {"checks": [{**check, "replications": 1}]}) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert run(tmp_path, "bounds", {"checks": [{**check, "replications": 2}]}) == 0
    json.loads((tmp_path / "bounds.json").read_text(), parse_constant=_reject_constant)


def test_non_path_output_dir_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"chain": CHAIN, "n": 5, "output_dir": 5}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_gap_reports_zero_gap(tmp_path):
    # A periodic chain cannot feed a fit, but `gap` still reports its gap of 0.
    assert run(tmp_path, "gap", {"chain": {"family": "two_source", "p": 1.0}}) == 0
    assert json.loads((tmp_path / "gap.json").read_text())["pseudo_spectral_gap"] == 0.0


# A periodic chain: its pseudo-gap is 0 at every k and it never mixes, so
# neither scan can stop early.
PERIODIC = {"family": "explicit", "probs": [[0.0, 1.0], [1.0, 0.0]]}


PAST_INT64 = "must be an integer in the int64 range"  # the integer policy's refusal
PAST_CEILING = f"must lie in 1..{MAX_POWER}"


@pytest.mark.parametrize(
    "command, doc, message",
    [("gap", {**GAP, "k_max": 10**400}, PAST_INT64),
     ("gap", {**GAP, "chain": PERIODIC, "k_max": 10**400}, PAST_INT64),
     ("gap", {**GAP, "k_max": MAX_POWER + 1}, PAST_CEILING),
     ("gap", {**GAP, "chain": PERIODIC, "t_cap": 10**400}, PAST_INT64),
     ("gap", {**GAP, "chain": PERIODIC, "t_cap": MAX_POWER + 1}, PAST_CEILING),
     ("sweep", {**SWEEP, "k_max": 10**400}, PAST_INT64),
     ("sample", {**SAMPLE, "k_max": 10**400}, PAST_INT64),
     ("effsample", {**EFFSAMPLE, "k_max": 10**400}, PAST_INT64),
     ("bounds", {"checks": [{**CHAIN_MGF, "k_max": 10**400}]}, PAST_INT64)],
    ids=["gap-k-max", "gap-periodic-k-max", "gap-k-max-past-ceiling", "gap-periodic-t-cap",
         "gap-t-cap-past-ceiling", "sweep-k-max", "sample-k-max", "effsample-k-max",
         "chain-mgf-k-max"],
)
def test_power_counts_past_ceiling_exit_2_at_once(tmp_path, capsys, command, doc, message):
    # A count past markov.MAX_POWER is refused before any scan starts: a
    # scan of 10^400 kernel powers would run until killed.  A count past
    # int64 is refused by the integer policy before the ceiling is read.
    start = time.perf_counter()
    assert run(tmp_path, command, doc) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not list(tmp_path.glob("*_partial.csv"))


def test_power_ceiling_itself_runs(tmp_path):
    # At k_max = MAX_POWER the scan of a mixing chain stops after its first block.
    doc = {**GAP, "k_max": MAX_POWER, "t_cap": MAX_POWER}
    assert run(tmp_path, "gap", doc) == 0
    report = json.loads((tmp_path / "gap.json").read_text())
    assert report["k_max"] == MAX_POWER
    assert report["pseudo_spectral_gap"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "doc",
    [{**SWEEP, "xi": "x"}, {**SWEEP, "chain": {"family": "two_source", "p": 1}},
     {**SWEEP, "gibbs": {"iters": 200, "burn_in": 300}}, UNSIZABLE_GRID],
    ids=["non-numeric-xi", "zero-gap-chain", "sampler-rejects-gibbs", "rule-unsizable-at-one-p"],
)
def test_rejected_before_csv_header(tmp_path, doc):
    assert run(tmp_path, "sweep", doc) == 2
    assert not (tmp_path / "sweep_partial.csv").exists()


def test_unknown_loss_writes_no_partial_csv(tmp_path):
    assert run(tmp_path, "sweep", {**SWEEP, "loss": "hinge"}) == 2
    assert not (tmp_path / "sweep_partial.csv").exists()


def test_mismatched_effsample_pairs_exit_2(tmp_path, capsys):
    # p = 0.5 and p = 0.25 give a 4-state two-source chain different gaps, so
    # n = 100 at both cannot share an effective sample size: the config alone
    # decides that, before any cell runs.
    assert run(tmp_path, "effsample", {**EFFSAMPLE, "pairs": [[100, 0.5], [100, 0.25]]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "n_eff" in err
    assert not (tmp_path / "effsample_partial.csv").exists()


def test_sample_rejects_p_grid(tmp_path, capsys):
    # `sample` fits at its chain's own p; a p_grid would be silently unused.
    assert run(tmp_path, "sample", {**SAMPLE, "p_grid": [0.25]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "p_grid" in err
    assert not (tmp_path / "draws.jsonl").exists()


@pytest.mark.parametrize("grid", [{"n_grid": [7, 9]}, {"p_grid": [0.25]},
                                  {"n_grid": [7, 9], "p_grid": [0.25]}])
def test_effsample_rejects_grids(tmp_path, capsys, grid):
    # `effsample` fits its pairs' own (n, p) cells; a grid would be silently
    # unused, so a config that carries one exits 2 naming the key.
    assert run(tmp_path, "effsample", {**EFFSAMPLE, **grid}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and re.search(r"\b[np]_grid\b", err), err
    assert not (tmp_path / "effsample_partial.csv").exists()


def test_effsample_medians_per_pair(tmp_path, capsys):
    # Both pairs share n = 1000 (and n * gamma = 750), so only the cell
    # order tells their rows apart.
    doc = {**EFFSAMPLE, "replications": 3, "pairs": [[1000, 0.25], [1000, 0.75]]}
    assert run(tmp_path, "effsample", doc) == 0
    medians = json.loads(capsys.readouterr().out)
    risks = [float(line.split(",")[3])
             for line in (tmp_path / "effsample.csv").read_text().splitlines()[1:]]
    expected = {"n=1000,p=0.25": statistics.median(risks[:3]),
                "n=1000,p=0.75": statistics.median(risks[3:])}
    assert medians == pytest.approx(expected, rel=1e-9)
    assert medians["n=1000,p=0.25"] != medians["n=1000,p=0.75"]


def test_sample_temperature_override_accepted(tmp_path):
    assert run(tmp_path, "sample", SAMPLE) == 0
    assert len((tmp_path / "draws.jsonl").read_text().splitlines()) == 100


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_sample_golden_draws(tmp_path, name):
    assert run(tmp_path, "sample", GOLDEN_SAMPLES[name]) == 0
    golden = Path(__file__).parent / "data" / f"golden_sample_{name}.jsonl"
    assert (tmp_path / "draws.jsonl").read_bytes() == golden.read_bytes()


def test_bounds_golden_report(tmp_path):
    assert run(tmp_path, "bounds", GOLDEN_BOUNDS) == 0
    golden = Path(__file__).parent / "data" / "golden_bounds.json"
    assert (tmp_path / "bounds.json").read_bytes() == golden.read_bytes()


def test_bounds_degenerate_link_is_finite(tmp_path):
    # A link table with eta = 1 at a state: the negative label never occurs
    # there, so its infinite loss gap adds nothing to the constant.
    doc = {"checks": [{**BERNSTEIN, "chain": {"family": "two_source", "p": 0.5, "states": 2},
                       "target": {"kind": "logistic_link", "eta": [0.2, 1.0]},
                       "loss": "logistic", "replications": 200}]}
    assert run(tmp_path, "bounds", doc) == 0
    (report,) = json.loads((tmp_path / "bounds.json").read_text(), parse_constant=_reject_constant)
    assert math.isfinite(report["params"]["k_exact"]) and math.isfinite(report["rhs_value"])


def test_bounds_overflowing_rhs_reports_inf(tmp_path):
    # Both right-hand sides overflow a float here; the table still prints
    # and every report holds against an infinite bound.
    chain = {"family": "two_source", "p": 0.5}
    doc = {"checks": [
        {"kind": "chain_mgf", "chain": chain, "f_table": [1.0, -1.0], "n": 100_000,
         "theta": 0.099, "replications": 20},
        {"kind": "bernstein_mgf", "chain": chain, "target": {"kind": "holder"},
         "network": NETWORK, "lambda": 10.9, "n": 110, "replications": 20, "bernstein_k": 50.0,
         "noise": ["gaussian", 0.3]},
    ]}
    assert run(tmp_path, "bounds", doc) == 0
    reports = json.loads((tmp_path / "bounds.json").read_text())
    assert [r["rhs_value"] for r in reports] == [math.inf, math.inf]
    assert all(r["holds"] for r in reports)


# Replacement values for the mutation test: every type a JSON config can
# hold, inf and NaN, 10^400, which no integer or number key takes, and
# otherwise no number above 50, so a valid mutant stays small and fast (a
# huge int64 at replications would hang: the float keys get theirs in
# test_float_keys_refuse_non_finite_values); 2 also makes a bernstein_mgf
# network's widths[0] miss the target's input dimension.
POOL = [None, True, -1, 0, 1, 2, 2.5, 50, -0.5, 0.5, math.inf, math.nan, 10**400, "x", "",
        "holder", [], [1], [1, "a"], {}, {"a": 1}]


def _paths(doc, prefix=()):
    """Every dict-key and list-index path in a config document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


FUZZED = {"sweep": SWEEP, "sample": SAMPLE, "gap": GAP, "simulate": SIMULATE,
          "bounds": BOUNDS, "effsample": EFFSAMPLE, "slope": SLOPE}


# Replacement values for a mutated CSV field: non-numeric, empty, non-finite,
# negative and overflowing.
CSV_POOL = ["x", "", "nan", "inf", "-1", "1e999"]


@st.composite
def mutated_csv(draw):
    """The ``slope`` base's CSV with one defect: two fields of a line
    swapped, a column dropped, one field replaced, or no content at all."""
    rows = [line.split(",") for line in Path(SLOPE["csv"]).read_text().splitlines()]
    defect = draw(st.sampled_from(["swap", "drop", "replace", "empty"]))
    if defect == "empty":
        return ""
    columns = st.integers(0, len(rows[0]) - 1)
    if defect == "drop":
        col = draw(columns)
        rows = [row[:col] + row[col + 1:] for row in rows]
    else:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(columns)
        if defect == "swap":
            other = draw(columns)
            row[col], row[other] = row[other], row[col]
        else:
            row[col] = draw(st.sampled_from(CSV_POOL))
    return "\n".join(",".join(row) for row in rows) + "\n"


@st.composite
def mutated_configs(draw):
    """A config of any subcommand with one or two values replaced or dropped,
    or a ``slope`` config whose CSV (third item, else None) is mutated."""
    command = draw(st.sampled_from(sorted(FUZZED)))
    doc = copy.deepcopy(FUZZED[command])
    if command == "slope" and draw(st.booleans()):
        return command, doc, draw(mutated_csv())
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(lambda node, key: node[key], path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return command, doc, None


DELETE = object()  # as a mutation value: remove the key or item


def test_every_single_mutation_exits_cleanly():
    # Every path of every fuzzed config set to every POOL value, or deleted:
    # the one-step neighbourhood the sampled fuzz below may never reach.
    # Each mutant's config alone decides its fate, so it runs or exits 2.
    failures = []
    for command, config in sorted(FUZZED.items()):
        for path in _paths(config):
            for value in [*POOL, DELETE]:
                doc = copy.deepcopy(config)
                parent = reduce(lambda node, key: node[key], path[:-1], doc)
                if value is DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                with tempfile.TemporaryDirectory() as out:
                    try:
                        code = run(Path(out), command, doc)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        code = repr(exc)
                if code not in (0, 2):
                    failures.append((command, path, value, code))
    assert not failures


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutated_configs())
def test_mutated_configs_never_traceback(case):
    # Any exception escaping main fails this test with its traceback.
    command, doc, csv_text = case
    with tempfile.TemporaryDirectory() as out:
        if csv_text is not None:
            doc["csv"] = str(Path(out) / "sweep.csv")
            Path(doc["csv"]).write_text(csv_text)
        assert run(Path(out), command, doc) in (0, 2, 3)


@pytest.mark.parametrize("value", [10**400, math.inf, -math.inf, math.nan],
                         ids=["int-above-float", "inf", "minus-inf", "nan"])
def test_float_keys_refuse_non_finite_values(capsys, value):
    # Every float-valued key of every fuzzed config, set to a value no
    # finite float holds, exits 2 under the number policy; a 400-digit
    # integer, which float() cannot convert, used to escape as OverflowError.
    failures = []
    for command, config in sorted(FUZZED.items()):
        for path in _paths(config):
            if not isinstance(reduce(lambda node, key: node[key], path, config), float):
                continue
            doc = copy.deepcopy(config)
            reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = value
            with tempfile.TemporaryDirectory() as out:
                try:
                    code = run(Path(out), command, doc)
                except Exception as exc:  # noqa: BLE001 - reported below
                    code = repr(exc)
            if code != 2 or "must be a finite number" not in capsys.readouterr().err:
                failures.append((command, path, code))
    assert not failures



@pytest.mark.parametrize("command, base", [("sample", SAMPLE), ("sweep", SWEEP),
                                           ("effsample", EFFSAMPLE)],
                         ids=["sample", "sweep", "effsample"])
@pytest.mark.parametrize("eta, code", [([0.2, 1.0], 2), ([0.0, 0.6], 2), ([0.2, 0.9], 0)],
                         ids=["eta-one", "eta-zero", "eta-inside"])
def test_square_loss_needs_eta_inside_unit_interval(tmp_path, capsys, command, base, eta, code):
    # The square loss fits the target's log-odds, infinite where eta is 0 or
    # 1, so every risk would be NaN; a table inside (0, 1) runs.
    chain = {"family": "two_source", "p": 0.5, "states": 2}
    doc = {**base, "chain": chain, "target": {"kind": "logistic_link", "eta": eta}}
    assert run(tmp_path, command, doc) == code
    assert ("eta" in capsys.readouterr().err) == (code == 2)
