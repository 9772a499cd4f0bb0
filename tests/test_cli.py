"""Tests for the command-line entry points: exit codes and config errors."""

import copy
import json
import math
import re
import statistics
import tempfile
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsnet.cli import main

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


# Fixed-seed `sample` runs, each compared with tests/data/golden_sample_<name>.jsonl;
# CI's entry-point step also runs "logistic" through the installed script.
GOLDEN_SAMPLES = {
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


CHAIN = {"family": "two_source", "p": 0.5, "states": 4}
NETWORK = {"depth": 0, "widths": [1, 1], "active_indices": [1], "values": [1.0],
           "weight_bound": 1.0, "output_clip": 5.0}
BERNSTEIN = {"kind": "bernstein_mgf", "chain": CHAIN, "target": {"kind": "holder"},
             "network": NETWORK, "lambda": 1.0, "n": 100, "replications": 20}
KL = {"kind": "kl", "card": 2, "eta": 0.1, "decay": 2.0, "slab": 1.0, "n_max": 5}
KL_CARD_ABOVE_N_MAX = {**KL, "card": 6}
COMPOSITION = {"kind": "composition", "dims": [1, 2, 1], "active_coords": [1, 2],
               "betas": [1.0, 0.5]}
EFFSAMPLE = {**{k: v for k, v in SWEEP.items() if k != "n_grid"}, "n_grid": [100],
             "pairs": [[100, 0.5]]}
GAP = {"chain": CHAIN, "k_max": 10, "mixing_epsilon": 0.1, "t_cap": 50}
SIMULATE = {"chain": CHAIN, "n": 50, "seed": 1}
CHAIN_MGF = {"kind": "chain_mgf", "chain": {"family": "two_source", "p": 0.5},
             "f_table": [1.0, -1.0], "n": 50, "theta": 0.01, "replications": 20}
BOUNDS = {"checks": [CHAIN_MGF, BERNSTEIN, KL]}
SLOPE = {"csv": str(Path(__file__).parent / "data" / "golden_sweep.csv")}
# State 0 is transient: the stationary law puts no mass on it.
TRANSIENT = {"family": "explicit", "probs": [[0.5, 0.5], [0.0, 1.0]]}
NON_SQUARE = {"family": "explicit", "probs": [[0.5, 0.5]]}
# A rule class cannot be sized at n * gamma <= e: here at p = 0.02 only.
UNSIZABLE_GRID = {**SWEEP, "classdef": {"rule": "holder"}, "n_grid": [30, 60],
                  "p_grid": [0.5, 0.02]}


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
        "bounds-bernstein-network-input-mismatch",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, doc):
    assert run(tmp_path, command, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if doc == {"checks": [KL_CARD_ABOVE_N_MAX]}:
        assert "card 6" in err and "n_max 5" in err


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


# Valid bases for the typed-number test below, one per table shape.
RULE_SWEEP = {**SWEEP, "classdef": {
    "rule": "holder", "output_clip": 1.2, "lipschitz_const": 1.0,
    "constants": {"depth_scale": 0.1, "width_scale": 0.2, "sparsity_scale": 0.5,
                  "bound_scale": 1.0, "bound_cap": 1.5}}}
COMPOSITION_SWEEP = {**SWEEP, "target": COMPOSITION, "classdef": {
    "rule": {"kind": "composition", "betas": [1.0, 0.5], "active_coords": [1, 2]},
    "constants": {"depth_scale": 0.1, "width_scale": 0.1, "sparsity_scale": 0.1}}}
EXPLICIT_SWEEP = {**SWEEP, "chain": {"family": "explicit", "probs": [[0.5, 0.5], [0.2, 0.8]]}}
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


GOLDEN_CSV = Path(SLOPE["csv"]).read_text()
GOLDEN_ROW = GOLDEN_CSV.splitlines()[1]


@pytest.mark.parametrize(
    "text, line",
    [
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace(",42,", ",x,"), 1), 2),
        ("", None),
        (GOLDEN_CSV.replace(GOLDEN_ROW, "100,1,100", 1), 2),
        (GOLDEN_CSV.replace(GOLDEN_ROW, GOLDEN_ROW.replace("100,1,100,", "100,1,90,"), 1), 2),
    ],
    ids=["non-numeric-field", "empty-file", "short-row", "n-eff-not-n-gamma"],
)
def test_slope_malformed_csv_exits_2(tmp_path, capsys, text, line):
    (tmp_path / "sweep.csv").write_text(text)
    assert run(tmp_path, "slope", {"csv": str(tmp_path / "sweep.csv")}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert line is None or f"line {line}:" in err


def _reject_constant(name):
    raise ValueError(f"a report file holds the non-JSON constant {name}")


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
    assert (tmp_path / "draws.jsonl").read_text() == golden.read_text()


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
# hold, and no number above 50, so a valid mutant stays small and fast; 2
# also makes a bernstein_mgf network's widths[0] miss the target's input
# dimension.
POOL = [None, True, -1, 0, 1, 2, 2.5, 50, -0.5, 0.5, "x", "", "holder", [], [1], [1, "a"],
        {}, {"a": 1}]


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
    """The golden sweep CSV with one defect: two fields of a line swapped, a
    column dropped, one field replaced, or no content at all."""
    rows = [line.split(",") for line in GOLDEN_CSV.splitlines()]
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
                if code not in (0, 2, 3):
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
