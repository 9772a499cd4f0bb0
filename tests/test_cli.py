"""Tests for the command-line entry points: exit codes and config errors."""

import json
import math

import pytest

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
    ],
    ids=[
        "odd-two-source-states", "gibbs-iter-typo", "gibbs-burnin-typo",
        "iters-below-burn-in", "negative-noise-scale", "unknown-noise-family",
        "classdef-without-sizes", "sample-burnin-typo", "sample-iters-below-burn-in",
        "sample-negative-noise-scale",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, doc):
    assert run(tmp_path, command, doc) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_sample_temperature_override_accepted(tmp_path):
    assert run(tmp_path, "sample", SAMPLE) == 0
    assert len((tmp_path / "draws.jsonl").read_text().splitlines()) == 100


def test_bounds_overflowing_rhs_reports_inf(tmp_path):
    # Both right-hand sides overflow a float here; the table still prints
    # and every report holds against an infinite bound.
    chain = {"family": "two_source", "p": 0.5}
    doc = {"checks": [
        {"kind": "chain_mgf", "chain": chain, "f_table": [1.0, -1.0], "n": 100_000,
         "theta": 0.099, "replications": 20},
        {"kind": "bernstein_mgf", "chain": chain, "target": {"kind": "holder"},
         "network": {"depth": 0, "widths": [1, 1], "active_indices": [1], "values": [1.0],
                     "weight_bound": 1.0, "output_clip": 5.0},
         "lambda": 10.9, "n": 110, "replications": 20, "bernstein_k": 50.0,
         "noise": ["gaussian", 0.3]},
    ]}
    assert run(tmp_path, "bounds", doc) == 0
    reports = json.loads((tmp_path / "bounds.json").read_text())
    assert [r["rhs_value"] for r in reports] == [math.inf, math.inf]
    assert all(r["holds"] for r in reports)
