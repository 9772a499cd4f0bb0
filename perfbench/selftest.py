"""Self-test of the benchmark: ``python3 -m pytest perfbench/selftest.py``.

A tiny-size run of each workload must emit every metric BENCHMARK.json
names, and corrupted outputs must trip the gates that guard them.
"""

import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(name, trace):
    result = bench.run(name, seed=3, seconds=0.0, trace=bool(trace), tiny=True,
                       setup_children=0)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert result["attempted"] >= 1


def _sweep_csv(cells, seed, slope=-0.6):
    lines = [",".join(workloads.CSV_HEADER)]
    for index, (p, n) in enumerate(cells):
        gamma = 4.0 * p * (1.0 - p)
        n_eff = n * gamma
        lines.append(f"{n},{gamma:.12g},{n_eff:.12g},{n_eff ** slope:.12g},1.5,{seed ^ index},0.1")
    return "\n".join(lines) + "\n"


def _fit(text):
    rows = [dict(zip(workloads.CSV_HEADER, map(float, ln.split(","))))
            for ln in text.splitlines()[1:]]
    return {"slope": workloads._own_slope(rows)}


CELLS = [(p, n) for p in (0.5, 0.25) for n in (250, 500, 1000, 2000, 4000)]


def test_sweep_gate_accepts_a_contract_csv():
    text = _sweep_csv(CELLS, seed=77)
    failures, latencies, gate = workloads.check_sweep(text, text, _fit(text), CELLS, 77)
    assert failures == []
    assert len(latencies) == len(CELLS)
    assert gate["slope"] == pytest.approx(-0.6)


def test_sweep_gate_trips_on_a_row_with_n_eff_not_n_gamma():
    lines = _sweep_csv(CELLS, seed=77).splitlines()
    fields = lines[3].split(",")
    fields[2] = str(float(fields[2]) * 1.01)
    lines[3] = ",".join(fields)
    text = "\n".join(lines) + "\n"
    failures, _, _ = workloads.check_sweep(text, text, _fit(_sweep_csv(CELLS, 77)), CELLS, 77)
    assert len(failures) == 1 and "n_eff" in failures[0]


@pytest.mark.parametrize("corruption", ["header", "slope", "partial", "gamma", "missing_row"])
def test_sweep_gate_trips_on_corrupted_output(corruption):
    text = _sweep_csv(CELLS, seed=5)
    summary, partial, cells = _fit(text), text, CELLS
    if corruption == "header":
        text = text.replace("n_eff", "neff", 1)
    elif corruption == "slope":
        text = _sweep_csv(CELLS, seed=5, slope=0.2)
        summary, partial = _fit(text), text
    elif corruption == "partial":
        partial = "\n".join(text.splitlines()[:-1]) + "\n"
    elif corruption == "gamma":
        cells = [(0.3, n) for _, n in CELLS]
    elif corruption == "missing_row":
        text = "\n".join(text.splitlines()[:-1]) + "\n"
        partial = text
    failures, _, _ = workloads.check_sweep(text, partial, summary, cells, 5)
    assert failures


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    return workloads.LongChain(seed=21, root=ROOT, scratch=tmp_path_factory.mktemp("lc"))


def test_draw_histogram_matches_the_oracle(long_chain):
    cfg = long_chain.config(seed=4, iters=3_000, burn_in=500)
    draws = workloads.gibbs.sample_posterior(long_chain.data, "square", long_chain.classdef, cfg)
    fast = workloads.draw_histogram(draws, long_chain.BINS)
    slow = long_chain.oracle.histogram_of_draws(draws, bins=long_chain.BINS)
    assert fast.keys() == slow.keys()
    for key in slow:
        assert fast[key] == pytest.approx(slow[key])


def test_long_chain_gate_trips_on_a_shifted_posterior(long_chain):
    cfg = long_chain.pass_inputs(0)
    draws = workloads.gibbs.sample_posterior(long_chain.data, "square", long_chain.classdef, cfg)
    failures, gate = long_chain.check(draws, cfg)
    assert failures == [] and gate["tv"] <= workloads.TV_TOLERANCE
    shifted = dataclasses.replace(draws, thetas=np.clip(draws.thetas + 0.3, -1.0, 1.0))
    failures, gate = long_chain.check(shifted, cfg)
    assert failures and gate["tv"] > workloads.TV_TOLERANCE


def test_checks_gates_trip_on_corrupted_reports():
    report = workloads.bounds.kl_numeric_check(3, 0.5, 2.0, 1.0, 10)
    assert workloads._gate_kl(report) is None
    assert workloads._gate_kl(dataclasses.replace(report, empirical_value=report.rhs_value + 1))
    assert workloads._gate_mc(dataclasses.replace(report, rhs_value=float("nan")))
    assert workloads._gate_lipschitz((1.0, 2.0)) is None
    assert workloads._gate_lipschitz((2.0, 1.0))
    assert workloads._gate_trajectory((0.5, 1.0)) is None
    assert workloads._gate_trajectory((0.5, 0.9))


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
