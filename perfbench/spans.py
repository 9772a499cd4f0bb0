"""Span tracing from outside the package.

Each traced public function is replaced, for the duration of a traced pass,
at every name a ``gibbsnet`` module bound it to (for example both
``gibbsnet.markov.simulate`` and ``gibbsnet.model.simulate``), so calls made
inside the package are caught without editing it.  Spans are kept in memory
as ``[name, start, end, parent, op, info]`` and written out when the run
ends; ``info`` holds the work counts a few wrappers read from the call's
arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time


def _mc_info(bound, report):
    return {"holds": bool(report.holds)}


def _simulate_info(bound, traj):
    return {"states": int(bound["n"])}


def _batch_info(bound, paths):
    return {"steps": int(bound["n"]) * int(bound["replications"])}


def _sampler_info(bound, draws):
    return {
        "steps": int(bound["cfg"].iters),
        "draws": len(draws),
        "accept": dict(draws.acceptance_rates),
    }


# (module, function, optional reader of work counts).  These are the public
# functions whose calls the per-layer metrics are built from.
TRACED = (
    ("markov", "simulate", _simulate_info),
    ("markov", "simulate_batch", _batch_info),
    ("markov", "stationary_distribution", None),
    ("markov", "pseudo_spectral_gap", None),
    ("markov", "estimate_pseudo_gap", None),
    ("model", "generate_regression", None),
    ("model", "excess_risk_mc", None),
    ("network", "forward", None),
    ("gibbs", "sample_posterior", _sampler_info),
    ("gibbs", "posterior_predictor", None),
    ("bounds", "mc_check_chain_mgf", _mc_info),
    ("bounds", "mc_check_bernstein", _mc_info),
    ("bounds", "kl_numeric_check", None),
    ("harness", "run_rate_sweep", None),
    ("harness", "run_cell", None),
    ("harness", "fit_rate_slope", None),
    ("harness", "emit_report", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the benchmark
    operation that caused them."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._wrappers = {}

    def _wrap(self, name, fn, info):
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Replace every bound name of each traced function by its wrapper."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "gibbsnet" or key.startswith("gibbsnet."))
        ]
        for module_name, func_name, info in TRACED:
            original = getattr(sys.modules[f"gibbsnet.{module_name}"], func_name)
            key = f"{module_name}.{func_name}"
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(key, original, info)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, self._wrappers[key])
                    self._patches.append((mod, func_name, original))

    def uninstall(self):
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds (total minus the
        time covered by direct children) and the list of ``info`` dicts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, info in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, op, info) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": [],
                                          "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            entry["durations"].append(end - start)
            if info is not None:
                entry["info"].append(info)
        return out

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op", "info"]
        doc["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(doc, handle)
            handle.write("\n")


def layer_metrics(summary: dict, passes: int, gate: dict) -> dict:
    """Per-layer metric values per traced pass.

    ``gate`` carries values the benchmark computed itself while checking
    outputs (the TV distance and the fitted slope).  A layer the workload
    never calls reads 0.
    """

    def get(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": [],
                                  "durations": []})

    def per_pass(value):
        return value / passes

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def info_sum(name, key):
        return sum(item[key] for item in get(name)["info"])

    sim, batch = get("markov.simulate"), get("markov.simulate_batch")
    fwd, sampler = get("network.forward"), get("gibbs.sample_posterior")
    steps = info_sum("gibbs.sample_posterior", "steps")
    mc_names = ("bounds.mc_check_chain_mgf", "bounds.mc_check_bernstein")
    holds = [item["holds"] for name in mc_names for item in get(name)["info"]]
    mc_durations = [d for name in mc_names for d in get(name)["durations"]]
    mc_p90 = (statistics.quantiles(mc_durations, n=10, method="inclusive")[-1]
              if len(mc_durations) > 1 else sum(mc_durations))
    accept = {}
    for move in ("add", "remove", "perturb"):
        rates = [item["accept"][move] for item in sampler["info"]]
        accept[move] = statistics.fmean(rates) if rates else 0.0

    values = {
        "markov.simulate.s": per_pass(sim["s"]),
        "markov.simulate.states_per_s": rate(info_sum("markov.simulate", "states"), sim["s"]),
        "markov.simulate_batch.s": per_pass(batch["s"]),
        "markov.simulate_batch.steps_per_s": rate(
            info_sum("markov.simulate_batch", "steps"), batch["s"]
        ),
        "markov.stationary_distribution.calls": per_pass(
            get("markov.stationary_distribution")["calls"]
        ),
        "markov.stationary_distribution.s": per_pass(get("markov.stationary_distribution")["s"]),
        "markov.pseudo_spectral_gap.calls": per_pass(get("markov.pseudo_spectral_gap")["calls"]),
        "markov.pseudo_spectral_gap.s": per_pass(get("markov.pseudo_spectral_gap")["s"]),
        "model.generate_regression.calls": per_pass(get("model.generate_regression")["calls"]),
        "model.generate_regression.s": per_pass(get("model.generate_regression")["s"]),
        "model.excess_risk_mc.s": per_pass(get("model.excess_risk_mc")["s"]),
        "network.forward.calls": per_pass(fwd["calls"]),
        "network.forward.us_per_call": 1e6 * fwd["s"] / fwd["calls"] if fwd["calls"] else 0.0,
        "gibbs.sample_posterior.calls": per_pass(sampler["calls"]),
        "gibbs.sample_posterior.s": per_pass(sampler["s"]),
        "gibbs.steps": per_pass(steps),
        "gibbs.us_per_step": 1e6 * sampler["s"] / steps if steps else 0.0,
        "gibbs.draws_kept": per_pass(info_sum("gibbs.sample_posterior", "draws")),
        "gibbs.accept.add": accept["add"],
        "gibbs.accept.remove": accept["remove"],
        "gibbs.accept.perturb": accept["perturb"],
        "gibbs.tv_to_enumeration": gate.get("tv", 0.0),
        "gibbs.posterior_predictor.s": per_pass(get("gibbs.posterior_predictor")["s"]),
        "bounds.mc_check_chain_mgf.s": per_pass(get("bounds.mc_check_chain_mgf")["s"]),
        "bounds.mc_check_bernstein.s": per_pass(get("bounds.mc_check_bernstein")["s"]),
        "bounds.mc_check.ms_p90": 1e3 * mc_p90,
        "bounds.kl_numeric_check.s": per_pass(get("bounds.kl_numeric_check")["s"]),
        "bounds.mc_holds_frac": statistics.fmean(holds) if holds else 0.0,
        "harness.run_cell.calls": per_pass(get("harness.run_cell")["calls"]),
        "harness.run_cell.s": per_pass(get("harness.run_cell")["s"]),
        "harness.run_cell.self_s": per_pass(get("harness.run_cell")["self_s"]),
        "harness.emit_report.s": per_pass(get("harness.emit_report")["s"]),
        "harness.rate_slope": gate.get("slope", 0.0),
        "cli.main.s": per_pass(get("cli.main")["s"]),
        "cli.main.self_s": per_pass(get("cli.main")["self_s"]),
    }
    return {name: float(value) for name, value in values.items()}

