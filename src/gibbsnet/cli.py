"""Command-line entry points.

Each subcommand reads one JSON (or, on Python 3.11+, TOML) configuration
document and writes result files; there is no interactive surface.  Exit
codes: 0 on success, 2 for configuration problems, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import kl_numeric_check, mc_check_bernstein, mc_check_chain_mgf
from .errors import ConfigError, GibbsNetError, ZeroStationaryMass, check_table
from .harness import (
    ExperimentConfig,
    SweepResult,
    build_target,
    cell_settings,
    chain_law,
    check_noise,
    emit_report,
    fit_cell,
    fit_rate_slope,
    run_effective_sample_experiment,
    run_rate_sweep,
    solve_chain,
    table_kind,
)
from .markov import mixing_time, pseudo_spectral_gap, simulate, spectral_gap
from .network import SparseNetwork

EXPERIMENT_KEYS = set(ExperimentConfig.__dataclass_fields__)

CHECK_KEYS = {
    "chain_mgf": {"kind", "chain", "f_table", "n", "theta", "replications", "seed", "k_max"},
    "bernstein_mgf": {"kind", "chain", "target", "network", "loss", "lambda", "n",
                      "replications", "seed", "noise", "bernstein_k"},
    "kl": {"kind", "card", "eta", "decay", "slab", "n_max", "center"},
}


def _check_finite(node) -> None:
    """Raise ConfigError at a non-finite number anywhere in a loaded config."""
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            _check_finite(child)
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"non-finite number {node}")


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:
            raise ConfigError("TOML configs need Python >= 3.11; use JSON") from exc
        doc = tomllib.loads(text)
    else:
        doc = json.loads(text)
    _check_finite(doc)
    return doc


def _out_dir(doc: dict, args) -> Path:
    out = args.out if args.out else doc.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a path, got {out!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gap(doc: dict, args) -> int:
    kernel, pi = chain_law(doc["chain"])
    try:
        k_max = int(doc.get("k_max", 10))
        result = {
            "states": kernel.states,
            "stationary": pi.weights.tolist(),
            "spectral_gap": spectral_gap(kernel.probs, pi),
            "pseudo_spectral_gap": pseudo_spectral_gap(kernel, pi, k_max=k_max),
            "k_max": k_max,
        }
        if doc.get("mixing_epsilon") is not None:
            result["mixing_time"] = mixing_time(
                kernel, pi, float(doc["mixing_epsilon"]), int(doc.get("t_cap", 10_000))
            )
    except (TypeError, ValueError, ZeroStationaryMass) as exc:
        raise ConfigError(f"gap: {exc}") from exc
    print(json.dumps(result, indent=2))
    out = _out_dir(doc, args)
    (out / "gap.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_simulate(doc: dict, args) -> int:
    kernel, pi = chain_law(doc["chain"])
    try:
        seed = int(args.seed if args.seed is not None else doc.get("seed", 0))
        traj = simulate(kernel, pi, n=int(doc["n"]), seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulate: {exc}") from exc
    out = _out_dir(doc, args)
    path = out / "trajectory.txt"
    path.write_text(traj.to_text())
    print(f"wrote {path} ({traj.states.size} states)")
    return 0


def cmd_sample(doc: dict, args) -> int:
    """The fit half of one sweep cell: the sweep schema with ``n`` in place
    of ``n_grid``, and an optional ``gibbs.temperature`` override."""
    doc = dict(doc)
    n_grid = [doc.pop("n")]
    gibbs, lam = doc.get("gibbs", {}), None
    if isinstance(gibbs, dict):
        gibbs = dict(gibbs)
        lam = gibbs.pop("temperature", None)
    cfg = _experiment_config({**doc, "gibbs": gibbs, "n_grid": n_grid}, args)
    n = cfg.n_grid[0]
    chain = solve_chain(cfg.chain, cfg.k_max)
    kernel, _, gamma = chain
    target = build_target(cfg.target, kernel.states)
    draws = fit_cell(cfg, n, chain, target, *cell_settings(cfg, n, gamma, cfg.seed, lam))
    out = _out_dir(doc, args)
    path = out / "draws.jsonl"
    path.write_text(draws.to_jsonl())
    print(
        f"wrote {path} ({len(draws)} draws, acceptance rates "
        f"{ {k: round(v, 3) for k, v in draws.acceptance_rates.items()} })"
    )
    return 0


def cmd_bounds(doc: dict, args) -> int:
    reports = []
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"checks must be a list of tables, got {checks!r}")
    for check in checks:
        kind = table_kind(check, CHECK_KEYS, "bounds check", "kind")
        try:
            if kind == "chain_mgf":
                kernel, pi = chain_law(check["chain"])
                reports.append(
                    mc_check_chain_mgf(
                        kernel,
                        pi,
                        check["f_table"],
                        n=int(check["n"]),
                        theta=float(check["theta"]),
                        replications=int(check.get("replications", 1000)),
                        seed=int(check.get("seed", 0)),
                        k_max=int(check.get("k_max", 10)),
                    )
                )
            elif kind == "bernstein_mgf":
                kernel, pi = chain_law(check["chain"])
                target = build_target(check["target"], kernel.states)
                net = SparseNetwork.from_json(json.dumps(check["network"]))
                family, scale = check_noise(check.get("noise", ["gaussian", 0.0]))
                reports.append(
                    mc_check_bernstein(
                        net,
                        target,
                        kernel,
                        pi,
                        check.get("loss", "square"),
                        lam=float(check["lambda"]),
                        n=int(check["n"]),
                        replications=int(check.get("replications", 1000)),
                        seed=int(check.get("seed", 0)),
                        noise=(family, float(scale)),
                        bernstein_k=check.get("bernstein_k"),
                    )
                )
            else:
                reports.append(
                    kl_numeric_check(
                        card=int(check["card"]),
                        eta=float(check["eta"]),
                        decay=float(check["decay"]),
                        slab=float(check["slab"]),
                        n_max=int(check["n_max"]),
                        center=check.get("center"),
                    )
                )
        except (TypeError, ValueError, IndexError, ZeroStationaryMass) as exc:
            raise ConfigError(f"{kind} check: {exc}") from exc
    width = max((len(r.label) for r in reports), default=10)
    print(f"{'check':<{width}}  {'rhs':>12}  {'empirical':>12}  holds")
    for r in reports:
        emp = "-" if r.empirical_value is None else f"{r.empirical_value:12.5g}"
        print(f"{r.label:<{width}}  {r.rhs_value:12.5g}  {emp:>12}  {r.holds}")
    out = _out_dir(doc, args)
    path = out / "bounds.json"
    path.write_text(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    return 0


def _experiment_config(doc: dict, args) -> ExperimentConfig:
    doc = dict(doc)
    if args.seed is not None:
        doc["seed"] = int(args.seed)
    return ExperimentConfig.from_dict(doc)


def cmd_sweep(doc: dict, args) -> int:
    cfg = _experiment_config(doc, args)
    out = _out_dir(doc, args)
    result = run_rate_sweep(cfg, csv_path=out / "sweep_partial.csv")
    summary = emit_report(result, [], str(out / "sweep"))
    slope, stderr = summary["slope"], summary["stderr"]
    slope_txt = "n/a" if slope is None else f"{slope:.4f} +- {stderr:.4f}"
    print(f"{len(result.rows)} rows -> {out / 'sweep.csv'} (slope {slope_txt})")
    return 0


def cmd_effsample(doc: dict, args) -> int:
    pairs = doc.get("pairs", [])
    cfg = _experiment_config({k: v for k, v in doc.items() if k != "pairs"}, args)
    out = _out_dir(doc, args)
    result = run_effective_sample_experiment(
        cfg, pairs, csv_path=out / "effsample_partial.csv"
    )
    emit_report(result, [], str(out / "effsample"))
    reps = cfg.replications  # rows arrive in pair order, `replications` per pair
    medians = {}
    for i, (n, p) in enumerate(pairs):
        rows = result.rows[i * reps:(i + 1) * reps]
        medians[f"n={n},p={p}"] = float(np.median([r.excess_risk for r in rows]))
    print(json.dumps(medians, indent=2))
    return 0


def cmd_slope(doc: dict, args) -> int:
    csv_path = doc["csv"]
    if not isinstance(csv_path, str):
        raise ConfigError(f"csv must be a path, got {csv_path!r}")
    result = SweepResult.from_csv(Path(csv_path).read_text())
    slope, stderr = fit_rate_slope(result)
    payload = {"slope": slope, "stderr": stderr}
    print(json.dumps(payload, indent=2))
    out = _out_dir(doc, args)
    (out / "slope.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


# Each subcommand and the top-level keys its config may hold.
COMMANDS = {
    "gap": (cmd_gap, {"chain", "k_max", "mixing_epsilon", "t_cap", "output_dir"}),
    "simulate": (cmd_simulate, {"chain", "n", "seed", "output_dir"}),
    "sample": (cmd_sample, EXPERIMENT_KEYS | {"n"}),
    "bounds": (cmd_bounds, {"checks", "output_dir"}),
    "sweep": (cmd_sweep, EXPERIMENT_KEYS),
    "effsample": (cmd_effsample, EXPERIMENT_KEYS | {"pairs"}),
    "slope": (cmd_slope, {"csv", "output_dir"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbsnet",
        description="Tempered-posterior sparse networks on Markov data: "
        "gap computation, simulation, sampling, bound checks and rate sweeps.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON (or TOML) config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        doc = load_config(args.config)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    command, keys = COMMANDS[args.command]
    try:
        return command(check_table(doc, f"{args.command} config", keys), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"config error: missing key {exc}", file=sys.stderr)
        return 2
    except (GibbsNetError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
