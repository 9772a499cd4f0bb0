"""Command-line entry points.

Each subcommand reads one JSON (or, on Python 3.11+, TOML) configuration
document and writes result files; there is no interactive surface.  Exit
codes: 0 on success, 2 for configuration problems, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import kl_numeric_check, mc_check_bernstein, mc_check_chain_mgf
from .errors import ConfigError, GibbsNetError
from .gibbs import GibbsConfig, sample_posterior, temperature
from .harness import (
    ExperimentConfig,
    build_chain,
    build_target,
    check_noise,
    emit_report,
    fit_rate_slope,
    resolve_classdef,
    run_effective_sample_experiment,
    run_rate_sweep,
    solve_chain,
)
from .markov import mixing_time, simulate, spectral_gap, stationary_distribution
from .model import generate_classification, generate_regression, target_eta
from .network import SparseNetwork


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:
            raise ConfigError("TOML configs need Python >= 3.11; use JSON") from exc
        return tomllib.loads(text)
    return json.loads(text)


def _out_dir(doc: dict, args) -> Path:
    out = Path(args.out if args.out else doc.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gap(doc: dict, args) -> int:
    k_max = int(doc.get("k_max", 10))
    kernel, pi, gap = solve_chain(doc["chain"], k_max)
    result = {
        "states": kernel.states,
        "stationary": pi.weights.tolist(),
        "spectral_gap": spectral_gap(kernel.probs, pi),
        "pseudo_spectral_gap": gap,
        "k_max": k_max,
    }
    if doc.get("mixing_epsilon") is not None:
        result["mixing_time"] = mixing_time(
            kernel, pi, float(doc["mixing_epsilon"]), int(doc.get("t_cap", 10_000))
        )
    print(json.dumps(result, indent=2))
    out = _out_dir(doc, args)
    (out / "gap.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_simulate(doc: dict, args) -> int:
    kernel = build_chain(doc["chain"])
    pi = stationary_distribution(kernel)
    seed = int(args.seed if args.seed is not None else doc.get("seed", 0))
    traj = simulate(kernel, pi, n=int(doc["n"]), seed=seed)
    out = _out_dir(doc, args)
    path = out / "trajectory.txt"
    path.write_text(traj.to_text())
    print(f"wrote {path} ({traj.states.size} states)")
    return 0


def cmd_sample(doc: dict, args) -> int:
    kernel, pi, gamma = solve_chain(doc["chain"], int(doc.get("k_max", 10)))
    target = build_target(doc["target"], kernel.states)
    seed = int(args.seed if args.seed is not None else doc.get("seed", 0))
    loss = doc.get("loss", "square")
    n = int(doc["n"])
    if loss == "square":
        noise = check_noise(doc.get("noise", ["gaussian", 0.5]))
        data = generate_regression(target, kernel, pi, n=n, noise=noise, seed=seed)
    else:
        data = generate_classification(
            target_eta(target), kernel, pi, n=n, seed=seed, points=target.points
        )
    classdef = resolve_classdef(doc["classdef"], doc["target"], n * gamma)
    gdoc = dict(doc.get("gibbs", {}))
    lam = gdoc.pop("temperature", None)
    if lam is None:
        lam = temperature(n, gamma, float(doc.get("bernstein_k", 1.0)))
    cfg = GibbsConfig.from_doc(gdoc, classdef, lam, seed)
    draws = sample_posterior(data, loss, classdef, cfg)
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
    for check in doc.get("checks", []):
        kind = check.get("kind")
        if kind == "chain_mgf":
            kernel = build_chain(check["chain"])
            pi = stationary_distribution(kernel)
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
            kernel = build_chain(check["chain"])
            pi = stationary_distribution(kernel)
            target = build_target(check["target"], kernel.states)
            net = SparseNetwork.from_json(json.dumps(check["network"]))
            family, scale = check.get("noise", ["gaussian", 0.0])
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
        elif kind == "kl":
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
        else:
            raise ConfigError(f"unknown bound check kind {kind!r}")
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
    doc.pop("pairs", None)
    if args.seed is not None:
        doc["seed"] = int(args.seed)
    if args.out is not None:
        doc["output_dir"] = args.out
    return ExperimentConfig.from_dict(doc)


def cmd_sweep(doc: dict, args) -> int:
    cfg = _experiment_config(doc, args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_rate_sweep(cfg, csv_path=out / "sweep_partial.csv")
    emit_report(result, [], str(out / "sweep"))
    slope_txt = "n/a"
    try:
        slope, stderr = fit_rate_slope(result)
        slope_txt = f"{slope:.4f} +- {stderr:.4f}"
    except GibbsNetError:
        pass
    print(f"{len(result.rows)} rows -> {out / 'sweep.csv'} (slope {slope_txt})")
    return 0


def cmd_effsample(doc: dict, args) -> int:
    pairs = [tuple(pair) for pair in doc.get("pairs", [])]
    if not pairs:
        raise ConfigError("effsample needs a nonempty 'pairs' list of [n, p]")
    cfg = _experiment_config(doc, args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_effective_sample_experiment(
        cfg, pairs, csv_path=out / "effsample_partial.csv"
    )
    emit_report(result, [], str(out / "effsample"))
    medians = {}
    for n, p in pairs:
        vals = [r.excess_risk for r in result.rows if r.n == int(n)]
        medians[f"n={n},p={p}"] = float(np.median(vals))
    print(json.dumps(medians, indent=2))
    return 0


def cmd_slope(doc: dict, args) -> int:
    from .harness import SweepResult

    csv_path = doc["csv"]
    result = SweepResult.from_csv(Path(csv_path).read_text())
    slope, stderr = fit_rate_slope(result)
    payload = {"slope": slope, "stderr": stderr}
    print(json.dumps(payload, indent=2))
    out = _out_dir(doc, args)
    (out / "slope.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


COMMANDS = {
    "gap": cmd_gap,
    "simulate": cmd_simulate,
    "sample": cmd_sample,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "effsample": cmd_effsample,
    "slope": cmd_slope,
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
    try:
        return COMMANDS[args.command](doc, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GibbsNetError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
