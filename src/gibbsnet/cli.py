"""Command-line entry points.

Each subcommand reads one JSON (or, on Python 3.11+, TOML) configuration
document and writes result files; there is no interactive surface.  Exit
codes: 0 on success, 2 for configuration problems, 3 for runtime failures.
:func:`main` is the one failure boundary: a ConfigError, which
:func:`load_config` raises for every file it cannot read or parse, exits 2
with a ``config error:`` line; any other GibbsNetError, OSError or
MemoryError exits 3 with a ``runtime error:`` line, since the config is in
range and the machine cannot run it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import kl_numeric_check, mc_check_bernstein, mc_check_chain_mgf
from .errors import REQUIRED, ConfigError, GibbsNetError, check_kinded, check_table
from .gibbs import sample_posterior
from .harness import (
    CONFIG,
    GIBBS,
    NOISE,
    ExperimentConfig,
    SweepResult,
    build_target,
    cell_data,
    cell_settings,
    chain_law,
    check_noise,
    effsample_cells,
    emit_report,
    fit_rate_slope,
    run_effective_sample_experiment,
    run_rate_sweep,
    solve_chain,
)
from .markov import mixing_time, pseudo_spectral_gap, simulate, spectral_gap
from .network import SparseNetwork

OUTPUT_DIR = {"output_dir": ("str", ".")}

# Each subcommand's top-level table, {key: (kind, default)}.  sweep reads
# harness.CONFIG; sample and effsample read it without the grid keys, since
# they fit at their own n (and p).
GAP = {"chain": ("table", REQUIRED), "k_max": ("int", 10), "mixing_epsilon": ("number", None),
       "t_cap": ("int", 10_000), **OUTPUT_DIR}
SIMULATE = {"chain": ("table", REQUIRED), "n": ("int", REQUIRED), "seed": ("int", 0), **OUTPUT_DIR}
BOUNDS = {"checks": (["any"], ()), **OUTPUT_DIR}
SLOPE = {"csv": ("str", REQUIRED), **OUTPUT_DIR}
CELLS = {k: v for k, v in CONFIG.items() if k not in ("n_grid", "p_grid")}
SAMPLE = {**CELLS, "n": ("int", REQUIRED)}
EFFSAMPLE = {**CELLS, "pairs": ("any", REQUIRED)}  # checked by effsample_cells

NETWORK = {"depth": ("int", REQUIRED), "widths": (["int"], REQUIRED),
           "active_indices": (["int"], REQUIRED), "values": (["number"], REQUIRED),
           "weight_bound": ("number", REQUIRED), "output_clip": ("number", REQUIRED)}

# A bounds check's keys by kind; all but chain, target and network (and
# lambda, passed as lam) are its checker's keyword arguments.
CHECKS = {
    "chain_mgf": {"chain": ("table", REQUIRED), "f_table": (["number"], REQUIRED),
                  "n": ("int", REQUIRED), "theta": ("number", REQUIRED),
                  "replications": ("int", 1000), "seed": ("int", 0), "k_max": ("int", 10)},
    "bernstein_mgf": {"chain": ("table", REQUIRED), "target": ("table", REQUIRED),
                      "network": ("table", REQUIRED), "loss": ("str", "square"),
                      "lambda": ("number", REQUIRED), "n": ("int", REQUIRED),
                      "replications": ("int", 1000), "seed": ("int", 0),
                      "noise": (NOISE, ("gaussian", 0.0)), "bernstein_k": ("number", None)},
    "kl": {"card": ("int", REQUIRED), "eta": ("number", REQUIRED), "decay": ("number", REQUIRED),
           "slab": ("number", REQUIRED), "n_max": ("int", REQUIRED),
           "center": (["number"], None)},
}


def _read_text(path: str, label: str = "") -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be read or
    decoded raises ConfigError, its message prefixed by ``label``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{label}{exc}") from exc


def load_config(path: str) -> dict:
    """The parsed JSON (or TOML) document at ``path``, the one place a config
    file becomes a document: every read or parse failure, a nesting past the
    parser's recursion limit included, raises ConfigError.  Each subcommand
    types its tables, numbers included (see :func:`gibbsnet.errors.check_value`)."""
    text = _read_text(path)
    try:
        if not path.endswith(".toml"):
            return json.loads(text)
        import tomllib
        return tomllib.loads(text)
    except ImportError as exc:
        raise ConfigError("TOML configs need Python >= 3.11; use JSON") from exc
    except RecursionError as exc:
        raise ConfigError(f"the document is nested too deeply to parse ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(doc: dict, args) -> Path:
    out = Path(args.out if args.out else doc["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gap(doc: dict, args) -> int:
    doc = check_table(doc, "gap config", GAP)
    kernel, pi = chain_law(doc["chain"])
    try:
        result = {
            "states": kernel.states,
            "stationary": pi.weights.tolist(),
            "spectral_gap": spectral_gap(kernel.probs, pi),
            "pseudo_spectral_gap": pseudo_spectral_gap(kernel, pi, k_max=doc["k_max"]),
            "k_max": doc["k_max"],
        }
        if doc["mixing_epsilon"] is not None:
            result["mixing_time"] = mixing_time(kernel, pi, doc["mixing_epsilon"], doc["t_cap"])
    except ValueError as exc:
        raise ConfigError(f"gap: {exc}") from exc
    print(json.dumps(result, indent=2))
    out = _out_dir(doc, args)
    (out / "gap.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_simulate(doc: dict, args) -> int:
    doc = check_table(doc, "simulate config", SIMULATE)
    kernel, pi = chain_law(doc["chain"])
    seed = doc["seed"] if args.seed is None else args.seed
    try:
        states = simulate(kernel, pi, n=doc["n"], seed=seed)
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from exc
    out = _out_dir(doc, args)
    path = out / "trajectory.txt"
    path.write_text("".join(f"{line}\n" for line in [f"# seed={seed}", *states.tolist()]))
    print(f"wrote {path} ({states.size} states)")
    return 0


def cmd_sample(doc: dict, args) -> int:
    """The fit half of one sweep cell: the sweep schema with ``n`` in place
    of ``n_grid``, and an optional ``gibbs.temperature`` override."""
    doc = check_table(doc, "sample config", SAMPLE)
    gibbs = check_table(doc["gibbs"], "gibbs", {**GIBBS, "temperature": ("number", None)})
    lam = gibbs.pop("temperature")
    n = doc.pop("n")
    if n < 1:
        raise ConfigError(f"sample n must be at least 1, got {n}")
    cfg = _experiment_config({**doc, "gibbs": gibbs, "n_grid": [n]}, args)
    chain = solve_chain(cfg.chain, cfg.k_max)
    kernel, _, gamma = chain
    target = build_target(cfg.target, kernel.states)
    classdef, gibbs_cfg = cell_settings(cfg, n, gamma, cfg.seed, target, lam)
    data = cell_data(cfg, n, chain, target, gibbs_cfg.seed)
    draws = sample_posterior(data, cfg.loss, classdef, gibbs_cfg)
    out = _out_dir(doc, args)
    path = out / "draws.jsonl"
    path.write_text(draws.to_jsonl())
    print(
        f"wrote {path} ({len(draws)} draws, acceptance rates "
        f"{ {k: round(v, 3) for k, v in draws.acceptance_rates.items()} })"
    )
    return 0


def cmd_bounds(doc: dict, args) -> int:
    doc = check_table(doc, "bounds config", BOUNDS)
    reports = []
    for check in doc["checks"]:
        table = check_kinded(check, "bounds check", "kind", CHECKS)
        kind = table.pop("kind")
        try:
            if kind == "kl":
                reports.append(kl_numeric_check(**table))
                continue
            kernel, pi = chain_law(table.pop("chain"))
            if kind == "chain_mgf":
                reports.append(mc_check_chain_mgf(kernel, pi, **table))
            else:
                target = build_target(table.pop("target"), kernel.states)
                net = check_table(table.pop("network"), "bernstein_mgf network", NETWORK)
                net = SparseNetwork.from_json(json.dumps(net))
                shape = (target.points.shape[1], 1)
                if (net.arch.input_dim, net.arch.output_dim) != shape:
                    raise ConfigError(
                        f"bernstein_mgf network widths must run from the target's input "
                        f"dimension {shape[0]} to one output, got {list(net.arch.widths)}"
                    )
                reports.append(mc_check_bernstein(
                    net, target, kernel, pi, lam=table.pop("lambda"),
                    noise=check_noise(table.pop("noise"), table["n"]), **table,
                ))
        except (ValueError, IndexError) as exc:
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
    return ExperimentConfig(**{**doc, "seed": doc["seed"] if args.seed is None else args.seed})


def cmd_sweep(doc: dict, args) -> int:
    doc = check_table(doc, "sweep config", CONFIG)
    cfg = _experiment_config(doc, args)
    out = _out_dir(doc, args)
    result = run_rate_sweep(cfg, csv_path=out / "sweep_partial.csv")
    summary = emit_report(result, str(out / "sweep"))
    slope, stderr = summary["slope"], summary["stderr"]
    slope_txt = "n/a" if slope is None else f"{slope:.4f} +- {stderr:.4f}"
    print(f"{len(result.rows)} rows -> {out / 'sweep.csv'} (slope {slope_txt})")
    return 0


def cmd_effsample(doc: dict, args) -> int:
    doc = check_table(doc, "effsample config", EFFSAMPLE)
    pairs = effsample_cells(doc.pop("pairs"))
    cfg = _experiment_config({**doc, "n_grid": sorted({n for n, _ in pairs})}, args)
    out = _out_dir(doc, args)
    result = run_effective_sample_experiment(
        cfg, pairs, csv_path=out / "effsample_partial.csv"
    )
    emit_report(result, str(out / "effsample"))
    reps = cfg.replications  # rows arrive in pair order, `replications` per pair
    medians = {}
    for i, (n, p) in enumerate(pairs):
        rows = result.rows[i * reps:(i + 1) * reps]
        medians[f"n={n},p={p}"] = float(np.median([r.excess_risk for r in rows]))
    print(json.dumps(medians, indent=2))
    return 0


def cmd_slope(doc: dict, args) -> int:
    doc = check_table(doc, "slope config", SLOPE)
    result = SweepResult.from_csv(_read_text(doc["csv"], "slope csv: "))
    slope, stderr = fit_rate_slope(result)
    payload = {"slope": slope, "stderr": stderr}
    print(json.dumps(payload, indent=2))
    out = _out_dir(doc, args)
    (out / "slope.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


COMMANDS = {"gap": cmd_gap, "simulate": cmd_simulate, "sample": cmd_sample, "bounds": cmd_bounds,
            "sweep": cmd_sweep, "effsample": cmd_effsample, "slope": cmd_slope}


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
        return COMMANDS[args.command](load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GibbsNetError, OSError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
