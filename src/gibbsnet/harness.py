"""Experiment orchestration: configuration, class-size scaling rules, rate
sweeps, effective-sample-size comparisons, slope fitting and report files.

Everything is driven by one configuration document (see README for the
schema).  Sweeps fit their grid cells in lockstep batches (see
:func:`gibbsnet.gibbs.lockstep_batches`) with per-row derived seeds (base seed
XOR row index), so a config plus seed fully determines the emitted rows;
CSV rows are flushed in row order as their batches complete, so partial
results survive a failure.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import composition_rate_rhs, oracle_rhs
from .errors import (REQUIRED, ConfigError, InvalidClass, MismatchedEffectiveSize,
                     NonUniqueStationary, TooFewPoints, ZeroStationaryMass, check_kinded,
                     check_table, check_value)
from .gibbs import (RISK_TERMS, ClassDef, GibbsConfig, Prior, class_output_bound,
                    lockstep_batches, posterior_predictor, sample_batch, temperature)
from .markov import (
    MAX_POWER,
    TransitionKernel,
    pseudo_spectral_gap,
    stationary_distribution,
    two_source_kernel,
)
from .model import (
    NOISE_FAMILIES,
    TargetSpec,
    composition_target,
    excess_risk_mc,
    generate_classification,
    generate_regression,
    holder_target,
    logistic_link_target,
    rate_exponent,
    rate_exponents,
)

CSV_COLUMNS = ("n", "gamma", "n_eff", "excess_risk", "bound_rhs", "seed", "wall_time")

LOSSES = tuple(RISK_TERMS)  # the losses the sampler states a risk for

# Config table schemas, {key: (kind, default)}; see errors.check_value.
CHAINS = {  # by family
    "two_source": {"p": ("number", None), "states": ("int", 2)},
    "explicit": {"probs": ([["number"]], REQUIRED)},
}

TARGETS = {  # by kind
    "holder": {"beta": ("number", 1.0), "scale": ("number", 1.0), "dim": ("int", 1)},
    "composition": {"dims": (["int"], REQUIRED), "active_coords": (["int"], REQUIRED),
                    "betas": (["number"], REQUIRED), "scale": ("number", 1.0)},
    "logistic_link": {"eta": (["number"], REQUIRED)},
}

CLASSDEF = {
    "rule": ("any", None),  # "holder" or a composition rule table (RULES)
    "constants": ("table", None),  # RULE_CONSTANTS
    "depth": ("int", None), "width": ("int", None), "sparsity": ("int", None),
    "weight_bound": ("number", None), "output_clip": ("number", 5.0),
    "activation": ("str", "relu"), "lipschitz_const": ("number", 1.0),
}

RULES = {"composition": {"betas": (["number"], REQUIRED), "active_coords": (["number"], REQUIRED)}}

RULE_CONSTANTS = {"depth_scale": ("number", 1.0), "width_scale": ("number", 1.0),
                  "sparsity_scale": ("number", 1.0), "bound_scale": ("number", 1.0),
                  "bound_cap": ("number", 1e6)}

NOISE = ("str", "number")  # [family, scale]

# The config's ``gibbs`` table: sampler settings, at GibbsConfig's defaults.
GIBBS = {"support_decay": ("number", 2.0), "move_probs": (["number"], GibbsConfig.move_probs),
         "step": ("number", GibbsConfig.step), "iters": ("int", GibbsConfig.iters),
         "burn_in": ("int", GibbsConfig.burn_in), "thin": ("int", GibbsConfig.thin)}

# The top-level table of a sweep, effsample or sample config.
CONFIG = {
    "target": ("table", REQUIRED), "chain": ("table", REQUIRED),
    "n_grid": (["int"], REQUIRED), "p_grid": (["number"], None),
    "classdef": ("table", {}), "gibbs": ("table", {}),
    "noise": (NOISE, ("gaussian", 0.5)), "loss": ("str", "square"),
    "replications": ("int", 1), "delta": ("number", 0.05), "seed": ("int", 0),
    "output_dir": ("str", "."), "bernstein_k": ("number", 1.0), "k_max": ("int", 10),
    "predictor": ("str", "single_draw"), "xi": ("number", 1.0),
}


def build_chain(spec: dict, p_override: float | None = None) -> TransitionKernel:
    """Kernel factory for config chain specs.

    Families: ``two_source`` (switch probability p, even state count) and
    ``explicit`` (a full probability matrix).  A ``p_override`` (a
    ``p_grid`` entry or an effsample pair's p) for a family without p raises
    ConfigError rather than go unused.
    """
    spec = check_kinded(spec, "chain", "family", CHAINS)
    if p_override is not None and "p" not in spec:
        raise ConfigError(f"chain family {spec['family']!r} has no p for a p_grid or an "
                          f"effsample pair to set (got p = {p_override})")
    try:
        if spec["family"] == "two_source":
            p = spec["p"] if p_override is None else p_override
            if p is None:
                raise ConfigError("a two_source chain needs p")
            return two_source_kernel(p, states=spec["states"])
        probs = np.asarray(spec["probs"], dtype=float)
        return TransitionKernel(states=probs.shape[0], probs=probs)
    except ValueError as exc:
        raise ConfigError(f"chain: {exc}") from exc


def chain_law(spec: dict, p_override: float | None = None):
    """(kernel, stationary law) of a config chain spec (see
    :func:`build_chain`); a chain without a unique stationary law, which
    the config alone decides, raises ConfigError."""
    kernel = build_chain(spec, p_override=p_override)
    try:
        return kernel, stationary_distribution(kernel)
    except NonUniqueStationary as exc:
        raise ConfigError(f"chain: {exc}") from exc


def solve_chain(spec: dict, k_max: int, p_override: float | None = None):
    """(kernel, stationary law, pseudo-spectral gap) of a config chain spec
    that a fit can use (see :func:`chain_law`); a chain with a transient
    state, or with a zero gap, so zero effective sample size, raises
    ConfigError."""
    kernel, pi = chain_law(spec, p_override)
    try:
        gap = pseudo_spectral_gap(kernel, pi, k_max=k_max)
    except ZeroStationaryMass as exc:
        raise ConfigError(f"chain has a transient state: {exc}") from exc
    if gap <= 0:
        raise ConfigError(f"chain has pseudo-spectral gap {gap}, so n * gamma = 0")
    return kernel, pi, gap


def check_noise(noise, n: int) -> tuple:
    """A config's ``[family, scale]`` noise entry for samples of up to ``n``
    points as a tuple; an unknown family, a negative scale, or one at which
    a sum of n squared outputs may overflow (64 n scale^2 not finite, room
    for draws of up to 8 scales) raises ConfigError."""
    family, scale = check_value(noise, NOISE, "noise")
    if family not in NOISE_FAMILIES or scale < 0 or not math.isfinite(64.0 * n * scale * scale):
        raise ConfigError(
            f"noise must be [family, scale >= 0] with family in {tuple(NOISE_FAMILIES)} and "
            f"64 n scale^2 finite at n = {n}, got {list(noise)}"
        )
    return family, scale


def build_target(spec: dict, states: int) -> TargetSpec:
    """The ground truth a config's ``target`` table describes on a chain
    with ``states`` states (a ``holder`` target is the one-stage
    composition); unknown keys and malformed values raise ConfigError."""
    spec = check_kinded(spec, "target", "kind", TARGETS)
    try:
        if spec["kind"] == "holder":
            return holder_target(spec["beta"], states, spec["scale"], spec["dim"])
        if spec["kind"] == "logistic_link":
            return logistic_link_target(spec["eta"], m=states)
        return composition_target(spec["dims"], spec["active_coords"], spec["betas"], states,
                                  scale=spec["scale"])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"target: {exc}") from exc


def architecture_rule(
    n_eff: float,
    beta: float,
    input_dim: int,
    rule: str | dict = "holder",
    constants: dict | None = None,
) -> tuple[int, int, int, float]:
    """Class sizes (depth, width, sparsity, weight bound) as functions of
    the effective sample size.

    The smoothness-driven rule grows depth like log(n_eff), width like
    n_eff^{d/(2 beta+d)}, sparsity like width*log(n_eff) and the weight
    bound like n_eff^{4(beta+d)/(2 beta+d)} capped at ``bound_cap``.  The
    composition rule fixes depth_scale * C0 * log(n_eff) layers with
    C0 = sum_i log4(4 max(t_i, beta_i)), and width n_eff*phi.  All
    proportionality constants default to 1 and are configurable.
    """
    if n_eff <= math.e:
        raise ConfigError("effective sample size must exceed e")
    cs = check_table(constants or {}, "rule constants", RULE_CONSTANTS)
    log_n = math.log(n_eff)
    if rule == "holder":
        depth = math.ceil(cs["depth_scale"] * log_n)
        width = math.ceil(cs["width_scale"] * n_eff ** (input_dim / (2.0 * beta + input_dim)))
        sparsity = math.ceil(cs["sparsity_scale"] * width * log_n)
        bound = min(
            math.ceil(
                cs["bound_scale"]
                * n_eff ** (4.0 * (beta + input_dim) / (2.0 * beta + input_dim))
            ),
            cs["bound_cap"],
        )
        return depth, width, sparsity, float(bound)
    if isinstance(rule, dict):
        rule = check_kinded(rule, "rule", "kind", RULES)
        betas, active = rule["betas"], rule["active_coords"]
        if not betas or len(betas) != len(active) or min(betas) <= 0 or min(active) < 1:
            raise ConfigError("a composition rule needs one beta > 0 and one t >= 1 per stage")
        c0 = sum(math.log(4.0 * max(t, b), 4.0) for t, b in zip(active, betas))
        _, phi = rate_exponents(betas, active, n_eff)
        depth = math.ceil(cs["depth_scale"] * c0 * log_n)
        width = math.ceil(cs["width_scale"] * n_eff * phi)
        sparsity = math.ceil(cs["sparsity_scale"] * n_eff * phi * log_n)
        bound = max(cs["bound_scale"], 1.0)
        return depth, width, sparsity, float(bound)
    raise ConfigError(f"unknown architecture rule {rule!r}")


@dataclass(frozen=True)
class SweepRow:
    n: int
    gamma: float
    n_eff: float
    excess_risk: float
    bound_rhs: float
    seed: int
    wall_time: float

    def __post_init__(self):
        if abs(self.n_eff - self.n * self.gamma) > 1e-12 * max(1.0, self.n_eff):
            raise ValueError("n_eff must equal n * gamma")

    def to_csv_line(self) -> str:
        return ",".join(
            (
                str(self.n),
                f"{self.gamma:.12g}",
                f"{self.n_eff:.12g}",
                f"{self.excess_risk:.12g}",
                f"{self.bound_rhs:.12g}",
                str(self.seed),
                f"{self.wall_time:.6f}",
            )
        )


@dataclass
class SweepResult:
    rows: list
    meta: dict = field(default_factory=dict)

    def to_csv(self, include_timing: bool = True) -> str:
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            line = row.to_csv_line()
            if not include_timing:
                line = ",".join(line.split(",")[:-1] + ["0.000000"])
            buf.write(line + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """The rows of a sweep CSV.  A missing or unexpected header, or a row
        that is not seven numbers with a finite excess risk and
        n_eff = n * gamma > 0, raises ConfigError naming its line."""
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].split(",") != list(CSV_COLUMNS):
            raise ConfigError("unexpected CSV header")
        rows = []
        for number, ln in lines[1:]:
            try:
                n, gamma, n_eff, excess, rhs, seed, wall = ln.split(",")
                row = SweepRow(int(n), float(gamma), float(n_eff), float(excess),
                               float(rhs), int(seed), float(wall))
                if not (0 < row.n_eff < math.inf and math.isfinite(row.excess_risk)):
                    raise ValueError("need a finite excess_risk and a finite n_eff > 0")
            except ValueError as exc:
                raise ConfigError(f"CSV line {number}: {exc}") from exc
            rows.append(row)
        return cls(rows=rows)


class ExperimentConfig:
    """One experiment document (see README for the schema): one attribute
    per key of :data:`CONFIG`, typed, with the ``target``, ``chain``,
    ``classdef`` and ``gibbs`` tables typed by their own schemas."""

    def __init__(self, **doc):
        vars(self).update(check_table(doc, "config", CONFIG))
        self.target = check_kinded(self.target, "target", "kind", TARGETS)
        self.chain = check_kinded(self.chain, "chain", "family", CHAINS)
        self.classdef = check_table(self.classdef, "classdef", CLASSDEF)
        if self.classdef["constants"] is not None:  # typed even where no rule reads them
            self.classdef["constants"] = check_table(self.classdef["constants"],
                                                     "rule constants", RULE_CONSTANTS)
        self.gibbs = check_table(self.gibbs, "gibbs", GIBBS)
        grid = self.n_grid
        if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be nonempty, positive and strictly increasing")
        self.noise = check_noise(self.noise, grid[-1])
        if self.p_grid == ():
            raise ConfigError("p_grid must be nonempty when given")
        if self.replications < 1 or self.bernstein_k <= 0:
            raise ConfigError("replications and bernstein_k must be positive")
        if not 1 <= self.k_max <= MAX_POWER:
            raise ConfigError(f"k_max must lie in 1..{MAX_POWER} (see markov.MAX_POWER)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.xi <= 0:
            raise ConfigError(f"xi must be positive, got {self.xi!r}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if self.loss == "logistic" and self.target["kind"] != "logistic_link":
            raise ConfigError("the logistic loss needs a logistic_link target")
        if self.loss == "square" and not all(0.0 < e < 1.0 for e in self.target.get("eta", [])):
            raise ConfigError("the square loss fits the log-odds of eta, so eta must lie in (0, 1)")
        if self.classdef["rule"] == "holder" and self.target["kind"] != "holder":
            raise ConfigError("the holder rule needs a holder target")
        if self.predictor not in ("single_draw", "average"):
            raise ConfigError(f"unknown predictor {self.predictor!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return cls(**check_table(doc, "config", CONFIG))


def resolve_classdef(classdef: dict, target: dict, n_eff: float) -> ClassDef:
    """The network class a typed ``classdef`` table (see
    :class:`ExperimentConfig`) describes: explicit depth, width, sparsity
    and weight bound, or sizes from a scaling ``rule`` at ``n_eff``."""
    if classdef["rule"] is not None:
        sizes = architecture_rule(n_eff, target.get("beta"), target.get("dim"),
                                  rule=classdef["rule"], constants=classdef["constants"])
    else:
        sizes = [classdef[key] for key in ("depth", "width", "sparsity", "weight_bound")]
        if None in sizes:
            raise ConfigError("classdef needs a rule or an explicit depth, width, sparsity "
                              "and weight_bound")
    try:
        return ClassDef(*sizes, output_clip=classdef["output_clip"],
                        activation=classdef["activation"])
    except InvalidClass as exc:
        raise ConfigError(f"classdef: {exc}") from exc


def _holder_stage(target: dict) -> dict:
    """The one composition stage ([beta], [dim]) of a typed ``holder`` target."""
    return {"betas": [target["beta"]], "active_coords": [target["dim"]]}


def _bound_rhs(cfg: ExperimentConfig, depth: int, prior: Prior, n: int, gamma: float) -> float:
    n_eff = n * gamma
    lip = cfg.classdef["lipschitz_const"]
    rule = cfg.classdef["rule"]
    if rule == "holder":
        rule = _holder_stage(cfg.target)
    if isinstance(rule, dict):
        return composition_rate_rhs(
            n_eff, rule["betas"], rule["active_coords"], cfg.delta, lip, cfg.xi
        )
    return oracle_rhs(
        excess_at_best=0.0,
        card=prior.cap,
        depth=depth,
        n=n,
        gap=gamma,
        slab=prior.slab,
        n_max=prior.n_coords,
        delta=cfg.delta,
        lipschitz_const=lip,
        xi1=cfg.xi,
    )


def cell_settings(cfg: ExperimentConfig, n: int, gamma: float, seed: int, target: TargetSpec,
                  lam=None):
    """``(classdef, gibbs_cfg)`` of one cell: the class sized at n * gamma,
    sampler settings at ``seed`` and temperature ``lam`` (default from
    :func:`temperature`); pure, so a sweep checks them all before fitting.
    A class whose pre-clip outputs may overflow at ``target``'s states
    (see :func:`gibbsnet.gibbs.class_output_bound`), or sampler settings
    :class:`gibbsnet.gibbs.GibbsConfig` refuses, raise ConfigError."""
    classdef = resolve_classdef(cfg.classdef, cfg.target, n * gamma)
    try:
        class_output_bound(classdef, target.points)
    except InvalidClass as exc:
        raise ConfigError(f"classdef: {exc}") from exc
    lam = temperature(n, gamma, cfg.bernstein_k) if lam is None else lam
    try:
        return classdef, GibbsConfig(**cfg.gibbs, weight_bound=classdef.weight_bound,
                                     output_clip=classdef.output_clip, temperature=lam, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"gibbs: {exc}") from exc


def cell_data(cfg: ExperimentConfig, n: int, chain, target: TargetSpec, seed: int):
    """The n observations of ``target`` that a cell on ``chain = (kernel,
    pi, gamma)`` fits, drawn from the data streams of row seed ``seed``."""
    kernel, pi, _ = chain
    if cfg.loss == "square":
        return generate_regression(target, kernel, pi, n=n, noise=cfg.noise, seed=seed)
    return generate_classification(target, kernel, pi, n=n, seed=seed)


def run_cell(cfg: ExperimentConfig, n: int, chain, target, classdef, gibbs_cfg, draws,
             fit_time: float) -> SweepRow:
    """One grid cell's row on a precomputed ``chain = (kernel, pi, gamma)``,
    the sweep's ``target`` and the cell's settings, from its posterior
    ``draws``: score the predictor and the bound.  The row's wall time is
    ``fit_time`` plus this scoring."""
    start = time.perf_counter()
    _, pi, gamma = chain
    predictor = posterior_predictor(draws, mode=cfg.predictor)
    excess = excess_risk_mc(predictor, target, pi, loss=cfg.loss)
    return SweepRow(
        n=n,
        gamma=gamma,
        n_eff=n * gamma,
        excess_risk=excess,
        bound_rhs=_bound_rhs(cfg, classdef.depth, draws.prior, n, gamma),
        seed=gibbs_cfg.seed,
        wall_time=fit_time + time.perf_counter() - start,
    )


def _run_cells(cfg: ExperimentConfig, cells, chains: dict, csv_path) -> list:
    """Run each (n, p) cell ``cfg.replications`` times, on ``chains[p]`` and
    one target built for the sweep, with row seeds base seed XOR row index.
    Every row's settings are resolved before ``csv_path`` is opened and
    every row's data drawn; then :func:`sample_batch` fits each batch of
    :func:`lockstep_batches`, whose rows are scored and flushed to
    ``csv_path`` in row order.  A row's wall time is its share of its
    batch's sampler time plus its own data and scoring."""
    kernel = next(iter(chains.values()))[0]
    target = build_target(cfg.target, kernel.states)
    runs = [(n, p) for n, p in cells for _ in range(cfg.replications)]
    settings = [cell_settings(cfg, n, chains[p][2], cfg.seed ^ i, target)
                for i, (n, p) in enumerate(runs)]
    rows = [None] * len(runs)
    with io.StringIO() if csv_path is None else open(csv_path, "w") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.flush()
        datas, own_times = [], []
        for (n, p), (_, gibbs_cfg) in zip(runs, settings):
            start = time.perf_counter()
            datas.append(cell_data(cfg, n, chains[p], target, gibbs_cfg.seed))
            own_times.append(time.perf_counter() - start)
        written = 0
        for batch in lockstep_batches(datas, *zip(*settings)):
            start = time.perf_counter()
            fitted = sample_batch([datas[i] for i in batch], cfg.loss,
                                  *zip(*(settings[i] for i in batch)))
            share = (time.perf_counter() - start) / len(batch)
            for i, draws in zip(batch, fitted):
                (n, p), (classdef, gibbs_cfg) = runs[i], settings[i]
                rows[i] = run_cell(cfg, n, chains[p], target, classdef, gibbs_cfg, draws,
                                   share + own_times[i])
            while written < len(rows) and rows[written] is not None:
                handle.write(rows[written].to_csv_line() + "\n")
                written += 1
            handle.flush()
    return rows


def run_rate_sweep(cfg: ExperimentConfig, csv_path=None) -> SweepResult:
    """Full grid sweep over (p_grid x n_grid x replications), streamed to
    ``csv_path`` by :func:`_run_cells`; the chain is solved once per p."""
    p_values = cfg.p_grid if cfg.p_grid is not None else (None,)
    chains = {p: solve_chain(cfg.chain, cfg.k_max, p) for p in p_values}
    cells = [(n, p) for p in p_values for n in cfg.n_grid]
    rows = _run_cells(cfg, cells, chains, csv_path)
    return SweepResult(rows=rows, meta={"theory_exponent": theory_exponent(cfg)})


def theory_exponent(cfg: ExperimentConfig) -> float | None:
    """Rate exponent the sweep is probing (see
    :func:`gibbsnet.model.rate_exponent`) for a smooth target, a
    ``holder`` target being the one-stage composition; None otherwise.
    The states lie on the diagonal (:func:`gibbsnet.model.state_grid`),
    where each stage reads one scalar, so every stage's active dimension is 1."""
    kind = cfg.target["kind"]
    if kind not in ("holder", "composition"):
        return None
    stages = _holder_stage(cfg.target) if kind == "holder" else cfg.target
    return rate_exponent(stages["betas"], [1] * len(stages["betas"]))


def fit_rate_slope(result: SweepResult) -> tuple[float, float]:
    """Least squares of log(median excess risk) on log(n_eff).

    Replications sharing an n_eff to the CSV's 12 significant digits are
    collapsed to their median first; needs at least four distinct
    effective sample sizes.
    """
    groups: dict = {}
    for row in result.rows:
        groups.setdefault(float(f"{row.n_eff:.12g}"), []).append(row.excess_risk)
    if len(groups) < 4:
        raise TooFewPoints(f"need >= 4 distinct n_eff values, got {len(groups)}")
    x = np.log(np.array(sorted(groups)))
    y = np.log(
        np.maximum([np.median(groups[k]) for k in sorted(groups)], 1e-300)
    )
    x_center = x - x.mean()
    slope = float(np.dot(x_center, y) / np.dot(x_center, x_center))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = float(
        math.sqrt(residuals @ residuals / dof / float(x_center @ x_center))
    )
    return slope, stderr


def effsample_cells(pairs) -> tuple:
    """The (n, p) cells of effsample ``pairs``: a nonempty list of [n, p]
    with n >= 1, else ConfigError."""
    cells = check_value(pairs, [("int", "number")], "effsample pairs")
    if not cells or any(n < 1 for n, _ in cells):
        raise ConfigError("effsample needs a nonempty 'pairs' list of [n, p] with n >= 1")
    return cells


def run_effective_sample_experiment(
    cfg: ExperimentConfig, pairs, csv_path=None
) -> SweepResult:
    """Compare grid cells whose (n, p) pairs share one effective sample
    size n * gamma(p) within 1%; ``pairs`` are (n, p) cells as
    :func:`effsample_cells` checks them."""
    chains = {p: solve_chain(cfg.chain, cfg.k_max, p) for _, p in pairs}
    effective = [n * chains[p][2] for n, p in pairs]
    center = float(np.mean(effective))
    for (n, p), n_eff in zip(pairs, effective):
        if abs(n_eff - center) > 0.01 * center:
            raise MismatchedEffectiveSize(
                f"pair (n={n}, p={p}) has n_eff={n_eff:.2f}, expected ~{center:.2f}"
            )
    return SweepResult(rows=_run_cells(cfg, pairs, chains, csv_path))


def emit_report(result: SweepResult, path_base: str) -> dict:
    """Write <path_base>.csv (one row per sweep entry) and <path_base>.json
    with {slope, stderr, theory_exponent}; returns that summary (slope and
    stderr None below four distinct n_eff values)."""
    with open(f"{path_base}.csv", "w") as handle:
        handle.write(result.to_csv())
    try:
        slope, stderr = fit_rate_slope(result)
    except TooFewPoints:
        slope, stderr = None, None
    summary = {
        "slope": slope,
        "stderr": stderr,
        "theory_exponent": result.meta.get("theory_exponent"),
    }
    with open(f"{path_base}.json", "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return summary
