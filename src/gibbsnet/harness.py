"""Experiment orchestration: configuration, class-size scaling rules, rate
sweeps, effective-sample-size comparisons, slope fitting and report files.

Everything is driven by one configuration document (see README for the
schema).  Sweeps run their grid cells sequentially in a fixed order with
per-row derived seeds (base seed XOR row index), so a config plus seed
fully determines the emitted rows; CSV rows are flushed as they are
produced so partial results survive a failure.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import composition_rate_rhs, oracle_rhs
from .errors import (ConfigError, InvalidClass, MismatchedEffectiveSize, NonUniqueStationary,
                     TooFewPoints, ZeroStationaryMass, check_table)
from .gibbs import (GIBBS_KEYS, ClassDef, GibbsConfig, Prior, posterior_predictor,
                    sample_posterior, temperature)
from .markov import (
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

LOSSES = ("square", "logistic")

CHAIN_KEYS = {"two_source": {"family", "p", "states"}, "explicit": {"family", "probs"}}

TARGET_KEYS = {
    "holder": {"kind", "beta", "scale", "dim"},
    "composition": {"kind", "dims", "active_coords", "betas", "scale"},
    "logistic_link": {"kind", "eta"},
}

CLASSDEF_KEYS = {"rule", "constants", "depth", "width", "sparsity", "weight_bound",
                 "output_clip", "activation", "lipschitz_const"}

RULE_DEFAULTS = {
    "depth_scale": 1.0,
    "width_scale": 1.0,
    "sparsity_scale": 1.0,
    "bound_scale": 1.0,
    "bound_cap": 1e6,
}


def build_chain(spec: dict, p_override: float | None = None) -> TransitionKernel:
    """Kernel factory for config chain specs.

    Families: ``two_source`` (switch probability p, even state count) and
    ``explicit`` (a full probability matrix).
    """
    family = table_kind(spec, CHAIN_KEYS, "chain", "family")
    try:
        if family == "two_source":
            p = float(spec["p"] if p_override is None else p_override)
            return two_source_kernel(p, states=int(spec.get("states", 2)))
        probs = np.asarray(spec["probs"], dtype=float)
        return TransitionKernel(states=probs.shape[0], probs=probs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"chain: {exc}") from exc


def table_kind(spec, keys: dict, name: str, field: str) -> str:
    """``spec[field]`` of a config table whose allowed keys depend on that
    kind (``keys[kind]``); a non-table, an unknown kind or an unknown key
    raises ConfigError."""
    kind = check_table(spec, name, set().union(*keys.values())).get(field)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {name} {field} {kind!r}")
    check_table(spec, f"{kind} {name}", keys[kind])
    return kind


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


def check_noise(noise) -> tuple:
    """A config's ``[family, scale]`` noise entry as a tuple; an unknown
    family or a negative or non-numeric scale raises ConfigError."""
    noise = tuple(noise)
    family, scale = noise if len(noise) == 2 else (None, None)
    if family not in NOISE_FAMILIES or not isinstance(scale, (int, float)) or scale < 0:
        raise ConfigError(
            f"noise must be [family, scale >= 0] with family in {NOISE_FAMILIES}, "
            f"got {list(noise)}"
        )
    return noise


def build_target(spec: dict, states: int) -> TargetSpec:
    """The ground truth a config's ``target`` table describes on a chain
    with ``states`` states (a ``holder`` target is the one-stage
    composition); unknown keys and malformed values raise ConfigError."""
    kind = table_kind(spec, TARGET_KEYS, "target", "kind")
    try:
        if kind == "holder":
            return holder_target(
                beta=float(spec.get("beta", 1.0)),
                m=states,
                scale=float(spec.get("scale", 1.0)),
                dim=int(spec.get("dim", 1)),
            )
        if kind == "logistic_link":
            return logistic_link_target(spec["eta"], m=states)
        return composition_target(
            dims=spec["dims"],
            active_coords=spec["active_coords"],
            betas=spec["betas"],
            m=states,
            scale=float(spec.get("scale", 1.0)),
        )
    except (TypeError, ValueError, IndexError) as exc:
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
    cs = {**RULE_DEFAULTS, **check_table(constants or {}, "rule constants", RULE_DEFAULTS)}
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
    if isinstance(rule, dict) and rule.get("kind") == "composition":
        betas = [float(b) for b in rule["betas"]]
        active = [float(t) for t in rule["active_coords"]]
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment document; see README for the JSON schema."""

    target: dict
    chain: dict
    n_grid: tuple
    p_grid: tuple | None = None
    classdef: dict = field(default_factory=dict)
    gibbs: dict = field(default_factory=dict)
    noise: tuple = ("gaussian", 0.5)
    loss: str = "square"
    replications: int = 1
    delta: float = 0.05
    seed: int = 0
    output_dir: str = "."
    bernstein_k: float = 1.0
    k_max: int = 10
    predictor: str = "single_draw"
    xi: float = 1.0

    def __post_init__(self):
        kind = table_kind(self.target, TARGET_KEYS, "target", "kind")
        table_kind(self.chain, CHAIN_KEYS, "chain", "family")
        check_table(self.classdef, "classdef", CLASSDEF_KEYS)
        check_table(self.gibbs, "gibbs", GIBBS_KEYS)
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be nonempty, positive and strictly increasing")
        if self.p_grid is not None:
            object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
            if not self.p_grid:
                raise ConfigError("p_grid must be nonempty when given")
        object.__setattr__(self, "noise", check_noise(self.noise))
        counts = (self.replications, self.k_max, self.seed)
        if not all(isinstance(v, (int, np.integer)) for v in counts):
            raise ConfigError("replications, k_max and seed must be integers")
        if self.replications < 1 or self.k_max < 1 or self.bernstein_k <= 0:
            raise ConfigError("replications, k_max and bernstein_k must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not isinstance(self.xi, (int, float)) or not self.xi > 0:
            raise ConfigError(f"xi must be a positive number, got {self.xi!r}")
        if not isinstance(self.classdef.get("lipschitz_const", 1.0), (int, float)):
            raise ConfigError("classdef lipschitz_const must be a number")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if self.loss == "logistic" and kind != "logistic_link":
            raise ConfigError("the logistic loss needs a logistic_link target")
        if self.classdef.get("rule") == "holder" and kind != "holder":
            raise ConfigError("the holder rule needs a holder target")
        if self.predictor not in ("single_draw", "average"):
            raise ConfigError(f"unknown predictor {self.predictor!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            return cls(**check_table(doc, "config", cls.__dataclass_fields__))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def resolve_classdef(classdef_doc: dict, target_doc: dict, n_eff: float) -> ClassDef:
    """The network class a config's ``classdef`` table (keys checked by
    :class:`ExperimentConfig`) describes: explicit depth, width, sparsity
    and weight bound, or sizes from a scaling ``rule`` at ``n_eff``."""
    try:
        if "rule" in classdef_doc:
            sizes = architecture_rule(
                n_eff,
                float(target_doc.get("beta", 1.0)),
                int(target_doc.get("dim", 1)),
                rule=classdef_doc["rule"],
                constants=classdef_doc.get("constants"),
            )
        else:
            try:
                sizes = [classdef_doc[key] for key in ("depth", "width", "sparsity", "weight_bound")]
            except KeyError as exc:
                raise ConfigError(f"classdef needs a rule or an explicit {exc}") from exc
        depth, width, sparsity, bound = sizes
        return ClassDef(
            depth=int(depth),
            width=int(width),
            sparsity=int(sparsity),
            weight_bound=float(bound),
            output_clip=float(classdef_doc.get("output_clip", 5.0)),
            activation=classdef_doc.get("activation", "relu"),
        )
    except (TypeError, ValueError, InvalidClass) as exc:
        raise ConfigError(f"classdef: {exc}") from exc


def _holder_stage(doc: dict) -> dict:
    """The one composition stage ([beta], [dim]) of a ``holder`` target doc."""
    return {"betas": [float(doc.get("beta", 1.0))], "active_coords": [int(doc.get("dim", 1))]}


def _bound_rhs(cfg: ExperimentConfig, depth: int, prior: Prior, n: int, gamma: float) -> float:
    n_eff = n * gamma
    lip = float(cfg.classdef.get("lipschitz_const", 1.0))
    rule = cfg.classdef.get("rule")
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


def cell_settings(cfg: ExperimentConfig, n: int, gamma: float, seed: int, lam=None):
    """``(classdef, gibbs_cfg)`` of one cell: the class sized at n * gamma,
    sampler settings at ``seed`` and temperature ``lam`` (default from
    :func:`temperature`); pure, so a sweep checks them all before fitting."""
    classdef = resolve_classdef(cfg.classdef, cfg.target, n * gamma)
    lam = temperature(n, gamma, cfg.bernstein_k) if lam is None else lam
    return classdef, GibbsConfig.from_doc(cfg.gibbs, classdef, lam, seed)


def fit_cell(cfg: ExperimentConfig, n: int, chain, target: TargetSpec, classdef, gibbs_cfg):
    """The fit half of a cell on ``chain = (kernel, pi, gamma)`` with the
    settings of :func:`cell_settings`: draw n observations of ``target``
    and sample the posterior; data and sampler share ``gibbs_cfg.seed``."""
    kernel, pi, _ = chain
    if cfg.loss == "square":
        data = generate_regression(target, kernel, pi, n=n, noise=cfg.noise, seed=gibbs_cfg.seed)
    else:
        data = generate_classification(target, kernel, pi, n=n, seed=gibbs_cfg.seed)
    return sample_posterior(data, cfg.loss, classdef, gibbs_cfg)


def run_cell(cfg: ExperimentConfig, n: int, chain, target, classdef, gibbs_cfg) -> SweepRow:
    """One grid cell on a precomputed ``chain = (kernel, pi, gamma)``, the
    sweep's ``target`` and the cell's settings: fit (see :func:`fit_cell`)
    and score the predictor."""
    start = time.perf_counter()
    _, pi, gamma = chain
    draws = fit_cell(cfg, n, chain, target, classdef, gibbs_cfg)
    predictor = posterior_predictor(draws, mode=cfg.predictor)
    excess = excess_risk_mc(predictor, target, pi, loss=cfg.loss)
    return SweepRow(
        n=n,
        gamma=gamma,
        n_eff=n * gamma,
        excess_risk=excess,
        bound_rhs=_bound_rhs(cfg, classdef.depth, draws.prior, n, gamma),
        seed=gibbs_cfg.seed,
        wall_time=time.perf_counter() - start,
    )


def _run_cells(cfg: ExperimentConfig, cells, chains: dict, csv_path) -> list:
    """Run each (n, p) cell ``cfg.replications`` times in order, on
    ``chains[p]`` and one target built for the sweep, with row seeds base
    seed XOR row index.  Every row's settings are resolved before
    ``csv_path`` is opened; rows are flushed to it as they complete, so
    partial results survive a failure."""
    kernel = next(iter(chains.values()))[0]
    target = build_target(cfg.target, kernel.states)
    runs = [(n, p) for n, p in cells for _ in range(cfg.replications)]
    settings = [cell_settings(cfg, n, chains[p][2], cfg.seed ^ i) for i, (n, p) in enumerate(runs)]
    rows = []
    with io.StringIO() if csv_path is None else open(csv_path, "w") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.flush()
        for (n, p), (classdef, gibbs_cfg) in zip(runs, settings):
            rows.append(run_cell(cfg, n, chains[p], target, classdef, gibbs_cfg))
            handle.write(rows[-1].to_csv_line() + "\n")
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
    ``holder`` target being the one-stage composition; None otherwise."""
    kind = cfg.target.get("kind")
    if kind not in ("holder", "composition"):
        return None
    stages = _holder_stage(cfg.target) if kind == "holder" else cfg.target
    return rate_exponent(stages["betas"], stages["active_coords"])


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


def run_effective_sample_experiment(
    cfg: ExperimentConfig, pairs, csv_path=None
) -> SweepResult:
    """Compare grid cells whose (n, p) pairs share one effective sample
    size n * gamma(p) within 1%."""
    try:
        cells = [(int(n), float(p)) for n, p in pairs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pairs must be a list of [n, p], got {pairs!r}") from exc
    if not cells or any(n < 1 for n, _ in cells):
        raise ConfigError("effsample needs a nonempty 'pairs' list of [n, p] with n >= 1")
    chains = {p: solve_chain(cfg.chain, cfg.k_max, p) for _, p in cells}
    effective = [n * chains[p][2] for n, p in cells]
    center = float(np.mean(effective))
    for (n, p), n_eff in zip(cells, effective):
        if abs(n_eff - center) > 0.01 * center:
            raise MismatchedEffectiveSize(
                f"pair (n={n}, p={p}) has n_eff={n_eff:.2f}, expected ~{center:.2f}"
            )
    return SweepResult(rows=_run_cells(cfg, cells, chains, csv_path))


def emit_report(result: SweepResult, bound_reports, path_base: str) -> dict:
    """Write <path_base>.csv (one row per sweep entry) and <path_base>.json
    with {slope, stderr, theory_exponent, bound_reports}; returns that
    summary (slope and stderr None below four distinct n_eff values)."""
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
        "bound_reports": [report.to_dict() for report in bound_reports],
    }
    with open(f"{path_base}.json", "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return summary
