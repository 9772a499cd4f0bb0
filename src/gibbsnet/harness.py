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

from .bounds import composition_rate_rhs, holder_rate_rhs, oracle_rhs
from .errors import ConfigError, MismatchedEffectiveSize, TooFewPoints
from .gibbs import ClassDef, GibbsConfig, posterior_predictor, sample_posterior, temperature
from .markov import (
    TransitionKernel,
    pseudo_spectral_gap,
    stationary_distribution,
    two_source_kernel,
)
from .model import (
    NOISE_FAMILIES,
    Dataset,
    TargetSpec,
    excess_risk_mc,
    generate_classification,
    generate_regression,
    holder_target,
    logistic_link_target,
    rate_exponents,
    target_eta,
)

CSV_COLUMNS = ("n", "gamma", "n_eff", "excess_risk", "bound_rhs", "seed", "wall_time")

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
    family = spec.get("family")
    try:
        if family == "two_source":
            p = float(spec["p"] if p_override is None else p_override)
            return two_source_kernel(p, states=int(spec.get("states", 2)))
        if family == "explicit":
            probs = np.asarray(spec["probs"], dtype=float)
            return TransitionKernel(states=probs.shape[0], probs=probs)
    except ValueError as exc:
        raise ConfigError(f"chain: {exc}") from exc
    raise ConfigError(f"unknown chain family {family!r}")


def solve_chain(spec: dict, k_max: int, p_override: float | None = None):
    """(kernel, stationary law, pseudo-spectral gap) of a config chain spec;
    see :func:`build_chain` for ``p_override``."""
    kernel = build_chain(spec, p_override=p_override)
    pi = stationary_distribution(kernel)
    return kernel, pi, pseudo_spectral_gap(kernel, pi, k_max=k_max)


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
    kind = spec.get("kind")
    if kind == "holder":
        return holder_target(
            beta=float(spec.get("beta", 1.0)),
            m=states,
            scale=float(spec.get("scale", 1.0)),
            dim=int(spec.get("dim", 1)),
        )
    if kind == "logistic_link":
        eta = spec.get("eta")
        if eta is None:
            raise ConfigError("logistic_link target needs a per-state eta table")
        if len(eta) != states:
            raise ConfigError("eta table length must match the chain's state count")
        return logistic_link_target(eta)
    if kind == "composition":
        from .model import composition_target

        return composition_target(
            dims=spec["dims"],
            active_coords=spec["active_coords"],
            betas=spec["betas"],
            m=states,
            scale=float(spec.get("scale", 1.0)),
        )
    raise ConfigError(f"unknown target kind {kind!r}")


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
    cs = dict(RULE_DEFAULTS)
    cs.update(constants or {})
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
    def from_csv(cls, text: str, meta: dict | None = None) -> "SweepResult":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0].split(",") != list(CSV_COLUMNS):
            raise ConfigError("unexpected CSV header")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            rows.append(
                SweepRow(
                    n=int(parts[0]),
                    gamma=float(parts[1]),
                    n_eff=float(parts[2]),
                    excess_risk=float(parts[3]),
                    bound_rhs=float(parts[4]),
                    seed=int(parts[5]),
                    wall_time=float(parts[6]),
                )
            )
        return cls(rows=rows, meta=meta or {})


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
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be nonempty and strictly increasing")
        if self.p_grid is not None:
            object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        object.__setattr__(self, "noise", check_noise(self.noise))
        if self.replications < 1:
            raise ConfigError("replications must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def resolve_classdef(classdef_doc: dict, target_doc: dict, n_eff: float) -> ClassDef:
    """The network class a config's ``classdef`` table describes: explicit
    depth, width, sparsity and weight bound, or sizes from a scaling
    ``rule`` at the effective sample size ``n_eff``."""
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


def _bound_rhs(cfg: ExperimentConfig, classdef: ClassDef, n: int, gamma: float) -> float:
    n_eff = n * gamma
    lip = float(cfg.classdef.get("lipschitz_const", 1.0))
    rule = cfg.classdef.get("rule")
    if rule == "holder":
        return holder_rate_rhs(
            n_eff,
            float(cfg.target.get("beta", 1.0)),
            int(cfg.target.get("dim", 1)),
            cfg.delta,
            lip,
            cfg.xi,
        )
    if isinstance(rule, dict) and rule.get("kind") == "composition":
        return composition_rate_rhs(
            n_eff, rule["betas"], rule["active_coords"], cfg.delta, lip, cfg.xi
        )
    from .network import max_param_count

    return oracle_rhs(
        excess_at_best=0.0,
        card=classdef.sparsity,
        depth=classdef.depth,
        n=n,
        gap=gamma,
        slab=classdef.weight_bound,
        n_max=max_param_count(classdef.depth, classdef.width),
        delta=cfg.delta,
        lipschitz_const=lip,
        xi1=cfg.xi,
    )


def _generate(cfg: ExperimentConfig, target, kernel, pi, n: int, seed: int, gamma: float):
    if cfg.loss == "square":
        data = generate_regression(target, kernel, pi, n=n, noise=cfg.noise, seed=seed)
    elif cfg.loss == "logistic":
        data = generate_classification(
            target_eta(target), kernel, pi, n=n, seed=seed, points=target.points
        )
    else:
        raise ConfigError(f"unknown loss {cfg.loss!r}")
    meta = dict(data.chain_meta)
    meta["gamma"] = gamma
    return Dataset(inputs=data.inputs, outputs=data.outputs, chain_meta=meta)


def run_cell(cfg: ExperimentConfig, n: int, chain, row_seed: int) -> SweepRow:
    """One grid cell on a precomputed ``chain = (kernel, pi, gamma)``:
    calibrate the temperature, size the class, draw data, sample the
    posterior and score the predictor."""
    start = time.perf_counter()
    kernel, pi, gamma = chain
    n_eff = n * gamma
    lam = temperature(n, gamma, cfg.bernstein_k)
    classdef = resolve_classdef(cfg.classdef, cfg.target, n_eff)
    target = build_target(cfg.target, kernel.states)
    data = _generate(cfg, target, kernel, pi, n, row_seed, gamma)
    gibbs_cfg = GibbsConfig.from_doc(cfg.gibbs, classdef, lam, row_seed)
    draws = sample_posterior(data, cfg.loss, classdef, gibbs_cfg)
    predictor = posterior_predictor(draws, mode=cfg.predictor)
    excess = excess_risk_mc(predictor, target, kernel, pi, loss=cfg.loss)
    return SweepRow(
        n=n,
        gamma=gamma,
        n_eff=n_eff,
        excess_risk=excess,
        bound_rhs=_bound_rhs(cfg, classdef, n, gamma),
        seed=row_seed,
        wall_time=time.perf_counter() - start,
    )


def _run_cells(cfg: ExperimentConfig, cells, chains: dict, csv_path) -> list:
    """Run each (n, p) cell ``cfg.replications`` times in order, on
    ``chains[p]``, with row seeds base seed XOR row index; rows are flushed
    to ``csv_path`` as they complete, so partial results survive a
    failure."""
    rows = []
    handle = None if csv_path is None else open(csv_path, "w")
    try:
        if handle is not None:
            handle.write(",".join(CSV_COLUMNS) + "\n")
            handle.flush()
        for n, p in cells:
            for _ in range(cfg.replications):
                row = run_cell(cfg, n, chains[p], row_seed=cfg.seed ^ len(rows))
                rows.append(row)
                if handle is not None:
                    handle.write(row.to_csv_line() + "\n")
                    handle.flush()
    finally:
        if handle is not None:
            handle.close()
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
    """Rate exponent the sweep is probing: -2 beta/(2 beta + d) for a
    smoothness-beta target, the composition value otherwise."""
    kind = cfg.target.get("kind")
    if kind in ("holder", "holder_sample"):
        beta = float(cfg.target.get("beta", 1.0))
        dim = int(cfg.target.get("dim", 1))
        return -2.0 * beta / (2.0 * beta + dim)
    if kind == "composition":
        betas = cfg.target["betas"]
        active = cfg.target["active_coords"]
        beta_star, _ = rate_exponents(betas, active, math.e**2)
        exps = -2.0 * beta_star / (2.0 * beta_star + np.asarray(active, dtype=float))
        return float(np.max(exps))
    return None


def fit_rate_slope(result: SweepResult) -> tuple[float, float]:
    """Least squares of log(median excess risk) on log(n_eff).

    Replications sharing an n_eff are collapsed to their median first;
    needs at least four distinct effective sample sizes.
    """
    groups: dict = {}
    for row in result.rows:
        groups.setdefault(round(row.n_eff, 9), []).append(row.excess_risk)
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
    cells = [(int(n), float(p)) for n, p in pairs]
    chains = {p: solve_chain(cfg.chain, cfg.k_max, p) for _, p in cells}
    effective = [n * chains[p][2] for n, p in cells]
    center = float(np.mean(effective))
    for (n, p), n_eff in zip(cells, effective):
        if abs(n_eff - center) > 0.01 * center:
            raise MismatchedEffectiveSize(
                f"pair (n={n}, p={p}) has n_eff={n_eff:.2f}, expected ~{center:.2f}"
            )
    rows = _run_cells(cfg, cells, chains, csv_path)
    return SweepResult(rows=rows, meta={"pairs": [list(pair) for pair in pairs]})


def emit_report(result: SweepResult, bound_reports, path_base: str) -> None:
    """Write <path_base>.csv (one row per sweep entry) and <path_base>.json
    with {slope, stderr, theory_exponent, bound_reports}."""
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
