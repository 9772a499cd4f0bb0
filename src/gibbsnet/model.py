"""Losses, target functions, data generators and risk evaluation.

Inputs live on a finite state space inherited from the chain machinery:
state ``s`` of ``m`` is embedded at a fixed point in [0,1]^d (an equispaced
midpoint grid by default, or any explicit table).  Because the conditional
law given the state is known in closed form for both experiment families
(square loss with additive noise, logistic labels with a known link table),
risks and excess risks are computed exactly as stationary-weighted sums of
per-state conditional expectations; Monte Carlo over a simulated trajectory
is available as a fallback oracle.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyDataset
from .markov import StationaryDist, TransitionKernel, simulate

NOISE_FAMILIES = ("gaussian", "uniform", "rademacher")


def state_grid(m: int, dim: int = 1) -> np.ndarray:
    """Equispaced midpoint embedding of m states into [0,1]^dim.

    For dim > 1 the states sit on the main diagonal; pass an explicit table
    to a TargetSpec for anything fancier.
    """
    line = (np.arange(m) + 0.5) / m
    return np.tile(line[:, None], (1, dim))


@dataclass(frozen=True)
class TargetSpec:
    """Ground-truth description: the target kind, its parameters, and the
    state embedding."""

    kind: str
    params: dict
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.kind not in ("holder_sample", "composition", "logistic_link"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "composition":
            dims = self.params["dims"]
            actives = self.params["active_coords"]
            if len(actives) != len(dims) - 1:
                raise ValueError("need one active-coordinate count per stage")
            for t_i, d_i in zip(actives, dims[:-1]):
                if t_i > d_i:
                    raise ValueError("each stage may use at most its input dimension")
        if self.kind == "logistic_link":
            eta = np.asarray(self.params["eta"], dtype=float)
            if eta.shape[0] != pts.shape[0]:
                raise ValueError("link table length must match the state count")
            if np.any(eta < 0) or np.any(eta > 1):
                raise ValueError("link probabilities must lie in [0, 1]")

    @property
    def n_states(self) -> int:
        return self.points.shape[0]

    @property
    def input_dim(self) -> int:
        return self.points.shape[1]

    def to_json(self) -> str:
        params = dict(self.params)
        for key, val in params.items():
            if isinstance(val, np.ndarray):
                params[key] = val.tolist()
        return json.dumps(
            {"kind": self.kind, "params": params, "points": self.points.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "TargetSpec":
        doc = json.loads(text)
        return cls(kind=doc["kind"], params=doc["params"], points=np.array(doc["points"]))


def holder_target(beta: float, m: int, scale: float = 1.0, dim: int = 1,
                  points: np.ndarray | None = None) -> TargetSpec:
    """Closed-form target scale * |mean(x) - 1/2|^beta, smoothness >= beta."""
    if beta <= 0:
        raise ValueError("smoothness must be positive")
    pts = state_grid(m, dim) if points is None else points
    return TargetSpec(kind="holder_sample", params={"beta": beta, "scale": scale}, points=pts)


def composition_target(dims, active_coords, betas, m: int, scale: float = 1.0,
                       points: np.ndarray | None = None) -> TargetSpec:
    """Canonical nested target: stage i maps [0,1]^{d_i} -> [0,1]^{d_{i+1}}
    componentwise through |mean of the first t_i coordinates - 1/2|^{beta_i},
    and the final stage is scaled by ``scale``."""
    pts = state_grid(m, dims[0]) if points is None else points
    return TargetSpec(
        kind="composition",
        params={
            "dims": list(dims),
            "active_coords": list(active_coords),
            "betas": list(betas),
            "scale": scale,
        },
        points=pts,
    )


def logistic_link_target(eta, m: int | None = None,
                         points: np.ndarray | None = None) -> TargetSpec:
    eta = np.asarray(eta, dtype=float)
    pts = state_grid(len(eta) if m is None else m) if points is None else points
    return TargetSpec(kind="logistic_link", params={"eta": eta}, points=pts)


def _eval_composition(params: dict, x: np.ndarray) -> np.ndarray:
    out = np.atleast_2d(x)
    dims = params["dims"]
    betas = params["betas"]
    for t_i, beta, d_next in zip(params["active_coords"], betas, dims[1:]):
        core = np.abs(out[:, :t_i].mean(axis=1) - 0.5) ** beta
        out = np.tile(core[:, None], (1, d_next))
    return params["scale"] * out[:, 0]


def target_values(target: TargetSpec, x: np.ndarray | None = None) -> np.ndarray:
    """h* evaluated at the given inputs (default: the state points).

    For the logistic link this is the log-odds, with +-inf at eta in {0,1}.
    """
    pts = target.points if x is None else np.atleast_2d(np.asarray(x, dtype=float))
    if target.kind == "holder_sample":
        beta = target.params["beta"]
        scale = target.params["scale"]
        return scale * np.abs(pts.mean(axis=1) - 0.5) ** beta
    if target.kind == "composition":
        return _eval_composition(target.params, pts)
    if x is not None:
        raise ValueError("logistic link targets are defined per state only")
    return logistic_target(np.asarray(target.params["eta"], dtype=float))


def target_eta(target: TargetSpec) -> np.ndarray:
    if target.kind != "logistic_link":
        raise ValueError("only logistic link targets carry a probability table")
    return np.asarray(target.params["eta"], dtype=float)


@dataclass(frozen=True)
class Dataset:
    """Aligned input and output sequences plus chain provenance."""

    inputs: np.ndarray
    outputs: np.ndarray
    chain_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "outputs", y)
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch("inputs and outputs must have equal length")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        dim = self.inputs.shape[1]
        buf.write(",".join([f"x_{j}" for j in range(dim)] + ["y"]) + "\n")
        for row, y in zip(self.inputs, self.outputs):
            buf.write(",".join(f"{v:.17g}" for v in row) + f",{y:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, chain_meta: dict | None = None) -> "Dataset":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        dim = len(header) - 1
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        arr = np.asarray(rows, dtype=float)
        return cls(
            inputs=arr[:, :dim], outputs=arr[:, dim], chain_meta=chain_meta or {}
        )


def square_loss(prediction: float, y: float) -> float:
    return float(prediction - y) ** 2


def logistic_loss(score, y):
    """log(1 + exp(-y*score)) in its overflow-safe form; y is a +-1 label."""
    margin = np.asarray(y, dtype=float) * np.asarray(score, dtype=float)
    return np.logaddexp(0.0, -margin)


def logistic_target(eta):
    """Log-odds of eta, with +-inf sentinels at the endpoints."""
    arr = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.empty_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    out[interior] = np.log(arr[interior] / (1.0 - arr[interior]))
    out[arr >= 1.0] = np.inf
    out[arr <= 0.0] = -np.inf
    return float(out[0]) if np.isscalar(eta) or np.ndim(eta) == 0 else out


def _binary_entropy(eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    out = np.zeros_like(eta)
    for p in (eta, 1.0 - eta):
        inside = p > 0
        out = out - np.where(inside, p * np.log(np.where(inside, p, 1.0)), 0.0)
    return out


def conditional_excess_logistic(eta, score):
    """Conditional logistic excess risk of predicting ``score`` when the
    positive-label probability is ``eta``:

        eta*phi(score) + (1-eta)*phi(-score) - H(eta)

    where H is the binary entropy (the risk of the log-odds predictor).
    Bounded above by (score - logit(eta))^2 / 8.
    """
    eta = np.asarray(eta, dtype=float)
    score = np.asarray(score, dtype=float)
    risk = eta * logistic_loss(score, 1.0) + (1.0 - eta) * logistic_loss(score, -1.0)
    val = risk - _binary_entropy(eta)
    return val if val.ndim else float(val)


def rate_exponents(beta, t, n_eff: float):
    """Effective smoothness per stage and the resulting rate value:

        beta*_i = beta_i * prod_{k>i} min(beta_k, 1)
        phi     = max_i n_eff^(-2 beta*_i / (2 beta*_i + t_i))
    """
    beta = np.asarray(beta, dtype=float)
    t = np.asarray(t, dtype=float)
    if beta.shape != t.shape:
        raise DimensionMismatch("smoothness and dimension vectors must align")
    if n_eff <= 1:
        raise ValueError("effective sample size must exceed 1")
    q1 = beta.shape[0]
    beta_star = np.empty(q1)
    for i in range(q1):
        beta_star[i] = beta[i] * np.prod(np.minimum(beta[i + 1:], 1.0))
    phi = float(np.max(n_eff ** (-2.0 * beta_star / (2.0 * beta_star + t))))
    return beta_star, phi


def empirical_risk(predictor, dataset: Dataset, loss: str) -> float:
    """Mean loss of the predictor over the sample."""
    if len(dataset) == 0:
        raise EmptyDataset("empirical risk needs at least one observation")
    scores = np.asarray(predictor(dataset.inputs), dtype=float).reshape(-1)
    if loss == "square":
        return float(np.mean((scores - dataset.outputs) ** 2))
    if loss == "logistic":
        return float(np.mean(logistic_loss(scores, dataset.outputs)))
    raise ValueError(f"unknown loss {loss!r}")


def excess_risk_mc(
    predictor,
    target: TargetSpec,
    kernel: TransitionKernel,
    pi: StationaryDist,
    loss: str,
    n_mc: int = 0,
    seed: int = 0,
) -> float:
    """Excess risk R(h) - R(h*) under the stationary input law.

    With finite states and a known conditional law the value is exact: the
    stationary-weighted sum of per-state conditional expectations (for the
    square loss the noise cancels and the excess is the pi-weighted squared
    distance to the target).  Pass ``n_mc > 0`` to estimate by Monte Carlo
    over a simulated trajectory instead.
    """
    h = np.asarray(predictor(target.points), dtype=float).reshape(-1)
    if loss == "square":
        per_state = (h - target_values(target)) ** 2
    elif loss == "logistic":
        per_state = conditional_excess_logistic(target_eta(target), h)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if n_mc <= 0:
        return float(np.dot(pi.weights, per_state))
    traj = simulate(kernel, pi, n=n_mc, seed=seed)
    return float(np.mean(per_state[traj.states]))


def noise_variance(family: str, scale: float) -> float:
    """Variance of a noise draw whose sub-Gaussian proxy parameter is
    ``scale``: gaussian scale^2, uniform on [-scale, scale] scale^2/3,
    rademacher +-scale scale^2."""
    if family == "gaussian":
        return scale**2
    if family == "uniform":
        return scale**2 / 3.0
    if family == "rademacher":
        return scale**2
    raise ValueError(f"unknown noise family {family!r}")


def _draw_noise(rng: np.random.Generator, family: str, scale: float, shape) -> np.ndarray:
    """Centered noise of the given family and scale, an array of ``shape``
    (an int or a tuple)."""
    if family == "gaussian":
        return scale * rng.standard_normal(shape)
    if family == "uniform":
        return rng.uniform(-scale, scale, size=shape)
    if family == "rademacher":
        return scale * rng.choice((-1.0, 1.0), size=shape)
    raise ValueError(f"unknown noise family {family!r}")


def generate_regression(
    target: TargetSpec,
    kernel: TransitionKernel,
    pi: StationaryDist,
    n: int,
    noise: tuple[str, float],
    seed: int,
) -> Dataset:
    """Inputs are the embedded stationary trajectory; outputs follow
    y = h*(x) + eps with centered noise independent of the input."""
    family, scale = noise
    traj = simulate(kernel, pi, n=n, seed=seed)
    x = target.points[traj.states]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE9)))
    eps = _draw_noise(rng, family, scale, n) if scale > 0 else np.zeros(n)
    y = target_values(target)[traj.states] + eps
    meta = {
        "kernel": kernel.to_json(),
        "seed": seed,
        "gamma": None,
        "noise": [family, scale],
    }
    return Dataset(inputs=x, outputs=y, chain_meta=meta)


def generate_classification(
    eta_table,
    kernel: TransitionKernel,
    pi: StationaryDist,
    n: int,
    seed: int,
    points: np.ndarray | None = None,
) -> Dataset:
    """Labels in {-1, +1} with per-state positive probability eta."""
    eta = np.asarray(eta_table, dtype=float)
    if np.any(eta < 0) or np.any(eta > 1):
        raise ValueError("link probabilities must lie in [0, 1]")
    embedding = state_grid(kernel.states) if points is None else np.atleast_2d(points)
    traj = simulate(kernel, pi, n=n, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1)))
    labels = np.where(rng.random(n) < eta[traj.states], 1.0, -1.0)
    meta = {"kernel": kernel.to_json(), "seed": seed, "gamma": None}
    return Dataset(inputs=embedding[traj.states], outputs=labels, chain_meta=meta)


def subgaussian_envelope(k_holder: float, varsigma: float, n: int, delta: float) -> float:
    """High-probability bound on sup_t |Y_t| for a bounded target plus
    sub-Gaussian noise: k_holder + varsigma*sqrt(2 log(2n/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return k_holder + varsigma * np.sqrt(2.0 * np.log(2.0 * n / delta))
