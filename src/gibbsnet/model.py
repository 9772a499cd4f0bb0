"""Losses, target functions, data generators and risk evaluation.

Inputs live on a finite state space inherited from the chain machinery:
state ``s`` of ``m`` is embedded at a fixed point in [0,1]^d (an equispaced
midpoint grid by default, or any explicit table).  Because the conditional
law given the state is known in closed form for both experiment families
(square loss with additive noise, logistic labels with a known link table),
risks and excess risks are computed exactly as stationary-weighted sums of
per-state conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .markov import StationaryDist, TransitionKernel, simulate, stream

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
        if self.kind not in ("composition", "logistic_link"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "composition":
            dims, actives, betas = (self.params[k] for k in ("dims", "active_coords", "betas"))
            if not len(actives) == len(betas) == len(dims) - 1:
                raise ValueError("need one active-coordinate count and one smoothness per stage")
            if not all(isinstance(v, (int, np.integer)) for v in (*dims, *actives)):
                raise ValueError("stage dimensions must be integers")
            if pts.shape[1] != dims[0]:
                raise ValueError("each state point needs dims[0] coordinates")
            if min(dims) < 1 or not all(1 <= t_i <= d_i for t_i, d_i in zip(actives, dims)):
                raise ValueError("each stage must use 1 to its input dimension coordinates")
            if any(beta <= 0 for beta in betas):
                raise ValueError("smoothness must be positive")
        if self.kind == "logistic_link":
            eta = np.asarray(self.params["eta"], dtype=float)
            if eta.shape[0] != pts.shape[0]:
                raise ValueError("link table length must match the state count")
            if np.any(eta < 0) or np.any(eta > 1):
                raise ValueError("link probabilities must lie in [0, 1]")


def holder_target(beta: float, m: int, scale: float = 1.0, dim: int = 1) -> TargetSpec:
    """Closed-form target scale * |mean(x) - 1/2|^beta, smoothness >= beta:
    the one-stage composition with betas [beta] and active dims [dim]."""
    return composition_target([dim, 1], [dim], [beta], m, scale=scale)


def composition_target(dims, active_coords, betas, m: int, scale: float = 1.0) -> TargetSpec:
    """Canonical nested target: stage i maps [0,1]^{d_i} -> [0,1]^{d_{i+1}}
    componentwise through |mean of the first t_i coordinates - 1/2|^{beta_i},
    and the final stage is scaled by ``scale``."""
    return TargetSpec(
        kind="composition",
        params={
            "dims": list(dims),
            "active_coords": list(active_coords),
            "betas": list(betas),
            "scale": scale,
        },
        points=state_grid(m, dims[0]),
    )


def logistic_link_target(eta, m: int | None = None) -> TargetSpec:
    eta = np.asarray(eta, dtype=float)
    return TargetSpec(kind="logistic_link", params={"eta": eta},
                      points=state_grid(len(eta) if m is None else m))


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
    """Aligned input and output sequences."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "outputs", y)
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch("inputs and outputs must have equal length")

    def __len__(self) -> int:
        return self.inputs.shape[0]


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


def _stage_exponents(beta, t):
    """beta*_i = beta_i * prod_{k>i} min(beta_k, 1) per stage, and the stage
    rate exponents e_i = -2 beta*_i / (2 beta*_i + t_i)."""
    beta, t = np.asarray(beta, dtype=float), np.asarray(t, dtype=float)
    if beta.shape != t.shape:
        raise DimensionMismatch("smoothness and dimension vectors must align")
    beta_star = np.array([b * np.prod(np.minimum(beta[i + 1:], 1.0)) for i, b in enumerate(beta)])
    return beta_star, -2.0 * beta_star / (2.0 * beta_star + t)


def rate_exponent(beta, t) -> float:
    """The rate exponent e = max_i e_i: the excess risk decays like n_eff^e.
    A Holder target is the one stage ([beta], [d]): e = -2 beta/(2 beta + d)."""
    return float(np.max(_stage_exponents(beta, t)[1]))


def rate_exponents(beta, t, n_eff: float):
    """Effective smoothness per stage and the rate value phi = max_i n_eff^(e_i)."""
    if n_eff <= 1:
        raise ValueError("effective sample size must exceed 1")
    beta_star, exponents = _stage_exponents(beta, t)
    return beta_star, float(np.max(n_eff ** exponents))


def logistic_gaps(score, eta):
    """(gap_pos, gap_neg): per state, the logistic loss of ``score`` minus
    that of the log-odds of ``eta``, for a positive and for a negative
    label.  The gap of a label with probability 0 is infinite."""
    star = logistic_target(eta)
    return (logistic_loss(score, 1.0) - logistic_loss(star, 1.0),
            logistic_loss(score, -1.0) - logistic_loss(star, -1.0))


def excess_per_state(h, target: TargetSpec, loss: str) -> np.ndarray:
    """Conditional excess risk at each state of predicting ``h`` there:
    (h - h*)^2 for the square loss (the noise cancels), and
    :func:`conditional_excess_logistic` for the logistic loss."""
    if loss == "square":
        return (h - target_values(target)) ** 2
    if loss == "logistic":
        return conditional_excess_logistic(target_eta(target), h)
    raise ValueError(f"unknown loss {loss!r}")


def excess_risk_mc(predictor, target: TargetSpec, pi: StationaryDist, loss: str) -> float:
    """Excess risk R(h) - R(h*) under the stationary input law.

    With finite states and a known conditional law the value is exact: the
    stationary-weighted sum of the per-state conditional excess risks of
    :func:`excess_per_state`.
    """
    h = np.asarray(predictor(target.points), dtype=float).reshape(-1)
    return float(np.dot(pi.weights, excess_per_state(h, target, loss)))


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
    states = simulate(kernel, pi, n=n, seed=seed)
    x = target.points[states]
    eps = _draw_noise(stream(seed, "noise"), family, scale, n) if scale > 0 else np.zeros(n)
    y = target_values(target)[states] + eps
    return Dataset(inputs=x, outputs=y)


def generate_classification(
    target: TargetSpec,
    kernel: TransitionKernel,
    pi: StationaryDist,
    n: int,
    seed: int,
) -> Dataset:
    """Inputs are the embedded stationary trajectory; labels in {-1, +1}
    are positive with the logistic link target's per-state probability."""
    states = simulate(kernel, pi, n=n, seed=seed)
    labels = np.where(stream(seed, "labels").random(n) < target_eta(target)[states], 1.0, -1.0)
    return Dataset(inputs=target.points[states], outputs=labels)


def subgaussian_envelope(k_holder: float, varsigma: float, n: int, delta: float) -> float:
    """High-probability bound on sup_t |Y_t| for a bounded target plus
    sub-Gaussian noise: k_holder + varsigma*sqrt(2 log(2n/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return k_holder + varsigma * np.sqrt(2.0 * np.log(2.0 * n / delta))
