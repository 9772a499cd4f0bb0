"""Losses, target functions, data generators and risk evaluation.

Inputs live on a finite state space inherited from the chain machinery:
state ``s`` of ``m`` is embedded at a fixed point in [0,1]^d (an equispaced
midpoint grid by default, or any explicit table), so a target is its table
over the states (:class:`TargetSpec`).  Because the conditional law given
the state is known in closed form for both experiment families (square loss
with additive noise, logistic labels with a known link table), risks and
excess risks are computed exactly as stationary-weighted sums of per-state
conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GibbsNetError
from .markov import StationaryDist, TransitionKernel, simulate, stream

# Each noise family's variance divisor (its variance is scale^2 / divisor
# at sub-Gaussian proxy parameter ``scale``) and its drawer
# ``(rng, scale, shape) -> centered draws``: gaussian, uniform on [-scale,
# scale] and rademacher +-scale.
NOISE_FAMILIES = {
    "gaussian": (1.0, lambda rng, scale, shape: scale * rng.standard_normal(shape)),
    "uniform": (3.0, lambda rng, scale, shape: rng.uniform(-scale, scale, size=shape)),
    "rademacher": (1.0, lambda rng, scale, shape: scale * rng.choice((-1.0, 1.0), size=shape)),
}


def state_grid(m: int, dim: int = 1) -> np.ndarray:
    """Equispaced midpoint embedding of m states into [0,1]^dim.

    For dim > 1 the states sit on the main diagonal; for any other
    embedding, pass an explicit table to a TargetSpec.
    """
    return _columns((np.arange(m) + 0.5) / m, dim)


def _columns(column: np.ndarray, dim: int) -> np.ndarray:
    """The (m, dim) table whose every column is ``column``.  A shape past
    int64 raises ValueError naming ``dim``, a config error; one numpy
    cannot allocate raises GibbsNetError naming the shape, a runtime
    failure, as a trajectory's does."""
    shape = (len(column), int(dim))
    if shape[0] * shape[1] > np.iinfo(np.int64).max:
        raise ValueError(f"dim {dim}: a {shape} state table has more than 2^63 - 1 entries")
    try:
        table = np.empty(shape)
    except (ValueError, MemoryError) as exc:
        raise GibbsNetError(f"cannot allocate a state table of shape {shape}: {exc}") from exc
    table[:] = column[:, None]
    return table


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Ground truth as its table over the m states: each state's input point
    (an (m, d) array), h* there, and, for a logistic link, the probability
    of a positive label there (None otherwise).  The arrays are read-only
    copies; only their shapes are checked."""

    points: np.ndarray
    values: np.ndarray
    eta: np.ndarray | None = None

    def __post_init__(self):
        for name in ("points", "values", "eta"):
            if getattr(self, name) is not None:
                table = np.array(getattr(self, name), dtype=float)
                table.flags.writeable = False
                object.__setattr__(self, name, table)
        rows = self.points.shape[:1]
        if self.points.ndim != 2 or self.values.shape != rows or (
                self.eta is not None and self.eta.shape != rows):
            raise ValueError("a target needs (m, d) points and m values (and m link "
                             "probabilities) for its m states")


def holder_target(beta: float, m: int, scale: float = 1.0, dim: int = 1) -> TargetSpec:
    """Closed-form target scale * |mean(x) - 1/2|^beta, smoothness >= beta:
    the one-stage composition with betas [beta] and active dims [dim]."""
    return composition_target([dim, 1], [dim], [beta], m, scale=scale)


def composition_target(dims, active_coords, betas, m: int, scale: float = 1.0) -> TargetSpec:
    """Canonical nested target on ``state_grid(m, dims[0])``: stage i maps
    [0,1]^{d_i} -> [0,1]^{d_{i+1}} componentwise through |mean of the first
    t_i coordinates - 1/2|^{beta_i}, and the final stage is scaled by
    ``scale``."""
    if not len(active_coords) == len(betas) == len(dims) - 1:
        raise ValueError("need one active-coordinate count and one smoothness per stage")
    if not all(isinstance(v, (int, np.integer)) for v in (*dims, *active_coords)):
        raise ValueError("stage dimensions must be integers")
    if min(dims) < 1 or not all(1 <= t_i <= d_i for t_i, d_i in zip(active_coords, dims)):
        raise ValueError("each stage must use 1 to its input dimension coordinates")
    if any(beta <= 0 for beta in betas):
        raise ValueError("smoothness must be positive")
    points = out = state_grid(m, dims[0])
    for t_i, beta, d_next in zip(active_coords, betas, dims[1:]):
        core = np.abs(out[:, :t_i].mean(axis=1) - 0.5) ** beta
        out = _columns(core, d_next)
    return TargetSpec(points, scale * out[:, 0])


def logistic_link_target(eta, m: int | None = None) -> TargetSpec:
    """The link table ``eta`` on ``state_grid(m)`` (m defaults to its
    length); h* is its log-odds, +-inf where eta is 1 or 0."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0) or np.any(eta > 1):
        raise ValueError("link probabilities must lie in [0, 1]")
    return TargetSpec(state_grid(len(eta) if m is None else m), logistic_target(eta), eta)


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
        return (h - target.values) ** 2
    if loss == "logistic":
        if target.eta is None:
            raise ValueError("the logistic loss needs a target with a link table")
        return conditional_excess_logistic(target.eta, h)
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
    """Variance of a noise draw of ``family`` (see :data:`NOISE_FAMILIES`)
    whose sub-Gaussian proxy parameter is ``scale``."""
    return scale**2 / NOISE_FAMILIES[family][0]


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
    eps = NOISE_FAMILIES[family][1](stream(seed, "noise"), scale, n) if scale > 0 else np.zeros(n)
    y = target.values[states] + eps
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
    labels = np.where(stream(seed, "labels").random(n) < target.eta[states], 1.0, -1.0)
    return Dataset(inputs=target.points[states], outputs=labels)


def subgaussian_envelope(k_holder: float, varsigma: float, n: int, delta: float) -> float:
    """High-probability bound on sup_t |Y_t| for a bounded target plus
    sub-Gaussian noise: k_holder + varsigma*sqrt(2 log(2n/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return k_holder + varsigma * np.sqrt(2.0 * np.log(2.0 * n / delta))
