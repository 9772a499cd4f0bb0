"""Spike-and-slab prior over sparse network weights and the tempered
posterior sampler.

The prior mixes, over nonempty active sets of a flat parameter space,
geometrically decaying support weights with uniform "slab" values on
[-weight_bound, weight_bound]; the posterior reweights it by
exp(-temperature * empirical risk).  Sampling uses a reversible-jump
Metropolis-Hastings chain with three moves: activate a coordinate at a
uniform value, deactivate a coordinate, or perturb one active weight by a
reflected uniform step.  For the geometric/uniform prior the
dimension-matching factors collapse, leaving acceptance ratios

    add:     exp(-lambda dR) * (p_remove / p_add) / s
    remove:  exp(-lambda dR) * (p_add / p_remove) * s
    perturb: exp(-lambda dR)

The chain is strictly sequential per seed; draws are immutable afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError, EmptyDataset, InvalidClass, NoDraws, OutOfSupport
from .model import Dataset
from .network import (
    ACTIVATIONS,
    Architecture,
    SparseNetwork,
    compose,
    layer_slices,
    max_param_count,
    param_count,
)

GIBBS_KEYS = ("support_decay", "move_probs", "step", "iters", "burn_in", "thin")


@dataclass(frozen=True)
class ClassDef:
    """Bounded sparse network class: depth, width, sparsity cap, weight
    bound and output clip, plus the activation."""

    depth: int
    width: int
    sparsity: int
    weight_bound: float
    output_clip: float
    activation: str = "relu"

    def __post_init__(self):
        if self.depth < 0 or self.width < 1:
            raise InvalidClass("need depth >= 0 and width >= 1")
        if self.sparsity < 1:
            raise InvalidClass("sparsity cap must be at least 1")
        if self.sparsity > max_param_count(self.depth, self.width):
            raise InvalidClass("sparsity cap exceeds the padded parameter count")
        if self.weight_bound <= 0 or self.output_clip <= 0:
            raise InvalidClass("bounds must be positive")
        if self.activation not in ACTIVATIONS:
            raise InvalidClass(f"unknown activation {self.activation!r}")

    def architecture(self, input_dim: int, output_dim: int = 1) -> Architecture:
        widths = (input_dim,) + (self.width,) * self.depth + (output_dim,)
        return Architecture(depth=self.depth, widths=widths)


@dataclass(frozen=True)
class GibbsConfig:
    """Prior and sampler settings.

    ``move_probs`` are the (add, remove, perturb) proposal probabilities;
    ``step`` defaults to a tenth of the slab half-width.
    """

    support_decay: float
    weight_bound: float
    output_clip: float
    temperature: float
    move_probs: tuple = (0.25, 0.25, 0.5)
    step: float | None = None
    iters: int = 10_000
    burn_in: int = 2_000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.support_decay < 2:
            raise ValueError("support decay must be at least 2")
        if self.weight_bound <= 0 or self.output_clip <= 0:
            raise ValueError("bounds must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        probs = tuple(float(p) for p in self.move_probs)
        object.__setattr__(self, "move_probs", probs)
        if len(probs) != 3 or any(p < 0 for p in probs):
            raise ValueError("need three nonnegative move probabilities")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("move probabilities must sum to 1")
        if self.step is None:
            object.__setattr__(self, "step", self.weight_bound / 10.0)
        if self.step <= 0:
            raise ValueError("perturbation step must be positive")
        if self.iters <= self.burn_in:
            raise ValueError("iters must exceed burn_in")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")

    @classmethod
    def from_doc(
        cls, doc: dict, classdef: ClassDef, temperature: float, seed: int
    ) -> "GibbsConfig":
        """Sampler settings from a config's ``gibbs`` table (keys
        :data:`GIBBS_KEYS`, each optional), bounded by the class; any
        malformed value raises :class:`ConfigError`."""
        step = doc.get("step")
        try:
            return cls(
                support_decay=float(doc.get("support_decay", 2.0)),
                weight_bound=classdef.weight_bound,
                output_clip=classdef.output_clip,
                temperature=float(temperature),
                move_probs=tuple(doc.get("move_probs", (0.25, 0.25, 0.5))),
                step=None if step is None else float(step),
                iters=int(doc.get("iters", 10_000)),
                burn_in=int(doc.get("burn_in", 2_000)),
                thin=int(doc.get("thin", 1)),
                seed=seed,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"gibbs: {exc}") from exc


@dataclass(frozen=True)
class Prior:
    """The spike-and-slab prior over the ``n_coords`` flat coordinates of
    one realised architecture: support size k in 1..cap has mass
    decay^-k / Z, split evenly over the C(n_coords, k) supports of that
    size, and each active value is uniform on [-slab, slab]."""

    n_coords: int
    cap: int
    decay: float
    slab: float

    def __post_init__(self):
        if self.decay < 2 or not 1 <= self.cap <= self.n_coords:
            raise ValueError("need support decay >= 2 and 1 <= cap <= n_coords")

    @classmethod
    def of_class(cls, classdef: ClassDef, input_dim: int, decay: float) -> Prior:
        """The prior the sampler targets on ``classdef`` at ``input_dim``."""
        n_coords = param_count(classdef.architecture(input_dim))
        return cls(n_coords, min(classdef.sparsity, n_coords), decay, classdef.weight_bound)

    @property
    def normalizer(self) -> float:
        """Z = sum of decay^-k over k = 1..cap = (1 - decay^-cap) / (decay - 1)."""
        return (1.0 - self.decay ** (-self.cap)) / (self.decay - 1.0)

    def log_density(self, k: int) -> float:
        """Log density of one k-support (k in 1..cap) at values in the slab."""
        n = self.n_coords
        log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        log_z = math.log(self.normalizer)
        return -k * math.log(self.decay) - log_binom - k * math.log(2.0 * self.slab) - log_z


def log_prior(net: SparseNetwork, prior: Prior) -> float:
    """Log density of a sparse network under ``prior``."""
    k = int(net.active.size)
    if k < 1 or k > prior.cap or net.theta.size != prior.n_coords:
        raise OutOfSupport(f"support size {k} outside 1..{prior.cap} of {prior.n_coords}")
    if np.any(np.abs(net.theta[net.active]) > prior.slab):
        raise OutOfSupport("an active weight exceeds the slab half-width")
    return prior.log_density(k)


def temperature(n: int, gamma: float, bernstein_k: float) -> float:
    """Posterior temperature n*gamma / (32K + 10) for effective sample size
    n*gamma and Bernstein constant K."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if bernstein_k <= 0:
        raise ValueError("Bernstein constant must be positive")
    return n * gamma / (32.0 * bernstein_k + 10.0)


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained post-burn-in draws in compact array form."""

    arch: Architecture
    prior: Prior
    output_clip: float
    activation: str
    thetas: np.ndarray
    actives: np.ndarray
    log_scores: np.ndarray
    acceptance_rates: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def weight_bound(self) -> float:
        return self.prior.slab

    def network(self, i: int) -> SparseNetwork:
        return SparseNetwork(
            arch=self.arch,
            theta=self.thetas[i].copy(),
            active=np.flatnonzero(self.actives[i]),
            weight_bound=self.weight_bound,
            output_clip=self.output_clip,
        )

    @property
    def support_sizes(self) -> np.ndarray:
        return self.actives.sum(axis=1)

    def to_jsonl(self) -> str:
        lines = []
        for i in range(len(self)):
            net = self.network(i)
            doc = json.loads(net.to_json())
            doc["log_score"] = float(self.log_scores[i])
            lines.append(json.dumps(doc))
        return "\n".join(lines) + ("\n" if lines else "")


def _reflect(value: float, bound: float) -> float:
    """Fold a real number into [-bound, bound] (triangle-wave reflection)."""
    period = 4.0 * bound
    y = (value + bound) % period
    if y > 2.0 * bound:
        y = period - y
    return y - bound


def _per_state_risk(data: Dataset, loss: str):
    """Collapse the sample onto unique input rows.

    Returns (points, risk_fn) where risk_fn maps the vector of predictions
    at those rows to the empirical risk; inputs repeat heavily on a finite
    state space, so the sampler only ever evaluates networks there.
    """
    points, inverse = np.unique(data.inputs, axis=0, return_inverse=True)
    n = float(len(data))
    m = points.shape[0]
    if loss == "square":
        weight = np.bincount(inverse, minlength=m) / n
        y_mean = np.bincount(inverse, weights=data.outputs, minlength=m) / n
        y_sq = float(np.sum(data.outputs**2)) / n

        def risk_fn(h):
            return float(np.dot(weight, h * h) - 2.0 * np.dot(y_mean, h) + y_sq)

    elif loss == "logistic":
        pos = np.bincount(inverse, weights=(data.outputs > 0), minlength=m) / n
        neg = np.bincount(inverse, weights=(data.outputs < 0), minlength=m) / n

        def risk_fn(h):
            return float(
                np.dot(pos, np.logaddexp(0.0, -h)) + np.dot(neg, np.logaddexp(0.0, h))
            )

    else:
        raise ValueError(f"unknown loss {loss!r}")
    return points, risk_fn


def sample_posterior(
    data: Dataset, loss: str, classdef: ClassDef, cfg: GibbsConfig
) -> PosteriorDraws:
    """Run the reversible-jump chain and return thinned post-burn-in draws.

    The stationary law is the tempered posterior on the class, restricted
    to supports of size at most the sparsity cap; every draw satisfies the
    hard class constraints (active weights inside the slab, support never
    empty, support size capped).
    """
    if len(data) == 0:
        raise EmptyDataset("cannot sample a posterior from no data")
    if not (
        math.isclose(cfg.weight_bound, classdef.weight_bound)
        and math.isclose(cfg.output_clip, classdef.output_clip)
    ):
        raise InvalidClass("config bounds must match the class bounds")

    arch = classdef.architecture(input_dim=data.inputs.shape[1])
    prior = Prior.of_class(classdef, arch.input_dim, cfg.support_decay)
    n_params, cap, slab = prior.n_coords, prior.cap, prior.slab
    clip = classdef.output_clip
    act_fn = ACTIVATIONS[classdef.activation].fn
    slices = layer_slices(arch)
    points, risk_fn = _per_state_risk(data, loss)

    rng = np.random.default_rng(cfg.seed)
    theta = np.zeros(n_params)
    active = np.zeros(n_params, dtype=bool)
    active[rng.integers(n_params)] = True  # one active coordinate, value 0
    risk = risk_fn(compose(slices, theta, points, act_fn, clip)[:, 0])

    lam = cfg.temperature
    p_add, p_remove, _ = cfg.move_probs
    log_decay = math.log(prior.decay)
    jumps = p_add > 0 and p_remove > 0
    log_add_ratio = math.log(p_remove / p_add) - log_decay if jumps else 0.0
    log_remove_ratio = math.log(p_add / p_remove) + log_decay if jumps else 0.0

    n_keep = (cfg.iters - cfg.burn_in + cfg.thin - 1) // cfg.thin
    thetas = np.empty((n_keep, n_params))
    actives = np.empty((n_keep, n_params), dtype=bool)
    log_scores = np.empty(n_keep)
    kept = 0
    proposed = {"add": 0, "remove": 0, "perturb": 0}
    accepted = {"add": 0, "remove": 0, "perturb": 0}

    for it in range(cfg.iters):
        # Pick the move, the pool its coordinate is drawn from and its
        # prior/proposal log ratio; the support is counted only for jumps.
        u = rng.random()
        if u < p_add:
            move, pool, log_ratio = "add", ~active, log_add_ratio
            feasible = jumps and active.sum() < cap
        elif u < p_add + p_remove:
            move, pool, log_ratio = "remove", active, log_remove_ratio
            feasible = jumps and active.sum() > 1
        else:
            move, pool, log_ratio, feasible = "perturb", active, 0.0, True
        proposed[move] += 1

        if feasible:
            idx = np.flatnonzero(pool)
            j = int(idx[rng.integers(idx.size)])
            old = theta[j]
            if move == "add":
                theta[j] = rng.uniform(-slab, slab)
            elif move == "remove":
                theta[j] = 0.0
            else:
                theta[j] = _reflect(old + rng.uniform(-cfg.step, cfg.step), slab)
            new_risk = risk_fn(compose(slices, theta, points, act_fn, clip)[:, 0])
            if math.log(rng.random()) < -lam * (new_risk - risk) + log_ratio:
                active[j] = move != "remove"
                risk = new_risk
                accepted[move] += 1
            else:
                theta[j] = old

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            thetas[kept] = theta
            actives[kept] = active
            log_scores[kept] = -lam * risk
            kept += 1

    rates = {
        move: (accepted[move] / proposed[move] if proposed[move] else 0.0)
        for move in proposed
    }
    return PosteriorDraws(
        arch=arch,
        prior=prior,
        output_clip=clip,
        activation=classdef.activation,
        thetas=thetas[:kept],
        actives=actives[:kept],
        log_scores=log_scores[:kept],
        acceptance_rates=rates,
    )


def posterior_predictor(draws: PosteriorDraws, mode: str = "single_draw"):
    """Turn retained draws into a predictor on 2-D input batches.

    ``single_draw`` evaluates the final retained parameter vector (the
    estimator is one posterior draw); ``average`` evaluates the pointwise
    mean over all retained draws, a smoother diagnostic variant.
    """
    if mode not in ("single_draw", "average"):
        raise ValueError(f"unknown predictor mode {mode!r}")
    if len(draws) == 0:
        raise NoDraws("posterior sample is empty")
    thetas = draws.thetas[-1:] if mode == "single_draw" else draws.thetas
    slices = layer_slices(draws.arch)
    act_fn = ACTIVATIONS[draws.activation].fn

    def predict(x):
        outs = (compose(slices, theta, x, act_fn, draws.output_clip) for theta in thetas)
        mean = reduce(np.add, outs) / len(thetas)
        return mean[:, 0] if draws.arch.output_dim == 1 else mean

    return predict
