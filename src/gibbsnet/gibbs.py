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
``sample_batch`` advances many independent chains in lockstep, each bit for
bit the chain ``sample_posterior`` runs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError, EmptyDataset, InvalidClass, NoDraws, OutOfSupport, check_table
from .markov import stream
from .model import Dataset
from .network import (
    ACTIVATIONS,
    Architecture,
    SparseNetwork,
    compose_views,
    frame_slots,
    frame_views,
    layer_slices,
    layer_views,
    max_param_count,
    param_count,
)

UNIFORM_CHUNK = 512  # sampler steps per block of uniforms


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

    def architecture(self, input_dim: int) -> Architecture:
        widths = (input_dim,) + (self.width,) * self.depth + (1,)
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
        probs = tuple(self.move_probs)
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

    @property
    def n_keep(self) -> int:
        """The number of draws a chain retains: every thin-th step from burn_in on."""
        return (self.iters - self.burn_in + self.thin - 1) // self.thin

    @classmethod
    def from_doc(
        cls, doc: dict, classdef: ClassDef, temperature: float, seed: int
    ) -> "GibbsConfig":
        """Sampler settings from a config's ``gibbs`` table (schema
        :data:`GIBBS`), bounded by the class; any malformed value raises
        :class:`ConfigError`."""
        table = check_table(doc, "gibbs", GIBBS)
        try:
            return cls(**table, weight_bound=classdef.weight_bound,
                       output_clip=classdef.output_clip, temperature=temperature, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"gibbs: {exc}") from exc


# The config's ``gibbs`` table: sampler settings, at GibbsConfig's defaults.
GIBBS = {
    "support_decay": ("number", 2.0),
    "move_probs": (["number"], GibbsConfig.move_probs),
    "step": ("number", GibbsConfig.step),
    "iters": ("int", GibbsConfig.iters),
    "burn_in": ("int", GibbsConfig.burn_in),
    "thin": ("int", GibbsConfig.thin),
}


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


def _reflect_array(value: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """:func:`_reflect` elementwise, in the same float operations."""
    period = 4.0 * bound
    y = (value + bound) % period
    y = np.where(y > 2.0 * bound, period - y, y)
    return y - bound


def _uniform_blocks(rng: np.random.Generator, iters: int):
    """The sampler's uniforms on [0, 1) as blocks: the (1, 1) start block
    [u], then (steps, 4) blocks with one (move, index, value, accept) row
    per step, whatever the move and whether it is feasible; at most
    UNIFORM_CHUNK steps a block, to bound memory."""
    yield rng.random((1, 1))
    for t in range(0, iters, UNIFORM_CHUNK):
        yield rng.random((min(UNIFORM_CHUNK, iters - t), 4))


def _state_tables(data: Dataset, loss: str):
    """Collapse the sample onto unique input rows.

    Returns (points, tables): the unique rows, and the per-row sums the
    empirical risk reads, as (weight, y_mean, y_sq) for the square loss and
    (pos, neg) for the logistic loss.  Inputs repeat heavily on a finite
    state space, so the sampler only ever evaluates networks there.
    """
    points, inverse = np.unique(data.inputs, axis=0, return_inverse=True)
    n = float(len(data))
    m = points.shape[0]
    if loss == "square":
        weight = np.bincount(inverse, minlength=m) / n
        y_mean = np.bincount(inverse, weights=data.outputs, minlength=m) / n
        return points, (weight, y_mean, float(np.sum(data.outputs**2)) / n)
    if loss == "logistic":
        pos = np.bincount(inverse, weights=(data.outputs > 0), minlength=m) / n
        neg = np.bincount(inverse, weights=(data.outputs < 0), minlength=m) / n
        return points, (pos, neg)
    raise ValueError(f"unknown loss {loss!r}")


def _per_state_risk(data: Dataset, loss: str):
    """(points, risk_fn) of :func:`_state_tables`: risk_fn maps the vector
    of predictions at the points to the empirical risk."""
    points, tables = _state_tables(data, loss)
    if loss == "square":
        weight, y_mean, y_sq = tables

        def risk_fn(h):
            return float(np.dot(weight, h * h) - 2.0 * np.dot(y_mean, h) + y_sq)

    else:
        pos, neg = tables

        def risk_fn(h):
            return float(
                np.dot(pos, np.logaddexp(0.0, -h)) + np.dot(neg, np.logaddexp(0.0, h))
            )

    return points, risk_fn


def _batch_risk(tables: list, loss: str):
    """risk_fn of stacked predictions (C, m, 1) to the C empirical risks of
    :func:`_per_state_risk`: the per-row dot products are a stacked matmul,
    which takes each one as np.dot does."""
    rows = [np.stack(column)[:, None, :] for column in list(zip(*tables))[:2]]
    if loss == "square":
        weight, y_mean = rows
        y_sq = np.array([table[2] for table in tables])

        def risk_fn(h):
            return ((weight @ (h * h))[:, 0, 0] - 2.0 * (y_mean @ h)[:, 0, 0]) + y_sq

    else:
        pos, neg = rows

        def risk_fn(h):
            return (pos @ np.logaddexp(0.0, -h))[:, 0, 0] + (neg @ np.logaddexp(0.0, h))[:, 0, 0]

    return risk_fn


def _chain_setup(data: Dataset, classdef: ClassDef, cfg: GibbsConfig):
    """(arch, prior, (jumps, log add ratio, log remove ratio)) of one chain,
    after the checks :func:`sample_posterior` documents."""
    if len(data) == 0:
        raise EmptyDataset("cannot sample a posterior from no data")
    if not (
        math.isclose(cfg.weight_bound, classdef.weight_bound)
        and math.isclose(cfg.output_clip, classdef.output_clip)
    ):
        raise InvalidClass("config bounds must match the class bounds")
    arch = classdef.architecture(input_dim=data.inputs.shape[1])
    prior = Prior.of_class(classdef, arch.input_dim, cfg.support_decay)
    p_add, p_remove, _ = cfg.move_probs
    log_decay = math.log(prior.decay)
    jumps = p_add > 0 and p_remove > 0
    log_add_ratio = math.log(p_remove / p_add) - log_decay if jumps else 0.0
    log_remove_ratio = math.log(p_add / p_remove) + log_decay if jumps else 0.0
    return arch, prior, (jumps, log_add_ratio, log_remove_ratio)


def sample_posterior(
    data: Dataset, loss: str, classdef: ClassDef, cfg: GibbsConfig
) -> PosteriorDraws:
    """Run the reversible-jump chain and return thinned post-burn-in draws.

    The stationary law is the tempered posterior on the class, restricted
    to supports of size at most the sparsity cap; every draw satisfies the
    hard class constraints (active weights inside the slab, support never
    empty, support size capped).
    """
    arch, prior, (jumps, log_add_ratio, log_remove_ratio) = _chain_setup(data, classdef, cfg)
    n_params, cap, slab, step = prior.n_coords, prior.cap, prior.slab, cfg.step
    clip = classdef.output_clip
    act_fn = ACTIVATIONS[classdef.activation].fn
    points, risk_fn = _per_state_risk(data, loss)

    blocks = _uniform_blocks(stream(cfg.seed, "sampler"), cfg.iters)
    theta = np.zeros(n_params)
    views = layer_views(layer_slices(arch), theta)
    # The support as a count and as the sorted list ``on`` of its
    # coordinates; the mask ``active`` changes only with an accepted jump
    # and is read only when a draw is kept.  One active coordinate at value
    # 0: a uniform is at most 1 - 2^-53, so int(u * size) stays below size
    # for any size under 2^52.
    on = [int(next(blocks)[0, 0] * n_params)]
    support = 1
    active = np.zeros(n_params, dtype=bool)
    active[on[0]] = True
    risk = risk_fn(compose_views(views, points, act_fn, clip)[:, 0])

    lam = cfg.temperature
    p_add, p_remove, _ = cfg.move_probs
    p_jump = p_add + p_remove
    burn_in, thin, n_keep = cfg.burn_in, cfg.thin, cfg.n_keep
    thetas = np.empty((n_keep, n_params))
    actives = np.empty((n_keep, n_params), dtype=bool)
    log_scores = np.empty(n_keep)
    kept = 0
    proposed = {"add": 0, "remove": 0, "perturb": 0}
    accepted = {"add": 0, "remove": 0, "perturb": 0}

    def gaps(i):
        # Inactive coordinates below the i-th active one; nondecreasing in i.
        return on[i] - i

    rows = (row for block in blocks for row in block.tolist())
    for it, (u_move, u_index, u_value, u_accept) in enumerate(rows):
        # Pick the move, its feasibility and its prior/proposal log ratio.
        if u_move < p_add:
            move, log_ratio, feasible = "add", log_add_ratio, jumps and support < cap
        elif u_move < p_jump:
            move, log_ratio, feasible = "remove", log_remove_ratio, jumps and support > 1
        else:
            move, log_ratio, feasible = "perturb", 0.0, True
        proposed[move] += 1

        if feasible:
            # The pool's k-th coordinate: the k-th inactive one is k plus
            # the number i of active ones below it, the i-th active one on[i].
            if move == "add":
                k = int(u_index * (n_params - support))
                i = bisect_right(range(support), k, key=gaps)
                j, value = k + i, slab * (2.0 * u_value - 1.0)
            else:
                i = int(u_index * support)
                j = on[i]
                value = 0.0 if move == "remove" else _reflect(
                    theta[j] + step * (2.0 * u_value - 1.0), slab)
            old = theta[j]
            theta[j] = value
            new_risk = risk_fn(compose_views(views, points, act_fn, clip)[:, 0])
            if u_accept < math.exp(min(0.0, -lam * (new_risk - risk) + log_ratio)):
                risk = new_risk
                accepted[move] += 1
                if move == "add":
                    on.insert(i, j)
                    support += 1
                    active[j] = True
                elif move == "remove":
                    del on[i]
                    support -= 1
                    active[j] = False
            else:
                theta[j] = old

        if it >= burn_in and (it - burn_in) % thin == 0:
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


def sample_batch(datas, loss: str, classdefs, cfgs) -> list:
    """Run one chain per (data, classdef, cfg) in lockstep and return each
    chain's draws, equal bit for bit to ``sample_posterior(data, loss,
    classdef, cfg)``.

    The C chains advance together as (C, F) arrays, each chain's row its
    padded (depth, width) frame (see :func:`frame_slots`), under the same
    four-uniform step contract, each on its own sampler stream.  A chain's
    realisable slots run in flat order, so the k-th slot of a pool holds the
    coordinate sample_posterior picks; a kept draw is read back through the
    slot map.  The forward pass is :func:`compose_views` on views of the
    state bound once, and the risk takes np.dot's per-row dot products: no
    chain's floats depend on its batch-mates.  The chains must share depth,
    activation, the number of distinct input rows, iters, burn_in and thin;
    otherwise ValueError.  On the sweep benchmark's cells it is level with
    sample_posterior at about four chains, 2x faster at ten, 7x at fifty
    and 4x slower at one.
    """
    setups = [_chain_setup(*chain) for chain in zip(datas, classdefs, cfgs)]
    states = [_state_tables(data, loss) for data in datas]
    shared = {(classdef.depth, classdef.activation, len(points), cfg.iters, cfg.burn_in, cfg.thin)
              for classdef, cfg, (points, _) in zip(classdefs, cfgs, states)}
    if len(shared) != 1:
        raise ValueError("a batch's chains must share depth, activation, distinct input "
                         "rows, iters, burn_in and thin")
    ((depth, activation, m, iters, burn_in, thin),) = shared
    archs, priors, ratios = zip(*setups)
    jumps, log_add, log_remove = (np.array(column) for column in zip(*ratios))
    n_coords = np.array([prior.n_coords for prior in priors])
    cap = np.array([prior.cap for prior in priors])
    slab = np.array([prior.slab for prior in priors])
    step = np.array([cfg.step for cfg in cfgs])
    neg_lam = np.array([-cfg.temperature for cfg in cfgs])
    p_add = np.array([cfg.move_probs[0] for cfg in cfgs])
    p_jump = np.array([cfg.move_probs[0] + cfg.move_probs[1] for cfg in cfgs])
    n_chains = len(setups)
    chain = np.arange(n_chains)

    # Steps address theta and active, each chain's frame a row, by row offset
    # plus slot, one index per chain, which numpy serves faster than (chain,
    # slot) pairs; ``slots`` maps each flat coordinate to its offset slot.
    n_max = int(n_coords.max())
    width = max(max(arch.widths) for arch in archs)
    in_cols = max(arch.input_dim for arch in archs)
    theta = np.zeros((n_chains, max_param_count(depth, width)))
    active, realisable = np.zeros(theta.shape, dtype=bool), np.zeros(theta.shape, dtype=bool)
    offsets = theta.shape[1] * chain
    slots = np.zeros((n_chains, n_max), dtype=np.int64)
    inputs = np.zeros((n_chains, m, in_cols))
    for c, (arch, (points, _)) in enumerate(zip(archs, states)):
        own = frame_slots(arch, depth, width)
        slots[c, :own.size] = own
        realisable[c, own] = True
        inputs[c, :, :arch.input_dim] = points
    slots += offsets[:, None]
    views = frame_views(theta, depth, width, in_cols)
    act_fn = ACTIVATIONS[activation].fn
    clip = np.array([classdef.output_clip for classdef in classdefs])[:, None, None]
    risk_fn = _batch_risk([tables for _, tables in states], loss)
    flat_theta, flat_active = theta.reshape(-1), active.reshape(-1)

    def risk_of():
        return risk_fn(compose_views(views, inputs, act_fn, clip))

    blocks = [_uniform_blocks(stream(cfg.seed, "sampler"), iters) for cfg in cfgs]
    start = np.array([next(chain_blocks)[0, 0] for chain_blocks in blocks])
    flat_active[slots[chain, (start * n_coords).astype(np.int64)]] = True
    support = np.ones(n_chains, dtype=np.int64)
    risk = risk_of()

    n_keep = cfgs[0].n_keep
    thetas = np.empty((n_chains, n_keep, n_max))
    actives = np.empty((n_chains, n_keep, n_max), dtype=bool)
    log_scores = np.empty((n_chains, n_keep))
    proposed = np.zeros((3, n_chains), dtype=np.int64)
    accepted = np.zeros((3, n_chains), dtype=np.int64)
    it = kept = 0
    for chunk in zip(*blocks):
        # (steps, C) per uniform, and what each step's move reads from it.
        u_move, u_index, u_value, u_accept = np.stack(chunk, axis=2).transpose(1, 0, 2)
        add = u_move < p_add
        remove = ~add & (u_move < p_jump)
        perturb = ~(add | remove)
        # A move is feasible when lowest <= support <= highest: an add below
        # the cap, a remove above one coordinate, a jump only with jumps on.
        lowest = np.where(perturb | jumps, np.where(remove, 2, 0), n_max + 1)
        highest = np.where(add, cap - 1, n_max)
        change = add.astype(np.int64) - remove
        log_ratio = np.where(add, log_add, np.where(remove, log_remove, 0.0))
        added = slab * (2.0 * u_value - 1.0)
        shift = step * (2.0 * u_value - 1.0)
        took = np.empty(u_move.shape, dtype=bool)
        for t in range(len(u_move)):
            feasible = (lowest[t] <= support) & (support <= highest[t])
            counts = (active ^ (realisable & add[t][:, None])).cumsum(axis=1)
            pick = (u_index[t] * counts[:, -1]).astype(np.int64)
            j = (counts > pick[:, None]).argmax(axis=1)
            slot = offsets + j
            old = flat_theta[slot]
            new = np.where(add[t], added[t],
                           np.where(remove[t], 0.0, _reflect_array(old + shift[t], slab)))
            flat_theta[slot] = new
            new_risk = risk_of()
            log_accept = np.fmin(0.0, neg_lam * (new_risk - risk) + log_ratio[t])
            bar = np.exp(log_accept)
            take = u_accept[t] < bar
            # np.exp may differ from math.exp by an ulp or so: settle every
            # accept uniform within 1e-15 of the bar with math.exp, as
            # sample_posterior does.
            for c in np.flatnonzero(np.abs(u_accept[t] - bar) <= 1e-15):
                take[c] = u_accept[t, c] < math.exp(log_accept[c])
            take &= feasible
            flat_theta[slot] = np.where(take, new, old)
            flat_active[slot] ^= take & ~perturb[t]
            support += take * change[t]
            risk = np.where(take, new_risk, risk)
            took[t] = take
            if it >= burn_in and (it - burn_in) % thin == 0:
                thetas[:, kept] = flat_theta[slots]
                actives[:, kept] = flat_active[slots]
                log_scores[:, kept] = neg_lam * risk
                kept += 1
            it += 1
        for move, mask in enumerate((add, remove, perturb)):
            proposed[move] += mask.sum(axis=0)
            accepted[move] += (took & mask).sum(axis=0)

    draws = []
    for c, (arch, prior, classdef) in enumerate(zip(archs, priors, classdefs)):
        size = prior.n_coords
        rates = {move: (int(accepted[i, c]) / int(proposed[i, c]) if proposed[i, c] else 0.0)
                 for i, move in enumerate(("add", "remove", "perturb"))}
        draws.append(PosteriorDraws(
            arch=arch,
            prior=prior,
            output_clip=classdef.output_clip,
            activation=activation,
            thetas=np.ascontiguousarray(thetas[c, :, :size]),
            actives=np.ascontiguousarray(actives[c, :, :size]),
            log_scores=log_scores[c],
            acceptance_rates=rates,
        ))
    return draws


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
        outs = (compose_views(layer_views(slices, theta), x, act_fn, draws.output_clip)
                for theta in thetas)
        return (reduce(np.add, outs) / len(thetas))[:, 0]

    return predict
