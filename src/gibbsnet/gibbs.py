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
One generator, ``_chain``, states its step once: the sampler stream, the
support bookkeeping, the accept test, the acceptance counts and the kept
draws.  The support is sparse, so most proposals move a coordinate whose
every path to the output runs through an inactive weight or a silent
unit; the chain gives such a proposal the current risk, which is its risk
bit for bit, and asks for a price only for the others.  It yields when it
needs one and is resumed with it.  ``sample_posterior`` prices one chain's
proposals with its one-network forward pass; ``sample_batch`` runs many
independent chains side by side and prices the proposals of every chain
waiting for a price with one stacked forward pass, so each chain is bit
for bit the chain ``sample_posterior`` runs.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import EmptyDataset, GibbsNetError, InvalidClass, NoDraws, OutOfSupport
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
    output_bound,
    param_count,
    unit_links,
)

UNIFORM_CHUNK = 512  # sampler steps per block of uniforms
# The most parameters a class's padded frame, max_param_count(depth, width),
# may hold.  A network of the class is a vector of up to that many floats
# (8 GiB at this one) and a chain keeps one per kept draw, so a larger
# class cannot be sampled on a desk machine.  It is refused before its
# depth + 2 layer widths are built: at a depth of 2^40 those alone exhaust
# memory, with a MemoryError that names neither key.
MAX_PARAMS = 1 << 30


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
        if max_param_count(self.depth, self.width) > MAX_PARAMS:
            raise InvalidClass(f"depth {self.depth} and width {self.width} pad to more than "
                               f"{MAX_PARAMS} parameters (see gibbs.MAX_PARAMS)")
        if self.sparsity < 1:
            raise InvalidClass("sparsity cap must be at least 1")
        if self.sparsity > max_param_count(self.depth, self.width):
            raise InvalidClass("sparsity cap exceeds the padded parameter count")
        if not (self.weight_bound > 0 and self.output_clip > 0):
            raise InvalidClass("bounds must be positive")
        if not math.isfinite(4.0 * self.weight_bound):
            raise InvalidClass("4 * weight_bound, a perturb's reflection period, must be finite")
        if self.activation not in ACTIVATIONS:
            raise InvalidClass(f"unknown activation {self.activation!r}")

    def architecture(self, input_dim: int) -> Architecture:
        widths = (input_dim,) + (self.width,) * self.depth + (1,)
        return Architecture(depth=self.depth, widths=widths)


@dataclass(frozen=True)
class GibbsConfig:
    """Prior and sampler settings.

    ``move_probs`` are the (add, remove, perturb) proposal probabilities;
    ``step`` defaults to a tenth of the slab half-width, and 2 *
    weight_bound + step, the most a perturb's reflection folds, must be
    finite.
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
        if not 2 <= self.support_decay < math.inf:
            raise ValueError("support decay must be finite and at least 2")
        if not (self.weight_bound > 0 and self.output_clip > 0):
            raise ValueError("bounds must be positive")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and nonnegative")
        probs = tuple(self.move_probs)
        object.__setattr__(self, "move_probs", probs)
        if len(probs) != 3 or not all(p >= 0 for p in probs):
            raise ValueError("need three nonnegative move probabilities")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError("move probabilities must sum to 1")
        if self.step is None:
            object.__setattr__(self, "step", self.weight_bound / 10.0)
        if not self.step > 0:
            raise ValueError("perturbation step must be positive")
        if not math.isfinite(2.0 * self.weight_bound + self.step):
            raise ValueError("2 * weight_bound + step, the most a perturb's reflection "
                             "folds, must be finite")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.iters <= self.burn_in:
            raise ValueError("iters must exceed burn_in")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")

    @property
    def n_keep(self) -> int:
        """The number of draws a chain retains: every thin-th step from burn_in on."""
        return (self.iters - self.burn_in + self.thin - 1) // self.thin


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
        if not (2 <= self.decay < math.inf and 1 <= self.cap <= self.n_coords):
            raise ValueError("need a finite support decay >= 2 and 1 <= cap <= n_coords")
        if not math.isfinite(4.0 * self.slab):
            raise ValueError("4 * slab, a perturb's reflection period, must be finite")

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
    if not 0 < bernstein_k < math.inf:
        raise ValueError("Bernstein constant must be positive and finite")
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


def _uniform_blocks(rng: np.random.Generator, iters: int):
    """The sampler's uniforms on [0, 1) as blocks: the (1, 1) start block
    [u], then (steps, 4) blocks with one (move, index, value, accept) row
    per step, whatever the move and whether it is feasible; at most
    UNIFORM_CHUNK steps a block, to bound memory."""
    yield rng.random((1, 1))
    for t in range(0, iters, UNIFORM_CHUNK):
        yield rng.random((min(UNIFORM_CHUNK, iters - t), 4))


def _decode_block(block: np.ndarray, t: int, cfg: GibbsConfig, slab: float):
    """What the steps of a (steps, 4) uniform block, the first at iteration
    t, take from their uniforms alone: (proposals per move, one row a step of
    (move (0 add, 1 remove, 2 perturb), index uniform, add value, perturb
    shift, accept uniform, whether its draw is kept), as Python numbers)."""
    p_add, p_remove, _ = cfg.move_probs
    moves = np.searchsorted((p_add, p_add + p_remove), block[:, 0], side="right")
    unit = 2.0 * block[:, 2] - 1.0
    its = np.arange(t, t + len(block))
    keep = (its >= cfg.burn_in) & ((its - cfg.burn_in) % cfg.thin == 0)
    return np.bincount(moves, minlength=3), zip(
        moves.tolist(), block[:, 1].tolist(), (slab * unit).tolist(),
        (cfg.step * unit).tolist(), block[:, 3].tolist(), keep.tolist())


# Every loss's empirical risk over the distinct input rows of a sample, as
# a.f(h) + b.g(h) + c with h the predictions there and (a, b, c) the
# coefficients of :func:`_state_tables`: {loss: (f, g)}.
RISK_TERMS = {
    "square": (np.square, lambda h: h),
    "logistic": (lambda h: np.logaddexp(0.0, -h), lambda h: np.logaddexp(0.0, h)),
}


def _distinct_rows(inputs: np.ndarray):
    """(points, inverse) of the (n, d) rows ``inputs``, equal to what
    np.unique returns along axis 0 with return_inverse: the distinct rows in
    lexicographic order, column 0 first, and the 1-D intp index among them
    of each input row.  One lexsort of the columns finds them, where
    np.unique sorts whole rows as records."""
    order = np.lexsort(inputs.T[::-1])
    rows = inputs[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[starts], inverse


def _state_tables(data: Dataset, loss: str):
    """Collapse the sample onto unique input rows.

    Returns (points, (a, b, c)): the unique rows, and the coefficients of
    the empirical risk a.f(h) + b.g(h) + c of :data:`RISK_TERMS`.  For the
    square loss a is each row's share of the sample, b is -2/n times the sum
    of its outputs and c the mean squared output; for the logistic loss a
    and b are each row's shares of positive and negative labels and c is 0.
    Inputs repeat heavily on a finite state space, so the sampler only ever
    evaluates networks there.  :func:`_distinct_rows` finds the rows, and
    each input's among them, with one lexsort in np.unique's order and with
    its inverse: on four states and one core, 0.17 ms a call against
    np.unique's 1.3 ms at n = 4 000, 3.1 against 29 ms at 64 000 and 13.5
    against 135 ms at 256 000 (BENCH_distinct_rows.json).
    """
    if loss not in RISK_TERMS:
        raise ValueError(f"unknown loss {loss!r}")
    points, inverse = _distinct_rows(data.inputs)
    n = float(len(data))
    m = points.shape[0]

    def share(weights=None):
        return np.bincount(inverse, weights=weights, minlength=m) / n

    if loss == "square":
        # Scaling by -2, a power of two, is exact.
        return points, (share(), -2.0 * share(data.outputs),
                        float(np.sum(data.outputs**2)) / n)
    return points, (share(data.outputs > 0), share(data.outputs < 0), 0.0)


def _per_state_risk(data: Dataset, loss: str):
    """(points, risk_fn) of :func:`_state_tables`: risk_fn maps the vector
    of predictions at the points to the empirical risk."""
    points, (a, b, c) = _state_tables(data, loss)
    f, g = RISK_TERMS[loss]
    a_dot, b_dot = a.dot, b.dot  # np.dot's products, without its dispatch

    def risk_fn(h):
        return float(a_dot(f(h)) + b_dot(g(h)) + c)

    return points, risk_fn


def _batch_risk(tables: list, loss: str):
    """risk_fn of stacked predictions (C, m), one chain a row, to the C
    empirical risks of :func:`_per_state_risk`: the per-row dot products
    are one np.vecdot, whose float64 loop takes each one as np.dot does."""
    a, b = (np.stack(column) for column in list(zip(*tables))[:2])
    c = np.array([table[2] for table in tables])
    f, g = RISK_TERMS[loss]

    def risk_fn(h):
        return np.vecdot(a, f(h)) + np.vecdot(b, g(h)) + c

    return risk_fn


def class_output_bound(classdef: ClassDef, inputs: np.ndarray) -> float:
    """:func:`output_bound` of ``classdef`` at the (n, input_dim) rows
    ``inputs``: no network of the class has a pre-clip output there above
    it.  A class whose bound is not finite raises InvalidClass: its forward
    pass may overflow, and a NaN risk would pass every accept test."""
    arch = classdef.architecture(input_dim=inputs.shape[1])
    bound = output_bound(arch, classdef.weight_bound, float(np.abs(inputs).max()),
                         classdef.activation)
    if not math.isfinite(bound):
        raise InvalidClass(f"pre-clip outputs of depth {classdef.depth}, width "
                           f"{classdef.width} and weight bound {classdef.weight_bound:g} "
                           "may overflow at these inputs")
    return bound


def _chain_setup(data: Dataset, classdef: ClassDef, cfg: GibbsConfig):
    """(arch, prior, :func:`class_output_bound`) of one chain, after the
    checks :func:`sample_posterior` documents."""
    if len(data) == 0:
        raise EmptyDataset("cannot sample a posterior from no data")
    if not (
        math.isclose(cfg.weight_bound, classdef.weight_bound)
        and math.isclose(cfg.output_clip, classdef.output_clip)
    ):
        raise InvalidClass("config bounds must match the class bounds")
    bound = class_output_bound(classdef, data.inputs)
    arch = classdef.architecture(input_dim=data.inputs.shape[1])
    return arch, Prior.of_class(classdef, arch.input_dim, cfg.support_decay), bound


def _chain(cfg: GibbsConfig, prior: Prior, theta: np.ndarray, slots, links, at_zero: float):
    """One chain's reversible-jump steps on its own sampler stream, the one
    step both samplers take.

    The chain's flat coordinate k lives at ``theta[slots[k]]``: each step
    writes its proposal there and restores it on a reject, so every
    inactive coordinate stays +0.0.  The support is two sorted lists,
    ``on`` and ``off``, of the active and inactive coordinates: a move's
    pool is one of them, and an accepted jump moves its coordinate from one
    to the other.  A kept step copies all of ``theta``, and the draws gather
    their coordinates through ``slots`` once, at the end.

    A proposal is cut off from the output when its coordinate feeds a
    hidden unit with no active outgoing weight or, for an activation with
    act(0) = ``at_zero`` = 0, weighs a hidden unit with no active incoming
    coordinate (``links`` is the :func:`unit_links` table of the chain's
    architecture).  Every path from it to the output then multiplies by an
    inactive +0.0 or by a silent unit's act(+0.0) = 0, so the proposal's
    outputs differ from the current network's at most in the sign of a
    zero, and its risk under either loss is the current ``risk`` bit for
    bit: the chain takes that risk without asking for a price.  Two
    per-unit counts, of active incoming coordinates and active outgoing
    weights, change only with an accepted jump; the entry past the hidden
    units, which stands for none, starts at 1 and never reaches 0, and so
    does every incoming count where act(0) is not 0.

    The chain yields True whenever it needs a price, first for its start
    network and then for each proposal that is not cut off, and is sent
    that network's risk; the resume after its last step yields its draws
    as :class:`PosteriorDraws` fields.
    """
    p_add, p_remove, _ = cfg.move_probs
    log_decay = math.log(prior.decay)
    jumps = p_add > 0 and p_remove > 0
    log_add_ratio = math.log(p_remove / p_add) - log_decay if jumps else 0.0
    log_remove_ratio = math.log(p_add / p_remove) + log_decay if jumps else 0.0
    n_params, cap, slab, lam = prior.n_coords, prior.cap, prior.slab, cfg.temperature
    slot_of = slots.tolist()
    blocks = _uniform_blocks(stream(cfg.seed, "sampler"), cfg.iters)
    # The support as a count and as the sorted lists ``on`` and ``off`` of
    # its coordinates and the others; the mask ``active`` changes only with
    # an accepted jump and is read only when a draw is kept.  One active
    # coordinate at value 0: a uniform is at most 1 - 2^-53, so int(u * size)
    # stays below size for any size under 2^52.
    on = [int(next(blocks)[0, 0] * n_params)]
    off = [j for j in range(n_params) if j != on[0]]
    support = 1
    active = np.zeros(n_params, dtype=bool)
    active[on[0]] = True
    # The first layer's weights weigh no hidden unit, so the table's largest
    # entry is the one that stands for none.
    hidden = int(links.max())
    links = [tuple(pair) for pair in links.tolist()]
    fan_in = [0 if at_zero == 0.0 else 1] * hidden + [1]
    fan_out = [0] * hidden + [1]
    fed, weighed = links[on[0]]
    fan_in[fed] += 1
    fan_out[weighed] += 1
    risk = yield True

    try:
        kept_theta = np.empty((cfg.n_keep, theta.size))
        actives = np.empty((cfg.n_keep, n_params), dtype=bool)
        log_scores = np.empty(cfg.n_keep)
    except (ValueError, MemoryError) as exc:
        raise GibbsNetError(f"cannot allocate {cfg.n_keep} kept draws: {exc}") from exc
    kept = 0
    proposed, accepted = np.zeros(3, dtype=np.int64), [0, 0, 0]

    for t, block in zip(range(0, cfg.iters, UNIFORM_CHUNK), blocks):
        counts, rows = _decode_block(block, t, cfg, slab)
        proposed += counts
        for move, u_index, add_value, shift, u_accept, keep in rows:
            # The move's feasibility and its prior/proposal log ratio.
            if move == 0:
                log_ratio, feasible = log_add_ratio, jumps and support < cap
            elif move == 1:
                log_ratio, feasible = log_remove_ratio, jumps and support > 1
            else:
                log_ratio, feasible = 0.0, True

            if feasible:
                # The pool's i-th coordinate: an add draws from ``off``, the
                # other moves from ``on``.
                if move == 0:
                    i = int(u_index * (n_params - support))
                    j = off[i]
                else:
                    i = int(u_index * support)
                    j = on[i]
                slot = slot_of[j]
                old = theta.item(slot)
                theta[slot] = (add_value if move == 0 else 0.0 if move == 1
                               else _reflect(old + shift, slab))
                fed, weighed = links[j]
                new_risk = (yield True) if fan_out[fed] and fan_in[weighed] else risk
                # exp(min(0.0, x)) without the builtin call, NaN and -0.0 included.
                x = -lam * (new_risk - risk) + log_ratio
                if u_accept < math.exp(x if x < 0.0 else 0.0):
                    risk = new_risk
                    accepted[move] += 1
                    if move == 0:
                        del off[i]
                        insort(on, j)
                        support += 1
                        active[j] = True
                        fan_in[fed] += 1
                        fan_out[weighed] += 1
                    elif move == 1:
                        del on[i]
                        insort(off, j)
                        support -= 1
                        active[j] = False
                        fan_in[fed] -= 1
                        fan_out[weighed] -= 1
                else:
                    theta[slot] = old

            if keep:
                kept_theta[kept] = theta
                actives[kept] = active
                log_scores[kept] = -lam * risk
                kept += 1

    # Each move's accepted / proposed, 0.0 where none was proposed.
    rates = {move: (accepted[i] / int(proposed[i]) if proposed[i] else 0.0)
             for i, move in enumerate(("add", "remove", "perturb"))}
    yield dict(thetas=kept_theta.take(slots, axis=1), actives=actives, log_scores=log_scores,
               acceptance_rates=rates)


def sample_posterior(
    data: Dataset, loss: str, classdef: ClassDef, cfg: GibbsConfig
) -> PosteriorDraws:
    """Run the reversible-jump chain and return thinned post-burn-in draws.

    The stationary law is the tempered posterior on the class, restricted
    to supports of size at most the sparsity cap; every draw satisfies the
    hard class constraints (active weights inside the slab, support never
    empty, support size capped).  A class whose :func:`class_output_bound`
    at the data's inputs is not finite raises InvalidClass.  Every proposal
    stays in the slab, so where that bound is below the clip, no network
    the chain meets reaches the clip, and the forward pass skips it: for
    finite |z| < clip, np.maximum and np.minimum return z itself.  The
    chain's layer views are bound once at its m distinct input rows (see
    :func:`layer_views`), so the clip bounds are (m,) arrays too.  The
    chain (see :func:`_chain`) asks for a price only for its start network
    and for each proposal that can reach the output, so this runs one
    forward pass for each of those; at depth 0 every proposal can.
    """
    arch, prior, bound = _chain_setup(data, classdef, cfg)
    clip = classdef.output_clip
    activation = ACTIVATIONS[classdef.activation]
    points, risk_fn = _per_state_risk(data, loss)
    points = np.ascontiguousarray(points.T)
    # The clip, idle (see above) or as prebuilt (m,) bounds.
    clip_bounds = None if bound < clip else (np.full(points.shape[1], -clip),
                                             np.full(points.shape[1], clip))
    theta = np.zeros(prior.n_coords)
    views = layer_views(layer_slices(arch), theta, points.shape[1])

    def price():
        return risk_fn(compose_views(views, points, activation.fn, clip_bounds))

    steps = _chain(cfg, prior, theta, np.arange(prior.n_coords), unit_links(arch),
                   activation.at_zero)
    state = next(steps)
    while state is True:
        state = steps.send(price())
    return PosteriorDraws(arch=arch, prior=prior, output_clip=clip,
                          activation=classdef.activation, **state)


# Floats a lockstep batch may allocate for its chains' kept draws, so a
# sweep's memory stays bounded whatever its replications and thinning.
BATCH_FLOATS = 1 << 23


def _batch_key(classdef: ClassDef, m: int) -> tuple:
    """What one batch's chains share: depth, activation and m distinct input
    rows; each chain keeps its own iters, burn_in and thin."""
    return classdef.depth, classdef.activation, m


def lockstep_batches(datas, classdefs, cfgs) -> list:
    """Indices of the chains (data, classdef, cfg) in :func:`sample_batch`
    batches: chains of one :func:`_batch_key`, in order, at most BATCH_FLOATS
    floats of kept draws a batch, a kept draw costing a chain a row of the
    group's widest frame, its mask at a byte a coordinate and its coordinates."""
    groups: dict = {}
    for i, (data, classdef) in enumerate(zip(datas, classdefs)):
        key = _batch_key(classdef, len(_distinct_rows(data.inputs)[0]))
        groups.setdefault(key, []).append(i)
    batches = []
    for (depth, *_), rows in groups.items():
        archs = [classdefs[i].architecture(datas[i].inputs.shape[1]) for i in rows]
        frame = max_param_count(depth, max(max(arch.widths) for arch in archs))
        floats = max(cfgs[i].n_keep * (frame + 9 * param_count(arch) / 8)
                     for i, arch in zip(rows, archs))
        size = max(1, int(BATCH_FLOATS // floats))
        batches += [rows[start:start + size] for start in range(0, len(rows), size)]
    return batches


def sample_batch(datas, loss: str, classdefs, cfgs) -> list:
    """Run one chain per (data, classdef, cfg) in lockstep and return each
    chain's draws, equal bit for bit to ``sample_posterior(data, loss,
    classdef, cfg)``.

    Every chain is a :func:`_chain` on its own sampler stream, writing its
    proposals into its row of one (C, F) array, its padded (depth, width)
    frame, through :func:`frame_slots`.  One :func:`compose_views` of the
    frames at the chains' (in_cols, C, m) inputs and one row-wise risk
    price every row; then only the chains waiting for a price are resumed,
    each with its own, and each runs on to its next priced proposal or to
    its end.  So a batch runs 1 + (the most priced proposals of any of its
    chains) passes.  Each row's floats are those of its own network, so no
    chain depends on its batch-mates.  The chains must share their
    :func:`_batch_key` (depth, activation and distinct input rows), else
    ValueError; each runs its own iters, burn_in and thin.  One chain runs
    :func:`sample_posterior`.  Against that loop, which also prices only
    the proposals that can reach the output, lockstep runs about 1.3x on
    two, 1.8x on four and 2.7x on ten of the sweep benchmark's depth-1
    chains, 1.0x on two and 1.6x on four depth-0 chains (medians of four
    rounds on one core).
    """
    if len(datas) == 1:
        return [sample_posterior(datas[0], loss, classdefs[0], cfgs[0])]
    setups = [_chain_setup(*chain) for chain in zip(datas, classdefs, cfgs)]
    states = [_state_tables(data, loss) for data in datas]
    shared = {_batch_key(classdef, len(points))
              for classdef, (points, _) in zip(classdefs, states)}
    if len(shared) != 1:
        raise ValueError("chains must share depth, activation and distinct input rows")
    ((depth, activation, m),) = shared
    archs, priors, _ = zip(*setups)
    width = max(max(arch.widths) for arch in archs)
    in_cols = max(arch.input_dim for arch in archs)
    frames = np.zeros((len(setups), max_param_count(depth, width)))
    inputs = np.zeros((in_cols, len(setups), m))
    act = ACTIVATIONS[activation]
    chains = []
    for c, (arch, prior, cfg, (points, _)) in enumerate(zip(archs, priors, cfgs, states)):
        inputs[:arch.input_dim, c] = points.T
        chains.append(_chain(cfg, prior, frames[c], frame_slots(arch, depth, width),
                             unit_links(arch), act.at_zero))
    views = frame_views(frames, depth, width, in_cols)
    # (C, m) clip bounds, the outputs' shape: numpy serves it faster than a broadcast.
    clip = np.repeat(np.array([cd.output_clip for cd in classdefs])[:, None], m, axis=1)
    clip_bounds = (-clip, clip)
    risk_fn = _batch_risk([tables for _, tables in states], loss)

    def risks_of():
        return risk_fn(compose_views(views, inputs, act.fn, clip_bounds)).tolist()

    # Every chain first waits for the price of its start network.  Each
    # pass prices all rows, and only the chains waiting for a price are
    # resumed with theirs; each runs on to its next priced proposal or to
    # its end, where it yields its draws.
    replies = [next(steps) for steps in chains]
    waiting = list(range(len(chains)))
    while waiting:
        risks = risks_of()
        for c in waiting:
            replies[c] = chains[c].send(risks[c])
        waiting = [c for c in waiting if replies[c] is True]
    return [PosteriorDraws(arch=arch, prior=prior, output_clip=classdef.output_clip,
                           activation=activation, **draws)
            for draws, arch, prior, classdef in zip(replies, archs, priors, classdefs)]


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
        outs = (compose_views(layer_views(slices, theta), x.T, act_fn, draws.output_clip)
                for theta in thetas)
        return reduce(np.add, outs) / len(thetas)

    return predict
