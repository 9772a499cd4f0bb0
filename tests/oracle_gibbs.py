"""Brute-force oracles for the tempered posterior on small flat classes.

Each discretises the active coordinates onto an equal-width bin grid over
the slab and enumerates every (support, cell) outcome of the spike-and-slab
mixture reweighted by exp(-lambda * empirical risk) at the cell centre.
Risks are recomputed here by direct averaging over the raw sample, with the
network evaluated by a layer loop written out from the documented flat
layout, independently of the sampler's sufficient-statistics path and of
``gibbsnet.network``.  ``enumerate_tiny_gibbs`` covers the scalar-affine
class h(x) = clip(w*x + b); ``enumerate_flat_gibbs`` any class of up to 7
coordinates.  ``replay_sampler`` is the one-chain reference for the
sampler's draw contract, ``RecordingStream`` records what a run reads and
``ConstantStream`` feeds it one uniform throughout.
"""

import itertools
import math

import numpy as np

from gibbsnet.gibbs import Prior, _per_state_risk, _reflect
from gibbsnet.markov import stream
from gibbsnet.network import ACTIVATIONS, compose_views, layer_slices, layer_views


def grid_centers(bound: float, bins: int):
    edges = np.linspace(-bound, bound, bins + 1)
    return 0.5 * (edges[:-1] + edges[1:]), edges


def bin_of(value: float, bound: float, bins: int) -> int:
    idx = int(np.floor((value + bound) / (2.0 * bound) * bins))
    return min(max(idx, 0), bins - 1)


def enumerate_tiny_gibbs(x, y, slab, clip, decay, lam, bins=41):
    """Probability table {(support, cells): mass} for the discretised law.

    Supports are (0,), (1,), (0, 1) with coordinate 0 the scalar weight and
    coordinate 1 the bias, matching the flat layout of a depth-0 network.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    centers, _ = grid_centers(slab, bins)

    def risk_w(w):
        pred = np.clip(np.outer(w, x), -clip, clip)
        return np.mean((pred - y) ** 2, axis=1)

    def risk_b(b):
        pred = np.clip(b[:, None] + np.zeros_like(x), -clip, clip)
        return np.mean((pred - y) ** 2, axis=1)

    def risk_wb(w, b):
        pred = np.clip(w[:, None, None] * x + b[None, :, None], -clip, clip)
        return np.mean((pred - y) ** 2, axis=2)

    cell_frac = 1.0 / bins
    table = {}
    weight_one = decay ** (-1.0) / 2.0  # two singleton supports share s^-1
    for support, risks in (((0,), risk_w(centers)), ((1,), risk_b(centers))):
        mass = weight_one * cell_frac * np.exp(-lam * risks)
        for i, m in enumerate(mass):
            table[(support, (i,))] = m
    pair_mass = (
        decay ** (-2.0) * cell_frac**2 * np.exp(-lam * risk_wb(centers, centers))
    )
    for i in range(bins):
        for j in range(bins):
            table[((0, 1), (i, j))] = pair_mass[i, j]
    total = sum(table.values())
    return {key: val / total for key, val in table.items()}


def histogram_of_draws(draws, bins=41):
    """Empirical {(support, cells): frequency} table of sampler draws."""
    slab = draws.weight_bound
    table = {}
    count = len(draws)
    for i in range(count):
        active = np.flatnonzero(draws.actives[i])
        support = tuple(int(a) for a in active)
        cells = tuple(bin_of(draws.thetas[i, a], slab, bins) for a in active)
        key = (support, cells)
        table[key] = table.get(key, 0.0) + 1.0 / count
    return table


def tv_between_tables(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def direct_outputs(thetas, widths, x, clip):
    """Clipped scalar ReLU-network outputs, shape (len(thetas), len(x)), of
    each flat parameter row of ``thetas`` at each input row of ``x``.

    Each layer's weight matrix is stored column by column, then its bias;
    the loop below reads entry (r, c) at offset + c * rows + r.
    """
    a = [x[None, :, c] for c in range(widths[0])]  # one (1, n) array per unit
    offset = 0
    for layer in range(1, len(widths)):
        rows, cols = widths[layer], widths[layer - 1]
        out = []
        for r in range(rows):
            total = thetas[:, offset + rows * cols + r][:, None]
            for c in range(cols):
                total = total + thetas[:, offset + c * rows + r][:, None] * a[c]
            out.append(total if layer == len(widths) - 1 else np.maximum(total, 0.0))
        a = out
        offset += rows * cols + rows
    return np.clip(a[0], -clip, clip)


def enumerate_flat_gibbs(x, y, widths, slab, clip, decay, cap, lam, bins):
    """Probability table {(support, cells): mass} of the discretised
    tempered posterior on the ReLU class with layer widths ``widths`` (one
    output): every support of size k in 1..cap over its n_coords flat
    coordinates has prior mass decay^-k / C(n_coords, k), up to
    normalisation, and each active coordinate one of ``bins`` cells of
    [-slab, slab]."""
    x = np.asarray(x, dtype=float).reshape(len(y), widths[0])
    y = np.asarray(y, dtype=float).reshape(-1)
    n_coords = sum(widths[l] * (widths[l - 1] + 1) for l in range(1, len(widths)))
    if n_coords > 7:
        raise ValueError("the enumeration is sized for at most 7 coordinates")
    centers, _ = grid_centers(slab, bins)
    chunk = 4096  # grid cells per forward pass, to bound memory
    table = {}
    for k in range(1, cap + 1):
        log_weight = -k * math.log(decay) - math.log(math.comb(n_coords, k)) - k * math.log(bins)
        cells = np.array(list(itertools.product(range(bins), repeat=k)))
        for support in itertools.combinations(range(n_coords), k):
            thetas = np.zeros((len(cells), n_coords))
            thetas[:, support] = centers[cells]
            risks = np.concatenate([
                np.mean((direct_outputs(thetas[i:i + chunk], widths, x, clip) - y) ** 2, axis=1)
                for i in range(0, len(cells), chunk)
            ])
            mass = np.exp(log_weight - lam * risks)
            for cell, m in zip(map(tuple, cells.tolist()), mass):
                table[(support, cell)] = m
    total = sum(table.values())
    return {key: val / total for key, val in table.items()}


def support_law(table):
    """{support: mass} marginal of a (support, cells) table."""
    law = {}
    for (support, _), mass in table.items():
        law[support] = law.get(support, 0.0) + mass
    return law


def coordinate_marginal(table, j):
    """{bin of coordinate j, or None when it is inactive: mass} marginal of
    a (support, cells) table."""
    law = {}
    for (support, cells), mass in table.items():
        key = cells[support.index(j)] if j in support else None
        law[key] = law.get(key, 0.0) + mass
    return law


class ConstantStream:
    """A stand-in for ``gibbsnet.markov.stream`` whose every uniform is
    ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class RecordingStream:
    """Wraps a generator of ``gibbsnet.markov.stream`` and keeps every block
    of uniforms it hands out, flattened, in ``blocks``."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def random(self, shape=None):
        out = self.rng.random(shape)
        self.blocks.append(np.ravel(out))
        return out


def replay_sampler(data, loss, classdef, cfg):
    """(thetas, actives, log_scores, acceptance_rates) of the chain that
    ``sample_posterior(data, loss, classdef, cfg)`` runs, replayed from its
    documented draw contract: the seed's sampler stream read as one start
    uniform, then an (iters, 4) block with one (move, index, value, accept)
    row per step, used whatever the move and whether it is feasible.

    The risk is the sampler's own per-state risk, so every float of the
    replay, and so every accept decision, is bit-identical to the sampler's.
    """
    arch = classdef.architecture(data.inputs.shape[1])
    prior = Prior.of_class(classdef, arch.input_dim, cfg.support_decay)
    slices, act_fn = layer_slices(arch), ACTIVATIONS[classdef.activation].fn
    points, risk_fn = _per_state_risk(data, loss)

    def risk_of(theta):
        return risk_fn(compose_views(layer_views(slices, theta), points.T, act_fn,
                                     classdef.output_clip))

    rng = stream(cfg.seed, "sampler")
    start = rng.random()
    block = rng.random((cfg.iters, 4))

    n, slab, lam = prior.n_coords, prior.slab, cfg.temperature
    p_add, p_remove, _ = cfg.move_probs
    jumps = p_add > 0 and p_remove > 0
    # The binomial and slab factors of a jump cancel against its proposal,
    # leaving the move-probability ratio and one power of the decay.
    log_ratio = {"perturb": 0.0, "add": 0.0, "remove": 0.0}
    if jumps:
        log_ratio["add"] = math.log(p_remove / p_add) - math.log(prior.decay)
        log_ratio["remove"] = math.log(p_add / p_remove) + math.log(prior.decay)

    theta, active = np.zeros(n), np.zeros(n, dtype=bool)
    active[int(start * n)] = True
    risk = risk_of(theta)
    proposed = dict.fromkeys(log_ratio, 0)
    accepted = dict.fromkeys(log_ratio, 0)
    thetas, actives, log_scores = [], [], []
    for it in range(cfg.iters):
        u_move, u_index, u_value, u_accept = (float(u) for u in block[it])
        if u_move < p_add:
            move, pool = "add", np.flatnonzero(~active)
            feasible = jumps and active.sum() < prior.cap
        elif u_move < p_add + p_remove:
            move, pool = "remove", np.flatnonzero(active)
            feasible = jumps and active.sum() > 1
        else:
            move, pool, feasible = "perturb", np.flatnonzero(active), True
        proposed[move] += 1
        if feasible:
            j = int(pool[int(u_index * pool.size)])
            proposal = theta.copy()
            if move == "add":
                proposal[j] = slab * (2.0 * u_value - 1.0)
            elif move == "remove":
                proposal[j] = 0.0
            else:
                proposal[j] = _reflect(theta[j] + cfg.step * (2.0 * u_value - 1.0), slab)
            new_risk = risk_of(proposal)
            if u_accept < math.exp(min(0.0, -lam * (new_risk - risk) + log_ratio[move])):
                theta, risk = proposal, new_risk
                active[j] = move != "remove"
                accepted[move] += 1
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            thetas.append(theta.copy())
            actives.append(active.copy())
            log_scores.append(-lam * risk)
    rates = {m: accepted[m] / proposed[m] if proposed[m] else 0.0 for m in proposed}
    return np.array(thetas), np.array(actives), np.array(log_scores), rates
