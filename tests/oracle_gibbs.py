"""Brute-force oracles for the tempered posterior on small flat classes.

Each discretises the active coordinates onto an equal-width bin grid over
the slab and enumerates every (support, cell) outcome of the spike-and-slab
mixture reweighted by exp(-lambda * empirical risk) at the cell centre.
Risks are recomputed here by direct averaging over the raw sample, with the
network evaluated by a layer loop written out from the documented flat
layout, independently of the sampler's sufficient-statistics path and of
``gibbsnet.network``.  ``enumerate_tiny_gibbs`` covers the scalar-affine
class h(x) = clip(w*x + b); ``enumerate_flat_gibbs`` any class of up to 7
coordinates.
"""

import itertools
import math

import numpy as np


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
