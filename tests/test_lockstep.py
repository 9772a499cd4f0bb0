"""Pins the lockstep engine to the one-chain sampler: every chain of a
batch, bit for bit, equals its own one-chain engine run,
``sample_posterior`` and the draw-contract replay."""

import numpy as np
import pytest
from oracle_gibbs import ConstantStream, replay_sampler

from gibbsnet import gibbs
from gibbsnet.gibbs import ClassDef, GibbsConfig, sample_batch, sample_posterior
from gibbsnet.model import Dataset
from gibbsnet.network import Architecture, max_param_count, param_count

CHAINS = 50
# Per chain, cycled: (add, remove, perturb) probabilities, two of them with
# the jumps disabled.
MOVE_PROBS = [(0.3, 0.3, 0.4), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
# Four distinct state points in two coordinates; a chain on one input reads
# the first, so every chain sees m = 4 distinct input rows.
POINTS = np.array([[-1.0, 0.5], [-0.3, -0.8], [0.4, 0.9], [1.0, -0.2]])


def chain_case(c, loss, activation, depth):
    """(data, classdef, cfg) of chain c: its own input dimension, width,
    sparsity cap (the realised coordinate count on every fifth chain, and
    large elsewhere, so that sums run over many nonzero terms), move
    probabilities, temperature, step and seed."""
    rng = np.random.default_rng(1000 + c)
    in_dim, width = 1 + c % 2, 1 + c % 4
    n = 40 + 7 * c
    states = np.concatenate([np.arange(4), rng.integers(0, 4, size=n - 4)])
    inputs = POINTS[states, :in_dim]
    if loss == "square":
        outputs = np.sin(2.0 * inputs[:, 0]) + rng.normal(0.0, 0.3, size=n)
    else:
        outputs = np.where(rng.random(n) < 0.3 + 0.1 * states, 1.0, -1.0)
    widths = (in_dim,) + (width,) * depth + (1,)
    n_coords = param_count(Architecture(depth, widths))
    sparsity = min(max(1, n_coords - c % 5), max_param_count(depth, width))
    classdef = ClassDef(depth=depth, width=width, sparsity=sparsity, weight_bound=1.5,
                        output_clip=1.2, activation=activation)
    cfg = GibbsConfig(support_decay=2.0 + 0.5 * (c % 3), weight_bound=1.5, output_clip=1.2,
                      temperature=2.0 + 3.0 * c, move_probs=MOVE_PROBS[c % 4],
                      step=0.1 + 0.01 * c, iters=600, burn_in=100, thin=3, seed=c)
    return Dataset(inputs=inputs, outputs=outputs), classdef, cfg


def assert_same_chain(draws, thetas, actives, log_scores, rates):
    assert np.array_equal(draws.thetas, thetas)
    assert np.array_equal(draws.actives, actives)
    assert np.array_equal(draws.log_scores, log_scores)
    moves = sorted(rates)
    assert sorted(draws.acceptance_rates) == moves
    assert np.array_equal([draws.acceptance_rates[m] for m in moves], [rates[m] for m in moves])


@pytest.mark.parametrize(
    "loss, activation, depth",
    [("square", "relu", 1), ("logistic", "sigmoid", 1), ("square", "sigmoid", 0),
     ("logistic", "relu", 2)],
)
def test_every_chain_equals_its_one_chain_runs(loss, activation, depth):
    cases = [chain_case(c, loss, activation, depth) for c in range(CHAINS)]
    datas, classdefs, cfgs = zip(*cases)
    batch = sample_batch(datas, loss, classdefs, cfgs)
    assert len(batch) == CHAINS
    for draws, (data, classdef, cfg) in zip(batch, cases):
        (alone,) = sample_batch([data], loss, [classdef], [cfg])
        scalar = sample_posterior(data, loss, classdef, cfg)
        for other in (alone, scalar):
            assert_same_chain(draws, other.thetas, other.actives, other.log_scores,
                              other.acceptance_rates)
        assert_same_chain(draws, *replay_sampler(data, loss, classdef, cfg))
        assert draws.arch == scalar.arch and draws.prior == scalar.prior


@pytest.mark.parametrize("value", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "below-one"])
def test_edge_uniforms_match_sample_posterior(monkeypatch, value):
    # Every uniform at an edge of [0, 1): the first pool coordinate, the
    # slab's ends, and accept uniforms at or just below a bar of 1.
    monkeypatch.setattr(gibbs, "stream", lambda seed, purpose: ConstantStream(value))
    cases = [chain_case(c, "square", "relu", 1) for c in range(8)]
    datas, classdefs, cfgs = zip(*cases)
    for draws, case in zip(sample_batch(datas, "square", classdefs, cfgs), cases):
        scalar = sample_posterior(case[0], "square", *case[1:])
        assert_same_chain(draws, scalar.thetas, scalar.actives, scalar.log_scores,
                          scalar.acceptance_rates)


def test_batch_needs_one_depth_and_state_count():
    (data, classdef, cfg), (other_data, other_classdef, other_cfg) = (
        chain_case(0, "square", "relu", 1), chain_case(1, "square", "relu", 0))
    with pytest.raises(ValueError, match="share depth"):
        sample_batch([data, other_data], "square", [classdef, other_classdef], [cfg, other_cfg])
    fewer = Dataset(inputs=data.inputs[:3], outputs=data.outputs[:3])
    with pytest.raises(ValueError, match="share depth"):
        sample_batch([data, fewer], "square", [classdef, classdef], [cfg, cfg])


def wide_case(cap):
    """(data, classdef, cfg) of a depth-0 chain over 127 inputs, so 128
    flat coordinates, whose outputs (about 30, with inputs in [0.5, 1] and
    a slab of 1) need dozens of active weights; adds make up 70% of the
    proposals."""
    rng = np.random.default_rng(77)
    in_dim, n = 127, 60
    points = rng.uniform(0.5, 1.0, size=(4, in_dim))
    inputs = points[np.concatenate([np.arange(4), rng.integers(0, 4, size=n - 4)])]
    outputs = 30.0 + rng.normal(0.0, 0.3, size=n)
    classdef = ClassDef(depth=0, width=11, sparsity=cap, weight_bound=1.0, output_clip=100.0)
    cfg = GibbsConfig(support_decay=2.0, weight_bound=1.0, output_clip=100.0, temperature=5.0,
                      move_probs=(0.7, 0.1, 0.2), step=0.2, iters=1500, burn_in=0, thin=1,
                      seed=41)
    return Dataset(inputs=inputs, outputs=outputs), classdef, cfg


@pytest.mark.parametrize("cap", [128, 1], ids=["cap-n_coords", "cap-1"])
def test_wide_flat_layout_matches_replay(cap):
    # The one-chain loop finds the k-th inactive coordinate from its sorted
    # active list; here the support grows well past the list's first few
    # entries, so a lookup off by one picks a wrong (or an active) one.
    data, classdef, cfg = wide_case(cap)
    draws = sample_posterior(data, "square", classdef, cfg)
    assert draws.prior.n_coords == 128 and draws.prior.cap == cap
    assert draws.support_sizes.max() > 30 if cap > 1 else draws.support_sizes.max() == 1
    assert_same_chain(draws, *replay_sampler(data, "square", classdef, cfg))
