"""Pins the lockstep engine to the one-chain sampler: every chain of a
batch, bit for bit, equals its own one-chain engine run,
``sample_posterior`` and the draw-contract replay."""

from dataclasses import replace

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
    # Row-major, as the draws are read: one network per row.
    assert draws.thetas.flags.c_contiguous
    assert np.array_equal(draws.thetas, thetas)
    assert np.array_equal(draws.actives, actives)
    assert np.array_equal(draws.log_scores, log_scores)
    moves = sorted(rates)
    assert sorted(draws.acceptance_rates) == moves
    assert np.array_equal([draws.acceptance_rates[m] for m in moves], [rates[m] for m in moves])


SHAPES = [("square", "relu", 1), ("logistic", "sigmoid", 1), ("square", "sigmoid", 0),
          ("logistic", "relu", 2)]


@pytest.mark.parametrize(
    "loss, activation, depth, chains",
    [pytest.param(*shape, CHAINS, id="-".join(map(str, shape))) for shape in SHAPES]
    + [pytest.param(*shape, chains, id="-".join(map(str, shape)) + f"-{chains}chains")
       for shape in SHAPES for chains in (2, 3, 4)],
)
def test_every_chain_equals_its_one_chain_runs(loss, activation, depth, chains):
    cases = [chain_case(c, loss, activation, depth) for c in range(chains)]
    datas, classdefs, cfgs = zip(*cases)
    batch = sample_batch(datas, loss, classdefs, cfgs)
    assert len(batch) == chains
    for draws, (data, classdef, cfg) in zip(batch, cases):
        (alone,) = sample_batch([data], loss, [classdef], [cfg])
        scalar = sample_posterior(data, loss, classdef, cfg)
        for other in (alone, scalar):
            assert_same_chain(draws, other.thetas, other.actives, other.log_scores,
                              other.acceptance_rates)
        assert_same_chain(draws, *replay_sampler(data, loss, classdef, cfg))
        assert draws.arch == scalar.arch and draws.prior == scalar.prior


def test_batch_without_feasible_moves(monkeypatch):
    # Jumps only, at a sparsity cap of 1: no add or remove is ever feasible,
    # so every chain keeps its start and the batch prices no proposal.
    cases = []
    for c in range(3):
        data, classdef, cfg = chain_case(c, "square", "relu", 1)
        cases.append((data, replace(classdef, sparsity=1),
                      replace(cfg, move_probs=(0.5, 0.5, 0.0))))
    datas, classdefs, cfgs = zip(*cases)
    passes = []
    compose_views = gibbs.compose_views

    def counted(*args):
        passes.append(args)
        return compose_views(*args)

    monkeypatch.setattr(gibbs, "compose_views", counted)
    batch = sample_batch(datas, "square", classdefs, cfgs)
    assert len(passes) == 1  # the start risks
    for draws, (data, classdef, cfg) in zip(batch, cases):
        assert (draws.support_sizes == 1).all() and (draws.thetas == 0.0).all()
        scalar = sample_posterior(data, "square", classdef, cfg)
        assert_same_chain(draws, scalar.thetas, scalar.actives, scalar.log_scores,
                          scalar.acceptance_rates)
        assert_same_chain(draws, *replay_sampler(data, "square", classdef, cfg))


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
    # iters is no part of the key: chains of 300 to 899 iterations, each with
    # its own burn_in and thin, share a batch and each equals its own run.
    cases = []
    for c, (iters, burn_in, thin) in enumerate([(300, 0, 1), (899, 400, 7), (601, 600, 1),
                                                (450, 50, 13)]):
        data, classdef, cfg = chain_case(c, "square", "relu", 1)
        cases.append((data, classdef, replace(cfg, iters=iters, burn_in=burn_in, thin=thin)))
    datas, classdefs, cfgs = zip(*cases)
    for draws, (data, classdef, cfg) in zip(sample_batch(datas, "square", classdefs, cfgs),
                                            cases):
        scalar = sample_posterior(data, "square", classdef, cfg)
        assert_same_chain(draws, scalar.thetas, scalar.actives, scalar.log_scores,
                          scalar.acceptance_rates)


def test_batch_chains_keep_their_own_draws():
    # One iters, but each chain its own burn_in and thin: every chain keeps
    # the draws its own keep rule names, however many its batch-mates keep.
    cases = []
    for c, (burn_in, thin) in enumerate([(0, 1), (100, 3), (599, 1), (250, 60), (7, 13)]):
        data, classdef, cfg = chain_case(c, "square", "relu", 1)
        cases.append((data, classdef, replace(cfg, burn_in=burn_in, thin=thin)))
    datas, classdefs, cfgs = zip(*cases)
    batch = sample_batch(datas, "square", classdefs, cfgs)
    assert [len(draws) for draws in batch] == [600, 167, 1, 6, 46]
    for draws, (data, classdef, cfg) in zip(batch, cases):
        assert_same_chain(draws, *replay_sampler(data, "square", classdef, cfg))


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


def test_wide_frame_batch_matches_replay():
    # Both wide chains as one batch: 127 * 128 = 16 256 frame slots a chain,
    # supports past 30 on one, every add infeasible at cap 1 on the other.
    cases = [wide_case(128), wide_case(1)]
    datas, classdefs, cfgs = zip(*cases)
    batch = sample_batch(datas, "square", classdefs, cfgs)
    assert batch[0].support_sizes.max() > 30 and batch[1].support_sizes.max() == 1
    for draws, (data, classdef, cfg) in zip(batch, cases):
        assert_same_chain(draws, *replay_sampler(data, "square", classdef, cfg))
