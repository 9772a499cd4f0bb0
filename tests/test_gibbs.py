"""Tests for the spike-and-slab prior and the reversible-jump sampler."""

import math

import numpy as np
import pytest
from oracle_gibbs import (
    coordinate_marginal,
    enumerate_flat_gibbs,
    enumerate_tiny_gibbs,
    histogram_of_draws,
    support_law,
    tv_between_tables,
)

from gibbsnet.errors import EmptyDataset, InvalidClass, NoDraws, OutOfSupport
from gibbsnet.gibbs import (
    ClassDef,
    GibbsConfig,
    PosteriorDraws,
    Prior,
    log_prior,
    posterior_predictor,
    sample_posterior,
    temperature,
)
from gibbsnet.markov import stationary_distribution, two_source_kernel
from gibbsnet.model import (
    Dataset,
    generate_classification,
    generate_regression,
    holder_target,
    logistic_link_target,
    logistic_loss,
)
from gibbsnet.network import Architecture, SparseNetwork, forward


def empirical_risk(predictor, data, loss):
    """Mean loss of ``predictor`` over the sample, averaged directly over
    the raw observations (independent of the sampler's per-state path)."""
    scores = np.asarray(predictor(data.inputs), dtype=float).reshape(-1)
    if loss == "square":
        return float(np.mean((scores - data.outputs) ** 2))
    return float(np.mean(logistic_loss(scores, data.outputs)))


def tiny_regression_data(n=150, seed=0, slab=1.0):
    """Two-state chain, scalar affine class, mildly misspecified target."""
    kernel = two_source_kernel(0.5)
    pi = stationary_distribution(kernel)
    target = holder_target(beta=1.0, m=2, scale=1.0)
    # Shift the target so the posterior spreads over all three supports.
    base = generate_regression(target, kernel, pi, n=n, noise=("gaussian", 0.3), seed=seed)
    y = base.outputs + 0.3
    return Dataset(inputs=base.inputs, outputs=y), kernel, pi


def tiny_classdef(slab=1.0, sparsity=2):
    return ClassDef(
        depth=0, width=1, sparsity=sparsity, weight_bound=slab, output_clip=5.0
    )


class TestPriorNormalizer:
    def test_hand_values(self):
        assert Prior(3, 3, 2.0, 1.0).normalizer == pytest.approx(0.875)
        assert Prior(2, 2, 3.0, 1.0).normalizer == pytest.approx(4.0 / 9.0)
        # The normaliser sums support sizes up to the cap, not n_coords.
        assert Prior(7, 3, 2.0, 1.0).normalizer == pytest.approx(0.875)

    def test_geometric_limit(self):
        assert Prior(400, 400, 2.0, 1.0).normalizer == pytest.approx(1.0, abs=1e-12)

    def test_of_class_uses_realised_coordinates(self):
        # Depth 1, width 2 on one input: 7 realised coordinates (12 padded).
        classdef = ClassDef(depth=1, width=2, sparsity=9, weight_bound=1.5, output_clip=1.0)
        assert Prior.of_class(classdef, 1, 2.0) == Prior(7, 7, 2.0, 1.5)
        small = ClassDef(depth=1, width=2, sparsity=4, weight_bound=1.5, output_clip=1.0)
        assert Prior.of_class(small, 1, 3.0) == Prior(7, 4, 3.0, 1.5)

    @pytest.mark.parametrize("args", [(2, 2, 1.5, 1.0), (2, 3, 2.0, 1.0), (2, 0, 2.0, 1.0)],
                             ids=["decay-below-2", "cap-above-n-coords", "zero-cap"])
    def test_invalid_rejected(self, args):
        with pytest.raises(ValueError):
            Prior(*args)


class TestLogPrior:
    def test_hand_value(self):
        arch = Architecture(0, (1, 1))
        net = SparseNetwork(
            arch=arch,
            theta=np.array([0.5, 0.0]),
            active=np.array([0]),
            weight_bound=1.0,
            output_clip=1.0,
        )
        assert log_prior(net, Prior(2, 2, 2.0, 1.0)) == pytest.approx(math.log(1.0 / 6.0))

    def test_out_of_slab_rejected(self):
        arch = Architecture(0, (1, 1))
        net = SparseNetwork(
            arch=arch,
            theta=np.array([1.5, 0.0]),
            active=np.array([0]),
            weight_bound=2.0,
            output_clip=1.0,
        )
        with pytest.raises(OutOfSupport):
            log_prior(net, Prior(2, 2, 2.0, 1.0))

    def test_total_mass_is_one(self):
        # Sum over support sizes of (number of supports) x (slab volume) x
        # density must be exactly 1; log_prior depends only on |support|.
        # With cap 2 < 4 coordinates, the sizes 1..2 carry all the mass.
        arch = Architecture(1, (1, 1, 1))  # 4 flat coordinates
        for prior in (Prior(4, 4, 2.0, 1.5), Prior(4, 2, 3.0, 1.5)):
            total = 0.0
            for k in range(1, prior.cap + 1):
                theta = np.zeros(4)
                active = np.arange(k)
                theta[active] = 0.1
                net = SparseNetwork(
                    arch=arch, theta=theta, active=active,
                    weight_bound=prior.slab, output_clip=1.0,
                )
                density = math.exp(log_prior(net, prior))
                total += math.comb(4, k) * density * (2.0 * prior.slab) ** k
            assert total == pytest.approx(1.0, abs=1e-12)
            net = SparseNetwork(arch=arch, theta=np.full(4, 0.1), active=np.arange(4),
                                weight_bound=prior.slab, output_clip=1.0)
            if prior.cap < 4:
                with pytest.raises(OutOfSupport):
                    log_prior(net, prior)


class TestTemperature:
    def test_hand_value(self):
        assert temperature(1000, 0.5, 1.0) == pytest.approx(500.0 / 42.0)

    def test_degenerate_gap(self):
        assert temperature(1000, 0.0, 1.0) == 0.0

    def test_linear_in_n(self):
        assert temperature(2000, 0.5, 1.0) == pytest.approx(2 * temperature(1000, 0.5, 1.0))


class TestSamplerBasics:
    def test_empty_data_rejected(self):
        data = Dataset(inputs=np.zeros((0, 1)), outputs=np.zeros(0))
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
            iters=100, burn_in=10,
        )
        with pytest.raises(EmptyDataset):
            sample_posterior(data, "square", tiny_classdef(), cfg)

    def test_invalid_class_rejected(self):
        with pytest.raises(InvalidClass):
            ClassDef(depth=0, width=1, sparsity=0, weight_bound=1.0, output_clip=1.0)
        with pytest.raises(InvalidClass):
            ClassDef(depth=0, width=1, sparsity=3, weight_bound=1.0, output_clip=1.0)

    def test_same_seed_identical_draws(self):
        data, _, _ = tiny_regression_data()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=3.0,
            iters=2000, burn_in=500, seed=7,
        )
        a = sample_posterior(data, "square", tiny_classdef(), cfg)
        b = sample_posterior(data, "square", tiny_classdef(), cfg)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.actives, b.actives)
        np.testing.assert_array_equal(a.log_scores, b.log_scores)

    def test_hard_class_constraints_never_violated(self):
        data, _, _ = tiny_regression_data(seed=3)
        classdef = ClassDef(
            depth=1, width=3, sparsity=5, weight_bound=0.8, output_clip=5.0
        )
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=0.8, output_clip=5.0, temperature=20.0,
            iters=4000, burn_in=500, seed=1,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        assert np.all(draws.support_sizes >= 1)
        assert np.all(draws.support_sizes <= 5)
        assert np.max(np.abs(draws.thetas)) <= 0.8 + 1e-12
        assert np.all(draws.thetas[~draws.actives] == 0.0)
        for i in range(0, len(draws), 200):
            draws.network(i)  # constructor re-checks the invariants

    @pytest.mark.parametrize("loss, activation", [("square", "relu"), ("logistic", "sigmoid")])
    def test_log_scores_match_public_forward(self, loss, activation):
        # The sampler scores networks through its own per-state risk; each
        # retained score must equal -lambda times the empirical risk of the
        # public forward pass (clip included) of the retained network.
        kernel = two_source_kernel(0.3, states=4)
        pi = stationary_distribution(kernel)
        if loss == "square":
            data = generate_regression(
                holder_target(beta=1.0, m=4), kernel, pi, n=200,
                noise=("gaussian", 0.3), seed=4,
            )
        else:
            data = generate_classification(
                logistic_link_target([0.1, 0.4, 0.7, 0.9]), kernel, pi, n=200, seed=4
            )
        classdef = ClassDef(depth=1, width=3, sparsity=8, weight_bound=2.0,
                            output_clip=0.4, activation=activation)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=2.0, output_clip=0.4, temperature=5.0,
            iters=3000, burn_in=1000, thin=50, seed=6,
        )
        draws = sample_posterior(data, loss, classdef, cfg)
        for i in range(len(draws)):
            net = draws.network(i)
            risk = empirical_risk(lambda x: forward(net, x, activation=activation), data, loss)
            assert draws.log_scores[i] == pytest.approx(-5.0 * risk, abs=1e-12)

    def test_jsonl_round_trip_line(self):
        data, _, _ = tiny_regression_data()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
            iters=200, burn_in=100, seed=2,
        )
        draws = sample_posterior(data, "square", tiny_classdef(), cfg)
        lines = draws.to_jsonl().strip().splitlines()
        assert len(lines) == len(draws)
        import json

        doc = json.loads(lines[-1])
        assert "log_score" in doc
        restored = SparseNetwork.from_json(json.dumps({k: v for k, v in doc.items() if k != "log_score"}))
        np.testing.assert_allclose(restored.theta, draws.thetas[-1])


class TestPriorSampling:
    def test_support_size_law_at_zero_temperature(self):
        # With temperature 0 the chain samples the prior: support sizes
        # follow the geometrically decaying law.
        data = Dataset(inputs=np.array([[0.25], [0.75]]), outputs=np.array([0.0, 0.0]))
        classdef = ClassDef(depth=1, width=1, sparsity=4, weight_bound=1.0, output_clip=5.0)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=0.0,
            iters=41_000, burn_in=1_000, thin=4, seed=11,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        assert len(draws) == 10_000
        sizes = draws.support_sizes
        want = np.array([2.0 ** (-k) / draws.prior.normalizer for k in range(1, 5)])
        got = np.array([(sizes == k).mean() for k in range(1, 5)])
        assert 0.5 * np.abs(want - got).sum() <= 0.05

    def test_support_size_law_where_realised_and_padded_counts_differ(self):
        # Depth 1, width 2 on one input has 7 realised coordinates but 12
        # padded ones; at temperature 0 the support sizes must follow the
        # sampler's Prior (s^-k / Z on 1..cap), not a prior over the frame.
        data = Dataset(inputs=np.array([[0.25], [0.75]]), outputs=np.array([0.0, 0.0]))
        classdef = ClassDef(depth=1, width=2, sparsity=4, weight_bound=1.0, output_clip=5.0)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=0.0,
            iters=82_000, burn_in=2_000, thin=4, seed=29,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        prior = draws.prior
        assert prior == Prior(7, 4, 2.0, 1.0)
        want = np.array([
            math.comb(7, k) * math.exp(prior.log_density(k)) * (2.0 * prior.slab) ** k
            for k in range(1, 5)
        ])
        got = np.array([(draws.support_sizes == k).mean() for k in range(1, 5)])
        assert 0.5 * np.abs(want - got).sum() <= 0.02

    def test_monotone_temperature_effect_on_fit(self):
        data, _, _ = tiny_regression_data(seed=5)
        classdef = tiny_classdef()
        risks = {}
        for label, lam in (("prior", 0.0), ("cold", 10.0 * len(data))):
            cfg = GibbsConfig(
                support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=lam,
                iters=6000, burn_in=1000, thin=5, seed=13,
            )
            draws = sample_posterior(data, "square", classdef, cfg)
            values = [
                empirical_risk(
                    lambda x, net=draws.network(i): forward(net, x), data, "square"
                )
                for i in range(0, len(draws), 10)
            ]
            risks[label] = float(np.median(values))
        assert risks["cold"] <= risks["prior"]


class TestSamplerVsOracle:
    def test_tiny_class_tv_small(self):
        # Smaller-scale version of the acceptance gate: 4e4 draws, looser
        # tolerance.  The oracle enumerates the discretised law exactly.
        data, kernel, pi = tiny_regression_data(n=150, seed=9)
        lam = temperature(len(data), 1.0, 1.0)
        classdef = tiny_classdef()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=lam,
            iters=45_000, burn_in=5_000, seed=17,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        oracle = enumerate_tiny_gibbs(
            data.inputs[:, 0], data.outputs, slab=1.0, clip=5.0, decay=2.0, lam=lam
        )
        hist = histogram_of_draws(draws)
        assert tv_between_tables(oracle, hist) <= 0.10

    @pytest.mark.parametrize("width, iters, seed", [(1, 150_000, 61), (2, 160_000, 62)])
    def test_depth_one_relu_matches_flat_oracle(self, width, iters, seed):
        # Depth 1, cap 3: every support of size 1..3 over the 4 (width 1)
        # or 7 (width 2) realised coordinates, enumerated on 12 bins per
        # active coordinate with the oracle's own forward pass.  At
        # temperature 80 the posterior is far from the prior: a 30% error
        # in the temperature moves the oracle's support law by TV >= 0.13.
        x = np.tile(np.linspace(0.0, 1.0, 5), 8)
        y = 1.6 * np.abs(x - 0.5) - 0.2 + 0.2 * np.random.default_rng(7).standard_normal(40)
        data = Dataset(inputs=x[:, None], outputs=y)
        classdef = ClassDef(depth=1, width=width, sparsity=3, weight_bound=1.0, output_clip=2.0)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=2.0, temperature=80.0,
            move_probs=(0.3, 0.3, 0.4), step=0.5, iters=iters, burn_in=5_000, thin=5,
            seed=seed,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        oracle = enumerate_flat_gibbs(
            x, y, (1, width, 1), slab=1.0, clip=2.0, decay=2.0, cap=3, lam=80.0, bins=12
        )
        hist = histogram_of_draws(draws, bins=12)
        assert tv_between_tables(support_law(oracle), support_law(hist)) <= 0.06
        for j in range(draws.prior.n_coords):
            tv = tv_between_tables(coordinate_marginal(oracle, j), coordinate_marginal(hist, j))
            assert tv <= 0.10, f"coordinate {j}"

    def test_detailed_balance_on_lumped_states(self):
        # Flows between lumped states (support, sign pattern) of a
        # reversible chain must balance within Monte Carlo error.
        data, _, _ = tiny_regression_data(n=80, seed=21)
        classdef = tiny_classdef()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=2.0,
            iters=60_000, burn_in=2_000, seed=23,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        keys = []
        for i in range(len(draws)):
            active = np.flatnonzero(draws.actives[i])
            signs = tuple(int(np.sign(draws.thetas[i, a])) for a in active)
            keys.append((tuple(int(a) for a in active), signs))
        flows = {}
        for a, b in zip(keys, keys[1:]):
            if a != b:
                flows[(a, b)] = flows.get((a, b), 0) + 1
        pairs = {}
        for (a, b), count in flows.items():
            key = (a, b) if a <= b else (b, a)
            fwd = flows.get(key, 0)
            bwd = flows.get((key[1], key[0]), 0)
            pairs[key] = (fwd, bwd)
        top = sorted(pairs.items(), key=lambda kv: -(kv[1][0] + kv[1][1]))[:20]
        for _, (fwd, bwd) in top:
            total = fwd + bwd
            assert abs(fwd - bwd) <= 5.0 * math.sqrt(total) + 10.0


class TestPosteriorPredictor:
    def build_constant_draws(self, values):
        arch = Architecture(0, (1, 1))
        thetas = np.array([[0.0, v] for v in values])
        actives = np.tile(np.array([False, True]), (len(values), 1))
        return PosteriorDraws(
            arch=arch,
            prior=Prior(2, 2, 2.0, 5.0),
            output_clip=10.0,
            activation="relu",
            thetas=thetas,
            actives=actives,
            log_scores=np.zeros(len(values)),
        )

    def test_single_draw_is_last_network(self):
        draws = self.build_constant_draws([0.5, -1.0, 2.0])
        predictor = posterior_predictor(draws, mode="single_draw")
        np.testing.assert_allclose(predictor(np.array([[0.3]])), [2.0])

    def test_average_of_identical_draws(self):
        draws = self.build_constant_draws([1.5, 1.5, 1.5])
        predictor = posterior_predictor(draws, mode="average")
        np.testing.assert_allclose(predictor(np.array([[0.1]])), [1.5])

    def test_average_of_two_constants(self):
        draws = self.build_constant_draws([1.0, 3.0])
        predictor = posterior_predictor(draws, mode="average")
        np.testing.assert_allclose(predictor(np.array([[0.9]])), [2.0])

    def test_no_draws_rejected(self):
        arch = Architecture(0, (1, 1))
        empty = PosteriorDraws(
            arch=arch, prior=Prior(2, 2, 2.0, 1.0), output_clip=1.0, activation="relu",
            thetas=np.zeros((0, 2)), actives=np.zeros((0, 2), dtype=bool),
            log_scores=np.zeros(0),
        )
        with pytest.raises(NoDraws):
            posterior_predictor(empty)
