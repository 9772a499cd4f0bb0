"""Tests for losses, targets, generators and risk evaluation."""

import math

import numpy as np
import pytest

from gibbsnet.gibbs import _per_state_risk
from gibbsnet.markov import simulate, stationary_distribution, two_source_kernel
from gibbsnet.model import (
    Dataset,
    composition_target,
    conditional_excess_logistic,
    excess_risk_mc,
    generate_classification,
    generate_regression,
    holder_target,
    logistic_link_target,
    logistic_loss,
    logistic_target,
    noise_variance,
    rate_exponent,
    rate_exponents,
    state_grid,
    subgaussian_envelope,
    target_values,
)


class TestLosses:
    def test_logistic_loss_values(self):
        assert logistic_loss(0.0, 1.0) == pytest.approx(math.log(2.0))
        assert logistic_loss(50.0, 1.0) == pytest.approx(math.exp(-50.0), rel=1e-6)
        assert np.isfinite(logistic_loss(745.0, 1.0))
        assert logistic_loss(-50.0, 1.0) == pytest.approx(50.0, rel=1e-6)
        assert logistic_loss(1.0, -1.0) == pytest.approx(math.log(1.0 + math.e))

    def test_logistic_margin_symmetry(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(-20, 20, size=500)
        y = rng.choice((-1.0, 1.0), size=500)
        np.testing.assert_allclose(
            logistic_loss(s, y), logistic_loss(-s, -y), atol=1e-15
        )


class TestLogisticTarget:
    def test_symmetric_link(self):
        assert logistic_target(0.5) == 0.0

    def test_inverts_logit(self):
        assert logistic_target(math.e / (1.0 + math.e)) == pytest.approx(1.0)

    def test_endpoint_sentinels(self):
        assert logistic_target(1.0) == math.inf
        assert logistic_target(0.0) == -math.inf

    def test_vectorised(self):
        out = logistic_target(np.array([0.0, 0.5, 1.0]))
        assert out[0] == -math.inf and out[1] == 0.0 and out[2] == math.inf


class TestConditionalExcessLogistic:
    def test_zero_at_target_score(self):
        for eta in (0.1, 0.5, 0.9):
            assert conditional_excess_logistic(eta, logistic_target(eta)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_local_quadratic_upper_bound(self):
        rng = np.random.default_rng(42)
        eta = rng.uniform(0.01, 0.99, size=10_000)
        score = rng.uniform(-10, 10, size=10_000)
        excess = conditional_excess_logistic(eta, score)
        quad = (score - logistic_target(eta)) ** 2 / 8.0
        assert np.all(excess >= -1e-12)
        assert np.all(excess <= quad + 1e-12)


class TestRateExponents:
    def test_single_stage(self):
        beta_star, phi = rate_exponents([2.0], [1.0], 1024.0)
        np.testing.assert_allclose(beta_star, [2.0])
        assert phi == pytest.approx(1024.0 ** (-4.0 / 5.0))
        assert phi == pytest.approx(0.00390625)

    def test_downstream_minimum(self):
        beta_star, _ = rate_exponents([1.0, 2.0], [1.0, 1.0], 100.0)
        np.testing.assert_allclose(beta_star, [1.0, 2.0])

    def test_natural_base(self):
        _, phi = rate_exponents([1.0], [1.0], math.e)
        assert phi == pytest.approx(math.exp(-2.0 / 3.0))

    def test_phi_strictly_decreasing_in_n_eff(self):
        values = [rate_exponents([1.5, 0.8], [2, 1], n)[1] for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rate_exponent_is_slowest_stage(self):
        assert rate_exponent([1.0], [1]) == -2.0 / 3.0
        beta_star, _ = rate_exponents([1.5, 0.8], [2, 1], 100.0)
        stages = -2.0 * beta_star / (2.0 * beta_star + np.array([2.0, 1.0]))
        assert rate_exponent([1.5, 0.8], [2, 1]) == np.max(stages)

    def test_identity_when_downstream_smooth(self):
        beta = [0.7, 1.2, 3.0]
        beta_star, _ = rate_exponents(beta, [1, 1, 1], 50.0)
        np.testing.assert_allclose(beta_star, beta)


class TestTargets:
    def test_holder_values_on_grid(self):
        target = holder_target(beta=1.0, m=4)
        np.testing.assert_allclose(
            target_values(target), np.abs(state_grid(4)[:, 0] - 0.5)
        )

    def test_composition_structure_validated(self):
        with pytest.raises(ValueError):
            composition_target(dims=[1, 2, 1], active_coords=[3, 1], betas=[1.0, 1.0], m=4)

    @pytest.mark.parametrize(
        "dims, active, betas",
        [
            ([1, 1], [1], [-1.0]),
            ([2, 2, 1], [2, 1], [1.0, 0.0]),
            ([2, 1], [3], [1.0]),
            ([2, 1], [0], [1.0]),
            ([0, 1], [0], [1.0]),
            ([2, 1], [1.5], [1.0]),
            ([2, 2, 1], [2, 1], [1.0]),
            ([2, 1], [1, 1], [1.0, 1.0]),
        ],
        ids=["negative-beta", "zero-beta", "t-above-d", "zero-t", "zero-d",
             "fractional-t", "missing-beta", "extra-stage"],
    )
    def test_invalid_stage_rejected(self, dims, active, betas):
        with pytest.raises(ValueError):
            composition_target(dims=dims, active_coords=active, betas=betas, m=4)

    def test_points_must_match_input_dimension(self):
        with pytest.raises(ValueError):
            holder_target(beta=1.0, m=4, dim=1, points=np.zeros((4, 2)))

    @pytest.mark.parametrize("beta, dim, scale", [(0.5, 1, 1.0), (1.0, 2, 1.3), (2.5, 3, 0.7)])
    def test_holder_is_one_stage_composition(self, beta, dim, scale):
        holder = holder_target(beta=beta, m=6, scale=scale, dim=dim)
        stage = composition_target([dim, 1], [dim], [beta], m=6, scale=scale)
        x = np.random.default_rng(0).random((9, dim))
        for points in (None, x):
            assert (target_values(holder, points).tobytes()
                    == target_values(stage, points).tobytes())
        # ... and both are the closed form scale * |mean(x) - 1/2|^beta, bit for bit.
        for points in (holder.points, x):
            closed = scale * np.abs(points.mean(axis=1) - 0.5) ** beta
            assert target_values(holder, points).tobytes() == closed.tobytes()

    def test_composition_evaluates(self):
        target = composition_target(
            dims=[1, 2, 1], active_coords=[1, 2], betas=[1.0, 0.5], m=8, scale=2.0
        )
        x = target.points
        inner = np.abs(x[:, 0] - 0.5)
        expected = 2.0 * np.abs(inner - 0.5) ** 0.5
        np.testing.assert_allclose(target_values(target), expected)


def sampler_risk(predictor, data, loss):
    """The sampler's empirical risk of ``predictor`` on ``data``, computed
    from its per-state sufficient statistics."""
    points, risk_fn = _per_state_risk(data, loss)
    return risk_fn(np.asarray(predictor(points), dtype=float).reshape(-1))


class TestEmpiricalRisk:
    def test_constant_zero_classifier(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        data = generate_classification(logistic_link_target([0.3, 0.7]), kernel, pi, n=50, seed=1)
        risk = sampler_risk(lambda x: np.zeros(len(x)), data, loss="logistic")
        assert risk == pytest.approx(math.log(2.0))

    def test_perfect_noiseless_predictor(self):
        kernel = two_source_kernel(0.5, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        data = generate_regression(target, kernel, pi, n=50, noise=("gaussian", 0.0), seed=3)
        risk = sampler_risk(lambda x: target_values(target, x), data, loss="square")
        # w.h^2 - 2 ybar.h + mean(y^2) cancels to zero only up to rounding.
        assert risk == pytest.approx(0.0, abs=1e-15)

    def test_hand_summed_three_points(self):
        data = Dataset(inputs=np.array([[0.0], [1.0], [2.0]]), outputs=np.array([1.0, 0.0, 4.0]))
        hand = ((0.5 - 1.0) ** 2 + (0.5 - 0.0) ** 2 + (0.5 - 4.0) ** 2) / 3.0
        risk = sampler_risk(lambda x: np.full(len(x), 0.5), data, loss="square")
        assert risk == pytest.approx(hand, abs=1e-15)


class TestExcessRisk:
    def test_zero_at_target(self):
        kernel = two_source_kernel(0.3, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        excess = excess_risk_mc(
            lambda x: target_values(target, x), target, pi, loss="square"
        )
        assert excess == pytest.approx(0.0, abs=1e-15)

    def test_constant_offset_gives_squared_bias(self):
        kernel = two_source_kernel(0.2, states=6)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=6)
        c = 0.37
        excess = excess_risk_mc(
            lambda x: target_values(target, x) + c, target, pi, loss="square"
        )
        assert excess == pytest.approx(c**2, abs=1e-14)

    def test_logistic_matches_enumeration_oracle(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = logistic_link_target([0.5, 0.5])
        score = 1.0
        # Oracle: enumerate the four (state, label) outcomes explicitly.
        oracle = 0.0
        for s in range(2):
            for label in (1.0, -1.0):
                p_label = 0.5 if label > 0 else 0.5
                gap = logistic_loss(score, label) - logistic_loss(0.0, label)
                oracle += pi.weights[s] * p_label * gap
        excess = excess_risk_mc(
            lambda x: np.full(len(x), score), target, pi, loss="logistic"
        )
        assert excess == pytest.approx(oracle, abs=1e-12)

    def test_mc_fallback_agrees_with_exact(self):
        # Monte Carlo oracle: the per-state excess averaged along a long
        # stationary trajectory converges to the exact pi-weighted sum.
        kernel = two_source_kernel(0.4, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        predictor = lambda x: np.zeros(len(x))
        exact = excess_risk_mc(predictor, target, pi, loss="square")
        per_state = (predictor(target.points) - target_values(target)) ** 2
        approx = float(per_state[simulate(kernel, pi, n=200_000, seed=5).states].mean())
        assert approx == pytest.approx(exact, abs=0.01)


class TestGenerators:
    def test_noiseless_outputs_equal_target(self):
        kernel = two_source_kernel(0.3, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        data = generate_regression(target, kernel, pi, n=100, noise=("gaussian", 0.0), seed=0)
        np.testing.assert_allclose(
            data.outputs, target_values(target, data.inputs), atol=1e-15
        )

    def test_noise_is_centered(self):
        kernel = two_source_kernel(0.5, states=2)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        data = generate_regression(
            target, kernel, pi, n=100_000, noise=("gaussian", 1.0), seed=11
        )
        residual = data.outputs - target_values(target, data.inputs)
        assert abs(residual.mean()) < 0.02

    def test_same_seed_identical(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        a = generate_regression(target, kernel, pi, n=200, noise=("uniform", 0.5), seed=9)
        b = generate_regression(target, kernel, pi, n=200, noise=("uniform", 0.5), seed=9)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_classification_all_positive(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        data = generate_classification(logistic_link_target([1.0, 1.0]), kernel, pi, n=500, seed=2)
        assert np.all(data.outputs == 1.0)

    def test_classification_balanced(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        data = generate_classification(logistic_link_target([0.5, 0.5]), kernel, pi, n=100_000, seed=3)
        assert abs(data.outputs.mean()) < 0.02

    def test_classification_per_state_frequencies(self):
        eta = np.array([0.2, 0.9])
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        data = generate_classification(logistic_link_target(eta), kernel, pi, n=100_000, seed=4)
        states = (data.inputs[:, 0] > 0.5).astype(int)
        for s in range(2):
            frac_pos = np.mean(data.outputs[states == s] == 1.0)
            assert frac_pos == pytest.approx(eta[s], abs=0.03)


class TestSubgaussianEnvelope:
    def test_noiseless_reduces_to_target_bound(self):
        assert subgaussian_envelope(1.0, 0.0, 100, 0.05) == 1.0

    def test_hand_value(self):
        want = 1.0 + math.sqrt(2.0 * math.log(2.0 * 100 / 0.05))
        assert subgaussian_envelope(1.0, 1.0, 100, 0.05) == pytest.approx(want)

    def test_monotonicity(self):
        base = subgaussian_envelope(1.0, 1.0, 100, 0.05)
        assert subgaussian_envelope(1.0, 1.0, 1000, 0.05) > base
        assert subgaussian_envelope(1.0, 1.0, 100, 0.01) > base

    def test_coverage_on_gaussian_noise(self):
        # Smaller-scale version of the acceptance check: violation frequency
        # of the envelope stays near delta.
        kernel = two_source_kernel(0.5, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        k_bound = float(np.abs(target_values(target)).max())
        delta, n, reps = 0.05, 100, 500
        env = subgaussian_envelope(k_bound, 1.0, n, delta)
        violations = 0
        for rep in range(reps):
            data = generate_regression(
                target, kernel, pi, n=n, noise=("gaussian", 1.0), seed=1000 + rep
            )
            if np.max(np.abs(data.outputs)) > env:
                violations += 1
        assert violations / reps <= delta + 3.0 * math.sqrt(delta / reps)


class TestNoiseVariance:
    def test_families(self):
        assert noise_variance("gaussian", 2.0) == 4.0
        assert noise_variance("uniform", 3.0) == 3.0
        assert noise_variance("rademacher", 0.5) == 0.25

    def test_uniform_empirical(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        data = generate_regression(
            target, kernel, pi, n=200_000, noise=("uniform", 1.0), seed=21
        )
        residual = data.outputs - target_values(target, data.inputs)
        assert residual.var() == pytest.approx(noise_variance("uniform", 1.0), abs=0.01)
