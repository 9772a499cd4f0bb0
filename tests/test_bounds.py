"""Tests for the bound evaluators and their Monte Carlo checkers."""

import math

import numpy as np
import pytest

from gibbsnet.bounds import (
    BoundReport,
    bernstein_mgf_rhs,
    chain_mgf_rhs,
    composition_rate_rhs,
    exact_bernstein_constant,
    kl_numeric_check,
    kl_truncated_uniform_rhs,
    mc_check_bernstein,
    mc_check_chain_mgf,
    oracle_rhs,
)
from gibbsnet.errors import LambdaOutOfRange, ThetaOutOfRange
from gibbsnet.gibbs import Prior
from gibbsnet.markov import (
    TransitionKernel,
    pseudo_spectral_gap,
    stationary_distribution,
    two_source_kernel,
)
from gibbsnet.model import (
    holder_target,
    logistic_link_target,
    noise_variance,
)
from gibbsnet.network import Architecture, SparseNetwork


def affine_net(w, b, slab=1.0, clip=5.0):
    theta = np.array([w, b], dtype=float)
    return SparseNetwork(
        arch=Architecture(0, (1, 1)),
        theta=theta,
        active=np.flatnonzero(theta != 0.0),
        weight_bound=slab,
        output_clip=clip,
    )


class TestChainMgfRhs:
    def test_limit_at_zero(self):
        assert chain_mgf_rhs(100, 1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_hand_value(self):
        assert chain_mgf_rhs(9, 1.0, 1.0, 0.05) == pytest.approx(math.exp(0.1))

    def test_boundary_rejected(self):
        with pytest.raises(ThetaOutOfRange):
            chain_mgf_rhs(9, 1.0, 1.0, 0.1)
        with pytest.raises(ThetaOutOfRange):
            chain_mgf_rhs(9, 1.0, 1.0, 0.0)

    def test_monotonicity(self):
        base = chain_mgf_rhs(50, 1.0, 0.8, 0.01)
        assert chain_mgf_rhs(50, 1.0, 0.8, 0.02) > base
        assert chain_mgf_rhs(100, 1.0, 0.8, 0.01) > base
        assert chain_mgf_rhs(50, 2.0, 0.8, 0.01) > base
        assert chain_mgf_rhs(50, 1.0, 0.9, 0.01) < base

    def test_overflow_is_inf(self):
        assert chain_mgf_rhs(n=100_000, var_f=1.0, gap=1.0, theta=0.099) == math.inf


class TestBernsteinMgfRhs:
    def test_zero_excess(self):
        assert bernstein_mgf_rhs(1.0, 100, 1.0, 1.0, 1.0, 0.0) == 1.0

    def test_plug_in_temperature_value(self):
        n, gap, k = 100, 1.0, 1.0
        lam = n * gap / (32.0 * k + 10.0)
        want = math.exp(
            16.0 * lam**2 / 100.0 * (1.0 - 10.0 * lam / 100.0) ** (-1.0)
        )
        assert bernstein_mgf_rhs(lam, n, gap, k, 1.0, 1.0) == pytest.approx(want)

    def test_boundary_rejected(self):
        with pytest.raises(LambdaOutOfRange):
            bernstein_mgf_rhs(10.0, 100, 1.0, 1.0, 1.0, 1.0)

    def test_log_linear_in_excess(self):
        values = [
            math.log(bernstein_mgf_rhs(2.0, 100, 1.0, 1.0, 1.0, e))
            for e in (0.5, 1.0, 2.0)
        ]
        assert values[1] == pytest.approx(2 * values[0])
        assert values[2] == pytest.approx(2 * values[1])

    def test_overflow_is_inf(self):
        rhs = bernstein_mgf_rhs(
            lam=10.9, n=110, gap=1.0, k_bernstein=50.0, kappa=1.0, excess=1.0
        )
        assert rhs == math.inf


class TestKlRhs:
    def test_hand_value(self):
        want = math.log(2.0 * 2.0 * 0.75 * 1.0 * 2.0 * math.e)
        got = kl_truncated_uniform_rhs(1, 1.0, Prior(2, 2, 2.0, 1.0))
        assert got == pytest.approx(want)
        assert got == pytest.approx(2.7918, abs=2e-4)

    def test_linear_in_cardinality(self):
        one = kl_truncated_uniform_rhs(1, 0.5, Prior(8, 8, 2.0, 1.0))
        assert kl_truncated_uniform_rhs(2, 0.5, Prior(8, 8, 2.0, 1.0)) == pytest.approx(2 * one)

    def test_decreasing_ball_raises_bound(self):
        wide = kl_truncated_uniform_rhs(1, 1.0, Prior(8, 8, 2.0, 1.0))
        assert kl_truncated_uniform_rhs(1, 0.1, Prior(8, 8, 2.0, 1.0)) > wide


class TestCompositionRateRhs:
    @pytest.mark.parametrize("n_eff", [1.5, math.e, 250.0, 4000.0, 1e6])
    @pytest.mark.parametrize("beta, dim", [(0.5, 1), (1.0, 1), (2.0, 3)])
    def test_one_stage_is_holder_formula(self, n_eff, beta, dim):
        # A smoothness-beta target on d inputs is the stage ([beta], [d]):
        # xi (log^3 n / n^{2 beta/(2 beta + d)} + (log(1/delta) + C) / n), bit for bit.
        holder = 0.7 * (
            math.log(n_eff) ** 3 / n_eff ** (2.0 * beta / (2.0 * beta + dim))
            + (math.log(1.0 / 0.05) + 1.2) / n_eff
        )
        assert composition_rate_rhs(n_eff, [beta], [dim], 0.05, 1.2, 0.7) == holder

    def test_slowest_stage_sets_the_rate(self):
        # beta* = (1 * 0.5, 0.5): exponents -1/2 and -1/2, so e = -1/2.
        value = composition_rate_rhs(100.0, [1.0, 0.5], [1, 1], 0.05, 0.0)
        expected = math.log(100.0) ** 3 / 10.0 + math.log(20.0) / 100.0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_small_effective_size_rejected(self):
        with pytest.raises(ValueError):
            composition_rate_rhs(1.0, [1.0], [1], 0.05, 1.0)


class TestOracleRhs:
    def test_hand_value(self):
        got = oracle_rhs(
            excess_at_best=0.0, card=5, depth=2, n=1000, gap=1.0, slab=1.0,
            n_max=12, delta=0.05, lipschitz_const=1.0, xi1=1.0,
        )
        want = (5 * 2 * math.log(1000) + math.log(20.0) + 1.0) / 1000.0
        assert got == pytest.approx(want)
        assert got == pytest.approx(0.07308, abs=2e-5)

    def test_pure_penalty_structure(self):
        with_excess = oracle_rhs(0.1, 1, 1, 100, 1.0, 1.0, 4, 0.1, 1.0)
        without = oracle_rhs(0.0, 1, 1, 100, 1.0, 1.0, 4, 0.1, 1.0)
        assert with_excess == pytest.approx(without + 0.3)

    def test_halving_gap_doubles_penalty(self):
        full = oracle_rhs(0.0, 3, 2, 500, 1.0, 1.0, 10, 0.05, 1.0)
        half = oracle_rhs(0.0, 3, 2, 500, 0.5, 1.0, 10, 0.05, 1.0)
        assert half == pytest.approx(2 * full)

    def test_monotone_in_complexity(self):
        base = oracle_rhs(0.0, 2, 2, 500, 0.8, 1.0, 10, 0.05, 1.0)
        assert oracle_rhs(0.0, 3, 2, 500, 0.8, 1.0, 10, 0.05, 1.0) > base
        assert oracle_rhs(0.0, 2, 3, 500, 0.8, 1.0, 10, 0.05, 1.0) > base
        assert oracle_rhs(0.0, 2, 2, 500, 0.8, 1.0, 10, 0.01, 1.0) > base


class TestMcCheckChainMgf:
    def test_iid_two_source(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        report = mc_check_chain_mgf(
            kernel, pi, f_table=[-1.0, 1.0], n=50, theta=0.05,
            replications=2000, seed=1,
        )
        assert report.holds
        assert report.params["gamma"] == pytest.approx(1.0)

    def test_constant_function(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        report = mc_check_chain_mgf(
            kernel, pi, f_table=[2.5, 2.5], n=30, theta=0.05,
            replications=500, seed=2,
        )
        assert report.params["estimate"] == pytest.approx(1.0)
        assert report.holds

    def test_slow_chain(self):
        kernel = two_source_kernel(0.01)
        pi = stationary_distribution(kernel)
        gap = pseudo_spectral_gap(kernel, pi, k_max=10)
        report = mc_check_chain_mgf(
            kernel, pi, f_table=[-1.0, 1.0], n=50, theta=0.4 * gap / 10.0,
            replications=2000, seed=3,
        )
        assert report.holds

    def test_theta_validated_against_gap(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        with pytest.raises(ThetaOutOfRange):
            mc_check_chain_mgf(kernel, pi, [1.0, -1.0], 50, 0.2, 100, 0)

    def test_overflowing_estimate_rejected(self):
        # exp(0.05 * sum f) overflows a float on some of the 20 paths, so
        # the estimate is not finite: a ValueError, which the CLI labels
        # with the check.
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        with pytest.raises(ValueError, match="^the Monte Carlo estimate .* overflows a float"):
            mc_check_chain_mgf(kernel, pi, [100.0, -100.0], 20000, 0.05, 20, 0)


class TestExactBernsteinConstant:
    def test_square_loss_enumeration(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        h = target.values + np.array([0.2, -0.1])
        k, excess = exact_bernstein_constant(h, target, pi, "square", ("gaussian", 0.5))
        d2 = np.array([0.04, 0.01])
        want_excess = float(np.dot(pi.weights, d2))
        v = noise_variance("gaussian", 0.5)
        want_second = float(np.dot(pi.weights, d2 * (d2 + 4 * v)))
        assert excess == pytest.approx(want_excess)
        assert k == pytest.approx(want_second / want_excess)

    def test_zero_excess_degenerates(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        k, excess = exact_bernstein_constant(
            target.values, target, pi, "square", ("gaussian", 1.0)
        )
        assert k == 0.0 and excess == 0.0


    @pytest.mark.parametrize("eta", [[0.0, 0.3, 1.0, 0.8], [1.0, 1.0, 0.0, 0.5]])
    def test_logistic_degenerate_link_enumeration(self, eta):
        # Oracle: enumerate the (state, label) outcomes of positive
        # probability; a label that never occurs adds nothing.
        kernel = two_source_kernel(0.3, states=4)
        pi = stationary_distribution(kernel)
        target = logistic_link_target(eta)
        h = np.array([0.4, -0.7, 1.1, 0.2])
        excess = second = 0.0
        for s, (p_pos, score) in enumerate(zip(eta, h)):
            star = math.inf if p_pos == 1.0 else -math.inf if p_pos == 0.0 else math.log(
                p_pos / (1.0 - p_pos))
            for label, p_label in ((1.0, p_pos), (-1.0, 1.0 - p_pos)):
                if p_label > 0.0:
                    gap = math.log1p(math.exp(-label * score)) - math.log1p(
                        math.exp(-label * star))
                    excess += pi.weights[s] * p_label * gap
                    second += pi.weights[s] * p_label * gap**2
        k, got = exact_bernstein_constant(h, target, pi, "logistic")
        assert math.isfinite(k)
        assert got == pytest.approx(excess, rel=1e-12)
        assert k == pytest.approx(second / excess, rel=1e-12)


class TestMcCheckBernstein:
    def test_unknown_loss_rejected(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        with pytest.raises(ValueError, match="'hinge'"):
            mc_check_bernstein(affine_net(0.6, -0.2), holder_target(beta=1.0, m=2), kernel, pi,
                               "hinge", lam=1.0, n=50, replications=20, seed=0)

    def test_exact_target_degenerate(self):
        # The grid target is constant on two states, so a bias-only net
        # reproduces it exactly: both moments are exactly 1, rhs is 1.
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        net = affine_net(0.0, 0.25)
        report = mc_check_bernstein(
            net, target, kernel, pi, "square", lam=2.0, n=50,
            replications=400, seed=4, noise=("gaussian", 0.3),
        )
        assert report.rhs_value == 1.0
        assert report.params["upper_estimate"] == pytest.approx(1.0)
        assert report.holds

    def test_random_net_with_exact_constant(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        net = affine_net(0.6, -0.2)
        gap = pseudo_spectral_gap(kernel, pi, k_max=10)
        n = 80
        report = mc_check_bernstein(
            net, target, kernel, pi, "square", lam=0.3 * n * gap / 10.0, n=n,
            replications=3000, seed=5, noise=("uniform", 0.4),
        )
        assert report.holds
        assert report.params["k_bernstein"] == report.params["k_exact"]

    def test_logistic_loss_path(self):
        kernel = two_source_kernel(0.4)
        pi = stationary_distribution(kernel)
        from gibbsnet.model import logistic_link_target

        target = logistic_link_target([0.3, 0.8])
        net = affine_net(0.5, 0.1)
        gap = pseudo_spectral_gap(kernel, pi, k_max=10)
        n = 60
        report = mc_check_bernstein(
            net, target, kernel, pi, "logistic", lam=0.3 * n * gap / 10.0, n=n,
            replications=3000, seed=6,
        )
        assert report.holds

    def test_near_boundary_lambda_emits_report(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        net = affine_net(0.9, 0.4)
        n = 40
        lam = 0.99 * n * 1.0 / 10.0
        report = mc_check_bernstein(
            net, target, kernel, pi, "square", lam=lam, n=n,
            replications=200, seed=7, noise=("gaussian", 0.2),
        )
        assert math.isfinite(report.rhs_value)
        assert report.rhs_value > 1.0

    def test_lambda_validated(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        with pytest.raises(LambdaOutOfRange):
            mc_check_bernstein(
                affine_net(0.1, 0.1), target, kernel, pi, "square",
                lam=100.0, n=50, replications=10, seed=0,
            )


class TestKlNumericCheck:
    def test_center_ball_inside_box(self):
        report = kl_numeric_check(card=2, eta=0.5, decay=2.0, slab=1.0, n_max=6)
        assert report.holds
        # Ball strictly inside: exact value has the closed form below.
        want = (
            2 * math.log(2.0 * 1.0 / 1.0)
            + 2 * math.log(2.0)
            + math.log(math.comb(6, 2))
            + math.log((1 - 2.0**-6) / 1.0)
        )
        assert report.empirical_value == pytest.approx(want)

    def test_maximal_ball_covers_slab(self):
        # eta = 2B: the ball covers the slab, so the divergence reduces to
        # minus the log support weight.
        decay, slab, n_max, card = 2.0, 0.5, 4, 1
        report = kl_numeric_check(card=card, eta=1.0, decay=decay, slab=slab, n_max=n_max)
        c_s = (1 - decay**-n_max) / (decay - 1)
        want = card * math.log(decay) + math.log(math.comb(n_max, card)) + math.log(c_s)
        assert report.empirical_value == pytest.approx(want)
        assert report.holds

    def test_densest_support(self):
        report = kl_numeric_check(card=8, eta=0.25, decay=3.0, slab=1.0, n_max=8)
        assert report.holds

    def test_off_center_clipped_ball(self):
        report = kl_numeric_check(
            card=1, eta=0.6, decay=2.0, slab=1.0, n_max=4, center=[0.8]
        )
        assert report.holds

    def test_random_tuples_always_hold(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n_max = int(rng.integers(2, 40))
            card = int(rng.integers(1, n_max + 1))
            slab = float(rng.uniform(0.5, 10.0))
            eta = float(rng.uniform(0.01, min(1.0, slab)))
            decay = float(rng.uniform(2.0, 12.0))
            report = kl_numeric_check(card, eta, decay, slab, n_max)
            assert report.holds


class TestBoundReport:
    def test_holds_matches_invariant(self):
        report = BoundReport(label="x", rhs_value=1.0, empirical_value=None)
        assert report.holds
        assert BoundReport(label="x", rhs_value=1.0, empirical_value=0.9).holds
        assert not BoundReport(label="x", rhs_value=1.0, empirical_value=1.1).holds

    def test_json_round_trip(self):
        import json

        report = kl_numeric_check(1, 0.5, 2.0, 1.0, 4)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["holds"] is True
        assert doc["label"] == "kl_truncated_uniform"


class TestRandomizedProtocols:
    """Smaller-scale versions of the 50-configuration acceptance sweeps."""

    def test_chain_mgf_randomized(self):
        rng = np.random.default_rng(101)
        failures = 0
        for case in range(15):
            m = int(rng.integers(2, 5))
            probs = rng.uniform(0.05, 1.0, size=(m, m))
            probs /= probs.sum(axis=1, keepdims=True)
            kernel = TransitionKernel(states=m, probs=probs)
            pi = stationary_distribution(kernel)
            gap = pseudo_spectral_gap(kernel, pi, k_max=10)
            f = rng.uniform(-1.0, 1.0, size=m)
            theta = float(rng.uniform(0.1, 0.9)) * gap / 10.0
            n = int(rng.integers(20, 150))
            report = mc_check_chain_mgf(
                kernel, pi, f, n=n, theta=theta, replications=400,
                seed=int(rng.integers(1 << 30)),
            )
            failures += 0 if report.holds else 1
        assert failures <= 1

    def test_bernstein_randomized(self):
        rng = np.random.default_rng(202)
        failures = 0
        for case in range(15):
            p = float(rng.uniform(0.1, 0.5))
            kernel = two_source_kernel(p)
            pi = stationary_distribution(kernel)
            gap = pseudo_spectral_gap(kernel, pi, k_max=10)
            target = holder_target(beta=1.0, m=2)
            net = affine_net(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            n = int(rng.integers(30, 120))
            lam = float(rng.uniform(0.1, 0.9)) * n * gap / 10.0
            family = ("gaussian", "uniform", "rademacher")[case % 3]
            report = mc_check_bernstein(
                net, target, kernel, pi, "square", lam=lam, n=n,
                replications=400, seed=int(rng.integers(1 << 30)),
                noise=(family, float(rng.uniform(0.1, 0.6))),
            )
            failures += 0 if report.holds else 1
        assert failures <= 1
