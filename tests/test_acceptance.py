"""Acceptance gate: one test per criterion, each asserting its stated
tolerance and printing a pass line (run with ``pytest -s`` to see them).

The sweep-based criteria use desk-scale experiment settings (class-size
constants, Bernstein constant, iteration counts) calibrated once and fixed
here; asymptotic constants are not reproducible at this scale, so the
slope and ratio bands are the contract.
"""

import time

import numpy as np
import pytest
from oracle_gibbs import enumerate_tiny_gibbs, histogram_of_draws, tv_between_tables

from gibbsnet.bounds import kl_numeric_check, mc_check_bernstein, mc_check_chain_mgf
from gibbsnet.gibbs import ClassDef, GibbsConfig, sample_posterior, temperature
from gibbsnet.harness import (
    ExperimentConfig,
    fit_rate_slope,
    run_effective_sample_experiment,
    run_rate_sweep,
)
from gibbsnet.markov import (
    TransitionKernel,
    pseudo_spectral_gap,
    stationary_distribution,
    two_source_kernel,
)
from gibbsnet.model import (
    Dataset,
    conditional_excess_logistic,
    generate_regression,
    holder_target,
    logistic_target,
    subgaussian_envelope,
)
from gibbsnet.network import (
    ACTIVATIONS,
    Architecture,
    SparseNetwork,
    forward,
    lipschitz_parameter_bound,
    param_distance,
)


def report(number, label, detail, elapsed):
    print(f"ACCEPTANCE {number} ({label}): PASS - {detail} [{elapsed:.1f}s]")


class TestCriterion1:
    def test_two_source_pseudo_gap_exact(self):
        start = time.perf_counter()
        worst = 0.0
        for p in (0.05, 0.1, 0.25, 0.4, 0.5):
            kernel = two_source_kernel(p)
            pi = stationary_distribution(kernel)
            gap = pseudo_spectral_gap(kernel, pi, k_max=1)
            worst = max(worst, abs(gap - 4.0 * p * (1.0 - p)))
            assert gap == pytest.approx(4.0 * p * (1.0 - p), abs=1e-10)
        report("C1", "two-source pseudo-gap exactness",
               f"max error {worst:.2e}", time.perf_counter() - start)


class TestCriterion2:
    def test_sampler_matches_enumerated_law(self):
        start = time.perf_counter()
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=2)
        base = generate_regression(
            target, kernel, pi, n=150, noise=("gaussian", 0.3), seed=9
        )
        # Off-center target spreads posterior mass over all three supports.
        data = Dataset(inputs=base.inputs, outputs=base.outputs + 0.3)
        gamma = pseudo_spectral_gap(kernel, pi, k_max=10)
        lam = temperature(len(data), gamma, 1.0)
        classdef = ClassDef(depth=0, width=1, sparsity=2, weight_bound=1.0,
                            output_clip=5.0)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=lam,
            step=0.5, iters=220_000, burn_in=20_000, thin=1, seed=17,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        assert len(draws) == 200_000
        oracle = enumerate_tiny_gibbs(
            data.inputs[:, 0], data.outputs, slab=1.0, clip=5.0, decay=2.0,
            lam=lam, bins=41,
        )
        tv = tv_between_tables(oracle, histogram_of_draws(draws, bins=41))
        assert tv <= 0.05
        report("C2", "sampler vs enumerated law",
               f"TV {tv:.4f} <= 0.05 over 200000 draws", time.perf_counter() - start)


class TestCriterion3:
    def test_chain_mgf_randomized_configs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        failures = 0
        for case in range(50):
            if case % 2 == 0:
                m = int(rng.integers(2, 5))
                probs = rng.uniform(0.05, 1.0, size=(m, m))
                probs /= probs.sum(axis=1, keepdims=True)
                kernel = TransitionKernel(states=m, probs=probs)
            else:
                m = 2
                kernel = two_source_kernel(float(rng.uniform(0.05, 0.5)))
            pi = stationary_distribution(kernel)
            gap = pseudo_spectral_gap(kernel, pi, k_max=10)
            f_table = rng.uniform(-1.0, 1.0, size=m)
            theta = float(rng.uniform(0.1, 0.9)) * gap / 10.0
            n = int(rng.integers(20, 150))
            result = mc_check_chain_mgf(
                kernel, pi, f_table, n=n, theta=theta, replications=400,
                seed=int(rng.integers(1 << 30)),
            )
            failures += 0 if result.holds else 1
        assert failures <= 1
        report("C3", "chain MGF bound",
               f"{50 - failures}/50 randomized configurations hold",
               time.perf_counter() - start)


class TestCriterion4:
    def test_bernstein_mgf_randomized_configs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        failures = 0
        families = ("gaussian", "uniform", "rademacher")
        for case in range(50):
            m = int(rng.choice((2, 3, 4)))
            kernel = two_source_kernel(float(rng.uniform(0.08, 0.5)), states=m if m % 2 == 0 else 2)
            m = kernel.states
            pi = stationary_distribution(kernel)
            gap = pseudo_spectral_gap(kernel, pi, k_max=10)
            target = holder_target(beta=1.0, m=m)
            arch = Architecture(0, (1, 1))
            theta = rng.uniform(-1.0, 1.0, size=2)
            net = SparseNetwork(
                arch=arch, theta=theta, active=np.array([0, 1]),
                weight_bound=1.0, output_clip=5.0,
            )
            n = int(rng.integers(30, 120))
            lam = float(rng.uniform(0.1, 0.9)) * n * gap / 10.0
            result = mc_check_bernstein(
                net, target, kernel, pi, "square", lam=lam, n=n,
                replications=400, seed=int(rng.integers(1 << 30)),
                noise=(families[case % 3], float(rng.uniform(0.1, 0.6))),
            )
            assert result.params["k_bernstein"] == result.params["k_exact"]
            failures += 0 if result.holds else 1
        assert failures <= 1
        report("C4", "Bernstein-type MGF bound",
               f"{50 - failures}/50 randomized configurations hold (exact K)",
               time.perf_counter() - start)


RATE_SWEEP_CONFIG = dict(
    target={"kind": "holder", "beta": 1.0, "scale": 1.0, "dim": 1},
    chain={"family": "two_source", "p": 0.5, "states": 16},
    n_grid=[250, 500, 1000, 2000, 4000],
    classdef={
        "rule": "holder",
        "constants": {"depth_scale": 0.1, "width_scale": 0.2,
                      "sparsity_scale": 0.5, "bound_cap": 1.5},
        "output_clip": 1.2,
    },
    gibbs={"iters": 60_000, "burn_in": 30_000, "thin": 60, "step": 0.3,
           "move_probs": (0.3, 0.3, 0.4)},
    noise=("gaussian", 0.3),
    replications=10,
    seed=2024,
    bernstein_k=0.1,
    predictor="single_draw",
)


class TestCriterion5:
    def test_holder_rate_slope(self):
        start = time.perf_counter()
        cfg = ExperimentConfig.from_dict(RATE_SWEEP_CONFIG)
        result = run_rate_sweep(cfg)
        assert len(result.rows) == 50
        slope, stderr = fit_rate_slope(result)
        low, high = -2.0 / 3.0 - 0.30, -2.0 / 3.0 + 0.30
        assert low <= slope <= high
        report("C5", "smoothness-1 rate slope",
               f"slope {slope:.3f} (se {stderr:.3f}) in [{low:.3f}, {high:.3f}]",
               time.perf_counter() - start)


class TestCriterion6:
    def test_effective_sample_size_equivalence(self):
        start = time.perf_counter()
        cfg = ExperimentConfig.from_dict(
            dict(
                target={"kind": "holder", "beta": 1.0, "scale": 1.4, "dim": 1},
                chain={"family": "two_source", "p": 0.5, "states": 16},
                n_grid=[1000],
                classdef={
                    "rule": "holder",
                    "constants": {"depth_scale": 0.1, "width_scale": 0.2,
                                  "sparsity_scale": 0.5, "bound_cap": 1.75},
                    "output_clip": 1.4,
                },
                gibbs={"iters": 60_000, "burn_in": 30_000, "thin": 60, "step": 0.3,
                       "move_probs": (0.3, 0.3, 0.4)},
                noise=("gaussian", 0.3),
                replications=10,
                seed=2024,
                bernstein_k=0.05,
                predictor="single_draw",
            )
        )
        result = run_effective_sample_experiment(cfg, pairs=[(1000, 0.5), (1334, 0.25)])
        med_iid = float(np.median([r.excess_risk for r in result.rows if r.n == 1000]))
        med_dep = float(np.median([r.excess_risk for r in result.rows if r.n == 1334]))
        ratio = med_iid / med_dep
        assert 0.5 <= ratio <= 2.0
        report("C6", "effective-sample-size equivalence",
               f"median ratio {ratio:.3f} in [0.5, 2.0] at matched n_eff ~ 1000",
               time.perf_counter() - start)


class TestCriterion7:
    def test_logistic_local_quadratic(self):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        eta = rng.uniform(0.01, 0.99, size=10_000)
        score = rng.uniform(-10.0, 10.0, size=10_000)
        excess = conditional_excess_logistic(eta, score)
        quad = (score - logistic_target(eta)) ** 2 / 8.0
        margin = float(np.max(excess - quad))
        assert margin <= 1e-12
        report("C7", "logistic local-quadratic constant 1/8",
               f"max(excess - quad/8) = {margin:.2e} <= 1e-12 over 10000 pairs",
               time.perf_counter() - start)


class TestCriterion8:
    def test_subgaussian_envelope_coverage(self):
        start = time.perf_counter()
        kernel = two_source_kernel(0.5, states=4)
        pi = stationary_distribution(kernel)
        target = holder_target(beta=1.0, m=4)
        sup_target = float(np.max(np.abs(target.values)))
        n, delta, sigma, reps = 100, 0.05, 1.0, 2000
        envelope = subgaussian_envelope(sup_target, sigma, n, delta)
        violations = 0
        for rep in range(reps):
            data = generate_regression(
                target, kernel, pi, n=n, noise=("gaussian", sigma), seed=5000 + rep
            )
            if float(np.max(np.abs(data.outputs))) > envelope:
                violations += 1
        frequency = violations / reps
        assert frequency <= delta + 0.015
        report("C8", "sub-Gaussian output envelope",
               f"violation frequency {frequency:.4f} <= {delta + 0.015:.3f}",
               time.perf_counter() - start)


class TestCriterion9:
    def test_kl_bound_random_tuples(self):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        for _ in range(100):
            n_max = int(rng.integers(2, 40))
            card = int(rng.integers(1, n_max + 1))
            slab = float(rng.uniform(0.5, 10.0))
            eta = float(rng.uniform(0.01, min(1.0, slab)))  # ball inside box
            decay = float(rng.uniform(2.0, 12.0))
            result = kl_numeric_check(card, eta, decay, slab, n_max)
            assert result.holds
            assert result.empirical_value <= result.rhs_value
        report("C9", "divergence bound for truncated uniforms",
               "exact value <= bound for 100/100 random tuples",
               time.perf_counter() - start)


class TestCriterion10:
    def test_parameter_lipschitz_bound(self):
        from test_network import random_sparse_pair

        start = time.perf_counter()
        rng = np.random.default_rng(1010)
        violations = 0
        for case in range(10_000):
            activation = "relu" if case % 2 == 0 else "sigmoid"
            act = ACTIVATIONS[activation]
            net1, net2, bound = random_sparse_pair(rng, activation)
            x = rng.uniform(-2.0, 2.0, size=net1.arch.input_dim)
            lhs = float(
                np.max(
                    np.abs(
                        np.atleast_1d(forward(net1, x, activation, clip=False))
                        - np.atleast_1d(forward(net2, x, activation, clip=False))
                    )
                )
            )
            rate = lipschitz_parameter_bound(
                net1.arch, bound, act.lipschitz, act.at_zero,
                float(np.max(np.abs(x))),
            )
            if lhs > rate * param_distance(net1, net2) * (1 + 1e-9) + 1e-12:
                violations += 1
        assert violations == 0
        report("C10", "parameter-Lipschitz bound",
               "0 violations over 10000 random network pairs",
               time.perf_counter() - start)
