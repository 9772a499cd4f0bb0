"""Tests for the finite-state chain machinery.

Expected values are either closed form (2x2 eigenvalues, permutation
kernels) or produced by independent oracles: power iteration for the
stationary law, brute-force matrix powers for mixing times, and Monte
Carlo consistency for the plug-in gap estimator.
"""

import itertools
import json

import numpy as np
import pytest

from gibbsnet.cli import main
from gibbsnet.errors import (
    DimensionMismatch,
    EigenFailure,
    NonUniqueStationary,
    NotMixedWithinCap,
    UnvisitedState,
    ZeroStationaryMass,
)
from gibbsnet.markov import (
    MAX_POWER,
    STREAM_SALTS,
    StationaryDist,
    TransitionKernel,
    estimate_pseudo_gap,
    mixing_time,
    pseudo_spectral_gap,
    simulate,
    simulate_batch,
    spectral_gap,
    stationary_distribution,
    stream,
    time_reversal,
    two_source_kernel,
)


def tv_distance(q1, q2):
    """Total variation distance between two probability vectors, as half
    their L1 distance: the oracle of the mixing-time tests."""
    a = np.asarray(q1, dtype=float)
    b = np.asarray(q2, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def symmetric_two_state(p):
    return TransitionKernel(states=2, probs=np.array([[1 - p, p], [p, 1 - p]]))


def cycle_kernel(m):
    probs = np.zeros((m, m))
    for z in range(m):
        probs[z, (z + 1) % m] = 1.0
    return TransitionKernel(states=m, probs=probs)


def random_positive_kernel(m, seed):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.05, 1.0, size=(m, m))
    probs /= probs.sum(axis=1, keepdims=True)
    return TransitionKernel(states=m, probs=probs)


def uniform_dist(m):
    return StationaryDist(weights=np.full(m, 1.0 / m))


class TestKernelValidation:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            TransitionKernel(states=2, probs=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            TransitionKernel(states=2, probs=np.array([[1.5, -0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("states", [2, 4, 6, 16])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_two_source_matches_loop_reference(self, states, p):
        half = states // 2
        expected = np.empty((states, states))
        for z in range(states):
            for u in range(states):
                expected[z, u] = ((1.0 - p) if (u < half) == (z < half) else p) / half
        np.testing.assert_array_equal(two_source_kernel(p, states).probs, expected)


class TestStationaryDistribution:
    def test_symmetric_two_state_is_uniform(self):
        pi = stationary_distribution(symmetric_two_state(0.3))
        np.testing.assert_allclose(pi.weights, [0.5, 0.5], atol=1e-12)

    def test_identity_kernel_rejected(self):
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(TransitionKernel(states=2, probs=np.eye(2)))

    def test_matches_power_iteration_oracle(self):
        kernel = random_positive_kernel(3, seed=7)
        # Oracle: rows of P^1000 all converge to pi for a positive kernel.
        power = np.linalg.matrix_power(kernel.probs, 1000)
        pi = stationary_distribution(kernel)
        np.testing.assert_allclose(pi.weights, power[0], atol=1e-8)
        assert np.max(np.abs(pi.weights @ kernel.probs - pi.weights)) <= 1e-10

    @staticmethod
    def spoil_eigenvectors(monkeypatch):
        # Keep the eigenvalues, but hand back the point mass on state 0 for
        # every eigenvector, which fails the pi P = pi check.
        eig = np.linalg.eig

        def spoiled(a):
            values, vectors = eig(a)
            return values, np.eye(len(a))[:, [0] * len(a)]

        monkeypatch.setattr(np.linalg, "eig", spoiled)

    def test_power_iteration_fallback(self, monkeypatch):
        kernel = random_positive_kernel(4, seed=13)
        self.spoil_eigenvectors(monkeypatch)
        pi = stationary_distribution(kernel)
        assert np.max(np.abs(pi.weights @ kernel.probs - pi.weights)) <= 1e-10

    def test_power_iteration_fallback_oscillates(self, monkeypatch):
        # Period 2: the uniform start alternates between (1/3, 1/3, 1/3) and
        # (1/6, 2/3, 1/6) and never settles.
        kernel = TransitionKernel(states=3, probs=np.array(
            [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]))
        self.spoil_eigenvectors(monkeypatch)
        with pytest.raises(EigenFailure):
            stationary_distribution(kernel)


class TestTimeReversal:
    def test_symmetric_kernel_is_self_reverse(self):
        kernel = symmetric_two_state(0.3)
        pi = stationary_distribution(kernel)
        rev = time_reversal(kernel, pi)
        np.testing.assert_allclose(rev.probs, kernel.probs, atol=1e-12)

    def test_cycle_reverses(self):
        kernel = cycle_kernel(3)
        rev = time_reversal(kernel, uniform_dist(3))
        np.testing.assert_allclose(rev.probs, kernel.probs.T, atol=1e-12)

    def test_involution_on_random_kernel(self):
        kernel = random_positive_kernel(4, seed=11)
        pi = stationary_distribution(kernel)
        rev = time_reversal(kernel, pi)
        np.testing.assert_allclose(rev.probs.sum(axis=1), 1.0, atol=1e-12)
        back = time_reversal(rev, pi)
        np.testing.assert_allclose(back.probs, kernel.probs, atol=1e-12)

    def test_zero_mass_rejected(self):
        kernel = symmetric_two_state(0.3)
        with pytest.raises(ZeroStationaryMass):
            time_reversal(kernel, StationaryDist(weights=np.array([1.0, 0.0])))


class TestSpectralGap:
    def test_two_state_closed_form(self):
        # Eigenvalues of the symmetric 2x2 circulant are {1, 1-2p}.
        kernel = symmetric_two_state(0.3)
        gap = spectral_gap(kernel.probs, uniform_dist(2))
        assert gap == pytest.approx(0.6, abs=1e-12)

    def test_identity_has_zero_gap(self):
        assert spectral_gap(np.eye(3), uniform_dist(3)) == 0.0

    def test_rank_one_projector_has_unit_gap(self):
        pi = uniform_dist(4)
        projector = np.tile(pi.weights, (4, 1))
        assert spectral_gap(projector, pi) == pytest.approx(1.0, abs=1e-12)


class TestPseudoSpectralGap:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.4, 0.5])
    def test_two_source_closed_form(self, p):
        kernel = two_source_kernel(p)
        pi = stationary_distribution(kernel)
        gap = pseudo_spectral_gap(kernel, pi, k_max=5)
        assert gap == pytest.approx(4 * p * (1 - p), abs=1e-10)

    def test_two_source_refined_state_space(self):
        kernel = two_source_kernel(0.25, states=6)
        pi = stationary_distribution(kernel)
        gap = pseudo_spectral_gap(kernel, pi, k_max=5)
        assert gap == pytest.approx(0.75, abs=1e-10)

    def test_iid_case_has_unit_gap(self):
        kernel = two_source_kernel(0.5)
        pi = stationary_distribution(kernel)
        assert pseudo_spectral_gap(kernel, pi, k_max=5) == pytest.approx(1.0, abs=1e-12)

    def test_identity_kernel_zero(self):
        kernel = TransitionKernel(states=3, probs=np.eye(3))
        assert pseudo_spectral_gap(kernel, uniform_dist(3), k_max=4) == 0.0

    @pytest.mark.parametrize("k_max", [0, MAX_POWER + 1, 10**400])
    def test_k_max_outside_range_refused(self, k_max):
        kernel = TransitionKernel(states=2, probs=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="k_max must lie in"):
            pseudo_spectral_gap(kernel, uniform_dist(2), k_max=k_max)

    def test_nondecreasing_in_k_max(self):
        kernel = random_positive_kernel(4, seed=3)
        pi = stationary_distribution(kernel)
        gaps = [pseudo_spectral_gap(kernel, pi, k_max=k) for k in range(1, 7)]
        assert all(b >= a - 1e-14 for a, b in zip(gaps, gaps[1:]))

    def test_reversible_kernel_first_term_matches_squared_kernel(self):
        # Reversible chain via symmetric edge weights.
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.1, 1.0, size=(4, 4))
        weights = (weights + weights.T) / 2
        probs = weights / weights.sum(axis=1, keepdims=True)
        kernel = TransitionKernel(states=4, probs=probs)
        pi = stationary_distribution(kernel)
        rev = time_reversal(kernel, pi)
        np.testing.assert_allclose(rev.probs, kernel.probs, atol=1e-10)
        k1_term = spectral_gap(rev.probs @ kernel.probs, pi)
        squared = spectral_gap(
            np.linalg.matrix_power(kernel.probs, 2), pi
        )
        assert k1_term == pytest.approx(squared, abs=1e-10)


class TestTvDistance:
    def test_half_l1(self):
        assert tv_distance([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_identical(self):
        q = np.array([0.2, 0.8])
        assert tv_distance(q, q) == 0.0

    def test_hand_enumerated(self):
        # Half-L1 oracle: events {0}, {2} each contribute 0.3; sup is 0.3.
        assert tv_distance([0.2, 0.3, 0.5], [0.5, 0.3, 0.2]) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance([0.5, 0.5], [1.0])

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a, b, c = rng.dirichlet(np.ones(5), size=3)
            dab, dba = tv_distance(a, b), tv_distance(b, a)
            assert dab == pytest.approx(dba)
            assert dab >= 0.0
            assert tv_distance(a, c) <= dab + tv_distance(b, c) + 1e-12


class TestMixingTime:
    def test_two_state_matches_matrix_power_oracle(self):
        kernel = symmetric_two_state(0.25)
        pi = stationary_distribution(kernel)
        # Oracle: brute-force TV of matrix powers from the worst start.
        t_oracle = None
        power = np.eye(2)
        for t in range(1, 50):
            power = power @ kernel.probs
            worst = max(tv_distance(power[z], pi.weights) for z in range(2))
            if worst <= 0.25:
                t_oracle = t
                break
        assert t_oracle == 1
        assert mixing_time(kernel, pi, epsilon=0.25, t_cap=50) == t_oracle

    def test_uniform_kernel_mixes_in_one_step(self):
        pi = uniform_dist(3)
        kernel = TransitionKernel(states=3, probs=np.tile(pi.weights, (3, 1)))
        assert mixing_time(kernel, pi, epsilon=0.25, t_cap=10) == 1

    def test_identity_never_mixes(self):
        kernel = TransitionKernel(states=2, probs=np.eye(2))
        with pytest.raises(NotMixedWithinCap):
            mixing_time(kernel, uniform_dist(2), epsilon=0.25, t_cap=100)

    @pytest.mark.parametrize("t_cap", [0, MAX_POWER + 1, 10**400])
    def test_t_cap_outside_range_refused(self, t_cap):
        kernel = TransitionKernel(states=2, probs=np.eye(2))
        with pytest.raises(ValueError, match="t_cap must lie in"):
            mixing_time(kernel, uniform_dist(2), epsilon=0.25, t_cap=t_cap)

    def test_nonincreasing_in_epsilon(self):
        kernel = two_source_kernel(0.15)
        pi = stationary_distribution(kernel)
        times = [
            mixing_time(kernel, pi, epsilon=eps, t_cap=500)
            for eps in (0.4, 0.25, 0.1, 0.05)
        ]
        assert all(b >= a for a, b in zip(times, times[1:]))


class TestSimulate:
    def test_empirical_frequencies_match_uniform(self):
        pi = uniform_dist(4)
        kernel = TransitionKernel(states=4, probs=np.tile(pi.weights, (4, 1)))
        states = simulate(kernel, pi, n=100_000, seed=2)
        freqs = np.bincount(states, minlength=4) / states.size
        np.testing.assert_allclose(freqs, pi.weights, atol=0.01)

    def test_cycle_is_periodic(self):
        kernel = cycle_kernel(3)
        states = simulate(kernel, uniform_dist(3), n=6, seed=0)
        start = int(states[0])
        expected = [(start + t) % 3 for t in range(6)]
        assert states.tolist() == expected

    def test_same_seed_reproduces(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        a = simulate(kernel, pi, n=500, seed=42)
        b = simulate(kernel, pi, n=500, seed=42)
        assert a.tolist() == b.tolist()

    def test_batch_matches_marginals(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        batch = simulate_batch(kernel, pi, n=50, replications=4000, seed=9)
        assert batch.shape == (4000, 50)
        freqs = np.bincount(batch[:, 0], minlength=2) / 4000
        np.testing.assert_allclose(freqs, pi.weights, atol=0.03)
        # One-step transition frequencies follow the kernel.
        from_zero = batch[batch[:, 0] == 0]
        frac_switch = np.mean(from_zero[:, 1] == 1)
        assert frac_switch == pytest.approx(0.3, abs=0.03)

    def test_text_round_trip(self, tmp_path):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        states = simulate(kernel, pi, n=20, seed=7)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"chain": {"family": "two_source", "p": 0.3}, "n": 20}))
        assert main(["simulate", "--config", str(config), "--seed", "7", "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "trajectory.txt").read_text().splitlines()
        assert header == "# seed=7"
        assert [int(line) for line in lines] == states.tolist()


class TestStreams:
    def test_simulate_is_one_batch_row(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            m = int(rng.integers(2, 7))
            probs = rng.random((m, m)) ** 3  # uneven rows, some near-zero entries
            kernel = TransitionKernel(states=m, probs=probs / probs.sum(axis=1, keepdims=True))
            pi = stationary_distribution(kernel)
            row = simulate_batch(kernel, pi, n=400, replications=1, seed=seed)[0]
            np.testing.assert_array_equal(simulate(kernel, pi, n=400, seed=seed), row)

    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_purposes_share_no_value(self, seed):
        draws = {purpose: set(stream(seed, purpose).random(1000).tolist())
                 for purpose in STREAM_SALTS}
        for a, b in itertools.combinations(STREAM_SALTS, 2):
            assert not draws[a] & draws[b], (a, b)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError, match="unknown random stream"):
            stream(0, "data")


class TestEstimatePseudoGap:
    def test_consistent_on_two_source_chain(self):
        kernel = two_source_kernel(0.3)
        pi = stationary_distribution(kernel)
        traj = simulate(kernel, pi, n=200_000, seed=13)
        estimate = estimate_pseudo_gap(traj, m=2, k_max=5)
        assert estimate == pytest.approx(4 * 0.3 * 0.7, abs=0.1)

    def test_cycle_trajectory_gap_near_zero(self):
        # Add-one smoothing keeps the plug-in kernel strictly positive, so
        # the estimate is only O(m/n)-close to the exact periodic value 0.
        kernel = cycle_kernel(3)
        traj = simulate(kernel, uniform_dist(3), n=3000, seed=1)
        estimate = estimate_pseudo_gap(traj, m=3, k_max=5)
        assert 0.0 <= estimate < 0.05

    def test_unvisited_state_detected(self):
        with pytest.raises(UnvisitedState):
            estimate_pseudo_gap(np.zeros(100, dtype=np.int64), m=2)

    @pytest.mark.parametrize("m, n, seed", [(2, 50, 0), (5, 1000, 1), (16, 5000, 2), (64, 3000, 3)])
    def test_matches_plain_bigram_counts(self, m, n, seed):
        # The plug-in pair built from counts tallied one bigram at a time.
        rng = np.random.default_rng(seed)
        traj = np.concatenate([np.arange(m), rng.integers(0, m, size=n)])
        counts = np.zeros((m, m))
        for i, j in zip(traj[:-1].tolist(), traj[1:].tolist()):
            counts[i, j] += 1.0
        probs = (counts + 1.0) / (counts.sum(axis=1) + m)[:, None]
        plug_in = TransitionKernel(states=m, probs=probs)
        expected = pseudo_spectral_gap(plug_in, stationary_distribution(plug_in), 7)
        assert estimate_pseudo_gap(traj, m=m, k_max=7) == expected

    def test_error_shrinks_with_sample_size(self):
        kernel = two_source_kernel(0.2)
        pi = stationary_distribution(kernel)
        exact = 4 * 0.2 * 0.8
        errs_small, errs_large = [], []
        for seed in range(20):
            small = simulate(kernel, pi, n=2_000, seed=100 + seed)
            large = simulate(kernel, pi, n=200_000, seed=200 + seed)
            errs_small.append(abs(estimate_pseudo_gap(small, m=2) - exact))
            errs_large.append(abs(estimate_pseudo_gap(large, m=2) - exact))
        assert np.median(errs_large) < np.median(errs_small)
