"""Exactness of the table-driven chain layer.

Every trajectory of ``simulate`` and ``simulate_batch`` must equal the
per-step bisection replay of ``reference_markov`` on the same uniforms,
and every pseudo-gap the per-k replay, with ``==``: the step table and the
stacked spectral solve are speed-ups, not approximations.
"""

import json
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from gibbsnet import markov
from gibbsnet.cli import main
from gibbsnet.errors import DimensionMismatch
from gibbsnet.markov import (
    BLOCK_FLOATS,
    TABLE_KEYS,
    StationaryDist,
    TransitionKernel,
    pseudo_spectral_gap,
    simulate,
    simulate_batch,
    spectral_gap,
    stationary_distribution,
    time_reversal,
    two_source_kernel,
)
from reference_markov import (
    ScriptedStream,
    operator_gap,
    replay_chain,
    replay_pseudo_gap,
    replay_walk,
)

GOLDEN_TRAJECTORY = Path(__file__).parent / "data" / "golden_trajectory.txt"
# The run that wrote the golden trajectory, also run by CI's entry-point step.
GOLDEN_SIMULATE = {"chain": {"family": "two_source", "p": 0.3, "states": 16}, "n": 2000,
                   "seed": 7}


def kernel_of(probs):
    return TransitionKernel(states=len(probs), probs=np.asarray(probs, dtype=float))


def off_by(delta, m=4, seed=0):
    """A positive kernel whose rows sum to 1 + delta, the excess on the
    last entry, so the last CDF value lies off 1."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.1, 1.0, size=(m, m))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[:, -1] += delta
    return kernel_of(probs)


def cycle(m):
    return kernel_of(np.roll(np.eye(m), 1, axis=1))


def mixed_permutation(m, seed):
    """A permutation with two rows replaced by random laws: it mixes so
    slowly that gap((P*)^k P^k) / k grows with k; at m = 30 and seed 44
    its maximum over k <= 13 sits at k = 13, past the first stacked solve
    of nine operators."""
    rng = np.random.default_rng(seed)
    probs = np.eye(m)[rng.permutation(m)]
    rows = rng.choice(m, size=2, replace=False)
    probs[rows] = rng.dirichlet(np.ones(m), size=2)
    return kernel_of(probs)


def dirichlet(m, seed):
    return kernel_of(np.random.default_rng(seed).dirichlet(np.ones(m), size=m))


def sparse(m, seed):
    """Uneven rows with zero entries, so repeated CDF values within a row."""
    rng = np.random.default_rng(seed)
    probs = rng.random((m, m)) ** 3
    probs[rng.random((m, m)) < 0.3] = 0.0
    probs[np.arange(m), (np.arange(m) + 1) % m] += 0.05  # irreducible
    probs[np.arange(m), np.arange(m)] += 0.05  # aperiodic
    return kernel_of(probs / probs.sum(axis=1, keepdims=True))


KERNELS = {
    "one_state": kernel_of([[1.0]]),
    "two_source_repeats": two_source_kernel(0.3, states=6),
    "zeros": kernel_of([[0.5, 0.0, 0.0, 0.5], [0.0, 0.25, 0.75, 0.0],
                        [0.2, 0.1, 0.7, 0.0], [0.0, 0.0, 0.5, 0.5]]),
    "sum_below_one": off_by(-0.9e-12),
    "sum_above_one": off_by(0.9e-12, seed=1),
    "cycle": cycle(5),
    "non_reversible": dirichlet(5, seed=3),
    "sparse_7": sparse(7, seed=4),
    "m_40": dirichlet(40, seed=6),  # five pseudo-gap operators a stacked solve
    "late_peak_30": mixed_permutation(30, seed=44),
    "m_128": dirichlet(128, seed=5),
}


def probes(kernel, pi, rng, count):
    """Uniforms that land on, just below and just above every CDF value of
    the kernel and of pi, in the sliver between a last CDF value and 1, and
    at both ends of [0, 1), padded with random ones."""
    cdfs = np.concatenate([np.cumsum(kernel.probs, axis=1).ravel(), np.cumsum(pi.weights)])
    edges = np.concatenate([cdfs, np.nextafter(cdfs, 0.0), np.nextafter(cdfs, 1.0)])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    values = np.concatenate([edges, [0.0, 1.0 - 2.0**-53, 1.0 - 1e-13], rng.random(count)])
    return rng.permutation(values)


class TestStepTable:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_its_definition(self, name):
        kernel = KERNELS[name]
        m = kernel.states
        cdf = np.cumsum(kernel.probs, axis=1)
        grid, table = markov._step_table(kernel)
        np.testing.assert_array_equal(grid, np.unique(cdf))
        assert table.shape == (m, grid.size + 1)
        assert np.all(table[:, 0] == 0)
        for s in range(m):
            # #{k: cdf[s, k] <= g} for every grid value g at once.
            counts = np.searchsorted(np.sort(cdf[s]), grid, side="right")
            np.testing.assert_array_equal(table[s, 1:], np.minimum(counts, m - 1))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_bin_steps_as_bisection(self, name):
        kernel = KERNELS[name]
        pi = stationary_distribution(kernel)
        grid, table = markov._step_table(kernel)
        rows = [row.tolist() for row in np.cumsum(kernel.probs, axis=1)]
        for u in probes(kernel, pi, np.random.default_rng(0), 50)[:1000].tolist():
            b = int(np.searchsorted(grid, u, side="right"))
            expected = [min(bisect_right(row, u), kernel.states - 1) for row in rows]
            assert table[:, b].tolist() == expected, u

    def test_cap_fires_below_one(self):
        kernel = KERNELS["sum_below_one"]
        grid, table = markov._step_table(kernel)
        assert np.cumsum(kernel.probs, axis=1)[:, -1].max() < 1.0
        # Past every last CDF value the count is m, capped to m - 1.
        assert np.all(table[:, np.searchsorted(grid, 1.0 - 1e-13, side="right")] == 3)


class TestTrajectoriesReplay:
    # The last is the Monte Carlo checks' shape, binned through a bucket table.
    SHAPES = [(1, 1), (1, 6), (2, 1), (9, 1), (40, 1), (40, 13), (300, 3), (110, 400)]

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n, replications", SHAPES)
    def test_seeded_runs_equal_replay(self, name, n, replications):
        kernel = KERNELS[name]
        pi = stationary_distribution(kernel)
        for seed in (0, 11):
            expected = replay_chain(kernel, pi, n, seed, replications)
            batch = simulate_batch(kernel, pi, n, replications, seed)
            assert batch.dtype == np.int64 and batch.flags.c_contiguous
            assert np.array_equal(batch, expected)
            if replications == 1:
                assert np.array_equal(simulate(kernel, pi, n, seed), expected[0])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_edge_uniforms_equal_replay(self, monkeypatch, name):
        kernel = KERNELS[name]
        pi = stationary_distribution(kernel)
        u = probes(kernel, pi, np.random.default_rng(1), 40)
        u = u[: u.size - u.size % 4]
        monkeypatch.setattr(markov, "stream", lambda seed, purpose: ScriptedStream(u))
        assert np.array_equal(simulate(kernel, pi, u.size, 0), replay_walk(kernel, pi, u[:, None])[0])
        steps = u.reshape(-1, 4)
        assert np.array_equal(simulate_batch(kernel, pi, len(steps), 4, 0),
                              replay_walk(kernel, pi, steps))

    @pytest.mark.parametrize("n, replications", [
        (2 * BLOCK_FLOATS + 3, 1),  # several blocks of one path
        (7, BLOCK_FLOATS // 3 + 1),  # two steps a block
        (3, BLOCK_FLOATS + 1),  # one step a block, wider than a block
    ])
    def test_block_boundaries(self, n, replications):
        kernel = KERNELS["sparse_7"]
        pi = stationary_distribution(kernel)
        expected = replay_chain(kernel, pi, n, 5, replications)
        assert np.array_equal(simulate_batch(kernel, pi, n, replications, 5), expected)
        if replications == 1:
            assert np.array_equal(simulate(kernel, pi, n, 5), expected[0])

    def test_random_kernels(self):
        rng = np.random.default_rng(12)
        for seed in range(60):
            m = int(rng.integers(1, 20))
            kernel = sparse(m, seed)
            pi = stationary_distribution(kernel)
            n, replications = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            expected = replay_chain(kernel, pi, n, seed, replications)
            assert np.array_equal(simulate_batch(kernel, pi, n, replications, seed), expected)
            assert np.array_equal(simulate(kernel, pi, n, seed),
                                  replay_chain(kernel, pi, n, seed)[0])

    def test_golden_trajectory(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(GOLDEN_SIMULATE))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory.txt").read_bytes() == GOLDEN_TRAJECTORY.read_bytes()


def bucket_count(keys):
    """The number of buckets of a call that bins ``keys`` uniforms: the
    largest power of two <= keys // 8, at most BLOCK_FLOATS (1 below
    TABLE_KEYS, where every uniform is bisected)."""
    return 1 << (min(keys // 8, BLOCK_FLOATS).bit_length() - 1) if keys >= TABLE_KEYS else 1


def bucket_probes(kernel, pi, size):
    """Uniforms on, one ulp below and one ulp above every CDF value of the
    kernel and of pi and every edge of ``size`` buckets next to one, plus
    0.0 and 1 - 2^-53, in [0, 1)."""
    cdfs = np.concatenate([np.cumsum(kernel.probs, axis=1).ravel(), np.cumsum(pi.weights)])
    points = np.concatenate([cdfs, np.floor(cdfs * size) / size, np.ceil(cdfs * size) / size])
    values = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                             [0.0, 1.0 - 2.0**-53]])
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


BINNED = {
    "dyadic": two_source_kernel(0.5, states=4),  # every CDF value on a bucket edge
    "sum_below_one": KERNELS["sum_below_one"],
    "sum_above_one": KERNELS["sum_above_one"],
    "sparse_7": KERNELS["sparse_7"],
}
# Key counts around the smallest bucket counts, the table threshold and the
# block size, each with the (n, replications) of a simulate_batch call that
# bins that many uniforms.
BATCH_SHAPES = {1: (2, 1), 7: (2, 7), 8: (3, 4), 9: (4, 3),
                TABLE_KEYS - 1: (820, 5), TABLE_KEYS: (257, 16), TABLE_KEYS + 1: (242, 17),
                BLOCK_FLOATS - 1: (BLOCK_FLOATS, 1), BLOCK_FLOATS: (1025, 8),
                BLOCK_FLOATS + 1: (2732, 3)}


class TestBucketBinning:
    """Each uniform is binned by one bucket-table lookup, or bisected where a
    CDF value lies inside its bucket: bit for bit the bin of a bisection."""

    @pytest.mark.parametrize("name", sorted(BINNED) + ["m_128"])
    def test_bins_equal_bisection_at_every_size(self, name):
        # The probes of every bucket count at once, so the check does not
        # lean on which count a call picks.
        kernel = {**KERNELS, **BINNED}[name]
        pi = stationary_distribution(kernel)
        grid, _ = markov._step_table(kernel)
        sizes = [1 << p for p in range(BLOCK_FLOATS.bit_length())]
        u = np.unique(np.concatenate([bucket_probes(kernel, pi, size) for size in sizes]
                                     + [np.random.default_rng(2).random(500)]))
        expected = np.searchsorted(grid, u, side="right")
        for keys in sorted({1, 7, TABLE_KEYS - 1, *(8 * size for size in sizes),
                            8 * BLOCK_FLOATS + 9}):
            assert np.array_equal(markov._binner(grid, keys)(u), expected), keys

    def test_most_buckets_of_m_128_fall_back(self):
        # A grid value strictly inside a bucket sends its uniforms to
        # bisection: at 1024 buckets, nearly all of them for this kernel.
        grid, _ = markov._step_table(KERNELS["m_128"])
        size = bucket_count(BLOCK_FLOATS)
        cells = np.unique(np.floor(grid[(grid > 0.0) & (grid < 1.0)] * size))
        assert size == 1024 and cells.size > 0.9 * size

    @staticmethod
    def replay_scripted(monkeypatch, kernel, pi, n, replications, u):
        monkeypatch.setattr(markov, "stream", lambda seed, purpose: ScriptedStream(u))
        steps = u.reshape(n, replications)
        assert np.array_equal(simulate_batch(kernel, pi, n, replications, 0),
                              replay_walk(kernel, pi, steps))
        if replications == 1:
            assert np.array_equal(simulate(kernel, pi, n, 0), replay_walk(kernel, pi, steps)[0])

    @pytest.mark.parametrize("keys", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("name", sorted(BINNED))
    def test_edge_uniforms_at_each_key_count(self, monkeypatch, name, keys):
        kernel = BINNED[name]
        pi = stationary_distribution(kernel)
        rng = np.random.default_rng(keys)
        probes = rng.permutation(bucket_probes(kernel, pi, bucket_count(keys)))
        # One simulate call bins keys = n - 1 uniforms, a batch (n - 1) * R.
        for n, replications in [(keys + 1, 1), BATCH_SHAPES[keys]]:
            total = n * replications
            for start in range(0, probes.size, total):
                u = np.resize(np.roll(probes, -start), total)
                self.replay_scripted(monkeypatch, kernel, pi, n, replications, u)

    @pytest.mark.parametrize("keys", [BLOCK_FLOATS - 1, BLOCK_FLOATS, BLOCK_FLOATS + 1])
    def test_mostly_bisected_kernel(self, monkeypatch, keys):
        kernel = KERNELS["m_128"]
        pi = stationary_distribution(kernel)
        rng = np.random.default_rng(keys)
        probes = bucket_probes(kernel, pi, bucket_count(keys))
        for n, replications in [(keys + 1, 1), BATCH_SHAPES[keys]]:
            picks = rng.choice(probes, size=n * replications - 2)
            u = rng.permutation(np.concatenate([picks, [0.0, 1.0 - 2.0**-53]]))
            self.replay_scripted(monkeypatch, kernel, pi, n, replications, u)


class TestPseudoGapReplay:
    @pytest.mark.parametrize("name", sorted(set(KERNELS) - {"one_state"}))
    def test_equals_per_k_replay(self, name):
        kernel = KERNELS[name]
        pi = stationary_distribution(kernel)
        for k_max in (1, 2, 5, 10, 13):
            assert pseudo_spectral_gap(kernel, pi, k_max) == replay_pseudo_gap(kernel, pi, k_max)

    def test_one_state_has_unit_gap(self):
        kernel = KERNELS["one_state"]
        pi = stationary_distribution(kernel)
        assert pseudo_spectral_gap(kernel, pi, 3) == replay_pseudo_gap(kernel, pi, 3) == 1.0

    def test_late_peak_lies_past_the_first_solve(self):
        kernel = KERNELS["late_peak_30"]
        pi = stationary_distribution(kernel)
        assert pseudo_spectral_gap(kernel, pi, 13) > pseudo_spectral_gap(kernel, pi, 9) > 0.0

    def test_cycle_has_zero_gap(self):
        kernel = KERNELS["cycle"]
        assert pseudo_spectral_gap(kernel, stationary_distribution(kernel), 10) == 0.0

    def test_non_reversible_kernel_is_not_self_adjoint(self):
        kernel = KERNELS["non_reversible"]
        assert not np.allclose(time_reversal(kernel, stationary_distribution(kernel)).probs, kernel.probs)

    def test_random_kernels(self):
        rng = np.random.default_rng(13)
        for seed in range(60):
            kernel = sparse(int(rng.integers(2, 20)), seed)
            pi = stationary_distribution(kernel)
            k_max = int(rng.integers(1, 12))
            assert pseudo_spectral_gap(kernel, pi, k_max) == replay_pseudo_gap(kernel, pi, k_max)

    @pytest.mark.parametrize("k_max", [10, 256])
    @pytest.mark.parametrize(
        "kernel",
        [two_source_kernel(0.3), two_source_kernel(0.3, states=16),
         two_source_kernel(0.1, states=32),
         *(dirichlet(m, seed) for m, seed in [(3, 1), (16, 2), (20, 3), (40, 4)])],
        ids=["two_source_2", "two_source_16", "two_source_32", "dirichlet_3", "dirichlet_16",
             "dirichlet_20", "dirichlet_40"],
    )
    def test_early_stop_equals_full_scan(self, monkeypatch, kernel, k_max):
        # The scan stops once 1/k cannot raise its maximum, since every gap
        # is at most 1; the per-k replay scans every k.  Past the first
        # block the stop must fire, so a 256-k scan of 16+ states solves
        # fewer blocks than it would in full.
        pi = stationary_distribution(kernel)
        solves = []
        original = markov._spectral_gaps
        monkeypatch.setattr(markov, "_spectral_gaps",
                            lambda ops, law: solves.append(len(ops)) or original(ops, law))
        assert pseudo_spectral_gap(kernel, pi, k_max) == replay_pseudo_gap(kernel, pi, k_max)
        block = max(1, BLOCK_FLOATS // kernel.states**2)
        if k_max == 256 and kernel.states >= 16:
            assert sum(solves) < k_max and len(solves) < -(-k_max // block)

    @pytest.mark.parametrize("kernel, k_max, blocks", [
        (two_source_kernel(0.3), 10, [1]),
        (KERNELS["late_peak_30"], 13, [1, 2, 4, 6]),
        (KERNELS["late_peak_30"], 40, [1, 2, 4, 8, BLOCK_FLOATS // 900, BLOCK_FLOATS // 900]),
    ], ids=["two_source_2", "late_peak_30_k13", "late_peak_30_k40"])
    def test_blocks_grow_from_one_operator(self, monkeypatch, kernel, k_max, blocks):
        # Blocks of 1, 2, 4, ... operators up to the buffer's BLOCK_FLOATS // m^2:
        # a chain whose k = 1 gap is at least 1/2 stops after one solve of one
        # operator, and a late peak pays a few small solves more.  At k_max 40
        # the 30-state scan fills 9-operator buffers, then stops at k = 34.
        assert 8 < BLOCK_FLOATS // 900 < 16
        pi = stationary_distribution(kernel)
        solves = []
        original = markov._spectral_gaps
        monkeypatch.setattr(markov, "_spectral_gaps",
                            lambda ops, law: solves.append(len(ops)) or original(ops, law))
        assert pseudo_spectral_gap(kernel, pi, k_max) == replay_pseudo_gap(kernel, pi, k_max)
        assert solves == blocks

    def test_mixed_stack_equals_per_operator_gaps(self):
        # A non-reversible kernel is not self-adjoint, so it takes the general
        # solver, while the operators around it take the symmetric one.
        kernel = KERNELS["non_reversible"]
        pi = stationary_distribution(kernel)
        reversal = time_reversal(kernel, pi)
        stack = np.stack([reversal.probs @ kernel.probs, kernel.probs,
                          np.tile(pi.weights, (5, 1)), kernel.probs @ kernel.probs])
        before = stack.copy()
        gaps = spectral_gap(stack, pi)
        assert gaps.tolist() == [operator_gap(op, pi.weights) for op in stack]
        assert [spectral_gap(op, pi) for op in stack] == gaps.tolist()
        assert np.array_equal(stack, before)  # the input is left as it was


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kernel_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TransitionKernel(states=2, probs=[[bad, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stationary_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StationaryDist(weights=[bad, 1.0])

    @pytest.mark.parametrize("states", [15, 17])
    def test_simulate_rejects_pi_of_other_length(self, states):
        kernel = two_source_kernel(0.3, states=16)
        pi = StationaryDist(weights=np.full(states, 1.0 / states))
        with pytest.raises(DimensionMismatch):
            simulate(kernel, pi, 10, 0)
        with pytest.raises(DimensionMismatch):
            simulate_batch(kernel, pi, 10, 3, 0)

    def test_spectral_gap_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatch):
            spectral_gap(np.ones((2, 3, 4)), StationaryDist(weights=[1 / 3] * 3))
