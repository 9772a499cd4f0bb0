"""Tests for the spike-and-slab prior and the reversible-jump sampler."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_gibbs import (
    ConstantStream,
    RecordingStream,
    coordinate_marginal,
    enumerate_flat_gibbs,
    enumerate_tiny_gibbs,
    histogram_of_draws,
    replay_sampler,
    support_law,
    tv_between_tables,
)

from gibbsnet import gibbs, markov, network
from gibbsnet.errors import EmptyDataset, InvalidClass, NoDraws, OutOfSupport
from gibbsnet.gibbs import (
    ClassDef,
    GibbsConfig,
    PosteriorDraws,
    Prior,
    log_prior,
    posterior_predictor,
    sample_batch,
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
from gibbsnet.network import (
    ACTIVATIONS,
    Architecture,
    SparseNetwork,
    compose_views,
    forward,
    layer_matrices,
    layer_slices,
    layer_views,
    param_count,
    unit_links,
)


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

    # An infinite decay makes the normalizer 0, whose log fails later.
    @pytest.mark.parametrize("args", [(2, 2, 1.5, 1.0), (2, 3, 2.0, 1.0), (2, 0, 2.0, 1.0),
                                      (2, 2, 2.0, 5e307), (2, 2, math.nan, 1.0),
                                      (2, 2, math.inf, 1.0)],
                             ids=["decay-below-2", "cap-above-n-coords", "zero-cap",
                                  "slab-period-overflows", "decay-nan", "decay-inf"])
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

    @pytest.mark.parametrize("bernstein_k", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_bernstein_k_rejected(self, bernstein_k):
        # NaN made the temperature NaN, which every accept test passes; inf made it 0.
        with pytest.raises(ValueError, match="Bernstein"):
            temperature(1000, 0.5, bernstein_k)


class TestGibbsConfig:
    @pytest.mark.parametrize("iters, burn_in", [(200, -5), (-1, -3)])
    def test_negative_burn_in_rejected(self, iters, burn_in):
        # n_keep would count draws before step 0, which no chain keeps.
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            GibbsConfig(support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
                        iters=iters, burn_in=burn_in, thin=3)

    @pytest.mark.parametrize("field, value, message", [
        ("temperature", math.nan, "temperature"), ("temperature", math.inf, "temperature"),
        ("support_decay", math.nan, "decay"), ("support_decay", math.inf, "decay"),
        ("output_clip", math.nan, "bounds"), ("move_probs", (math.nan, 0.5, 0.5), "probab"),
    ], ids=["temperature-nan", "temperature-inf", "support_decay-nan", "support_decay-inf",
            "output_clip-nan", "move_probs-nan"])
    def test_non_finite_setting_rejected(self, field, value, message):
        # Each NaN passed a range check written as a comparison that NaN makes false.
        settings = {"support_decay": 2.0, "weight_bound": 1.0, "output_clip": 5.0,
                    "temperature": 1.0, field: value}
        with pytest.raises(ValueError, match=message):
            GibbsConfig(**settings)


class TestSamplerBasics:
    def test_empty_data_rejected(self):
        data = Dataset(inputs=np.zeros((0, 1)), outputs=np.zeros(0))
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
            iters=100, burn_in=10,
        )
        with pytest.raises(EmptyDataset):
            sample_posterior(data, "square", tiny_classdef(), cfg)

    def test_empty_data_in_a_batch_rejected(self):
        # An empty sample has no distinct rows, so it batches alone and
        # the sampler refuses it; neither step may fail on its empty table.
        empty = Dataset(inputs=np.zeros((0, 1)), outputs=np.zeros(0))
        data, _, _ = tiny_regression_data()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
            iters=100, burn_in=10,
        )
        datas, classdefs = [empty, data], [tiny_classdef()] * 2
        assert gibbs.lockstep_batches(datas, classdefs, [cfg] * 2) == [[0], [1]]
        with pytest.raises(EmptyDataset):
            sample_batch(datas, "square", classdefs, [cfg] * 2)

    def test_unknown_loss_rejected(self):
        data, _, _ = tiny_regression_data()
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=1.0,
            iters=100, burn_in=10,
        )
        with pytest.raises(ValueError, match="'hinge'"):
            sample_posterior(data, "hinge", tiny_classdef(), cfg)
        with pytest.raises(ValueError, match="'hinge'"):
            sample_batch([data, data], "hinge", [tiny_classdef()] * 2, [cfg] * 2)

    def test_invalid_class_rejected(self):
        with pytest.raises(InvalidClass):
            ClassDef(depth=0, width=1, sparsity=0, weight_bound=1.0, output_clip=1.0)
        with pytest.raises(InvalidClass):
            ClassDef(depth=0, width=1, sparsity=3, weight_bound=1.0, output_clip=1.0)
        with pytest.raises(InvalidClass, match="positive"):
            ClassDef(depth=0, width=1, sparsity=2, weight_bound=1.0, output_clip=math.nan)

    def test_padded_parameters_capped(self):
        # Width 1 pads to 2 * (depth + 1) parameters; nothing is built here.
        ClassDef(depth=gibbs.MAX_PARAMS // 2 - 1, width=1, sparsity=2, weight_bound=1.0,
                 output_clip=1.0)
        for depth, width in [(gibbs.MAX_PARAMS // 2, 1), (2**40, 1), (0, 2**15)]:
            with pytest.raises(InvalidClass, match="depth .* and width .*MAX_PARAMS"):
                ClassDef(depth=depth, width=width, sparsity=2, weight_bound=1.0,
                         output_clip=1.0)

    @pytest.mark.parametrize("bound", [5e307, 1e308])
    def test_weight_bound_needs_finite_reflection_period(self, bound):
        # A perturb folds its weight back with period 4 * bound; an infinite
        # period would leave inf or NaN weights.
        with pytest.raises(InvalidClass, match="period"):
            ClassDef(depth=1, width=2, sparsity=4, weight_bound=bound, output_clip=1.0)
        ClassDef(depth=1, width=2, sparsity=4, weight_bound=bound / 2.5, output_clip=1.0)

    def test_step_needs_finite_reflection(self):
        # A perturb folds old + shift + bound, up to 2 * bound + step: at
        # 4e307 + 1.7e308 that sum overflows, and the chain kept inf weights.
        with pytest.raises(ValueError, match="step"):
            GibbsConfig(support_decay=2.0, weight_bound=4e307, output_clip=1.0,
                        temperature=1.0, step=1.7e308)
        GibbsConfig(support_decay=2.0, weight_bound=4e307, output_clip=1.0, temperature=1.0,
                    step=1e307)

    @staticmethod
    def wide_slab_case(bound):
        """Depth 2, width 3 on 50 inputs in [0, 1], at weight bound ``bound``."""
        rng = np.random.default_rng(0)
        data = Dataset(inputs=rng.uniform(size=(50, 1)), outputs=rng.normal(size=50))
        classdef = ClassDef(depth=2, width=3, sparsity=10, weight_bound=bound, output_clip=1.0)
        cfg = GibbsConfig(support_decay=2.0, weight_bound=bound, output_clip=1.0,
                          temperature=5.0, iters=2000, burn_in=0, seed=0)
        return data, classdef, cfg

    @pytest.mark.parametrize("bound", [1e160, 1e200, 4e307])
    def test_class_whose_outputs_may_overflow_rejected(self, bound):
        # Pre-clip outputs of up to about 18 B^3 overflow, and a NaN risk
        # passes every accept test: at 1e160 the chain kept NaN log scores.
        data, classdef, cfg = self.wide_slab_case(bound)
        with pytest.raises(InvalidClass, match="overflow"):
            sample_posterior(data, "square", classdef, cfg)
        with pytest.raises(InvalidClass, match="overflow"):
            sample_batch([data, data], "square", [classdef] * 2, [cfg] * 2)

    def test_class_with_finite_output_bound_runs(self):
        data, classdef, cfg = self.wide_slab_case(1e100)
        batch = sample_batch([data] * 2, "square", [classdef] * 2, [cfg] * 2)
        for draws in (*batch, sample_posterior(data, "square", classdef, cfg)):
            assert len(draws) == 2000
            assert np.isfinite(draws.log_scores).all() and np.isfinite(draws.thetas).all()

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


def assert_distinct_rows_match_unique(inputs):
    points, inverse = gibbs._distinct_rows(inputs)
    want_points, want_inverse = np.unique(inputs, axis=0, return_inverse=True)
    assert points.shape == want_points.shape
    assert points.tobytes() == want_points.tobytes()
    assert inverse.dtype == want_inverse.dtype == np.intp
    assert inverse.shape == want_inverse.shape == (len(inputs),)
    assert np.array_equal(inverse, want_inverse)


# Few values, so rows repeat; no -0.0, whose copy np.unique may keep apart.
ROW_VALUES = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 1.0, 3.0])


class TestDistinctRows:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
    def test_seeded_tables_match_unique(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        grid = rng.standard_normal((4, d))
        assert_distinct_rows_match_unique(grid[rng.integers(0, 4, n)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_equal_rows_are_one(self, d):
        inputs = np.tile(np.arange(1.0, d + 1.0), (9, 1))
        assert_distinct_rows_match_unique(inputs)
        points, inverse = gibbs._distinct_rows(inputs)
        assert points.shape == (1, d) and not inverse.any()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(ROW_VALUES, min_size=d, max_size=d), max_size=40)
        .map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), d))))
    def test_any_table_matches_unique(self, inputs):
        assert_distinct_rows_match_unique(inputs)


class TestLockstepBatches:
    def test_batches_keep_draws_within_budget(self, monkeypatch):
        # Depth 1, width 2 on 8 inputs: 21 coordinates, each draw kept in a
        # 144-float frame row.  A budget that counted the 21 alone would put
        # 22 of these chains in a batch, 8x over it.
        monkeypatch.setattr(gibbs, "BATCH_FLOATS", 1_400_000)
        rng = np.random.default_rng(0)
        classdef = ClassDef(depth=1, width=2, sparsity=4, weight_bound=1.0, output_clip=2.0)
        datas = [Dataset(inputs=rng.random((6, 8)), outputs=rng.random(6)) for _ in range(60)]
        cfgs = [GibbsConfig(support_decay=2.0, weight_bound=1.0, output_clip=2.0,
                            temperature=1.0, iters=3000, burn_in=0, seed=c) for c in range(60)]
        batches = gibbs.lockstep_batches(datas, [classdef] * 60, cfgs)
        assert sum(batches, []) == list(range(60))
        assert min(map(len, batches)) >= 2
        # Chains of one shape allocate alike, so one batch of each size
        # stands for all of that size.
        tracemalloc.start()
        try:
            for batch in {len(batch): batch for batch in batches}.values():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sample_batch([datas[i] for i in batch], "square", [classdef] * len(batch),
                             [cfgs[i] for i in batch])
                assert tracemalloc.get_traced_memory()[1] - base <= 8 * gibbs.BATCH_FLOATS
        finally:
            tracemalloc.stop()


def logistic_data():
    kernel = two_source_kernel(0.3, states=4)
    pi = stationary_distribution(kernel)
    return generate_classification(
        logistic_link_target([0.1, 0.4, 0.7, 0.9]), kernel, pi, n=200, seed=4
    )


# (data, loss, classdef, cfg) of the replayed chains: square loss with the
# support capped below the 7 realised coordinates over more steps than one
# block of uniforms, logistic loss, and no remove move.
REPLAY_CASES = {
    "square-capped": (
        lambda: tiny_regression_data(seed=3)[0], "square",
        ClassDef(depth=1, width=2, sparsity=3, weight_bound=0.8, output_clip=5.0),
        GibbsConfig(support_decay=2.0, weight_bound=0.8, output_clip=5.0, temperature=20.0,
                    iters=gibbs.UNIFORM_CHUNK + 1500, burn_in=500, thin=7, seed=1),
    ),
    "logistic": (
        logistic_data, "logistic",
        ClassDef(depth=1, width=3, sparsity=8, weight_bound=2.0, output_clip=0.4,
                 activation="sigmoid"),
        GibbsConfig(support_decay=2.0, weight_bound=2.0, output_clip=0.4, temperature=5.0,
                    iters=3000, burn_in=1000, thin=5, seed=6),
    ),
    "no-remove-move": (
        lambda: tiny_regression_data(seed=5)[0], "square", tiny_classdef(),
        GibbsConfig(support_decay=3.0, weight_bound=1.0, output_clip=5.0, temperature=4.0,
                    move_probs=(0.3, 0.0, 0.7), step=0.4, iters=2000, burn_in=100, seed=8),
    ),
}


class TestDrawContract:
    @pytest.mark.parametrize("name", sorted(REPLAY_CASES))
    def test_replay_reproduces_sampler(self, monkeypatch, name):
        make_data, loss, classdef, cfg = REPLAY_CASES[name]
        data = make_data()
        streams = []

        def recording_stream(seed, purpose):
            streams.append(RecordingStream(markov.stream(seed, purpose)))
            return streams[-1]

        monkeypatch.setattr(gibbs, "stream", recording_stream)
        draws = sample_posterior(data, loss, classdef, cfg)
        thetas, actives, log_scores, rates = replay_sampler(data, loss, classdef, cfg)
        np.testing.assert_array_equal(draws.thetas, thetas)
        np.testing.assert_array_equal(draws.actives, actives)
        np.testing.assert_array_equal(draws.log_scores, log_scores)
        assert draws.acceptance_rates == rates
        # One sampler stream, read as exactly 1 + 4 * iters uniforms in
        # blocks of at most one chunk of steps.
        (used,) = streams
        assert sum(block.size for block in used.blocks) == 1 + 4 * cfg.iters
        assert max(block.size for block in used.blocks) <= 4 * gibbs.UNIFORM_CHUNK

    @pytest.mark.parametrize("value", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "below-one"])
    @pytest.mark.parametrize("move_probs", [(0.25, 0.25, 0.5), (0.5, 0.5, 0.0)],
                             ids=["default-moves", "jumps-only"])
    def test_edge_uniforms_stay_in_class(self, monkeypatch, value, move_probs):
        monkeypatch.setattr(gibbs, "stream", lambda seed, purpose: ConstantStream(value))
        data, _, _ = tiny_regression_data(seed=3)
        classdef = ClassDef(depth=1, width=2, sparsity=4, weight_bound=0.8, output_clip=5.0)
        cfg = GibbsConfig(
            support_decay=2.0, weight_bound=0.8, output_clip=5.0, temperature=20.0,
            move_probs=move_probs, iters=300, burn_in=100, seed=0,
        )
        draws = sample_posterior(data, "square", classdef, cfg)
        assert np.all((draws.support_sizes >= 1) & (draws.support_sizes <= 4))
        assert np.max(np.abs(draws.thetas)) <= 0.8
        assert np.all(draws.thetas[~draws.actives] == 0.0)
        for i in range(len(draws)):
            draws.network(i)  # constructor re-checks the invariants


def recorded_clips(monkeypatch):
    """The clip argument of every forward pass the samplers make."""
    clips = []

    def recording(views, x, act_fn, clip):
        clips.append(clip)
        return network.compose_views(views, x, act_fn, clip)

    monkeypatch.setattr(gibbs, "compose_views", recording)
    return clips


def assert_replays(draws, data, loss, classdef, cfg):
    thetas, actives, log_scores, rates = replay_sampler(data, loss, classdef, cfg)
    assert np.array_equal(draws.thetas, thetas)
    assert np.array_equal(draws.actives, actives)
    assert np.array_equal(draws.log_scores, log_scores)
    assert draws.acceptance_rates == rates


class TestIdleClip:
    """``sample_posterior`` skips the output clip only where the class's
    output bound proves it idle; the draw-contract replay always clips."""

    # Slab 0.5 and width 2 keep every pre-clip output at inputs in [0, 1]
    # below 2: at most 1.9375 for ReLU at depth 2, 1.5 after a sigmoid layer.
    @pytest.mark.parametrize("loss", ["square", "logistic"])
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_idle_clip_is_skipped_bit_for_bit(self, monkeypatch, loss, activation, depth):
        data = tiny_regression_data(seed=depth)[0] if loss == "square" else logistic_data()
        classdef = ClassDef(depth=depth, width=2, sparsity=6, weight_bound=0.5, output_clip=2.0,
                            activation=activation)
        cfg = GibbsConfig(support_decay=2.0, weight_bound=0.5, output_clip=2.0, temperature=10.0,
                          step=0.2, iters=1500, burn_in=300, thin=3, seed=10 + depth)
        clips = recorded_clips(monkeypatch)
        draws = sample_posterior(data, loss, classdef, cfg)
        assert clips and all(clip is None for clip in clips)
        assert_replays(draws, data, loss, classdef, cfg)

    # Depth 0, slab 1, inputs 0.25 and 0.75: outputs reach 1.75 exactly at
    # the corner (1, 1), so a clip of 1.75 stays on, and one of 1.2 binds.
    @pytest.mark.parametrize("clip", [1.75, 1.2], ids=["clip-at-exact-bound", "binding-clip"])
    def test_clip_kept_where_a_network_reaches_it(self, monkeypatch, clip):
        data = tiny_regression_data(seed=3)[0]
        classdef = ClassDef(depth=0, width=1, sparsity=2, weight_bound=1.0, output_clip=clip)
        cfg = GibbsConfig(support_decay=2.0, weight_bound=1.0, output_clip=clip, temperature=1.0,
                          step=0.5, iters=3000, burn_in=500, seed=4)
        clips = recorded_clips(monkeypatch)
        draws = sample_posterior(data, "square", classdef, cfg)
        assert clips and all(c is not None for c in clips)
        assert_replays(draws, data, "square", classdef, cfg)
        if clip < 1.75:
            assert np.max(0.75 * draws.thetas[:, 0] + draws.thetas[:, 1]) > clip


def random_case(rng, depth, activation):
    """(data, classdef) of a random class of ``depth``: width 1-4, input
    dimension 1-2, 3-6 distinct input rows, regression outputs."""
    in_dim, width = int(rng.integers(1, 3)), int(rng.integers(1, 5))
    points = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 7)), in_dim))
    inputs = points[rng.integers(0, len(points), size=40)]
    data = Dataset(inputs=inputs, outputs=rng.normal(0.0, 1.0, size=40))
    classdef = ClassDef(depth=depth, width=width, sparsity=1, weight_bound=1.5,
                        output_clip=float(rng.choice([0.3, 50.0])), activation=activation)
    return data, classdef


def rule_cut_off(links, active, at_zero):
    """The coordinates the sampler prices without a forward pass: those that
    feed a hidden unit with no active outgoing weight or, where act(0) = 0,
    weigh a hidden unit with no active incoming coordinate (see gibbs._chain)."""
    hidden = int(links.max())
    fan_in = np.bincount(links[active, 0], minlength=hidden + 1)
    fan_out = np.bincount(links[active, 1], minlength=hidden + 1)
    fed, weighed = links[:, 0], links[:, 1]
    dead = (fed < hidden) & (fan_out[fed] == 0)
    silent = (weighed < hidden) & (fan_in[weighed] == 0)
    return dead | (silent & (at_zero == 0.0))


def layer_cut_off(arch, active, j, silent_units):
    """Whether coordinate j, by its place in the layer matrices, feeds a
    hidden unit whose outgoing weights are all inactive or, with
    ``silent_units``, weighs a hidden unit whose incoming weights and bias are
    all inactive: the rule written out from the flat layout, independently of
    :func:`unit_links`."""
    mask = layer_matrices(arch, active)
    for layer, (w, b) in enumerate(layer_matrices(arch, np.arange(active.size) == j)):
        if w.any():
            (row,), (col,) = np.nonzero(w)
        elif b.any():
            (row,), col = np.nonzero(b), None
        else:
            continue
        dead = layer < arch.depth and not mask[layer + 1][0][:, row].any()
        silent = (col is not None and layer > 0 and not mask[layer - 1][0][col].any()
                  and not mask[layer - 1][1][col])
        return dead or (silent_units and silent)


def priced_proposals(data, classdef, cfg, draws):
    """(feasible, priced) proposal counts of the chain whose every state
    ``draws`` keeps (burn_in 0, thin 1), replayed from the sampler stream
    with :func:`layer_cut_off`."""
    assert cfg.burn_in == 0 and cfg.thin == 1 and len(draws) == cfg.iters
    arch = classdef.architecture(data.inputs.shape[1])
    rng = markov.stream(cfg.seed, "sampler")
    start = rng.random()
    block = rng.random((cfg.iters, 4))
    active = np.arange(draws.prior.n_coords) == int(start * draws.prior.n_coords)
    p_add, p_remove, _ = cfg.move_probs
    silent_units = ACTIVATIONS[classdef.activation].at_zero == 0.0
    feasible = priced = 0
    for t, (u_move, u_index, _, _) in enumerate(block):
        support = int(active.sum())
        if u_move < p_add:
            pool, ok = np.flatnonzero(~active), support < draws.prior.cap
        elif u_move < p_add + p_remove:
            pool, ok = np.flatnonzero(active), support > 1
        else:
            pool, ok = np.flatnonzero(active), True
        if ok:
            j = int(pool[int(u_index * pool.size)])
            feasible += 1
            priced += not layer_cut_off(arch, active, j, silent_units)
        active = draws.actives[t]
    return feasible, priced


class TestCutOffProposals:
    """The sampler takes a proposal's risk without a forward pass where the
    proposed coordinate cannot reach the output."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("seed", range(12))
    def test_cut_off_coordinates_keep_the_risk(self, activation, seed):
        # Every coordinate the rule marks, set to a random slab value, leaves
        # the full forward pass's risk the same float under both losses.
        rng = np.random.default_rng(500 + seed)
        data, classdef = random_case(rng, 1 + seed % 3, activation)
        arch = classdef.architecture(data.inputs.shape[1])
        links, n = unit_links(arch), param_count(arch)
        act = ACTIVATIONS[activation]
        labels = Dataset(inputs=data.inputs, outputs=np.where(data.outputs > 0, 1.0, -1.0))
        risks = {}
        for loss, sample in (("square", data), ("logistic", labels)):
            points, risk_fn = gibbs._per_state_risk(sample, loss)
            risks[loss] = lambda theta, points=points, risk_fn=risk_fn: risk_fn(compose_views(
                layer_views(layer_slices(arch), theta), points.T, act.fn, classdef.output_clip))
        marked = 0
        for _ in range(20):
            active = rng.random(n) < rng.uniform(0.05, 0.6)
            theta = np.where(active, rng.uniform(-1.5, 1.5, size=n), 0.0)
            before = {loss: risk(theta).hex() for loss, risk in risks.items()}
            for j in np.flatnonzero(rule_cut_off(links, active, act.at_zero)):
                proposal = theta.copy()
                proposal[j] = rng.uniform(-1.5, 1.5)
                marked += 1
                for loss, risk in risks.items():
                    assert risk(proposal).hex() == before[loss], (loss, j)
        assert marked > 0

    def test_sigmoid_rule_never_fires_through_a_silent_unit(self):
        # A sigmoid unit with no active incoming coordinate still outputs
        # 1/2, so a weight on it moves the risk: the rule must price it.
        rng = np.random.default_rng(3)
        arch = Architecture(1, (1, 2, 1))
        links = unit_links(arch)
        # Only the output weight on hidden unit 0 is active.
        active = np.arange(param_count(arch)) == 4
        assert not rule_cut_off(links, active, ACTIVATIONS["sigmoid"].at_zero)[4:6].any()
        assert rule_cut_off(links, active, ACTIVATIONS["relu"].at_zero)[4:6].all()
        points = rng.uniform(-1.0, 1.0, size=(1, 5))
        for j in (4, 5):
            theta = np.zeros(param_count(arch))
            out = compose_views(layer_views(layer_slices(arch), theta), points,
                                ACTIVATIONS["sigmoid"].fn, None)
            theta[j] = 0.7
            moved = compose_views(layer_views(layer_slices(arch), theta), points,
                                  ACTIVATIONS["sigmoid"].fn, None)
            assert np.all(moved == out + 0.35)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_sample_posterior_prices_only_live_proposals(self, monkeypatch, activation, depth):
        # One pass for the start network, then one per proposal that is not
        # cut off; at depth 0 every coordinate reaches the output.
        data, _, _ = tiny_regression_data(seed=8)
        classdef = ClassDef(depth=depth, width=3, sparsity=6, weight_bound=1.5,
                            output_clip=2.0, activation=activation)
        cfg = GibbsConfig(support_decay=2.0, weight_bound=1.5, output_clip=2.0, temperature=4.0,
                          move_probs=(0.3, 0.3, 0.4), iters=2000, burn_in=0, thin=1, seed=7)
        passes = recorded_clips(monkeypatch)
        draws = sample_posterior(data, "square", classdef, cfg)
        feasible, priced = priced_proposals(data, classdef, cfg, draws)
        assert len(passes) == 1 + priced
        if depth == 0:
            assert priced == feasible
        elif activation == "relu":
            assert priced < feasible

    def test_sample_batch_runs_one_pass_per_price_of_its_busiest_chain(self, monkeypatch):
        # Each chain is resumed only while it waits for a price, so the batch
        # runs its start pass, then one pass per price of its busiest chain.
        data, _, _ = tiny_regression_data(seed=9)
        cases = []
        for c in range(4):
            classdef = ClassDef(depth=1, width=2 + c % 2, sparsity=4, weight_bound=1.5,
                                output_clip=2.0)
            cfg = GibbsConfig(support_decay=2.0, weight_bound=1.5, output_clip=2.0,
                              temperature=2.0 + 3.0 * c, iters=1500, burn_in=0, thin=1,
                              seed=30 + c)
            cases.append((data, classdef, cfg))
        passes = recorded_clips(monkeypatch)
        _, classdefs, cfgs = zip(*cases)
        batch = sample_batch([data] * len(cases), "square", classdefs, cfgs)
        counts = [priced_proposals(*case, draws) for case, draws in zip(cases, batch)]
        assert len(passes) == 1 + max(priced for _, priced in counts)
        assert all(priced < feasible for feasible, priced in counts)
        assert len({priced for _, priced in counts}) > 1

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_inactive_coordinates_stay_positive_zero(self, activation):
        # The rule rests on every inactive coordinate being +0.0, so that a
        # product with it is a zero of either sign and never a number.
        data, _, _ = tiny_regression_data(seed=5)
        classdef = ClassDef(depth=2, width=3, sparsity=8, weight_bound=1.0, output_clip=2.0,
                            activation=activation)
        cfgs = [GibbsConfig(support_decay=2.0, weight_bound=1.0, output_clip=2.0,
                            temperature=10.0, step=0.4, iters=3000, burn_in=0, thin=1, seed=s)
                for s in (1, 2)]
        one = sample_posterior(data, "square", classdef, cfgs[0])
        batch = sample_batch([data, data], "square", [classdef] * 2, cfgs)
        for draws in (one, *batch):
            inactive = draws.thetas[~draws.actives]
            assert inactive.size and np.all(inactive == 0.0) and not np.signbit(inactive).any()
            assert (draws.support_sizes > 1).any()


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
