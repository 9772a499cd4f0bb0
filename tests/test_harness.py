"""Tests for the experiment harness: scaling rules, sweeps, slope fits and
report emission."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracle_gibbs import RecordingStream

from gibbsnet import gibbs, harness, markov
from gibbsnet.bounds import composition_rate_rhs, oracle_rhs
from gibbsnet.errors import ConfigError, MismatchedEffectiveSize, TooFewPoints
from gibbsnet.gibbs import Prior
from gibbsnet.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    architecture_rule,
    build_chain,
    build_target,
    emit_report,
    fit_rate_slope,
    run_effective_sample_experiment,
    run_rate_sweep,
    theory_exponent,
)


def make_rows(n_eff_values, excess_values):
    return SweepResult(
        rows=[
            SweepRow(
                n=int(round(ne)), gamma=1.0, n_eff=float(round(ne)),
                excess_risk=float(e), bound_rhs=1.0, seed=0, wall_time=0.0,
            )
            for ne, e in zip(n_eff_values, excess_values)
        ]
    )


class TestArchitectureRule:
    def test_smoothness_rule_hand_values(self):
        n_eff = math.e**3
        depth, width, sparsity, bound = architecture_rule(n_eff, beta=1.0, input_dim=1)
        assert depth == 3
        assert width == 3
        assert sparsity == 9
        assert bound == math.ceil(n_eff ** (8.0 / 3.0))

    def test_composition_minimal_constant(self):
        # One stage with t = beta = 1: the depth constant is log4(4) = 1.
        n_eff = 100.0
        rule = {"kind": "composition", "betas": [1.0], "active_coords": [1.0]}
        depth, _, _, bound = architecture_rule(n_eff, beta=1.0, input_dim=1, rule=rule)
        assert depth == math.ceil(math.log(n_eff))
        assert bound == 1.0

    def test_width_power_law(self):
        w1 = architecture_rule(1000.0, 1.0, 1)[1]
        w2 = architecture_rule(2000.0, 1.0, 1)[1]
        assert abs(w2 - 2 ** (1.0 / 3.0) * w1) <= 1.0

    def test_bound_cap_applies(self):
        _, _, _, bound = architecture_rule(
            1e6, 1.0, 1, constants={"bound_cap": 123.0}
        )
        assert bound == 123.0


class TestSweepRow:
    def test_effective_size_invariant(self):
        with pytest.raises(ValueError):
            SweepRow(n=10, gamma=0.5, n_eff=6.0, excess_risk=0.0, bound_rhs=0.0,
                     seed=0, wall_time=0.0)
        row = SweepRow(n=10, gamma=0.5, n_eff=5.0, excess_risk=0.0, bound_rhs=0.0,
                       seed=0, wall_time=0.0)
        assert row.n_eff == row.n * row.gamma


class TestExperimentConfig:
    def test_n_grid_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                target={"kind": "holder"}, chain={"family": "two_source", "p": 0.5},
                n_grid=[100, 100],
            )

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="hinge"):
            ExperimentConfig(
                target={"kind": "holder"}, chain={"family": "two_source", "p": 0.5},
                n_grid=[100], loss="hinge",
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"target": {}, "chain": {}, "n_grid": [1], "typo": 1})

    @pytest.mark.parametrize("overrides", [
        {"bernstein_k": math.nan}, {"xi": math.inf}, {"gibbs": {"support_decay": math.nan}},
        {"classdef": {"depth": 0, "width": 1, "sparsity": 2, "weight_bound": 1.0,
                      "constants": {"depth_scale": math.nan}}},
    ], ids=["bernstein_k-nan", "xi-inf", "support_decay-nan", "unused-constants-nan"])
    def test_non_finite_numbers_rejected(self, overrides):
        # The library path meets the number policy the CLI does: a NaN
        # Bernstein constant made the temperature NaN, so every perturb was
        # accepted, and an infinite xi wrote infinite bounds.
        doc = {"target": {"kind": "holder"}, "chain": {"family": "two_source", "p": 0.5},
               "n_grid": [100], **overrides}
        with pytest.raises(ConfigError, match="finite number"):
            ExperimentConfig.from_dict(doc)


class TestFitRateSlope:
    def test_exact_power_law(self):
        n_eff = np.array([100.0, 200.0, 400.0, 800.0, 1600.0])
        result = make_rows(n_eff, n_eff ** (-2.0 / 3.0))
        slope, stderr = fit_rate_slope(result)
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_has_zero_slope(self):
        result = make_rows([100.0, 200.0, 400.0, 800.0], [0.3, 0.3, 0.3, 0.3])
        slope, _ = fit_rate_slope(result)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_planted_noisy_power_law(self):
        rng = np.random.default_rng(5)
        n_eff = np.array([125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0])
        excess = 3.0 * n_eff ** (-0.8) * (1.0 + 0.01 * rng.standard_normal(6))
        slope, _ = fit_rate_slope(make_rows(n_eff, excess))
        assert slope == pytest.approx(-0.8, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_rate_slope(make_rows([100.0, 200.0, 400.0], [1.0, 0.5, 0.25]))

    def test_invariant_to_scaling(self):
        n_eff = [100.0, 200.0, 400.0, 800.0]
        excess = [0.4, 0.21, 0.11, 0.05]
        s1, _ = fit_rate_slope(make_rows(n_eff, excess))
        s2, _ = fit_rate_slope(make_rows(n_eff, [7.3 * e for e in excess]))
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_medians_collapse_replications(self):
        # Three replications per n_eff; an outlier must not move the median.
        n_eff = [100.0, 200.0, 400.0, 800.0]
        rows = []
        for ne in n_eff:
            for e in (ne**-1.0, ne**-1.0, 50.0):
                rows.append(
                    SweepRow(n=int(ne), gamma=1.0, n_eff=ne, excess_risk=e,
                             bound_rhs=1.0, seed=0, wall_time=0.0)
                )
        slope, _ = fit_rate_slope(SweepResult(rows=rows))
        assert slope == pytest.approx(-1.0, abs=1e-12)


def small_sweep_config(tmp_path, **overrides):
    doc = dict(
        target={"kind": "holder", "beta": 1.0, "scale": 1.0, "dim": 1},
        chain={"family": "two_source", "p": 0.5, "states": 4},
        n_grid=[100],
        classdef={"depth": 0, "width": 1, "sparsity": 2, "weight_bound": 1.0,
                  "output_clip": 2.0},
        gibbs={"iters": 1500, "burn_in": 500, "thin": 5},
        noise=("gaussian", 0.2),
        replications=1,
        seed=42,
        output_dir=str(tmp_path),
    )
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


SMALL_CLASS = {"depth": 1, "width": 2, "sparsity": 4, "weight_bound": 1.5,
               "output_clip": 2.0}

# Frozen fixed-seed runs, each compared against tests/data/golden_<name>.csv.
GOLDEN_RUNS = {
    "sweep": lambda tmp_path: run_rate_sweep(small_sweep_config(tmp_path)),
    "sweep_uniform_grid": lambda tmp_path: run_rate_sweep(small_sweep_config(
        tmp_path, n_grid=[200, 400], p_grid=[0.3, 0.5], replications=2,
        noise=("uniform", 0.3), classdef={**SMALL_CLASS, "activation": "sigmoid"},
        gibbs={"iters": 1000, "burn_in": 200, "thin": 5}, bernstein_k=0.01,
    )),
    "sweep_logistic_average": lambda tmp_path: run_rate_sweep(small_sweep_config(
        tmp_path, n_grid=[200, 400], bernstein_k=0.01,
        target={"kind": "logistic_link", "eta": [0.2, 0.4, 0.7, 0.9]},
        loss="logistic", predictor="average", classdef=SMALL_CLASS,
        gibbs={"iters": 500, "burn_in": 100, "thin": 10},
    )),
    "effsample": lambda tmp_path: run_effective_sample_experiment(
        small_sweep_config(tmp_path, replications=2,
                           gibbs={"iters": 400, "burn_in": 100, "thin": 5}),
        pairs=[(1000, 0.5), (1334, 0.25)],
    ),
}


class TestRunRateSweep:
    def test_degenerate_sweep_reproducible(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        first = run_rate_sweep(cfg)
        second = run_rate_sweep(cfg)
        assert len(first.rows) == 1
        assert first.rows[0].excess_risk == second.rows[0].excess_risk
        assert first.rows[0].seed == cfg.seed

    def test_row_count_matches_grid(self, tmp_path):
        cfg = small_sweep_config(
            tmp_path, n_grid=[50, 100], p_grid=[0.3, 0.5], replications=2,
            gibbs={"iters": 400, "burn_in": 100, "thin": 5},
        )
        result = run_rate_sweep(cfg)
        assert len(result.rows) == 2 * 2 * 2

    def test_same_config_byte_identical_csv(self, tmp_path):
        cfg = small_sweep_config(tmp_path, n_grid=[50, 100])
        a = run_rate_sweep(cfg).to_csv(include_timing=False)
        b = run_rate_sweep(cfg).to_csv(include_timing=False)
        assert a == b

    def test_noiseless_in_class_target_is_learned(self, tmp_path):
        # On a 2-state chain the grid target is constant, hence exactly
        # representable by a bias-only network; with a near-greedy
        # temperature the sampler should pin it down.
        cfg = small_sweep_config(
            tmp_path,
            chain={"family": "two_source", "p": 0.5, "states": 2},
            n_grid=[10_000],
            noise=("gaussian", 0.0),
            replications=3,
            gibbs={"iters": 20_000, "burn_in": 10_000, "thin": 20},
            bernstein_k=1e-4,
        )
        result = run_rate_sweep(cfg)
        assert np.median([r.excess_risk for r in result.rows]) < 1e-3

    def test_oracle_bound_reads_the_sampler_prior(self, tmp_path):
        # Depth 1, width 2 on one input: 7 realised coordinates (12 padded),
        # so sparsity 9 caps at 7; n = 5 < 7 makes n_max enter the bound.
        cfg = small_sweep_config(
            tmp_path, n_grid=[5], classdef={**SMALL_CLASS, "sparsity": 9},
            gibbs={"iters": 200, "burn_in": 100, "thin": 5},
        )
        row = run_rate_sweep(cfg).rows[0]
        want = oracle_rhs(0.0, card=7, depth=1, n=5, gap=row.gamma, slab=1.5, n_max=7,
                          delta=cfg.delta, lipschitz_const=1.0, xi1=cfg.xi)
        assert row.bound_rhs == want

    def test_target_built_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        original = harness.build_target
        monkeypatch.setattr(
            harness, "build_target", lambda *args: calls.append(args) or original(*args)
        )
        cfg = small_sweep_config(
            tmp_path, n_grid=[50, 100], p_grid=[0.3, 0.5], replications=2,
            gibbs={"iters": 200, "burn_in": 100, "thin": 5},
        )
        assert len(run_rate_sweep(cfg).rows) == 8
        assert len(calls) == 1

    def test_lockstep_batches_leave_rows_unchanged(self, tmp_path, monkeypatch):
        # n = 20 on 16 states leaves states unvisited, so the rows fall into
        # batches of different distinct-input counts: fitted in lockstep, or
        # at a one-float budget one row a batch, which sample_posterior runs.
        cfg = small_sweep_config(
            tmp_path, chain={"family": "two_source", "p": 0.5, "states": 16},
            n_grid=[20, 400, 3000], p_grid=[0.5, 0.25], replications=2,
            classdef={"rule": "holder", "output_clip": 1.2,
                      "constants": {"depth_scale": 0.1, "width_scale": 0.2,
                                    "sparsity_scale": 0.5, "bound_cap": 1.5}},
            gibbs={"iters": 700, "burn_in": 100, "thin": 20},
        )
        sizes = []

        def recorded(*args):
            batches = gibbs.lockstep_batches(*args)
            sizes.append([len(batch) for batch in batches])
            return batches

        monkeypatch.setattr(harness, "lockstep_batches", recorded)
        path = tmp_path / "partial.csv"
        lockstep = run_rate_sweep(cfg, csv_path=path)
        assert sum(size > 1 for size in sizes[0]) >= 2 and 1 in sizes[0]  # some rows alone
        monkeypatch.setattr(gibbs, "BATCH_FLOATS", 1)
        alone = run_rate_sweep(cfg)
        assert sizes[1] == [1] * 12
        assert lockstep.to_csv(include_timing=False) == alone.to_csv(include_timing=False)
        assert [row.seed for row in lockstep.rows] == [cfg.seed ^ i for i in range(12)]
        assert path.read_text() == lockstep.to_csv()

    def test_partial_csv_flushed(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        path = tmp_path / "partial.csv"
        run_rate_sweep(cfg, csv_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2


class TestFitCell:
    def test_sampler_uniforms_independent_of_trajectory(self, tmp_path, monkeypatch):
        # Row seed 123: one seed feeds the cell's trajectory and its sampler,
        # through streams that must share no uniform.
        streams = {}

        def recording_stream(seed, purpose, original=markov.stream):
            streams.setdefault(purpose, []).append(RecordingStream(original(seed, purpose)))
            return streams[purpose][-1]

        for module in (markov, gibbs):
            monkeypatch.setattr(module, "stream", recording_stream)
        cfg = small_sweep_config(tmp_path, seed=123)
        chain = harness.solve_chain(cfg.chain, cfg.k_max)
        target = harness.build_target(cfg.target, chain[0].states)
        classdef, gibbs_cfg = harness.cell_settings(cfg, 100, chain[2], cfg.seed, target)
        data = harness.cell_data(cfg, 100, chain, target, gibbs_cfg.seed)
        draws = gibbs.sample_posterior(data, cfg.loss, classdef, gibbs_cfg)
        drawn = {purpose: np.concatenate([block for rec in recs for block in rec.blocks])
                 for purpose, recs in streams.items()}
        assert len(draws) == 200
        assert drawn["chain"].size == 100 and drawn["sampler"].size == 1 + 4 * 1500
        assert not set(drawn["chain"].tolist()) & set(drawn["sampler"].tolist())


class TestEffectiveSampleExperiment:
    def test_matched_pairs_accepted(self, tmp_path):
        cfg = small_sweep_config(
            tmp_path, gibbs={"iters": 600, "burn_in": 200, "thin": 5}
        )
        result = run_effective_sample_experiment(cfg, pairs=[(1000, 0.5), (1334, 0.25)])
        assert len(result.rows) == 2
        n_effs = sorted(r.n_eff for r in result.rows)
        assert n_effs[0] == pytest.approx(1000.0, rel=0.001)
        assert n_effs[1] == pytest.approx(1000.5, rel=0.001)

    def test_single_pair_trivially_valid(self, tmp_path):
        cfg = small_sweep_config(
            tmp_path, gibbs={"iters": 600, "burn_in": 200, "thin": 5}
        )
        result = run_effective_sample_experiment(cfg, pairs=[(500, 0.5)])
        assert len(result.rows) == 1

    def test_mismatched_pairs_rejected(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        with pytest.raises(MismatchedEffectiveSize):
            run_effective_sample_experiment(cfg, pairs=[(1000, 0.5), (1100, 0.5)])


class TestEmitReport:
    def test_empty_bounds_summary(self, tmp_path):
        result = make_rows([100.0, 200.0, 400.0, 800.0], [0.4, 0.2, 0.1, 0.05])
        result.meta["theory_exponent"] = -2.0 / 3.0
        emit_report(result, str(tmp_path / "report"))
        summary = json.loads((tmp_path / "report.json").read_text())
        assert "bound_reports" not in summary
        assert summary["theory_exponent"] == pytest.approx(-2.0 / 3.0)
        assert summary["slope"] == pytest.approx(-1.0, abs=0.01)

    def test_csv_column_order_fixed(self, tmp_path):
        result = make_rows([100.0, 200.0, 400.0, 800.0], [0.4, 0.2, 0.1, 0.05])
        emit_report(result, str(tmp_path / "report"))
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "n,gamma,n_eff,excess_risk,bound_rhs,seed,wall_time"

    def test_csv_round_trip(self, tmp_path):
        result = make_rows([100.0, 200.0, 400.0, 800.0], [0.4, 0.2, 0.1, 0.05])
        text = result.to_csv()
        restored = SweepResult.from_csv(text)
        assert [r.n for r in restored.rows] == [r.n for r in result.rows]
        np.testing.assert_allclose(
            [r.excess_risk for r in restored.rows],
            [r.excess_risk for r in result.rows],
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_golden_file(self, tmp_path, name):
        # Frozen output of a fixed-seed run (timing column zeroed); guards
        # the whole pipeline against silent behavioural drift.
        text = GOLDEN_RUNS[name](tmp_path).to_csv(include_timing=False)
        golden = Path(__file__).parent / "data" / f"golden_{name}.csv"
        assert text == golden.read_text()


class TestBuilders:
    def test_two_source_chain(self):
        kernel = build_chain({"family": "two_source", "p": 0.25, "states": 4})
        assert kernel.states == 4
        np.testing.assert_allclose(kernel.probs.sum(axis=1), 1.0)

    def test_explicit_chain(self):
        kernel = build_chain({"family": "explicit", "probs": [[0.5, 0.5], [0.2, 0.8]]})
        assert kernel.states == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            build_chain({"family": "nope"})

    def test_target_state_count_enforced(self):
        with pytest.raises(ConfigError):
            build_target({"kind": "logistic_link", "eta": [0.5, 0.5]}, states=4)

    def test_theory_exponent(self):
        config = ExperimentConfig(
            target={"kind": "holder", "beta": 1.0, "dim": 1},
            chain={"family": "two_source", "p": 0.5},
            n_grid=[100],
        )
        assert theory_exponent(config) == pytest.approx(-2.0 / 3.0)

    def test_holder_target_is_one_stage_composition(self):
        holder = build_target({"kind": "holder", "beta": 1.5, "dim": 2, "scale": 0.5}, states=4)
        stage = build_target({"kind": "composition", "dims": [2, 1], "active_coords": [2],
                              "betas": [1.5], "scale": 0.5}, states=4)
        assert holder.points.tobytes() == stage.points.tobytes()
        assert holder.values.tobytes() == stage.values.tobytes()

    def test_theory_exponent_composition(self):
        config = ExperimentConfig(
            target={"kind": "composition", "dims": [1, 2, 1], "active_coords": [1, 2],
                    "betas": [1.0, 0.5]},
            chain={"family": "two_source", "p": 0.5},
            n_grid=[100],
        )
        # beta* = (0.5, 0.5); on the diagonal states every stage reads one
        # scalar, so t = (1, 1) whatever active_coords says: both exponents -1/2.
        assert theory_exponent(config) == pytest.approx(-0.5)

    def test_theory_exponent_holder_on_diagonal(self):
        # A dim-3 holder target on diagonal states is a function of one
        # scalar: -2 beta / (2 beta + 1), not -2 beta / (2 beta + 3).
        config = ExperimentConfig(
            target={"kind": "holder", "beta": 2.0, "dim": 3},
            chain={"family": "two_source", "p": 0.5},
            n_grid=[100],
        )
        assert theory_exponent(config) == pytest.approx(-4.0 / 5.0)

    def test_holder_rule_bound_is_one_stage_composition(self):
        config = ExperimentConfig(
            target={"kind": "holder", "beta": 2.0, "dim": 3},
            chain={"family": "two_source", "p": 0.5},
            n_grid=[100],
            classdef={"rule": "holder", "lipschitz_const": 0.5},
            xi=0.3,
        )
        classdef = harness.resolve_classdef(config.classdef, config.target, 40.0)
        prior = Prior.of_class(classdef, 3, 2.0)
        assert harness._bound_rhs(config, classdef.depth, prior, 100, 0.4) == composition_rate_rhs(
            40.0, [2.0], [3], config.delta, 0.5, 0.3
        )
