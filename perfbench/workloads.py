"""The benchmark's workloads.

Each workload is one closed loop: a single caller issues the next operation
only after the previous one returned.  A run repeats *passes*, each a fixed
list of operations whose sizes never depend on the seed; the seed (and the
pass index) only draws the values inside them, so every seed costs about
the same.  Inputs for a pass are generated before its timer starts and its
outputs are checked after the timer stops.

The package is reached through module attributes (``markov.simulate``,
never a name bound at import), so the span tracer's replacements also
catch the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from gibbsnet import bounds, cli, gibbs, harness, markov, model, network

# The sweep CSV contract: header, one row per cell, in this column order.
CSV_HEADER = ("n", "gamma", "n_eff", "excess_risk", "bound_rhs", "seed", "wall_time")
TV_TOLERANCE = 0.05  # criterion C2's tolerance against the enumerated law


@dataclass
class PassResult:
    """What one pass did: its wall time (first operation start to last
    operation end), per-operation latencies, work done, failures and the
    values the gates computed."""

    wall: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    steps: int = 0
    gate: dict = field(default_factory=dict)
    reference: float = 0.0  # reference_seconds() around the pass, set by the runner


PASS_STREAM, DATA_STREAM = 0, 1


def sub_seed(seed: int, stream: int, index: int = 0) -> int:
    """Seed number ``index`` of ``stream`` for a run started with ``seed``.

    Passes and fixed data draw from different streams, so no sampler seed
    equals the seed its data were generated from.
    """
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)[0]
    return int(state & 0x7FFFFFFF)


REFERENCE_ITERS = 1600


def reference_seconds() -> float:
    """Best of three timings of a fixed loop shaped like a sampler step
    (a random draw, an index scan, a tiny matrix product, clipping and a
    dot product) that uses numpy alone, never the package.

    The machine this runs on drifts in speed by tens of percent over tens
    of seconds.  Timed around every pass, this loop drifts with it, so pass
    times expressed in its units hold steady, while a change to the package
    cannot move it."""
    rng = np.random.default_rng(0)
    points = np.linspace(0.0, 1.0, 16)[:, None]
    theta = np.linspace(-0.5, 0.5, 9)
    active = np.arange(9) % 2 == 0
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(REFERENCE_ITERS):
            j = int(np.flatnonzero(active)[rng.integers(5)])
            theta[j] = rng.uniform(-0.5, 0.5)
            hidden = np.maximum(points @ theta[:3].reshape(1, 3) + theta[3:6], 0.0)
            out = np.clip(hidden @ theta[6:9], -1.0, 1.0)
            acc += math.log(1.0 + float(np.dot(out, out)))
        best = min(best, time.perf_counter() - start)
    return best


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Sweep:
    """A C5-shaped rate sweep (16-state two-source chain, rule-sized classes,
    thin 60) run in-process through ``cli.main(["sweep", ...])``."""

    def __init__(self, seed: int, root: Path, scratch: Path, tiny: bool = False):
        self.seed = seed
        iters = 600 if tiny else 6000
        self.doc = {
            "target": {"kind": "holder", "beta": 1.0, "scale": 1.0, "dim": 1},
            "chain": {"family": "two_source", "p": 0.5, "states": 16},
            "n_grid": [250, 500, 1000, 2000, 4000],
            "p_grid": [0.5, 0.25],
            "classdef": {
                "rule": "holder",
                "constants": {"depth_scale": 0.1, "width_scale": 0.2,
                              "sparsity_scale": 0.5, "bound_cap": 1.5},
                "output_clip": 1.2,
            },
            "gibbs": {"iters": iters, "burn_in": iters // 2, "thin": 60, "step": 0.3,
                      "move_probs": [0.3, 0.3, 0.4]},
            "noise": ["gaussian", 0.3],
            "replications": 1,
            "seed": seed,
            "bernstein_k": 0.1,
            "predictor": "single_draw",
        }
        self.iters = iters
        self.cells = [
            (p, n) for p in self.doc["p_grid"] for n in self.doc["n_grid"]
            for _ in range(self.doc["replications"])
        ]
        self.out = scratch
        self.config_path = self.out / "config.json"
        self.config_path.write_text(json.dumps(self.doc))
        warm = dict(self.doc, n_grid=[250, 500, 1000, 2000], p_grid=[0.5],
                    gibbs=dict(self.doc["gibbs"], iters=600, burn_in=300))
        self.warm_path = self.out / "warm.json"
        self.warm_path.write_text(json.dumps(warm))
        harness.ExperimentConfig.from_dict(json.loads(self.config_path.read_text()))

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(self.warm_path),
                             "--out", str(self.out / "warm")])
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited with {code}")

    def pass_inputs(self, index: int) -> int:
        return sub_seed(self.seed, PASS_STREAM, index)

    def run_pass(self, seed: int, tag) -> PassResult:
        res = PassResult(attempted=len(self.cells), steps=len(self.cells) * self.iters)
        out = self.out / "pass"
        argv = ["sweep", "--config", str(self.config_path), "--seed", str(seed),
                "--out", str(out)]
        tag.op = "sweep"
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
            code = f"raised {exc!r}"
        res.wall = time.perf_counter() - start
        if code != 0:
            res.failures = [f"sweep seed {seed}: exit {code}: {stderr.getvalue().strip()}"] * len(
                self.cells
            )
            return res
        files = {name: (out / name) for name in ("sweep.csv", "sweep_partial.csv", "sweep.json")}
        texts = {name: path.read_text() for name, path in files.items()}
        failures, res.latencies, res.gate = check_sweep(
            texts["sweep.csv"], texts["sweep_partial.csv"], json.loads(texts["sweep.json"]),
            self.cells, seed,
        )
        res.failures = failures
        return res


def _own_slope(rows) -> float:
    """Least squares of log(median excess risk) on log(n_eff), replications
    sharing an n_eff collapsed to their median first."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(round(row["n_eff"], 9), []).append(row["excess_risk"])
    keys = sorted(groups)
    x = np.log(np.array(keys))
    y = np.log(np.maximum([np.median(groups[k]) for k in keys], 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def check_sweep(csv_text: str, partial_text: str, summary: dict, cells, seed: int):
    """Gate one sweep's outputs.

    Returns (failures, per-cell wall times, gate values).  A row-level
    failure costs that cell; a sweep-level one (header, row count, slope,
    report) costs every cell.
    """
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    whole = []
    if not lines or tuple(lines[0].split(",")) != CSV_HEADER:
        whole.append(f"CSV header {lines[:1]} differs from {','.join(CSV_HEADER)}")
    body = lines[1:]
    if len(body) != len(cells):
        whole.append(f"{len(body)} CSV rows for {len(cells)} cells")
    partial = [ln for ln in partial_text.splitlines() if ln.strip()]
    if partial != lines:
        whole.append("streamed partial CSV differs from the final CSV")
    bad_rows, rows, latencies = [], [], []
    for index, (line, (p, n)) in enumerate(zip(body, cells)):
        try:
            fields = line.split(",")
            row = dict(zip(CSV_HEADER, [float(v) for v in fields]))
        except ValueError:
            bad_rows.append(f"row {index}: unparsable {line!r}")
            continue
        rows.append(row)
        latencies.append(row["wall_time"])
        exact_gap = 4.0 * p * (1.0 - p)
        problems = []
        if len(fields) != len(CSV_HEADER):
            problems.append(f"{len(fields)} fields")
        if row["n"] != n:
            problems.append(f"n {row['n']} != {n}")
        if int(row["seed"]) != seed ^ index:
            problems.append(f"seed {int(row['seed'])} != {seed ^ index}")
        if not abs(row["gamma"] - exact_gap) <= 1e-9:
            problems.append(f"gamma {row['gamma']} != exact pseudo-gap {exact_gap}")
        if not abs(row["n_eff"] - row["n"] * row["gamma"]) <= 1e-9 * max(1.0, row["n_eff"]):
            problems.append(f"n_eff {row['n_eff']} != n*gamma {row['n'] * row['gamma']}")
        if not (_finite(row["excess_risk"]) and row["excess_risk"] >= 0.0):
            problems.append(f"excess_risk {row['excess_risk']} not finite and >= 0")
        if not (_finite(row["bound_rhs"], row["wall_time"]) and row["wall_time"] >= 0.0):
            problems.append("bound_rhs or wall_time not finite")
        if problems:
            bad_rows.append(f"row {index}: " + "; ".join(problems))
    gate = {}
    if not whole and not bad_rows:
        slope = _own_slope(rows)
        gate["slope"] = slope
        if not slope < 0.0:
            whole.append(f"fitted rate slope {slope} is not negative")
        reported = summary.get("slope")
        if reported is None or not abs(reported - slope) <= 1e-6 * max(1.0, abs(slope)):
            whole.append(f"sweep.json slope {reported} differs from the CSV fit {slope}")
    if whole:
        failures = [f"sweep seed {seed}: " + "; ".join(whole)] * len(cells)
    else:
        failures = [f"sweep seed {seed}: {msg}" for msg in bad_rows]
    return failures, latencies, gate


def load_oracle(root: Path):
    """The test suite's brute-force posterior oracle, imported read-only."""
    spec = importlib.util.spec_from_file_location("oracle_gibbs", root / "tests" / "oracle_gibbs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LongChain:
    """One C2-shaped chain (depth 0, width 1, two states, thin 1) whose
    200 000 kept draws are gated against the enumerated posterior."""

    BINS = 41

    def __init__(self, seed: int, root: Path, scratch: Path, tiny: bool = False):
        self.seed = seed
        self.oracle = load_oracle(root)
        self.iters, self.burn_in = (22_000, 2_000) if tiny else (220_000, 20_000)
        kernel = markov.two_source_kernel(0.5)
        pi = markov.stationary_distribution(kernel)
        target = model.holder_target(beta=1.0, m=2)
        base = model.generate_regression(
            target, kernel, pi, n=150, noise=("gaussian", 0.3), seed=sub_seed(seed, DATA_STREAM)
        )
        # Off-centre outputs spread posterior mass over all three supports.
        self.data = model.Dataset(inputs=base.inputs, outputs=base.outputs + 0.3)
        gamma = markov.pseudo_spectral_gap(kernel, pi, k_max=10)
        self.lam = gibbs.temperature(len(self.data), gamma, 1.0)
        self.classdef = gibbs.ClassDef(depth=0, width=1, sparsity=2, weight_bound=1.0,
                                       output_clip=5.0)
        self.table = self.oracle.enumerate_tiny_gibbs(
            self.data.inputs[:, 0], self.data.outputs, slab=1.0, clip=5.0, decay=2.0,
            lam=self.lam, bins=self.BINS,
        )

    def config(self, seed: int, iters: int, burn_in: int):
        return gibbs.GibbsConfig(
            support_decay=2.0, weight_bound=1.0, output_clip=5.0, temperature=self.lam,
            step=0.5, iters=iters, burn_in=burn_in, thin=1, seed=seed,
        )

    def warm_up(self) -> None:
        gibbs.sample_posterior(self.data, "square", self.classdef,
                               self.config(self.seed, 5_000, 1_000))

    def pass_inputs(self, index: int):
        return self.config(sub_seed(self.seed, PASS_STREAM, index), self.iters, self.burn_in)

    def run_pass(self, cfg, tag) -> PassResult:
        res = PassResult(attempted=1, steps=cfg.iters)
        tag.op = "chain"
        start = time.perf_counter()
        try:
            draws = gibbs.sample_posterior(self.data, "square", self.classdef, cfg)
        except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
            res.wall = time.perf_counter() - start
            res.failures = [f"chain seed {cfg.seed} raised {exc!r}"]
            return res
        res.wall = time.perf_counter() - start
        res.latencies = [res.wall]
        res.failures, res.gate = self.check(draws, cfg)
        return res

    def check(self, draws, cfg):
        expected = cfg.iters - cfg.burn_in
        if len(draws) != expected:
            return [f"chain seed {cfg.seed}: {len(draws)} draws, expected {expected}"], {}
        if not (draws.actives.any(axis=1).all()
                and np.all(np.abs(draws.thetas) <= draws.weight_bound)):
            return [f"chain seed {cfg.seed}: a draw leaves the class"], {}
        tv = self.oracle.tv_between_tables(self.table, draw_histogram(draws, self.BINS))
        if not tv <= TV_TOLERANCE:
            return [f"chain seed {cfg.seed}: TV {tv:.4f} to the enumerated law > "
                    f"{TV_TOLERANCE}"], {"tv": tv}
        return [], {"tv": tv}


def draw_histogram(draws, bins: int) -> dict:
    """Vectorised ``oracle_gibbs.histogram_of_draws`` for the two-coordinate
    class: {(support, cells): frequency}."""
    slab = draws.weight_bound
    cells = np.clip(np.floor((draws.thetas + slab) / (2.0 * slab) * bins), 0, bins - 1)
    cells = cells.astype(np.int64)
    act = draws.actives.astype(np.int64)
    support = act[:, 0] + 2 * act[:, 1]  # 1: (0,), 2: (1,), 3: (0, 1)
    first = np.where(support == 2, cells[:, 1], cells[:, 0])
    second = np.where(support == 3, cells[:, 1], 0)
    codes = (support * bins + first) * bins + second
    values, counts = np.unique(codes, return_counts=True)
    supports = {1: (0,), 2: (1,), 3: (0, 1)}
    table = {}
    for code, count in zip(values.tolist(), counts.tolist()):
        sup, rest = divmod(code, bins * bins)
        i, j = divmod(rest, bins)
        key_cells = (i, j) if sup == 3 else (i,)
        table[(supports[sup], key_cells)] = count / len(draws)
    return table


def random_lipschitz_pair(rng, activation: str):
    """Two networks on one support whose layer row sums respect a common
    bound (the C10 construction), plus that bound."""
    depth = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(1, 5)) for _ in range(depth + 2))
    arch = network.Architecture(depth, widths)
    size = network.param_count(arch)
    bound = float(rng.uniform(0.5, 2.0))
    keep = rng.random(size) < rng.uniform(0.3, 1.0)
    if not keep.any():
        keep[rng.integers(0, size)] = True
    nets = []
    for _ in range(2):
        theta = np.zeros(size)
        for w_sl, b_sl, (rows, cols) in network.layer_slices(arch):
            w_keep = keep[w_sl].reshape((rows, cols), order="F")
            per_row = np.maximum(w_keep.sum(axis=1, keepdims=True), 1)
            w = rng.uniform(-1.0, 1.0, size=(rows, cols)) * bound / per_row * w_keep
            theta[w_sl] = w.flatten(order="F")
            theta[b_sl] = rng.uniform(-bound, bound, size=rows) * keep[b_sl]
        nets.append(network.SparseNetwork(arch=arch, theta=theta, active=np.flatnonzero(keep),
                                          weight_bound=bound, output_clip=1e12))
    return nets[0], nets[1], bound


class Checks:
    """C3/C4-style Monte Carlo bound checks, C9 divergence checks, C10-style
    Lipschitz pairs, C8-style short data sets and a chain scan."""

    N_GRID = (30, 50, 70, 90, 110)  # criterion C4's range of n
    SCAN_STATES = (2, 16, 64, 128)
    GENERATE_N = 100

    def __init__(self, seed: int, root: Path, scratch: Path, tiny: bool = False):
        self.seed = seed
        scale = 10 if tiny else 1
        self.n_mgf = 40 // scale
        self.n_bernstein = 40 // scale
        self.n_kl = 50 // scale
        self.n_lipschitz = 500 // scale
        self.n_generate = 100 // scale
        self.trajectory_n = 100_000 // scale
        self.replications = 400
        self.gen_kernel = markov.two_source_kernel(0.5, states=4)
        self.gen_pi = markov.stationary_distribution(self.gen_kernel)
        self.gen_target = model.holder_target(beta=1.0, m=4)
        self.first = self.pass_inputs(0)

    def warm_up(self) -> None:
        kinds = {}
        for op in self.first:
            kinds.setdefault(op.kind, op)
        for op in kinds.values():
            op.call()

    def pass_inputs(self, index: int):
        """The pass's operations, each an ``Op``."""
        rng = np.random.default_rng(sub_seed(self.seed, PASS_STREAM, index))
        ops = []
        for case in range(self.n_mgf):
            if case % 2 == 0:
                m = int(rng.integers(2, 5))
                probs = rng.uniform(0.05, 1.0, size=(m, m))
                kernel = markov.TransitionKernel(states=m, probs=probs / probs.sum(axis=1, keepdims=True))
            else:
                m = 2
                kernel = markov.two_source_kernel(float(rng.uniform(0.05, 0.5)))
            pi = markov.stationary_distribution(kernel)
            gap = markov.pseudo_spectral_gap(kernel, pi, k_max=10)
            kwargs = dict(
                f_table=rng.uniform(-1.0, 1.0, size=m),
                n=self.N_GRID[case % len(self.N_GRID)],
                theta=float(rng.uniform(0.1, 0.9)) * gap / 10.0,
                replications=self.replications,
                seed=int(rng.integers(1 << 30)),
            )
            ops.append(Op("mc", partial(bounds_call, "mc_check_chain_mgf", kernel, pi, **kwargs),
                          _gate_mc, kwargs["n"] * self.replications))
        families = ("gaussian", "uniform", "rademacher")
        for case in range(self.n_bernstein):
            m = int(rng.choice((2, 4)))
            kernel = markov.two_source_kernel(float(rng.uniform(0.08, 0.5)), states=m)
            pi = markov.stationary_distribution(kernel)
            gap = markov.pseudo_spectral_gap(kernel, pi, k_max=10)
            net = network.SparseNetwork(
                arch=network.Architecture(0, (1, 1)), theta=rng.uniform(-1.0, 1.0, size=2),
                active=np.array([0, 1]), weight_bound=1.0, output_clip=5.0,
            )
            n = self.N_GRID[case % len(self.N_GRID)]
            kwargs = dict(
                # lam = f * n*gap/10 puts 0.16 f^2/(1-f) * K*excess * n*gap in
                # the bound's exponent.  Here K*excess <= 2.5^2 * (2.5^2 + 4*0.36)
                # < 48, so f <= 0.5 keeps it below 0.08 * 48 * 110 < 709 and the
                # report finite, as the gate requires; near f = 0.9 math.exp
                # overflows and raises OverflowError.
                lam=float(rng.uniform(0.1, 0.5)) * n * gap / 10.0, n=n,
                replications=self.replications, seed=int(rng.integers(1 << 30)),
                noise=(families[case % 3], float(rng.uniform(0.1, 0.6))),
            )
            target = model.holder_target(beta=1.0, m=m)
            ops.append(Op("mc", partial(bounds_call, "mc_check_bernstein", net, target, kernel,
                                        pi, "square", **kwargs),
                          _gate_bernstein, n * self.replications))
        for _ in range(self.n_kl):
            n_max = int(rng.integers(2, 40))
            slab = float(rng.uniform(0.5, 10.0))
            args = (int(rng.integers(1, n_max + 1)), float(rng.uniform(0.01, min(1.0, slab))),
                    float(rng.uniform(2.0, 12.0)), slab, n_max)
            ops.append(Op("kl", partial(bounds_call, "kl_numeric_check", *args), _gate_kl))
        for case in range(self.n_lipschitz):
            activation = "relu" if case % 2 == 0 else "sigmoid"
            net1, net2, bound = random_lipschitz_pair(rng, activation)
            x = rng.uniform(-2.0, 2.0, size=net1.arch.input_dim)
            ops.append(Op("lipschitz", partial(_lipschitz, net1, net2, bound, x, activation),
                          _gate_lipschitz))
        for _ in range(self.n_generate):
            ops.append(Op("generate", partial(_generate, self, int(rng.integers(1 << 30))),
                          _gate_generate, self.GENERATE_N))
        for m in self.SCAN_STATES:
            probs = rng.dirichlet(np.ones(m), size=m)
            kernel = markov.TransitionKernel(states=m, probs=probs)
            ops.append(Op("scan", partial(_scan, kernel), _gate_scan))
        p = float(rng.uniform(0.2, 0.5))
        ops.append(Op("trajectory", partial(_trajectory, p, self.trajectory_n,
                                            int(rng.integers(1 << 30))),
                      _gate_trajectory, self.trajectory_n))
        return ops

    def run_pass(self, ops, tag) -> PassResult:
        res = PassResult(attempted=len(ops), steps=sum(op.steps for op in ops))
        outputs = []
        first = time.perf_counter()
        for index, op in enumerate(ops):
            tag.op = f"{op.kind}:{index}"
            start = time.perf_counter()
            try:
                outputs.append(op.call())
            except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
                outputs.append(exc)
            if op.kind == "mc":
                res.latencies.append(time.perf_counter() - start)
        res.wall = time.perf_counter() - first
        for op, out in zip(ops, outputs):
            problem = f"raised {out!r}" if isinstance(out, Exception) else op.gate(out)
            if problem:
                res.failures.append(f"{op.kind}: {problem}")
        return res


@dataclass(frozen=True)
class Op:
    """One prepared operation: its kind, the call, the gate that judges its
    output (returning a problem or None) and the chain transitions it
    simulates."""

    kind: str
    call: object
    gate: object
    steps: int = 0


def bounds_call(name, *args, **kwargs):
    return getattr(bounds, name)(*args, **kwargs)


def _lipschitz(net1, net2, bound, x, activation):
    act = network.ACTIVATIONS[activation]
    lhs = float(np.max(np.abs(
        np.atleast_1d(network.forward(net1, x, activation, clip=False))
        - np.atleast_1d(network.forward(net2, x, activation, clip=False))
    )))
    rate = network.lipschitz_parameter_bound(
        net1.arch, bound, act.lipschitz, act.at_zero, float(np.max(np.abs(x)))
    )
    return lhs, rate * network.param_distance(net1, net2)


def _generate(workload, seed):
    return model.generate_regression(workload.gen_target, workload.gen_kernel, workload.gen_pi,
                                     n=workload.GENERATE_N, noise=("gaussian", 1.0), seed=seed)


def _scan(kernel):
    pi = markov.stationary_distribution(kernel)
    return kernel, pi, markov.pseudo_spectral_gap(kernel, pi, k_max=10)


def _trajectory(p, n, seed):
    kernel = markov.two_source_kernel(p, states=16)
    pi = markov.stationary_distribution(kernel)
    traj = markov.simulate(kernel, pi, n=n, seed=seed)
    return p, markov.estimate_pseudo_gap(traj, 16, k_max=10)


def _report_finite(report) -> bool:
    numbers = [report.rhs_value, report.empirical_value]
    numbers += [v for v in report.params.values() if isinstance(v, float)]
    return _finite(*numbers)


def _gate_mc(report):
    return None if _report_finite(report) else f"non-finite report {report.to_dict()}"


def _gate_bernstein(report):
    if not _report_finite(report):
        return f"non-finite report {report.to_dict()}"
    if report.params["k_bernstein"] != report.params["k_exact"]:
        return "Bernstein constant is not the exact enumerated one"
    return None


def _gate_kl(report):
    if not _report_finite(report):
        return f"non-finite report {report.to_dict()}"
    if not (report.holds and report.empirical_value <= report.rhs_value):
        return f"KL {report.empirical_value} exceeds its bound {report.rhs_value}"
    return None


def _gate_lipschitz(pair):
    lhs, rhs = pair
    if not _finite(lhs, rhs):
        return f"non-finite Lipschitz pair {pair}"
    if lhs > rhs * (1 + 1e-9) + 1e-12:
        return f"output gap {lhs} exceeds the Lipschitz bound {rhs}"
    return None


def _gate_generate(data):
    if len(data) != Checks.GENERATE_N or not np.all(np.isfinite(data.outputs)):
        return "generated sample has the wrong size or non-finite outputs"
    return None


def _gate_scan(result):
    kernel, pi, gap = result
    weights = pi.weights
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0)
            and abs(weights.sum() - 1.0) <= 1e-9):
        return f"stationary law at m={kernel.states} is not a distribution"
    if np.max(np.abs(weights @ kernel.probs - weights)) > 1e-9:
        return f"pi P != pi at m={kernel.states}"
    if not (_finite(gap) and 0.0 < gap <= 1.0):
        return f"pseudo-gap {gap} outside (0, 1] at m={kernel.states}"
    return None


def _gate_trajectory(result):
    p, estimate = result
    exact = 4.0 * p * (1.0 - p)
    if not (_finite(estimate) and abs(estimate - exact) <= 0.05):
        return f"plug-in pseudo-gap {estimate} is not within 0.05 of {exact}"
    return None


WORKLOADS = {"sweep": Sweep, "long_chain": LongChain, "checks": Checks}
