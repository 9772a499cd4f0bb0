"""gibbsnet benchmark.

    python3 perfbench/run.py --workload {sweep,long_chain,checks} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src/`` directory and nothing is installed.  One process is one closed
loop: set up, then repeat passes of the workload (see ``workloads.py``)
until ``--seconds`` have gone by, check every output, and print one JSON
line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with no tracing installed.
The machine this was written on drifts in speed by 15-20% between runs,
more than any bound may allow, so pass times are expressed in units of a
fixed reference loop (``workloads.reference_seconds``) timed before and
after every pass; the raw seconds are printed on the ``#`` line.

    setup_s        median over several set-ups (this process plus fresh
                   child processes) of: import, config parse, input
                   generation and one warm-up operation, in seconds
    wall_refs      median over passes of one pass's wall time, first
                   operation start to last operation end (the checks run
                   after the timer), in reference-loop times
    op_p50_refs    median latency of one operation, in reference-loop
                   times: a grid cell (the sweep CSV's wall_time), a chain,
                   or a Monte Carlo bound check
    steps_per_ref  median over passes of work steps per reference-loop
                   time: Metropolis-Hastings steps (sweep, long_chain) or
                   simulated chain transitions (checks)
    peak_rss_mb    peak resident memory of this process

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.layer_metrics``, per traced pass; the spans
are written to ``.bench_out/trace-<workload>-<seed>.json``.

A failed gate makes ``correct`` false and the exit code 1.  Without the
package sources next to the benchmark the run exits with 2 and prints no
result.  The self-test is ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the matrices here are at most 128 x 128, so more
# BLAS threads only add contention on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402 - the benchmark's own module; it does not load numpy

SETUP_CHILDREN = 6  # fresh processes timed for setup_s, besides this one
CHILD_TIMEOUT_S = 60


class MissingProgram(Exception):
    """The package sources are not where the benchmark expects them."""


PACKAGE = ROOT / "src" / "gibbsnet"


def check_program() -> None:
    """Fail before writing anything when the package sources are missing."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no package sources at {PACKAGE}")


def timed_setup(name: str, seed: int, scratch: Path, tiny: bool = False):
    """Import the package, build the workload and run one warm-up operation.

    Returns (seconds, workload).  Nothing of numpy or gibbsnet may be
    imported before this is called, since importing them is part of set-up.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    gibbsnet = importlib.import_module("gibbsnet")
    if Path(gibbsnet.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingProgram(f"imported gibbsnet from {gibbsnet.__file__}, not {PACKAGE}")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed, ROOT, scratch, tiny=tiny)
    workload.warm_up()
    return time.perf_counter() - start, workload


def setup_child(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
    }


class _Untraced:
    """Stands in for the tracer when none is installed; keeps the op tag."""

    op = None


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_children: int = SETUP_CHILDREN) -> dict:
    """One benchmark run; returns the result line as a dict plus a ``notes``
    entry of context that is printed but is not part of the result."""
    scratch = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, workload = timed_setup(name, seed, scratch, tiny=tiny)
        setups = [setup_s]
        if not trace:
            setups += [setup_child(name, seed) for _ in range(setup_children)]

        import workloads  # noqa: PLC0415 - loaded by set-up, which times that import

        tracer = spans.Tracer() if trace else None
        untraced, traced = [], []
        min_passes = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        index = 0
        reference = workloads.reference_seconds()
        while index < min_passes or time.perf_counter() < deadline:
            inputs = workload.pass_inputs(index)
            use_tracer = trace and index % 2 == 1
            tag = tracer if use_tracer else _Untraced()
            with tracer if use_tracer else contextlib.nullcontext():
                result = workload.run_pass(inputs, tag)
            following = workloads.reference_seconds()
            result.reference = 0.5 * (reference + following)
            reference = following
            (traced if use_tracer else untraced).append(result)
            index += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(r.attempted for r in passes)
    failures = [msg for r in passes for msg in r.failures]
    notes = {"env": environment(), "workload": name, "seed": seed,
             "passes": len(passes), "traced_passes": len(traced)}
    if trace:
        gate = {}
        tvs = [r.gate["tv"] for r in traced if "tv" in r.gate]
        slopes = [r.gate["slope"] for r in traced if "slope" in r.gate]
        if tvs:
            gate["tv"] = statistics.fmean(tvs)
        if slopes:
            gate["slope"] = statistics.fmean(slopes)
        values = spans.layer_metrics(tracer.summary(), len(traced), gate)
        values["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced)
            - statistics.median(r.wall for r in untraced)
        )
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        out = ROOT / ".bench_out" / f"trace-{name}-{seed}.json"
        tracer.write(out, {"notes": notes, "metrics": metrics})
        notes["trace_file"] = str(out.relative_to(ROOT))
    else:
        latencies = [lat for r in untraced for lat in r.latencies]
        relative = [lat / r.reference for r in untraced for lat in r.latencies]
        notes["operations_timed"] = len(latencies)
        notes["setup_samples"] = setups
        notes["seconds"] = {
            "reference": statistics.median(r.reference for r in untraced),
            "wall": statistics.median(r.wall for r in untraced),
            "op_p50": statistics.median(latencies),
            "steps_per_s": statistics.median(r.steps / r.wall for r in untraced),
        }
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_refs": {"value": statistics.median(r.wall / r.reference for r in untraced),
                          "unit": "ref"},
            "op_p50_refs": {"value": statistics.median(relative), "unit": "ref"},
            "steps_per_ref": {
                "value": statistics.median(r.steps * r.reference / r.wall for r in untraced),
                "unit": "1/ref",
            },
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    notes["failures"] = failures[:20]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "notes": notes,
    }


def per_layer_units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "long_chain", "checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One core for the whole run, so the reference loop and the passes it
    # scales share that core's contention instead of migrating between cores.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        check_program()
        if args.setup_only:
            scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
            scratch.mkdir(parents=True, exist_ok=True)
            try:
                seconds, _ = timed_setup(args.workload, args.seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report any crash as a failed run, without a result
        traceback.print_exc()
        return 1
    notes = result.pop("notes")
    for msg in notes.pop("failures"):
        print(f"FAILED {msg}", file=sys.stderr)
    print("# " + json.dumps(notes))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
