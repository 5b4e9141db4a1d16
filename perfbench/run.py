"""gauss-tomo benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_cells --seed 1 --seconds 30 --trace 0

Workloads (workloads.py; reasons in metric_map.json): mc_cells,
analytic_map, dataset_io.  Each iteration runs the workload's command lines
in a fresh worker interpreter (worker.py), one iteration after another,
with workers=1 and BLAS threads capped at one.  Iterations repeat until
--seconds have passed and at least MIN_ITERATIONS ran.  Every iteration of
one run uses the same seed, so their outputs must be byte-identical.

The worker takes a calibration reading (a fixed numpy and interpreter mix
that does not use gauss_tomo) before the body and after each command.
Times are rescaled by REFERENCE_CALIBRATION_S over the mean of the readings
around them.  The rescaling cancels the minutes-long speed swings of a
shared machine, which otherwise move wall times by 15-40 %.  The raw wall
times are printed on the environment line.

--trace 0 prints the end-to-end metrics: set-up time, body time (the sum
over commands of each command's median), work items per second and peak
RSS.  --trace 1 alternates untraced and traced iterations.  It prints the
per-layer metrics of the traced ones and the tracing overhead, which is the
traced minus the untraced body time.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the environment.  Without src/gauss_tomo the run exits 2 and prints no
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170  # a worker still running then is killed, and the run fails
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Median calibration reading (worker._speed_reading) on the machine the
# bounds were sized on; see metric_map.json "sized_on".
REFERENCE_CALIBRATION_S = 0.013

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="input size; 'smoke' is the tiny size of the benchmark's smoke test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _run_worker(root: Path, args, workdir: Path, trace_file, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(THREAD_CAPS)
    cmd = [
        sys.executable, str(_HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--workdir", str(workdir),
    ]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _body_s(iterations: list, rescale: bool = True) -> float:
    """Body time: the sum over the body's commands of each one's median time
    across iterations, rescaled to the reference machine speed unless
    rescale is false.  A brief slowdown of a shared machine then costs one
    command sample instead of shifting the whole body."""
    positions = zip(*(it["commands"] for it in iterations))
    return sum(
        statistics.median(
            c["s"] * (REFERENCE_CALIBRATION_S / c["calibration_s"] if rescale else 1.0)
            for c in samples
        )
        for samples in positions
    )


def _count_mismatches(layer_runs: list) -> list:
    problems = []
    for name in tracing.EXACT_METRICS:
        values = {run[name] for run in layer_runs if name in run}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced iterations: {sorted(values)}")
    return problems


def measure(root: Path, args) -> tuple:
    """Run the iterations; returns (result dict, environment, problems)."""
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    base = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    iterations = []
    problems = []
    min_iterations = MIN_ITERATIONS + args.trace
    start = time.monotonic()
    deadline = start + args.seconds
    try:
        while len(iterations) < min_iterations or time.monotonic() < deadline:
            k = len(iterations)
            traced = bool(args.trace) and k % 2 == 1
            workdir = base / f"iter-{k}"
            trace_file = base / f"spans-{k}.jsonl" if traced else None
            try:
                timeout = RUN_LIMIT_S - (time.monotonic() - start)
                it = _run_worker(root, args, workdir, trace_file, timeout)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"iteration {k}: {exc}")
                break
            it["traced"] = traced
            if traced:
                it["layers"] = tracing.layer_metrics(tracing.load(trace_file))
            iterations.append(it)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.exists() and not any(base.parent.iterdir()):
            base.parent.rmdir()

    if problems:  # a worker crashed or timed out: there is no result
        return None, None, problems
    attempted = workload.attempts(size) * len(iterations)
    failed = sum(it["failed"] for it in iterations)

    for k, it in enumerate(iterations):
        problems += [
            f"iteration {k}: {c['command']} exited {c['exit']}"
            for c in it["commands"]
            if c["exit"] != 0
        ]
    if not problems:
        problems += workload.check(iterations[0]["collected"], args.seed, size)
        digests = {it["collected"].get("sha256") for it in iterations}
        if len(digests) > 1:
            problems.append("reports of one seed differ between iterations")

    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    median = statistics.median
    if args.trace:
        layer_runs = [it["layers"] for it in traced]
        problems += _count_mismatches(layer_runs)
        metrics = {
            name: layer_runs[0][name]
            if name in tracing.EXACT_METRICS
            else median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        metrics["cli.import_s"] = median(it["import_s"] for it in iterations)
        metrics["trace.overhead_s"] = _body_s(traced) - _body_s(untraced)
        metrics["trace.sites"] = traced[0]["trace_sites"]
        units = dict(tracing.LAYER_METRICS)
    else:
        run_s = _body_s(untraced)
        metrics = {
            "setup_s": median(
                it["setup_s"] * REFERENCE_CALIBRATION_S / it["setup_calibration_s"]
                for it in untraced
            ),
            "run_s": run_s,
            "items_per_s": workload.items(size) / run_s,
            "peak_rss_mb": median(it["peak_rss_mb"] for it in untraced),
        }
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    environment = {
        **iterations[0]["environment"],
        "thread_caps": THREAD_CAPS,
        "workers": workloads.WORKERS,
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "calibration_s": median(c["calibration_s"] for it in iterations for c in it["commands"]),
        "wall_setup_s": median(it["setup_s"] for it in untraced),
        "wall_run_s": _body_s(untraced, rescale=False),
    }
    return result, environment, problems


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "gauss_tomo" / "__init__.py").is_file():
        print(
            "error: src/gauss_tomo not found; run from the root of a gauss-tomo checkout",
            file=sys.stderr,
        )
        return 2
    result, environment, problems = measure(root, args)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if result is None:
        return 1
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
