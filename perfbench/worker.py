"""One measured iteration of a perfbench workload, in a fresh interpreter.

run.py starts this script once per iteration, from the root of the
checkout with PYTHONPATH=src and BLAS thread caps set:

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke \
        --workdir DIR [--trace-file FILE]

It times `import gauss_tomo.cli` plus workload preparation (set-up), then
runs the workload's command lines in-process through `gauss_tomo.cli.main`
(the body).  A calibration reading before the body and after each command
records the machine's current speed, which run.py uses to rescale the
times.  The worker then collects the outputs the checks need and prints one
JSON object as its last line of standard output.  With --trace-file the
package's public functions are traced and the spans are written there
after the body.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

CALIBRATION_BURST = 5  # chunks per reading; the reading is their median


def _environment() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy
    from gauss_tomo import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": getattr(_kernels, "BACKEND", None),
    }


def _calibration_chunk() -> float:
    """Time a fixed mix of the kinds of work the workloads do, without
    gauss_tomo: normal draws and reductions, a sort, 2x2 eigensolves, an
    interpreted loop and float formatting."""
    import numpy as np

    t = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20161))
    acc = 0.0
    for _ in range(5):  # small arrays, so the reading adds nothing to peak RSS
        x = rng.standard_normal(20_000)
        acc += float(np.dot(x, x)) + float(np.sort(x)[100])
        acc += len(",".join(repr(float(v)) for v in x[:600]))
    for i in range(100):
        acc += float(np.linalg.eigh(np.array([[2.0 + i, 0.3], [0.3, 1.0]]))[0][0])
    acc += sum(math.sqrt(j + 1.0) for j in range(15_000))
    if not math.isfinite(acc):
        raise ArithmeticError("calibration produced a non-finite sum")
    return time.perf_counter() - t


def _speed_reading() -> float:
    """Median of a burst of calibration chunks: the machine's current speed."""
    return statistics.median(_calibration_chunk() for _ in range(CALIBRATION_BURST))


def _run_command(main, argv) -> tuple:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation; keep running the sequence
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    workdir = Path(args.workdir)

    t0 = time.perf_counter()
    import gauss_tomo.cli as cli

    t_import = time.perf_counter()
    tracer = None
    sites = 0
    main_fn = cli.main
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer(f"{workdir.parent.name}/{workdir.name}")
        sites = tracing.install(tracer)
        main_fn = tracer.wrap("cli.main", cli.main, lambda a, k, r: {"command": a[0][0]})
    workdir.mkdir(parents=True)
    commands = workload.commands(args.seed, size, workdir)
    t_setup = time.perf_counter()

    records = []
    readings = [_speed_reading()]
    for argv in commands:
        t = time.perf_counter()
        code, stdout = _run_command(main_fn, argv)
        elapsed = time.perf_counter() - t
        readings.append(_speed_reading())
        records.append(
            {
                "command": argv[0],
                "exit": code,
                "s": elapsed,
                "calibration_s": 0.5 * (readings[-2] + readings[-1]),
                "stdout": stdout,
            }
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(args.trace_file)
    collected = workload.collect(workdir, records)
    print(
        json.dumps(
            {
                "import_s": t_import - t0,
                "setup_s": t_setup - t0,
                "peak_rss_mb": peak_rss_mb,
                "setup_calibration_s": readings[0],
                "commands": [
                    {k: r[k] for k in ("command", "exit", "s", "calibration_s")} for r in records
                ],
                "failed": workload.failures(collected, records, size),
                "collected": collected,
                "trace_sites": sites,
                "environment": _environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
