"""Span tracing of gauss_tomo from the benchmark's own code, and layer metrics.

`install` replaces public functions of the package at the module attribute
each caller looks up (for example `gauss_tomo.benchmark.sample_homodyne`,
which `_run_unit` calls, and `gauss_tomo._kernels.ml_fit`, which the
estimators call as `_kernels.ml_fit`).  The package itself is not edited.
Spans stay in memory and are written as JSON lines when the run ends;
`layer_metrics` turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

_BIN_SUFFIX = ".bin"


class Tracer:
    """Records [name, start, end, parent index, attrs] for each wrapped call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn traced as span `name`; attrs(args, kwargs, result) adds counts."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "attrs": attrs or {},
                        }
                    )
                    + "\n"
                )


def load(path) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f]


def _events(args, kwargs, result):
    return {"events": int(result.total_events)}


def _ml_fit(args, kwargs, result):
    _, _, iters, converged = result
    return {"iters": int(iters), "converged": bool(converged)}


def _estimate(args, kwargs, result):
    return {"converged": bool(result.diagnostics.converged)}


def _psd(args, kwargs, result):
    return {"clipped": bool(result[1])}


def _file(args, kwargs, result):
    return {"path": str(args[0]), "bytes": os.path.getsize(args[0])}


def _write_dataset(args, kwargs, result):
    return {**_file(args, kwargs, result), "events": int(args[1].total_events)}


def _read_dataset(args, kwargs, result):
    return {**_file(args, kwargs, result), "events": int(result.total_events)}


# (module, attribute the caller looks up, span name, attrs).  Span names
# are "<layer>.<function>", the layer being the gauss_tomo module.
SITES = (
    ("gauss_tomo.cli", "run_benchmark", "benchmark.run_benchmark", None),
    ("gauss_tomo.cli", "gamma_map", "benchmark.gamma_map", None),
    ("gauss_tomo.benchmark", "gamma_analytic", "benchmark.gamma_analytic", None),
    ("gauss_tomo.benchmark", "sample_homodyne", "sampling.sample_homodyne", _events),
    ("gauss_tomo.benchmark", "sample_heterodyne", "sampling.sample_heterodyne", _events),
    ("gauss_tomo.cli", "sample_homodyne", "sampling.sample_homodyne", _events),
    ("gauss_tomo.cli", "sample_heterodyne", "sampling.sample_heterodyne", _events),
    ("gauss_tomo.benchmark", "homodyne_sample_variances", "sampling.homodyne_sample_variances", None),
    ("gauss_tomo.benchmark", "heterodyne_sample_cov", "sampling.heterodyne_sample_cov", None),
    ("gauss_tomo._kernels", "ml_fit", "_kernels.ml_fit", _ml_fit),
    ("gauss_tomo.benchmark", "estimate_homodyne_ml", "estimation.estimate_homodyne_ml", _estimate),
    ("gauss_tomo.cli", "estimate_homodyne_ml", "estimation.estimate_homodyne_ml", _estimate),
    ("gauss_tomo.benchmark", "estimate_from_variances", "estimation.estimate_from_variances", _estimate),
    ("gauss_tomo.benchmark", "estimate_heterodyne", "estimation.estimate_heterodyne", _estimate),
    ("gauss_tomo.cli", "estimate_heterodyne", "estimation.estimate_heterodyne", _estimate),
    ("gauss_tomo.estimation", "psd_project", "estimation.psd_project", _psd),
    ("gauss_tomo.benchmark", "psd_project", "estimation.psd_project", _psd),
    ("gauss_tomo.benchmark", "hs_distance", "core.hs_distance", None),
    ("gauss_tomo.cli", "write_dataset", "dataio.write_dataset", _write_dataset),
    ("gauss_tomo.cli", "read_dataset", "dataio.read_dataset", _read_dataset),
    ("gauss_tomo.cli", "verify_file", "dataio.verify_file", _file),
    ("gauss_tomo.cli", "write_report_json", "dataio.write_report_json", _file),
    ("gauss_tomo.cli", "write_benchmark_csv", "dataio.write_benchmark_csv", _file),
    ("gauss_tomo.cli", "gamma_map_csv", "dataio.gamma_map_csv", None),
    ("gauss_tomo.cli", "test_gaussianity", "gaussianity.test_gaussianity", None),
)


def install(tracer: Tracer) -> int:
    """Wrap every site that exists; returns how many were wrapped.

    A site the package no longer has is skipped, so the benchmark keeps
    running across refactors; the count is reported as trace.sites.
    """
    installed = 0
    for module_name, attr, span_name, attrs in SITES:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        setattr(module, attr, tracer.wrap(span_name, fn, attrs))
        installed += 1
    return installed


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("sampling.draw_calls", "count"),
    ("sampling.events_drawn", "count"),
    ("sampling.draw_s", "s"),
    ("sampling.draw_ns_per_event", "ns"),
    ("sampling.reference_s", "s"),
    ("kernels.ml_fits", "count"),
    ("kernels.ml_iters", "count"),
    ("kernels.ml_s", "s"),
    ("kernels.ml_us_per_fit", "us"),
    ("estimation.hom_self_s", "s"),
    ("estimation.het_s", "s"),
    ("estimation.psd_s", "s"),
    ("estimation.psd_projections", "count"),
    ("estimation.psd_clips", "count"),
    ("estimation.nonconverged", "count"),
    ("core.score_calls", "count"),
    ("core.score_s", "s"),
    ("benchmark.self_s", "s"),
    ("benchmark.analytic_calls", "count"),
    ("benchmark.analytic_s", "s"),
    ("benchmark.analytic_us_per_cell", "us"),
    ("dataio.csv_write_s", "s"),
    ("dataio.bin_write_s", "s"),
    ("dataio.bytes_written", "bytes"),
    ("dataio.csv_read_s", "s"),
    ("dataio.bin_read_s", "s"),
    ("dataio.bytes_read", "bytes"),
    ("dataio.verify_s", "s"),
    ("dataio.report_s", "s"),
    ("gaussianity.first_call_s", "s"),
    ("gaussianity.series", "count"),
    ("gaussianity.series_ms", "ms"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.write_events_per_s", "1/s"),
    ("cli.read_events_per_s", "1/s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.sites", "count"),
)

# Metrics that count work; they must repeat exactly for one seed.
EXACT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes"))

_READ_COMMANDS = ("estimate", "gaussianity", "verify")


def _ratio(num: float, den: float) -> float:
    # a per-item figure of a layer that did no work on this workload reads 0
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run (cli.import_s, trace.overhead_s
    and trace.sites are filled in by the caller)."""
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            covered[s["parent"]] += dur[i]
    self_time = [d - c for d, c in zip(dur, covered)]

    def idx(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(ids, times=dur):
        return sum(times[i] for i in ids)

    def attr_sum(ids, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in ids)

    draws = idx("sampling.sample_homodyne", "sampling.sample_heterodyne")
    events = attr_sum(draws, "events")
    fits = idx("_kernels.ml_fit")
    hom_est = idx("estimation.estimate_homodyne_ml", "estimation.estimate_from_variances")
    het_est = idx("estimation.estimate_heterodyne")
    psd = idx("estimation.psd_project")
    scores = idx("core.hs_distance")
    analytic = idx("benchmark.gamma_analytic")
    writes = idx("dataio.write_dataset")
    reads = idx("dataio.read_dataset")
    verifies = idx("dataio.verify_file")
    gauss = idx("gaussianity.test_gaussianity")  # spans are stored in start order
    commands = idx("cli.main")

    def by_format(ids, binary):
        return [i for i in ids if spans[i]["attrs"]["path"].endswith(_BIN_SUFFIX) == binary]

    # events held by each dataset file, so that verify can count what it reads
    file_events = {spans[i]["attrs"]["path"]: spans[i]["attrs"]["events"] for i in writes}

    write_cmds = [i for i in commands if spans[i]["attrs"].get("command") == "simulate"]
    read_cmds = [i for i in commands if spans[i]["attrs"].get("command") in _READ_COMMANDS]
    written = attr_sum(writes, "events")
    read = attr_sum(reads, "events") + sum(
        file_events.get(spans[i]["attrs"]["path"], 0) for i in verifies
    )
    gauss_rest = [dur[i] for i in gauss[1:]]

    return {
        "sampling.draw_calls": len(draws),
        "sampling.events_drawn": events,
        "sampling.draw_s": total(draws),
        "sampling.draw_ns_per_event": _ratio(total(draws) * 1e9, events),
        "sampling.reference_s": total(
            idx("sampling.homodyne_sample_variances", "sampling.heterodyne_sample_cov")
        ),
        "kernels.ml_fits": len(fits),
        "kernels.ml_iters": attr_sum(fits, "iters"),
        "kernels.ml_s": total(fits),
        "kernels.ml_us_per_fit": _ratio(total(fits) * 1e6, len(fits)),
        "estimation.hom_self_s": total(hom_est, self_time),
        "estimation.het_s": total(het_est, self_time),
        "estimation.psd_s": total(psd),
        "estimation.psd_projections": len(psd),
        "estimation.psd_clips": sum(1 for i in psd if spans[i]["attrs"]["clipped"]),
        "estimation.nonconverged": sum(
            1 for i in hom_est + het_est if not spans[i]["attrs"]["converged"]
        ),
        "core.score_calls": len(scores),
        "core.score_s": total(scores),
        "benchmark.self_s": total(
            idx("benchmark.run_benchmark", "benchmark.gamma_map"), self_time
        ),
        "benchmark.analytic_calls": len(analytic),
        "benchmark.analytic_s": total(analytic),
        "benchmark.analytic_us_per_cell": _ratio(total(analytic) * 1e6, len(analytic)),
        "dataio.csv_write_s": total(by_format(writes, False)),
        "dataio.bin_write_s": total(by_format(writes, True)),
        "dataio.bytes_written": attr_sum(
            writes + idx("dataio.write_report_json", "dataio.write_benchmark_csv"), "bytes"
        ),
        "dataio.csv_read_s": total(by_format(reads, False)),
        "dataio.bin_read_s": total(by_format(reads, True)),
        "dataio.bytes_read": attr_sum(reads + verifies, "bytes"),
        "dataio.verify_s": total(verifies),
        "dataio.report_s": total(
            idx("dataio.write_report_json", "dataio.write_benchmark_csv", "dataio.gamma_map_csv")
        ),
        "gaussianity.first_call_s": dur[gauss[0]] if gauss else 0.0,
        "gaussianity.series": len(gauss),
        "gaussianity.series_ms": statistics.median(gauss_rest) * 1e3 if gauss_rest else 0.0,
        "cli.self_s": total(commands, self_time),
        "cli.write_events_per_s": _ratio(written, total(write_cmds)),
        "cli.read_events_per_s": _ratio(read, total(read_cmds)),
        "trace.spans": len(spans),
    }
