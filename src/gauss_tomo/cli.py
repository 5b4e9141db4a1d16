"""Command-line front end: gauss-tomo <subcommand>.

Subcommands: simulate | estimate | benchmark | gamma-map | gaussianity
| verify.  Settings resolve in three layers: built-in defaults, then an
optional INI config file (--config), then explicit flags.  Every output
file embeds the resolved configuration (or its hash) and the seed, and
`verify` re-derives the hash to check integrity.

Exit codes: 0 success; 2 validation (bad flags, config schema, corrupt
or mismatching files); 3 numerical failure (degenerate data, singular
systems, underdetermined protocols); 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from .benchmark import BenchmarkConfig, find_isotropic_crossover, gamma_map, run_benchmark
from .core import CovMat, DetectionModel, StateSpec, wigner_cov
from .dataio import (
    gamma_map_csv,
    read_dataset,
    verify_file,
    write_benchmark_csv,
    write_dataset,
    write_report_json,
)
from .errors import (
    ConfigError,
    DataFormatError,
    GaussTomoError,
    InvalidProtocol,
    UnknownScheme,
)
from .estimation import estimate_heterodyne, estimate_homodyne_ml, estimate_homodyne_wls
from .gaussianity import DEFAULT_BINS, MIN_BINS, test_gaussianity
from .sampling import (
    AngleProtocol,
    HomodyneDataset,
    sample_heterodyne,
    sample_homodyne,
    thermalize_heterodyne,
    thermalize_homodyne,
)

STATE_PRESETS = {
    "vacuum": (1.0, 1.0, 0.0),
    "strong-sqz": (6.44, 11.61, 0.0),
    "weak-sqz": (4.46, 6.49, 0.0),
    "thermal-bright": (38.4, 1.0, 0.0),
    "thermal-dim": (15.0, 1.0, 0.0),
}

_INI_SCHEMA = {
    "state": {"preset", "mu", "lambda", "orientation"},
    "detection": {"eta", "g_elec"},
    "run": {
        "seed",
        "scheme",
        "samples",
        "angles",
        "offset",
        "reps",
        "thermalize",
        "analytic",
        "exact_truth",
        "reference_size",
        "workers",
        "out",
        "format",
        "grid",
        "mu_range",
        "lambda_range",
        "bins",
        "method",
    },
}


def _load_ini(path) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _INI_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _INI_SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            values[f"{section}.{key}"] = raw
    return values


class _Resolver:
    """Layered lookup: CLI flag, then INI value, then default."""

    def __init__(self, args):
        self.args = args
        self.ini = _load_ini(args.config) if getattr(args, "config", None) else {}

    def get(self, flag: str, ini_key: str, cast, default):
        value = getattr(self.args, flag, None)
        if value is not None:
            return value
        raw = self.ini.get(ini_key)
        if raw is not None:
            try:
                return cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {ini_key}: cannot parse {raw!r}") from exc
        return default


def _cast_bool(raw: str) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _cast_int_list(raw: str) -> tuple:
    return tuple(int(v) for v in str(raw).split(","))


def _parse_g_elec(raw) -> CovMat:
    parts = list(raw) if isinstance(raw, (list, tuple)) else str(raw).split(",")
    if len(parts) != 3:
        raise ConfigError(f"g_elec needs three comma-separated entries g11,g12,g22, got {raw!r}")
    try:
        g = CovMat(float(parts[0]), float(parts[1]), float(parts[2]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"g_elec: {exc}") from exc
    if not g.physical:
        raise ConfigError(f"g_elec must be positive semidefinite, got {g}")
    return g


def _parse_range(raw: str) -> tuple:
    parts = str(raw).split(":")
    if len(parts) != 2:
        raise ConfigError(f"range must look like LOW:HIGH, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"range bounds must be numbers, got {raw!r}") from exc
    if not (0.0 < lo <= hi and math.isfinite(hi)):
        raise ConfigError(f"range bounds must be positive, finite and ordered, got {raw!r}")
    return lo, hi


def _parse_grid(raw: str) -> tuple:
    parts = str(raw).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid must look like ROWSxCOLS, got {raw!r}")
    try:
        r, c = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"grid dimensions must be integers, got {raw!r}") from exc
    if r < 1 or c < 1:
        raise ConfigError(f"grid dimensions must be >= 1, got {raw!r}")
    return r, c


def _resolve_state(res: _Resolver) -> StateSpec:
    preset = res.get("state", "state.preset", str, None)
    if preset is not None and preset not in STATE_PRESETS:
        raise ConfigError(
            f"unknown state preset {preset!r}; choose from {sorted(STATE_PRESETS)}"
        )
    base = STATE_PRESETS.get(preset, (1.0, 1.0, 0.0))
    mu = res.get("mu", "state.mu", float, base[0])
    lam = res.get("lam", "state.lambda", float, base[1])
    orientation = res.get("orientation", "state.orientation", float, base[2])
    orientation = math.fmod(orientation, math.pi)
    if orientation < 0.0:
        orientation += math.pi
    try:
        return StateSpec(mu, lam, orientation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_detection(res: _Resolver, default: dict | None = None) -> DetectionModel:
    """Flags, then INI, then default: a DetectionModel.to_dict() shape,
    such as a dataset's meta, whose eta/g_elec keys may be missing."""
    default = default or {}
    eta = res.get("eta", "detection.eta", float, default.get("eta", 1.0))
    g_elec = res.get("g_elec", "detection.g_elec", str, default.get("g_elec"))
    try:
        if g_elec is None:
            return DetectionModel(float(eta))
        return DetectionModel(float(eta), _parse_g_elec(g_elec))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(res: _Resolver) -> int:
    seed = res.get("seed", "run.seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return int(seed)


def _state_dict(state: StateSpec) -> dict:
    return {"mu": state.mu, "lambda": state.lam, "orientation": state.orientation}


def _cmd_simulate(args) -> int:
    res = _Resolver(args)
    state = _resolve_state(res)
    det = _resolve_detection(res)
    seed = _resolve_seed(res)
    scheme = res.get("scheme", "run.scheme", str, "hom")
    if scheme not in ("hom", "het"):
        raise ConfigError(f"scheme must be hom or het, got {scheme!r}")
    samples = res.get("samples", "run.samples", int, 1000)
    angles = res.get("angles", "run.angles", int, 100)
    offset = res.get("offset", "run.offset", float, None)
    thermalize = bool(res.get("thermalize", "run.thermalize", _cast_bool, False))
    fmt = res.get("format", "run.format", str, "csv")
    if fmt not in ("csv", "bin"):
        raise ConfigError(f"datasets support --format csv or bin, got {fmt!r}")
    out = res.get("out", "run.out", str, None)
    if not out:
        raise ConfigError("simulate requires --out")

    g_w = wigner_cov(state)
    try:
        if scheme == "hom":
            if offset is None:
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(5, 0)))
                )
                protocol = AngleProtocol.with_random_offset(angles, rng)
            else:
                protocol = AngleProtocol(angles, offset)
            dataset = sample_homodyne(g_w, det, protocol, samples, seed)
            if thermalize:
                dataset = thermalize_homodyne(dataset, seed)
        else:
            dataset = sample_heterodyne(g_w, det, samples, seed)
            if thermalize:
                dataset = thermalize_heterodyne(dataset, seed)
    except (InvalidProtocol, ValueError) as exc:
        # the samplers reject a bad --samples count with ValueError
        raise ConfigError(str(exc)) from exc
    dataset.meta["state"] = [state.mu, state.lam, state.orientation]
    write_dataset(out, dataset, fmt)
    print(f"wrote {out} ({scheme}, {dataset.total_events} events, format {fmt})")
    return 0


def _cmd_estimate(args) -> int:
    res = _Resolver(args)
    dataset = read_dataset(args.dataset)
    det = _resolve_detection(res, dataset.meta)
    method = res.get("method", "run.method", str, None)
    if isinstance(dataset, HomodyneDataset):
        result = estimate_homodyne_wls(dataset, det) if method == "wls" else estimate_homodyne_ml(dataset, det)
    else:
        if method == "wls":
            raise ConfigError("method=wls applies to homodyne datasets only")
        result = estimate_heterodyne(dataset, det)
    record = result.to_dict()
    config = {
        "dataset": str(args.dataset),
        "detection": det.to_dict(),
        "seed": dataset.meta.get("seed"),
        "method": method or ("ml" if result.scheme == "hom" else "sample-cov"),
    }
    out = res.get("out", "run.out", str, None)
    body = {"kind": "estimate", **record}
    if out:
        payload = write_report_json(out, config, body)
    else:
        payload = {"config": config, **body}
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_benchmark(args) -> int:
    res = _Resolver(args)
    state = _resolve_state(res)
    det = _resolve_detection(res)
    seed = _resolve_seed(res)
    sizes = res.get("samples", "run.samples", _cast_int_list, (1500, 15000))
    if isinstance(sizes, int):
        sizes = (sizes,)
    angle_counts = res.get("angles", "run.angles", _cast_int_list, (5, 10, 15))
    if isinstance(angle_counts, int):
        angle_counts = (angle_counts,)
    reps = res.get("reps", "run.reps", int, 200)
    exact_truth = bool(res.get("exact_truth", "run.exact_truth", _cast_bool, False))
    reference_size = res.get("reference_size", "run.reference_size", int, None)
    if reference_size is None:
        reference_size = 0 if exact_truth else 100 * max(sizes)
    workers = res.get("workers", "run.workers", int, 1)
    out = res.get("out", "run.out", str, None)

    cfg = BenchmarkConfig(
        state=state,
        det=det,
        sample_sizes=tuple(sizes),
        angle_counts=tuple(angle_counts),
        repetitions=reps,
        seed=seed,
        reference_size=int(reference_size),
        exact_truth=exact_truth,
    )
    report = run_benchmark(cfg, workers=workers)
    if out:
        write_report_json(f"{out}.json", cfg.to_dict(), {"kind": "benchmark", **report.to_dict()})
        write_benchmark_csv(f"{out}.csv", report)
        print(f"wrote {out}.json and {out}.csv")
    for (n, m), (gamma, stderr) in sorted(report.gamma.items()):
        hom = report.hom[(n, m)]
        het = report.het[n]
        print(
            f"N={n} m={m}: dhs_hom={hom.mean:.4g} dhs_het={het.mean:.4g} "
            f"gamma={gamma:.4g} (stderr {stderr:.2g}, analytic {report.gamma_analytic[m]:.4g})"
        )
    return 0


def _cmd_gamma_map(args) -> int:
    res = _Resolver(args)
    det = _resolve_detection(res)
    seed = _resolve_seed(res)
    rows_cols = _parse_grid(res.get("grid", "run.grid", str, "10x10"))
    mu_lo, mu_hi = _parse_range(res.get("mu_range", "run.mu_range", str, "0.5:4"))
    lam_lo, lam_hi = _parse_range(res.get("lambda_range", "run.lambda_range", str, "1:8"))
    analytic = bool(res.get("analytic", "run.analytic", _cast_bool, False))
    n_events = res.get("samples", "run.samples", int, 10000)
    m = res.get("angles", "run.angles", int, 10)
    reps = res.get("reps", "run.reps", int, 200)
    workers = res.get("workers", "run.workers", int, 1)
    out = res.get("out", "run.out", str, None)

    mu_values = np.linspace(mu_lo, mu_hi, rows_cols[0])
    lam_values = np.linspace(lam_lo, lam_hi, rows_cols[1])
    rows = gamma_map(
        mu_values,
        lam_values,
        det,
        n_events=n_events,
        angle_count=m,
        repetitions=reps,
        seed=seed,
        analytic=analytic,
        workers=workers,
    )
    config = {
        "kind": "gamma-map",
        "detection": det.to_dict(),
        "grid": list(rows_cols),
        "mu_range": [mu_lo, mu_hi],
        "lambda_range": [lam_lo, lam_hi],
        "analytic": analytic,
        "samples": n_events,
        "angles": m,
        "reps": reps,
        "seed": seed,
    }
    csv_text = gamma_map_csv(rows, seed, config)
    if out:
        write_report_json(f"{out}.json", config, {"kind": "gamma-map", "cells": rows})
        with open(f"{out}.csv", "w", newline="\n") as f:
            f.write(csv_text)
        print(f"wrote {out}.json and {out}.csv")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_gaussianity(args) -> int:
    res = _Resolver(args)
    bins = res.get("bins", "run.bins", int, DEFAULT_BINS)
    if bins < MIN_BINS:
        raise ConfigError(f"bins must be >= {MIN_BINS}, got {bins}")
    dataset = read_dataset(args.dataset)
    reports = []
    if isinstance(dataset, HomodyneDataset):
        series = [(f"theta={th!r}", x) for th, x in zip(dataset.angles, dataset.samples)]
    else:
        series = [("axis=x", dataset.pairs[:, 0]), ("axis=p", dataset.pairs[:, 1])]
    for label, values in series:
        try:
            reports.append({"label": label, **test_gaussianity(values, bins).to_dict()})
        except GaussTomoError as exc:
            reports.append({"label": label, "error": f"{type(exc).__name__}: {exc}"})
    config = {
        "dataset": str(args.dataset),
        "bins": bins,
        "seed": dataset.meta.get("seed"),
    }
    body = {"kind": "gaussianity", "reports": reports}
    out = res.get("out", "run.out", str, None)
    if out:
        payload = write_report_json(out, config, body)
    else:
        payload = {"config": config, **body}
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_verify(args) -> int:
    all_ok = True
    for path in args.paths:
        ok, message = verify_file(path)
        print(message)
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def _cmd_crossover(args) -> int:
    # small helper around the benchmark for locating the gamma=1 state
    res = _Resolver(args)
    det = _resolve_detection(res)
    seed = _resolve_seed(res)
    n_events = res.get("samples", "run.samples", int, 10000)
    m = res.get("angles", "run.angles", int, 10)
    reps = res.get("reps", "run.reps", int, 3000)
    mu = find_isotropic_crossover(
        det, n_events=n_events, angle_count=m, repetitions=reps, seed=seed
    )
    print(f"isotropic gamma=1 crossover at mu = {mu:.4f}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--seed", type=int, help="root seed (default 0)")
    parser.add_argument("--out", help="output path (benchmark/gamma-map append .json/.csv)")


def _add_state(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", choices=sorted(STATE_PRESETS), help="named state preset")
    parser.add_argument("--mu", type=float, help="phase-insensitive noise (default 1)")
    parser.add_argument("--lambda", dest="lam", type=float, help="ellipticity (default 1)")
    parser.add_argument(
        "--orientation", type=float, help="principal-axis angle in radians (folded to [0, pi))"
    )


def _add_detection(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, help="detector efficiency in (0, 1] (default 1)")
    parser.add_argument("--g-elec", dest="g_elec", help="electronic noise g11,g12,g22 (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-tomo",
        description="Simulate and benchmark homodyne vs heterodyne Gaussian-state tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic measurement record")
    _add_common(p)
    _add_state(p)
    _add_detection(p)
    p.add_argument("--scheme", choices=["hom", "het"], help="measurement scheme (default hom)")
    p.add_argument("--samples", type=int, help="per-angle count (hom) or pair count (het)")
    p.add_argument("--angles", type=int, help="number of quadrature angles (default 100)")
    p.add_argument("--offset", type=float, help="protocol offset (default: seeded random)")
    p.add_argument("--thermalize", action="store_true", default=None, help="phase-randomize")
    p.add_argument("--format", choices=["csv", "bin"], help="dataset format (csv|bin)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="reconstruct a covariance from a dataset file")
    _add_common(p)
    _add_detection(p)
    p.add_argument("dataset", help="dataset file (csv or bin)")
    p.add_argument("--method", choices=["ml", "wls"], help="homodyne estimator (default ml)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo accuracy comparison of both schemes")
    _add_common(p)
    _add_state(p)
    _add_detection(p)
    p.add_argument("--samples", type=_cast_int_list, help="comma list of event budgets N")
    p.add_argument("--angles", type=_cast_int_list, help="comma list of angle counts m")
    p.add_argument("--reps", type=int, help="repetitions per cell (default 200)")
    p.add_argument("--reference-size", dest="reference_size", type=int)
    p.add_argument(
        "--exact-truth",
        dest="exact_truth",
        action="store_true",
        default=None,
        help="score against the analytic covariance instead of a giant estimated reference",
    )
    p.add_argument("--workers", type=int, help="process count (default 1)")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("gamma-map", help="gamma over a (mu, lambda) grid")
    _add_common(p)
    _add_detection(p)
    p.add_argument("--grid", help="ROWSxCOLS cell counts (default 10x10)")
    p.add_argument("--mu-range", dest="mu_range", help="LOW:HIGH (default 0.5:4)")
    p.add_argument("--lambda-range", dest="lambda_range", help="LOW:HIGH (default 1:8)")
    p.add_argument(
        "--analytic",
        action="store_true",
        default=None,
        help="use the asymptotic expected errors instead of Monte Carlo",
    )
    p.add_argument("--samples", type=int, help="events per cell (default 10000)")
    p.add_argument("--angles", type=int, help="homodyne angle count (default 10)")
    p.add_argument("--reps", type=int, help="repetitions per cell (default 200)")
    p.add_argument("--workers", type=int, help="process count (default 1)")
    p.set_defaults(func=_cmd_gamma_map)

    p = sub.add_parser("gaussianity", help="goodness-of-fit battery on a dataset file")
    _add_common(p)
    p.add_argument("dataset", help="dataset file (csv or bin)")
    p.add_argument("--bins", type=int, help="histogram bins (default 101)")
    p.set_defaults(func=_cmd_gaussianity)

    p = sub.add_parser("crossover", help="bisect the isotropic state where gamma crosses 1")
    _add_common(p)
    _add_detection(p)
    p.add_argument("--samples", type=int, help="events per probe (default 10000)")
    p.add_argument("--angles", type=int, help="homodyne angle count (default 10)")
    p.add_argument("--reps", type=int, help="repetitions per probe (default 3000)")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("verify", help="check the embedded config hash of output files")
    p.add_argument("paths", nargs="+", help="files to verify")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidProtocol, UnknownScheme, DataFormatError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except GaussTomoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
