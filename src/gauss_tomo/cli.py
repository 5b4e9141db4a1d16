"""Command-line front end: gauss-tomo <subcommand>.

Subcommands: simulate | estimate | benchmark | gamma-map | gaussianity
| crossover | verify.  Each subcommand declares its settings once, in a
table of _Opt entries: flag, INI key, cast, choices, default and help.
The table builds the flags, fixes the INI keys a config file (--config)
may hold, and drives _settings, which takes each value from its flag,
else from the config file, else from the default; `estimate` reads eta
and g_elec from the dataset header before falling back to the default.
INI keys are `section.name` in the sections [state], [detection] and
[run], named after the flag with dashes as underscores (--mu-range is
run.mu_range), except --state, which is state.preset.  Flag and file
values are cast and checked by the same code, so a bad value from either
exits 2 with one line.  Every output file embeds the resolved
configuration (or its hash) and the seed, and `verify` re-derives the
hash to check integrity.

Exit codes: 0 success; 2 validation (bad flag or config values, config
schema, corrupt or mismatching files); 3 numerical failure (degenerate
data, singular systems, underdetermined protocols); 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from .benchmark import BenchmarkConfig, find_isotropic_crossover, gamma_map, run_benchmark
from .core import CovMat, DetectionModel, StateSpec, wigner_cov
from .dataio import (
    _json_safe,
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
from .estimation import estimate
from .gaussianity import DEFAULT_BINS, MIN_BINS, test_gaussianity
from .sampling import (
    _DOM_OFFSET,
    AngleProtocol,
    HomodyneDataset,
    _rng,
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


class _Opt(NamedTuple):
    """One setting of a subcommand.

    key is the INI `section.name`, and name is the setting's key in the
    dict _settings returns.  cast turns a raw flag or file string into
    the value; a setting cast by _cast_bool is an on/off store_true flag.
    default is the value when neither flag nor file gives one; low, when
    set, is the least value accepted.
    """

    flag: str
    key: str
    cast: Callable = str
    default: Any = None
    help: str | None = None
    choices: tuple = ()
    low: int | None = None

    @property
    def name(self) -> str:
        return self.key.partition(".")[2]


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


_SEED = _Opt("--seed", "run.seed", int, 0, "root seed (default 0)", low=0)
_OUT = _Opt("--out", "run.out", help="output path (benchmark/gamma-map append .json/.csv)")
_STATE = (
    _Opt("--state", "state.preset", default="vacuum", help="named state preset",
         choices=tuple(sorted(STATE_PRESETS))),
    # mu, lambda and orientation default to the preset's values (_state)
    _Opt("--mu", "state.mu", float, help="phase-insensitive noise (default 1)"),
    _Opt("--lambda", "state.lambda", float, help="ellipticity (default 1)"),
    _Opt("--orientation", "state.orientation", float,
         help="principal-axis angle in radians (folded to [0, pi))"),
)
_DETECTION = (
    # estimate falls back to the dataset header before these defaults (_detection)
    _Opt("--eta", "detection.eta", float, help="detector efficiency in (0, 1] (default 1)"),
    _Opt("--g-elec", "detection.g_elec", _parse_g_elec,
         help="electronic noise g11,g12,g22 (default 0)"),
)
_WORKERS = _Opt("--workers", "run.workers", int, 1, "process count (default 1)", low=1)

_SIMULATE = (_SEED, _OUT) + _STATE + _DETECTION + (
    _Opt("--scheme", "run.scheme", default="hom", help="measurement scheme (default hom)",
         choices=("hom", "het")),
    _Opt("--samples", "run.samples", int, 1000, "per-angle count (hom) or pair count (het)"),
    _Opt("--angles", "run.angles", int, 100, "number of quadrature angles (default 100)"),
    _Opt("--offset", "run.offset", float, None, "protocol offset (default: seeded random)"),
    _Opt("--thermalize", "run.thermalize", _cast_bool, False, "phase-randomize"),
    _Opt("--format", "run.format", default="csv", help="dataset format (csv|bin)",
         choices=("csv", "bin")),
)
_ESTIMATE = (_OUT,) + _DETECTION + (
    _Opt("--method", "run.method", help="homodyne estimator (default ml)", choices=("ml", "wls")),
)
_BENCHMARK = (_SEED, _OUT) + _STATE + _DETECTION + (
    _Opt("--samples", "run.samples", _cast_int_list, (1500, 15000), "comma list of event budgets N"),
    _Opt("--angles", "run.angles", _cast_int_list, (5, 10, 15), "comma list of angle counts m"),
    _Opt("--reps", "run.reps", int, 200, "repetitions per cell (default 200)"),
    _Opt("--reference-size", "run.reference_size", int),
    _Opt("--exact-truth", "run.exact_truth", _cast_bool, False,
         "score against the analytic covariance instead of a giant estimated reference"),
    _WORKERS,
)
_GAMMA_MAP = (_SEED, _OUT) + _DETECTION + (
    _Opt("--grid", "run.grid", _parse_grid, (10, 10), "ROWSxCOLS cell counts (default 10x10)"),
    _Opt("--mu-range", "run.mu_range", _parse_range, (0.5, 4.0), "LOW:HIGH (default 0.5:4)"),
    _Opt("--lambda-range", "run.lambda_range", _parse_range, (1.0, 8.0), "LOW:HIGH (default 1:8)"),
    _Opt("--analytic", "run.analytic", _cast_bool, False,
         "use the asymptotic expected errors instead of Monte Carlo"),
    _Opt("--samples", "run.samples", int, 10000, "events per cell (default 10000)"),
    _Opt("--angles", "run.angles", int, 10, "homodyne angle count (default 10)"),
    _Opt("--reps", "run.reps", int, 200, "repetitions per cell (default 200)"),
    _WORKERS,
)
_GAUSSIANITY = (
    _OUT,
    _Opt("--bins", "run.bins", int, DEFAULT_BINS, f"histogram bins (default {DEFAULT_BINS})",
         low=MIN_BINS),
)
_CROSSOVER = (_SEED,) + _DETECTION + (
    _Opt("--samples", "run.samples", int, 10000, "events per probe (default 10000)"),
    _Opt("--angles", "run.angles", int, 10, "homodyne angle count (default 10)"),
    _Opt("--reps", "run.reps", int, 3000, "repetitions per probe (default 3000)"),
)


def _load_ini(path) -> dict:
    parser = configparser.ConfigParser()
    sections = {key.partition(".")[0] for key in _INI_KEYS}
    values = {}
    try:
        with open(path) as f:
            parser.read_file(f)
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            # items() interpolates '%', so it can raise configparser errors too
            for name, raw in parser.items(section):
                key = f"{section}.{name}"
                if key not in _INI_KEYS:
                    raise ConfigError(f"unknown config key {name!r} in section [{section}]")
                # no setting takes a NUL, and as a path it makes open() raise ValueError
                if "\0" in raw:
                    raise ConfigError(f"config key {key}: NUL character in {raw!r}")
                values[key] = raw
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span several lines; errors print as one
        message = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse config file {path}: {message}") from exc
    return values


def _settings(args, opts) -> dict:
    """Resolve each setting in opts to its flag value, else its config-file
    value, else its default.  Flag and file values go through the same
    choices check, cast and lower bound; any failure is one ConfigError."""
    config = getattr(args, "config", None)
    ini = _load_ini(config) if config else {}
    values = {}
    for opt in opts:
        raw, where = getattr(args, opt.name), f"flag {opt.flag}"
        if raw is None:
            raw, where = ini.get(opt.key), f"config key {opt.key}"
        if raw is None:
            values[opt.name] = opt.default
            continue
        if opt.choices and raw not in opt.choices:
            raise ConfigError(
                f"{where}: invalid choice {raw!r} (choose from {', '.join(opt.choices)})"
            )
        try:
            # a store_true flag arrives as True, not as a string
            value = raw if raw is True else opt.cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: cannot parse {raw!r}") from exc
        if opt.low is not None and value < opt.low:
            raise ConfigError(f"{opt.name} must be >= {opt.low}, got {value}")
        values[opt.name] = value
    return values


def _state(s: dict) -> StateSpec:
    preset = STATE_PRESETS[s["preset"]]
    mu, lam, orientation = (
        base if s[name] is None else s[name]
        for base, name in zip(preset, ("mu", "lambda", "orientation"))
    )
    if math.isinf(orientation):
        raise ConfigError(f"orientation must be finite, got {orientation}")
    orientation = math.fmod(orientation, math.pi)
    if orientation < 0.0:
        orientation += math.pi
    try:
        return StateSpec(mu, lam, orientation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _detection(s: dict, header: dict | None = None) -> DetectionModel:
    """eta and g_elec from the settings, else from header (a dataset's
    meta, whose eta/g_elec keys may be missing), else eta 1 and no noise."""
    header = header or {}
    g_elec = s["g_elec"]
    try:
        eta = float(header.get("eta", 1.0) if s["eta"] is None else s["eta"])
        if g_elec is None and header.get("g_elec") is not None:
            g_elec = _parse_g_elec(header["g_elec"])
        return DetectionModel(eta) if g_elec is None else DetectionModel(eta, g_elec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_simulate(args, s: dict) -> int:
    state = _state(s)
    det = _detection(s)
    seed, scheme, fmt, out = s["seed"], s["scheme"], s["format"], s["out"]
    if not out:
        raise ConfigError("simulate requires --out")

    g_w = wigner_cov(state)
    try:
        if scheme == "hom":
            if s["offset"] is None:
                protocol = AngleProtocol.with_random_offset(s["angles"], _rng(seed, _DOM_OFFSET, 0))
            else:
                protocol = AngleProtocol(s["angles"], s["offset"])
            dataset = sample_homodyne(g_w, det, protocol, s["samples"], seed)
            if s["thermalize"]:
                dataset = thermalize_homodyne(dataset, seed)
        else:
            dataset = sample_heterodyne(g_w, det, s["samples"], seed)
            if s["thermalize"]:
                dataset = thermalize_heterodyne(dataset, seed)
    except (InvalidProtocol, ValueError) as exc:
        # the samplers reject a bad --samples count with ValueError
        raise ConfigError(str(exc)) from exc
    dataset.meta["state"] = [state.mu, state.lam, state.orientation]
    write_dataset(out, dataset, fmt)
    print(f"wrote {out} ({scheme}, {dataset.total_events} events, format {fmt})")
    return 0


def _print_report(out, config: dict, body: dict) -> None:
    # print the report as JSON, writing it to out first when out is set; a
    # non-finite value prints as null, as in the file
    payload = write_report_json(out, config, body) if out else {"config": config, **body}
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True, default=str))


def _cmd_estimate(args, s: dict) -> int:
    dataset = read_dataset(args.dataset)
    det = _detection(s, dataset.meta)
    method = s["method"]
    result = estimate(dataset, det, method or "ml")
    record = result.to_dict()
    config = {
        "dataset": str(args.dataset),
        "detection": det.to_dict(),
        "seed": dataset.meta.get("seed"),
        "method": method or ("ml" if result.scheme == "hom" else "sample-cov"),
    }
    _print_report(s["out"], config, {"kind": "estimate", **record})
    return 0


def _cmd_benchmark(args, s: dict) -> int:
    reference_size = s["reference_size"]
    if reference_size is None:
        reference_size = 0 if s["exact_truth"] else 100 * max(s["samples"])
    cfg = BenchmarkConfig(
        state=_state(s),
        det=_detection(s),
        sample_sizes=s["samples"],
        angle_counts=s["angles"],
        repetitions=s["reps"],
        seed=s["seed"],
        reference_size=reference_size,
        exact_truth=s["exact_truth"],
    )
    report = run_benchmark(cfg, workers=s["workers"])
    out = s["out"]
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


def _cmd_gamma_map(args, s: dict) -> int:
    det = _detection(s)
    rows_cols = s["grid"]
    mu_lo, mu_hi = s["mu_range"]
    lam_lo, lam_hi = s["lambda_range"]
    rows = gamma_map(
        np.linspace(mu_lo, mu_hi, rows_cols[0]),
        np.linspace(lam_lo, lam_hi, rows_cols[1]),
        det,
        n_events=s["samples"],
        angle_count=s["angles"],
        repetitions=s["reps"],
        seed=s["seed"],
        analytic=s["analytic"],
        workers=s["workers"],
    )
    config = {
        "kind": "gamma-map",
        "detection": det.to_dict(),
        "grid": list(rows_cols),
        "mu_range": [mu_lo, mu_hi],
        "lambda_range": [lam_lo, lam_hi],
        "analytic": s["analytic"],
        "samples": s["samples"],
        "angles": s["angles"],
        "reps": s["reps"],
        "seed": s["seed"],
    }
    csv_text = gamma_map_csv(rows, s["seed"], config)
    out = s["out"]
    if out:
        write_report_json(f"{out}.json", config, {"kind": "gamma-map", "cells": rows})
        with open(f"{out}.csv", "w", newline="\n") as f:
            f.write(csv_text)
        print(f"wrote {out}.json and {out}.csv")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_gaussianity(args, s: dict) -> int:
    dataset = read_dataset(args.dataset)
    reports = []
    if isinstance(dataset, HomodyneDataset):
        series = [(f"theta={th!r}", x) for th, x in zip(dataset.angles, dataset.samples)]
    else:
        series = [("axis=x", dataset.pairs[:, 0]), ("axis=p", dataset.pairs[:, 1])]
    for label, values in series:
        try:
            reports.append({"label": label, **test_gaussianity(values, s["bins"]).to_dict()})
        except GaussTomoError as exc:
            reports.append({"label": label, "error": f"{type(exc).__name__}: {exc}"})
    config = {
        "dataset": str(args.dataset),
        "bins": s["bins"],
        "seed": dataset.meta.get("seed"),
    }
    _print_report(s["out"], config, {"kind": "gaussianity", "reports": reports})
    return 0


def _cmd_verify(args, s: dict) -> int:
    all_ok = True
    for path in args.paths:
        ok, message = verify_file(path)
        print(message)
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def _cmd_crossover(args, s: dict) -> int:
    # small helper around the benchmark for locating the gamma=1 state
    mu = find_isotropic_crossover(
        _detection(s),
        n_events=s["samples"],
        angle_count=s["angles"],
        repetitions=s["reps"],
        seed=s["seed"],
    )
    print(f"isotropic gamma=1 crossover at mu = {mu:.4f}")
    return 0


# name, help, settings table, handler; verify takes no settings
_COMMANDS = (
    ("simulate", "generate a synthetic measurement record", _SIMULATE, _cmd_simulate),
    ("estimate", "reconstruct a covariance from a dataset file", _ESTIMATE, _cmd_estimate),
    ("benchmark", "Monte Carlo accuracy comparison of both schemes", _BENCHMARK, _cmd_benchmark),
    ("gamma-map", "gamma over a (mu, lambda) grid", _GAMMA_MAP, _cmd_gamma_map),
    ("gaussianity", "goodness-of-fit battery on a dataset file", _GAUSSIANITY, _cmd_gaussianity),
    ("crossover", "bisect the isotropic state where gamma crosses 1", _CROSSOVER, _cmd_crossover),
)
_INI_KEYS = frozenset(opt.key for _, _, opts, _ in _COMMANDS for opt in opts)
_NAMES = frozenset(name for name, _, _, _ in _COMMANDS) | {"verify"}


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors (an unknown flag, a missing argument
    or subcommand) raised as ConfigError, so main prints them as one line
    and exits 2; --help still prints and exits 0.  Subparsers share the
    class."""

    def error(self, message):
        raise ConfigError(" ".join(message.split()))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gauss-tomo parser; with command set, it holds that subcommand's
    parser alone, which parses, helps and errs as in the full parser."""
    parser = _Parser(
        prog="gauss-tomo",
        description="Simulate and benchmark homodyne vs heterodyne Gaussian-state tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, opts, func in _COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file; flags override its values")
        for opt in opts:
            # flags take raw strings; _settings casts and checks them
            if opt.cast is _cast_bool:
                p.add_argument(opt.flag, dest=opt.name, action="store_true", default=None,
                               help=opt.help)
            else:
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(opt.flag, dest=opt.name, metavar=metavar, help=opt.help)
        if name in ("estimate", "gaussianity"):
            p.add_argument("dataset", help="dataset file (csv or bin)")
        p.set_defaults(func=func, opts=opts)

    if command in (None, "verify"):
        p = sub.add_parser("verify", help="check the embedded config hash of output files")
        p.add_argument("paths", nargs="+", help="files to verify")
        p.set_defaults(func=_cmd_verify, opts=())
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first argument that names a subcommand needs only that subcommand's
    # parser; anything else (--help, no or an unknown subcommand) gets the
    # full parser, whose messages list every subcommand
    command = argv[0] if argv and argv[0] in _NAMES else None
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args, _settings(args, args.opts))
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
