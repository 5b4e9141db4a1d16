"""File formats: versioned dataset files and self-describing reports.

Dataset CSV: first line `# gauss-tomo v1, scheme=..., seed=..., eta=...,
<more key=value fields>, config=<hash16>`, second line the column names
(theta,x for homodyne, x,p for heterodyne), then one event per row,
each value in %.17g (enough digits to read back bit for bit), formatted
in blocks of _CSV_BLOCK_ROWS rows with one % operation per block (the
same bytes as np.savetxt(fmt="%.17g")).  The hash is sha256 of the
header text between "# " and ", config=", truncated to 16 hex chars.

Dataset binary (for runs too big for CSV): magic GTB1, uint32 LE header
length, header JSON object (the CSV header fields plus version, columns
and the same config hash), uint64 LE payload float count, then
little-endian float64 pairs (theta,x) or (x,p).

Each format has one header reader, _read_csv_header and _read_bin_header
(which also checks the count against the file size), shared by
read_dataset and verify_file: verify checks a dataset's header hash, and
a binary file's payload length, without reading any row.

Reports are JSON with a "config" object and its full sha256 in
"config_sha256"; benchmark and gamma-map tables are also emitted as
flat CSV behind a one-line `# gauss-tomo v1, kind=...` comment header.
Nothing in any writer depends on time or machine, so identical inputs
give byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import DataFormatError, UnknownScheme
from .sampling import HeterodyneDataset, HomodyneDataset

FORMAT_VERSION = "gauss-tomo v1"
BIN_MAGIC = b"GTB1"
_CSV_BLOCK_ROWS = 1 << 16
_COLUMNS = {"hom": "theta,x", "het": "x,p"}

_FIXED_KEYS = ("scheme", "seed", "eta")
_LIST_KEYS = {"g_elec", "g_w", "state"}
_INT_KEYS = {"seed", "angle_count", "n_per_angle", "n_pairs"}
_FLOAT_KEYS = {"eta", "offset"}


def canonical_config_hash(config: dict) -> str:
    """sha256 over the sorted compact JSON dump of a config dict."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _short_hash(body: str) -> str:
    """The 16-hex config hash that dataset and report-CSV headers carry."""
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _meta_value_to_str(key: str, value) -> str:
    if key in _LIST_KEYS:
        return ";".join(repr(float(v)) for v in value)
    if key == "thermalized":
        return f"{value['method']};{value['seed']}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_value_from_str(key: str, raw: str):
    if key in _LIST_KEYS:
        return [float(v) for v in raw.split(";")]
    if key == "thermalized":
        method, seed = raw.split(";")
        return {"method": method, "seed": int(seed)}
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def _header_body(meta: dict) -> str:
    for key in _FIXED_KEYS:
        if key not in meta:
            raise DataFormatError(f"dataset meta is missing required key {key!r}")
    parts = [FORMAT_VERSION]
    for k in _FIXED_KEYS + tuple(k for k in sorted(meta) if k not in _FIXED_KEYS):
        try:
            parts.append(f"{k}={_meta_value_to_str(k, meta[k])}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"header field {k!r} has no text form: {exc}") from exc
    return ", ".join(parts)


def _header_line(meta: dict) -> str:
    body = _header_body(meta)
    return f"# {body}, config={_short_hash(body)}"


def _read_csv_header(f) -> tuple[dict, str, str]:
    """(meta, body, stored hash) from line 1 of the CSV file open in binary
    mode in f; leaves f at line 2."""
    f.seek(0)
    line = f.readline()
    if not line:
        raise DataFormatError("line 1: empty file")
    try:
        line = line.decode()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"line 1: not text: {exc}") from exc
    if not line.startswith("# "):
        raise DataFormatError(f"line 1: expected '# {FORMAT_VERSION}, ...' header")
    content = line[2:].rstrip("\r\n")
    if not content.startswith(FORMAT_VERSION + ", "):
        raise DataFormatError(f"line 1: unsupported format version in {content!r}")
    body, marker, stored = content.rpartition(", config=")
    if not marker:
        raise DataFormatError("line 1: header carries no config hash")
    meta = {}
    for item in body[len(FORMAT_VERSION) + 2:].split(", "):
        if "=" not in item:
            raise DataFormatError(f"line 1: malformed header field {item!r}")
        key, raw = item.split("=", 1)
        try:
            meta[key] = _meta_value_from_str(key, raw)
        except ValueError as exc:
            raise DataFormatError(f"line 1: cannot parse header field {key}={raw!r}") from exc
    return meta, body, stored


def _read_bin_header(f) -> tuple[dict, str, object, int]:
    """The binary twin of _read_csv_header: (meta, body, stored hash,
    payload float count) of the binary dataset open in f.  Checks the
    count against the file size and leaves f at the payload."""
    f.seek(0)
    size = os.fstat(f.fileno()).st_size
    head = f.read(8)
    if size < 16 or head[:4] != BIN_MAGIC:
        raise DataFormatError("not a gauss-tomo binary dataset")
    (hlen,) = struct.unpack("<I", head[4:])
    if 8 + hlen + 8 > size:
        raise DataFormatError("binary header is truncated")
    try:
        header = json.loads(f.read(hlen).decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"binary header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError("binary header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {header.get('version')!r}")
    (count,) = struct.unpack("<Q", f.read(8))
    payload_bytes = size - (8 + hlen + 8)
    if count * 8 != payload_bytes:
        raise DataFormatError(
            f"payload length mismatch: header says {count} values, file has {payload_bytes // 8}"
        )
    if count % 2 != 0:
        raise DataFormatError("payload float count must be even (two columns)")
    meta = {k: v for k, v in header.items() if k not in ("version", "columns", "config")}
    return meta, _header_body(meta), header.get("config"), count


def _check_scheme(meta: dict) -> str:
    scheme = meta.get("scheme")
    if scheme not in _COLUMNS:
        raise UnknownScheme(f"unknown measurement scheme {scheme!r}")
    return scheme


def write_dataset(path, dataset, fmt: str = "csv") -> None:
    if fmt == "csv":
        _write_dataset_csv(path, dataset)
    elif fmt == "bin":
        _write_dataset_bin(path, dataset)
    else:
        raise ValueError(f"fmt must be 'csv' or 'bin', got {fmt!r}")


def _dataset_rows(dataset) -> tuple[str, np.ndarray]:
    if isinstance(dataset, HomodyneDataset):
        theta = np.concatenate(
            [np.full(len(x), th) for th, x in zip(dataset.angles, dataset.samples)]
        )
        return _COLUMNS["hom"], np.column_stack((theta, np.concatenate(dataset.samples)))
    if isinstance(dataset, HeterodyneDataset):
        return _COLUMNS["het"], dataset.pairs
    raise TypeError(f"unsupported dataset type {type(dataset)!r}")


def _write_dataset_csv(path, dataset) -> None:
    columns, rows = _dataset_rows(dataset)
    with open(path, "w", newline="\n") as f:
        f.write(_header_line(dataset.meta) + "\n")
        f.write(columns + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start : start + _CSV_BLOCK_ROWS]
            f.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def _write_dataset_bin(path, dataset) -> None:
    columns, rows = _dataset_rows(dataset)
    config = _short_hash(_header_body(dataset.meta))
    header = {**dataset.meta, "version": FORMAT_VERSION, "columns": columns, "config": config}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = np.ascontiguousarray(rows, dtype="<f8")
    with open(path, "wb") as f:
        f.write(BIN_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<Q", payload.size))
        f.write(payload.tobytes())


def _dataset_from_rows(meta: dict, rows: np.ndarray):
    scheme = _check_scheme(meta)
    try:
        if scheme == "het":
            return HeterodyneDataset(rows, meta)
        theta = rows[:, 0]
        boundaries = np.flatnonzero(np.diff(theta) != 0.0) + 1
        angles = theta[np.concatenate(([0], boundaries))] if theta.size else theta
        groups = np.split(rows[:, 1], boundaries)
        return HomodyneDataset(tuple(float(a) for a in angles), tuple(groups), meta)
    except ValueError as exc:
        raise DataFormatError(f"dataset content is inconsistent: {exc}") from exc


def _read_rows_csv(f):
    """(meta, rows) of the CSV dataset open in binary mode in f."""
    meta, _, _ = _read_csv_header(f)
    expected = _COLUMNS[_check_scheme(meta)]
    with io.TextIOWrapper(f, encoding="utf-8", errors="replace") as text:
        columns = text.readline().rstrip("\n")
        if columns != expected:
            raise DataFormatError(f"line 2: expected columns {expected!r}, got {columns!r}")
        try:
            with warnings.catch_warnings():
                # numpy warns on an empty body; it is reported below as line 3
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(text, delimiter=",", ndmin=2)
        except ValueError:
            # slow pass to point at the offending line
            text.seek(0)
            for lineno, line in enumerate(text, start=1):
                try:
                    ok = len([float(p) for p in line.split(",")]) == 2
                except ValueError:
                    ok = False
                if lineno > 2 and not ok:
                    raise DataFormatError(f"line {lineno}: cannot parse {line.rstrip()!r}")
            raise DataFormatError("dataset rows are malformed")
    if rows.size == 0:
        raise DataFormatError("line 3: dataset has no rows")
    if rows.shape[1] != 2:
        raise DataFormatError(f"line 3: expected 2 columns, got {rows.shape[1]}")
    return meta, rows


def read_dataset(path):
    """Load a dataset file, CSV or binary, validating header and scheme."""
    with open(path, "rb") as f:
        if f.read(4) == BIN_MAGIC:
            meta, _, _, count = _read_bin_header(f)
            rows = np.fromfile(f, dtype="<f8", count=count).reshape(-1, 2)
        else:
            meta, rows = _read_rows_csv(f)
    return _dataset_from_rows(meta, rows)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_report_json(path, config: dict, body: dict) -> dict:
    """Write a report embedding its config and the config's sha256."""
    payload = {"config": _json_safe(config), **_json_safe(body)}
    payload["config_sha256"] = canonical_config_hash(payload["config"])
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _report_csv_header(kind: str, seed, config: dict) -> str:
    # config_ref ties the CSV to its JSON sibling; config hashes the header
    # text itself so verify can re-derive it from the file alone.
    body = f"{FORMAT_VERSION}, kind={kind}, seed={seed}, config_ref={canonical_config_hash(config)[:16]}"
    return f"# {body}, config={_short_hash(body)}"


def _fmt_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def benchmark_report_csv(report) -> str:
    """Flat CSV: mu,lambda,scheme,N,m,dhs_mean,dhs_stderr,gamma,gamma_analytic.

    Heterodyne statistics do not depend on m, so the het row for every
    (N, m) pair repeats them; gamma on both rows is the (N, m) ratio.
    """
    cfg = report.config
    lines = [
        _report_csv_header("benchmark", cfg.seed, cfg.to_dict()),
        "mu,lambda,scheme,N,m,dhs_mean,dhs_stderr,gamma,gamma_analytic",
    ]
    mu = repr(cfg.state.mu)
    lam = repr(cfg.state.lam)
    for n in cfg.sample_sizes:
        for m in cfg.angle_counts:
            hom = report.hom[(n, m)]
            het = report.het[n]
            gamma, _ = report.gamma[(n, m)]
            g_an = report.gamma_analytic.get(m, math.nan)
            for scheme, st in (("hom", hom), ("het", het)):
                cells = (mu, lam, scheme, n, m, st.mean, st.stderr, gamma, g_an)
                lines.append(",".join(_fmt_cell(v) for v in cells))
    return "\n".join(lines) + "\n"


def write_benchmark_csv(path, report) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(benchmark_report_csv(report))


def gamma_map_csv(rows, seed, config: dict) -> str:
    lines = [
        _report_csv_header("gamma-map", seed, config),
        "mu,lambda,gamma",
    ]
    for row in rows:
        lines.append(
            ",".join([repr(float(row["mu"])), repr(float(row["lambda"])), _fmt_cell(row["gamma"])])
        )
    return "\n".join(lines) + "\n"


def verify_file(path) -> tuple[bool, str]:
    """Re-derive the embedded config hash of any toolkit output file.

    Datasets and report CSVs are checked from their header alone (binary
    datasets also by payload length), never their rows; a JSON report is
    read whole.
    """
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(4)
        if head == BIN_MAGIC:
            _, body, stored, _ = _read_bin_header(f)
            what = "binary dataset, config hash"
        elif head.startswith(b"# ") or not head:  # an empty file fails as a CSV's line 1
            _, body, stored = _read_csv_header(f)
            what = "header config hash"
        else:
            return _verify_report(path, head + f.read())
    expect = _short_hash(body)
    if stored == expect:
        return True, f"{path}: {what} {stored} ok"
    return False, f"{path}: config hash mismatch (stored {stored}, derived {expect})"


def _verify_report(path: Path, raw: bytes) -> tuple[bool, str]:
    try:
        payload = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"unrecognized file format: {exc}") from exc
    if not isinstance(payload, dict) or "config" not in payload or "config_sha256" not in payload:
        raise DataFormatError("JSON report lacks config/config_sha256 fields")
    expect = canonical_config_hash(payload["config"])
    if payload["config_sha256"] == expect:
        return True, f"{path}: JSON report, config sha256 ok"
    return False, (
        f"{path}: config sha256 mismatch (stored {payload['config_sha256']}, derived {expect})"
    )
