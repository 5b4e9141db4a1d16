import json
import struct
import warnings

import numpy as np
import pytest

from gauss_tomo import (
    AngleProtocol,
    BenchmarkConfig,
    CovMat,
    DataFormatError,
    DetectionModel,
    StateSpec,
    UnknownScheme,
    read_dataset,
    run_benchmark,
    sample_heterodyne,
    sample_homodyne,
    verify_file,
    wigner_cov,
    write_dataset,
    write_report_json,
)
from gauss_tomo import cli, dataio
from gauss_tomo.dataio import (
    FORMAT_VERSION,
    _dataset_rows,
    _header_line,
    benchmark_report_csv,
    canonical_config_hash,
    gamma_map_csv,
    write_benchmark_csv,
)
from gauss_tomo.sampling import HeterodyneDataset, HomodyneDataset

STATE = StateSpec(2.0, 3.0, 0.5)
DET = DetectionModel(0.9, CovMat(0.01, 0.0, 0.02))
G_W = wigner_cov(STATE)


@pytest.fixture
def hom():
    return sample_homodyne(G_W, DET, AngleProtocol(4, 0.11), 50, 12)


@pytest.fixture
def het():
    return sample_heterodyne(G_W, DET, 80, 13)


def assert_datasets_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, HomodyneDataset):
        assert a.angles == b.angles
        for x, y in zip(a.samples, b.samples):
            np.testing.assert_array_equal(x, y)
    else:
        np.testing.assert_array_equal(a.pairs, b.pairs)
    assert a.meta == b.meta


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_homodyne(self, tmp_path, hom, fmt):
        path = tmp_path / f"d.{fmt}"
        write_dataset(path, hom, fmt)
        assert_datasets_equal(read_dataset(path), hom)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_heterodyne(self, tmp_path, het, fmt):
        path = tmp_path / f"d.{fmt}"
        write_dataset(path, het, fmt)
        assert_datasets_equal(read_dataset(path), het)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_write_is_byte_stable(self, tmp_path, hom, fmt):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_dataset(p1, hom, fmt)
        write_dataset(p2, hom, fmt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_format(self, tmp_path, hom):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "d.x", hom, "json")

    def test_thermalized_meta_round_trips(self, tmp_path, hom):
        from gauss_tomo import thermalize_homodyne

        t = thermalize_homodyne(hom, 99)
        path = tmp_path / "t.csv"
        write_dataset(path, t)
        back = read_dataset(path)
        assert back.meta["thermalized"] == {"method": "shuffle", "seed": 99}


class TestVerify:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_fresh_file_verifies(self, tmp_path, hom, fmt):
        path = tmp_path / f"d.{fmt}"
        write_dataset(path, hom, fmt)
        ok, msg = verify_file(path)
        assert ok, msg

    def test_detects_header_tamper(self, tmp_path, hom):
        path = tmp_path / "d.csv"
        write_dataset(path, hom)
        text = path.read_text()
        path.write_text(text.replace("seed=12", "seed=21", 1))
        ok, msg = verify_file(path)
        assert not ok
        assert "mismatch" in msg

    def test_detects_json_tamper(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(path, {"alpha": 1}, {"kind": "x", "value": 2.0})
        payload = json.loads(path.read_text())
        payload["config"]["alpha"] = 2
        path.write_text(json.dumps(payload))
        ok, msg = verify_file(path)
        assert not ok

    def test_rejects_unrecognized_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("hello world\n")
        with pytest.raises(DataFormatError):
            verify_file(path)

    def test_report_nested_too_deep(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[" * 100_000)
        with pytest.raises(DataFormatError, match="^unrecognized file format: maximum recursion"):
            verify_file(path)


def _write_bin(path, header: bytes, payload: bytes = b""):
    path.write_bytes(
        b"GTB1" + struct.pack("<I", len(header)) + header
        + struct.pack("<Q", len(payload) // 8) + payload
    )


@pytest.mark.parametrize("call", [read_dataset, verify_file])
class TestMalformedHeaders:
    def test_binary_header_not_an_object(self, tmp_path, call):
        path = tmp_path / "d.bin"
        _write_bin(path, b"[]")
        with pytest.raises(DataFormatError, match="^binary header is not a JSON object$"):
            call(path)

    def test_binary_header_nested_too_deep(self, tmp_path, call):
        path = tmp_path / "d.bin"
        _write_bin(path, b"[" * 100_000)
        with pytest.raises(DataFormatError, match="^binary header is not valid JSON: maximum recursion"):
            call(path)

    def test_binary_count_exceeds_payload(self, tmp_path, het, call):
        path = tmp_path / "d.bin"
        write_dataset(path, het, "bin")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="^payload length mismatch"):
            call(path)

    def test_binary_field_without_text_form(self, tmp_path, het, call):
        header = {**het.meta, "version": FORMAT_VERSION, "columns": "x,p", "g_elec": 5}
        path = tmp_path / "d.bin"
        _write_bin(path, json.dumps(header).encode(), het.pairs.astype("<f8").tobytes())
        with pytest.raises(DataFormatError, match="^header field 'g_elec' has no text form"):
            call(path)

    @pytest.mark.parametrize("field", ["seed=abc", "thermalized=foo", "g_elec=a;b"])
    def test_unparsable_csv_header_value(self, tmp_path, call, field):
        key, raw = field.split("=", 1)
        fields = {"scheme": "hom", "seed": "0", "eta": "1.0", key: raw}
        body = ", ".join([FORMAT_VERSION] + [f"{k}={v}" for k, v in fields.items()])
        path = tmp_path / "d.csv"
        path.write_text(f"# {body}, config=0000000000000000\ntheta,x\n0.0,1.0\n")
        with pytest.raises(DataFormatError) as err:
            call(path)
        assert str(err.value) == f"line 1: cannot parse header field {key}={raw!r}"


class TestReadErrors:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("theta,x\n0.0,1.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# gauss-tomo v9, scheme=hom, seed=0, eta=1.0, config=abc\ntheta,x\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_unknown_scheme(self, tmp_path, hom):
        p = tmp_path / "d.csv"
        write_dataset(p, hom)
        text = p.read_text().replace("scheme=hom", "scheme=xyz")
        # keep the hash consistent so the scheme check is what fires
        import hashlib

        body = text.splitlines()[0][2:]
        body = body[: body.rfind(", config=")]
        digest = hashlib.sha256(body.encode()).hexdigest()[:16]
        lines = text.splitlines()
        lines[0] = f"# {body}, config={digest}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnknownScheme):
            read_dataset(p)

    def test_bad_float_reports_line(self, tmp_path, hom):
        p = tmp_path / "d.csv"
        write_dataset(p, hom)
        lines = p.read_text().splitlines()
        lines[10] = "0.1,not-a-number"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 11"):
            read_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_no_rows_is_one_stderr_line(self, tmp_path, hom, capsys):
        p = tmp_path / "d.csv"
        write_dataset(p, hom)
        p.write_text("".join(p.read_text().splitlines(keepends=True)[:2]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["estimate", str(p)])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == "error: DataFormatError: line 3: dataset has no rows\n"

    def test_truncated_binary(self, tmp_path, het):
        p = tmp_path / "d.bin"
        write_dataset(p, het, "bin")
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_bad_magic(self, tmp_path, het):
        p = tmp_path / "d.bin"
        write_dataset(p, het, "bin")
        raw = p.read_bytes()
        p.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(DataFormatError):
            read_dataset(p)

    @pytest.mark.parametrize("bit", [0, 1, 40, 63])
    def test_bit_flipped_count(self, tmp_path, het, bit):
        p = tmp_path / "d.bin"
        write_dataset(p, het, "bin")
        raw = bytearray(p.read_bytes())
        at = 8 + int.from_bytes(raw[4:8], "little")
        count = int.from_bytes(raw[at : at + 8], "little")
        flipped = count ^ (1 << bit)
        raw[at : at + 8] = flipped.to_bytes(8, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as err:
            read_dataset(p)
        assert str(err.value) == (
            f"payload length mismatch: header says {flipped} values, file has {count}"
        )


def _savetxt_reference(path, dataset):
    # the CSV writer as it was before rows were formatted in blocks
    columns, rows = _dataset_rows(dataset)
    with open(path, "w", newline="\n") as f:
        f.write(_header_line(dataset.meta) + "\n")
        f.write(columns + "\n")
        np.savetxt(f, rows, fmt="%.17g", delimiter=",")


_SPECIAL = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1]
_BLOCK = 7


class TestBlockedCsvWriter:
    @pytest.mark.parametrize("n_rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("scheme", ["hom", "het"])
    def test_matches_savetxt(self, tmp_path, monkeypatch, hom, het, scheme, n_rows):
        monkeypatch.setattr(dataio, "_CSV_BLOCK_ROWS", _BLOCK)
        rng = np.random.default_rng(n_rows)
        values = np.resize(np.concatenate([_SPECIAL, -rng.lognormal(0, 20, 2 * n_rows)]), 2 * n_rows)
        if scheme == "het":
            data = HeterodyneDataset(values.reshape(-1, 2), het.meta)
        else:
            groups = np.array_split(values[:n_rows], min(n_rows, 3))
            data = HomodyneDataset((0.0, 5e-324, 0.1)[: len(groups)], tuple(groups), hom.meta)
        path, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
        write_dataset(path, data)
        _savetxt_reference(ref, data)
        assert path.read_bytes() == ref.read_bytes()
        back = read_dataset(path)
        if scheme == "het":
            assert back.pairs.tobytes() == data.pairs.tobytes()
        else:
            assert back.angles == data.angles
            assert [x.tobytes() for x in back.samples] == [x.tobytes() for x in data.samples]
        assert back.meta == data.meta


class TestReports:
    def test_report_json_contains_config_hash(self, tmp_path):
        config = {"b": 2, "a": [1, 2]}
        payload = write_report_json(tmp_path / "r.json", config, {"kind": "demo"})
        assert payload["config_sha256"] == canonical_config_hash(config)
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert on_disk == json.loads(json.dumps(payload))

    def test_json_handles_nan(self, tmp_path):
        payload = write_report_json(
            tmp_path / "r.json", {"a": 1}, {"kind": "demo", "v": float("nan")}
        )
        assert payload["v"] is None
        json.loads((tmp_path / "r.json").read_text())  # strict JSON, no NaN literals

    def test_benchmark_csv_shape(self, tmp_path):
        cfg = BenchmarkConfig(
            state=StateSpec(1.0, 1.0),
            det=DetectionModel(1.0),
            sample_sizes=(600,),
            angle_counts=(5, 6),
            repetitions=5,
            seed=1,
            exact_truth=True,
        )
        rep = run_benchmark(cfg)
        text = benchmark_report_csv(rep)
        lines = text.splitlines()
        assert lines[1] == "mu,lambda,scheme,N,m,dhs_mean,dhs_stderr,gamma,gamma_analytic"
        # one hom and one het row per (N, m) cell
        assert len(lines) == 2 + 2 * 2
        write_benchmark_csv(tmp_path / "b.csv", rep)
        ok, msg = verify_file(tmp_path / "b.csv")
        assert ok, msg
        # 5 repetitions is under the gamma cutoff: cells carry nan
        assert ",nan," in lines[2]

    def test_gamma_map_csv(self, tmp_path):
        rows = [
            {"mu": 1.0, "lambda": 1.0, "gamma": 1.2},
            {"mu": 2.0, "lambda": 1.0, "gamma": float("nan")},
        ]
        text = gamma_map_csv(rows, 7, {"grid": [1, 2]})
        lines = text.splitlines()
        assert lines[1] == "mu,lambda,gamma"
        assert lines[3].endswith("nan")
        p = tmp_path / "g.csv"
        p.write_text(text)
        ok, msg = verify_file(p)
        assert ok, msg


class TestHeaderEdgeCases:
    def test_meta_floats_round_trip_exactly(self, tmp_path):
        d = HeterodyneDataset(
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            {
                "scheme": "het",
                "seed": 3,
                "eta": 1 / 3,
                "offset": 0.7853981633974483,
                "n_pairs": 2,
            },
        )
        p = tmp_path / "d.csv"
        write_dataset(p, d)
        back = read_dataset(p)
        assert back.meta["eta"] == 1 / 3
        assert back.meta["offset"] == 0.7853981633974483

    def test_missing_required_key(self, tmp_path):
        d = HeterodyneDataset(np.array([[0.1, 0.2]]), {"scheme": "het"})
        with pytest.raises(DataFormatError):
            write_dataset(tmp_path / "d.csv", d)
