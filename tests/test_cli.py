import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gauss_tomo
import gauss_tomo.benchmark as bm
from gauss_tomo import ConfigError, cli, read_dataset
from gauss_tomo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_homodyne_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = run(
            capsys,
            "simulate", "--state", "weak-sqz", "--scheme", "hom",
            "--angles", "6", "--samples", "50", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "wrote" in stdout
        d = read_dataset(out)
        assert d.meta["seed"] == 3
        assert d.meta["angle_count"] == 6
        assert d.meta["state"] == [4.46, 6.49, 0.0]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--mu", "2", "--lambda", "3", "--samples", "40",
                "--angles", "5", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_heterodyne_bin(self, tmp_path, capsys):
        out = tmp_path / "d.bin"
        code, _, _ = run(
            capsys,
            "simulate", "--scheme", "het", "--samples", "70",
            "--seed", "4", "--format", "bin", "--out", str(out),
        )
        assert code == 0
        assert read_dataset(out).pairs.shape == (70, 2)

    def test_thermalize_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--state", "strong-sqz", "--thermalize",
            "--angles", "5", "--samples", "30", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert read_dataset(out).meta["thermalized"]["method"] == "shuffle"

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, "simulate", "--samples", "10")
        assert code == 2
        assert "ConfigError" in err

    def test_rejects_json_dataset_format(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--samples", "10", "--format", "json",
                           "--out", str(tmp_path / "d"))
        assert code == 2
        assert err == ("error: ConfigError: flag --format: invalid choice 'json' "
                       "(choose from csv, bin)\n")

    @pytest.mark.parametrize(
        "extra",
        [["--angles", "0"], ["--scheme", "het", "--samples", "0"]],
        ids=["zero-angles", "het-zero-samples"],
    )
    def test_bad_counts_are_config_errors(self, tmp_path, capsys, extra):
        code, _, err = run(capsys, "simulate", *extra, "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_bad_state_value(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--mu", "-1", "--out", str(tmp_path / "d"),
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "source,value",
        [("flag", "inf"), ("flag", "-inf"), ("ini", "inf"), ("ini", "-inf")],
        ids=["flag-inf", "flag-minus-inf", "ini-inf", "ini-minus-inf"],
    )
    def test_infinite_orientation_is_config_error(self, tmp_path, capsys, source, value):
        argv = ["simulate", "--out", str(tmp_path / "d.csv")]
        if source == "flag":
            argv.append(f"--orientation={value}")
        else:
            ini = tmp_path / "s.ini"
            ini.write_text(f"[state]\norientation = {value}\n")
            argv += ["--config", str(ini)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: ConfigError: orientation must be finite, got {value}\n"
        assert not (tmp_path / "d.csv").exists()


class TestEstimate:
    def setup_dataset(self, tmp_path, capsys, scheme="hom"):
        out = tmp_path / "d.csv"
        argv = ["simulate", "--state", "weak-sqz", "--scheme", scheme,
                "--seed", "6", "--out", str(out)]
        if scheme == "hom":
            argv += ["--angles", "10", "--samples", "4000"]
        else:
            argv += ["--samples", "40000"]
        assert main(argv) == 0
        capsys.readouterr()
        return out

    def test_homodyne_estimate(self, tmp_path, capsys):
        data = self.setup_dataset(tmp_path, capsys)
        report = tmp_path / "est.json"
        code, stdout, _ = run(capsys, "estimate", str(data), "--out", str(report))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["scheme"] == "hom"
        assert payload["mu"] == pytest.approx(4.46, rel=0.1)
        assert payload["lambda"] == pytest.approx(6.49, rel=0.1)
        on_disk = json.loads(report.read_text())
        assert on_disk["config_sha256"]

    def test_wls_method(self, tmp_path, capsys):
        data = self.setup_dataset(tmp_path, capsys)
        code, stdout, _ = run(capsys, "estimate", str(data), "--method", "wls")
        assert code == 0
        assert json.loads(stdout)["diagnostics"]["iterations"] == 1

    def test_heterodyne_estimate(self, tmp_path, capsys):
        data = self.setup_dataset(tmp_path, capsys, scheme="het")
        code, stdout, _ = run(capsys, "estimate", str(data))
        assert code == 0
        assert json.loads(stdout)["scheme"] == "het"

    def test_wls_rejected_for_heterodyne(self, tmp_path, capsys):
        data = self.setup_dataset(tmp_path, capsys, scheme="het")
        code, _, err = run(capsys, "estimate", str(data), "--method", "wls")
        assert code == 2

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", str(tmp_path / "nope.csv"))
        assert code == 4
        assert "FileNotFoundError" in err

    def test_unparsable_ini_eta_is_config_error(self, tmp_path, capsys):
        data = self.setup_dataset(tmp_path, capsys)
        ini = tmp_path / "bad.ini"
        ini.write_text("[detection]\neta = abc\n")
        code, _, err = run(capsys, "estimate", str(data), "--config", str(ini))
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_seed_from_shared_config_file_is_ignored(self, tmp_path, capsys):
        # estimate draws nothing, so it has no --seed; a config file shared
        # with simulate may still hold [run] seed
        data = self.setup_dataset(tmp_path, capsys)
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 1\n")
        _, plain, _ = run(capsys, "estimate", str(data))
        code, stdout, err = run(capsys, "estimate", str(data), "--config", str(ini))
        assert (code, err) == (0, "")
        assert stdout == plain

    def test_underdetermined_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["simulate", "--angles", "2", "--samples", "30",
                     "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "estimate", str(out))
        assert code == 3
        assert "Underdetermined" in err


class TestBenchmarkCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        base = tmp_path / "bench"
        code, stdout, _ = run(
            capsys,
            "benchmark", "--state", "vacuum", "--samples", "600,1200",
            "--angles", "5", "--reps", "30", "--exact-truth",
            "--seed", "2", "--out", str(base),
        )
        assert code == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["kind"] == "benchmark"
        assert (tmp_path / "bench.csv").read_text().startswith("# gauss-tomo v1, kind=benchmark")
        assert "gamma=" in stdout

    def test_worker_flag_reproduces(self, tmp_path, capsys):
        args = ["benchmark", "--samples", "600", "--angles", "5", "--reps", "10",
                "--exact-truth", "--seed", "2"]
        assert main(args + ["--workers", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--workers", "2", "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        ja = json.loads((tmp_path / "a.json").read_text())
        jb = json.loads((tmp_path / "b.json").read_text())
        assert ja == jb
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_default_grid_is_valid(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "benchmark", "--reps", "30", "--exact-truth", "--out", str(tmp_path / "x"),
        )
        assert code == 0, err
        payload = json.loads((tmp_path / "x.json").read_text())
        assert payload["config"]["sample_sizes"] == [1500, 15000]

    def test_invalid_sample_split(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "benchmark", "--samples", "601", "--angles", "10", "--reps", "5",
            "--exact-truth", "--out", str(tmp_path / "x"),
        )
        assert code == 2


class TestGammaMapCommand:
    def test_analytic_to_stdout(self, capsys):
        code, stdout, _ = run(
            capsys, "gamma-map", "--grid", "2x2", "--mu-range", "1:2",
            "--lambda-range", "1:3", "--analytic",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[1] == "mu,lambda,gamma"
        assert len(lines) == 6
        first = lines[2].split(",")
        assert float(first[2]) == pytest.approx(1.2, rel=1e-6)

    def test_bad_grid(self, capsys):
        for extra in (
            ["--grid", "0x5"],
            ["--grid", "axb"],
            ["--mu-range", "a:b"],
            ["--lambda-range", "1:x"],
            ["--grid", "2x2", "--mu-range", "1:inf"],
        ):
            code, _, err = run(capsys, "gamma-map", *extra, "--analytic")
            assert code == 2, extra
            assert err.startswith("error: ConfigError:"), extra
            assert err.count("\n") == 1, extra

    def test_unusable_angle_count_fails_before_any_cell(self, capsys):
        for extra in (["--analytic"], []):
            code, stdout, err = run(capsys, "gamma-map", "--angles", "4", *extra)
            assert code == 2, extra
            assert err.startswith("error: ConfigError: angle count 4"), extra
            assert err.count("\n") == 1, extra
            assert stdout == ""

    def test_indivisible_samples_fail_before_any_cell(self, capsys):
        code, stdout, err = run(capsys, "gamma-map", "--samples", "1000", "--angles", "7")
        assert code == 2
        assert err.startswith("error: ConfigError: sample size 1000 not divisible")
        assert err.count("\n") == 1
        assert stdout == ""

    def test_overflowing_cell_is_nan(self, tmp_path, capsys):
        # at mu 1e300, lambda 1e300 the major variance mu * lambda overflows
        out = tmp_path / "map"
        code, _, err = run(
            capsys, "gamma-map", "--analytic", "--grid", "1x2", "--mu-range", "1e300:1e300",
            "--lambda-range", "1:1e300", "--out", str(out),
        )
        assert code == 0, err
        cells = json.loads((tmp_path / "map.json").read_text())["cells"]
        assert [c["lambda"] for c in cells] == [1.0, 1e300]
        assert np.isfinite(cells[0]["gamma"])
        assert cells[1]["gamma"] is None
        rows = (tmp_path / "map.csv").read_text().splitlines()[2:]
        assert np.isfinite(float(rows[0].split(",")[2]))
        assert rows[1].split(",")[2] == "nan"


class TestCrossoverCommand:
    def test_too_few_reps_fail_before_any_probe(self, capsys, monkeypatch):
        def no_probe(cfg):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(bm, "run_benchmark", no_probe)
        code, stdout, err = run(capsys, "crossover", "--reps", "10")
        assert code == 2
        assert err == "error: ConfigError: empirical gamma needs >= 30 repetitions, got 10\n"
        assert stdout == ""


class TestGaussianityCommand:
    def test_per_angle_reports(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--angles", "3", "--samples", "2000",
                     "--seed", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "gaussianity", str(data))
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["reports"]) == 3
        assert all("ks_pvalue" in r for r in payload["reports"])

    def test_small_angle_bins_reported_not_fatal(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--angles", "3", "--samples", "100",
                     "--seed", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "gaussianity", str(data))
        assert code == 0
        payload = json.loads(stdout)
        assert all("TooFewSamples" in r["error"] for r in payload["reports"])

    def test_per_axis_for_heterodyne(self, tmp_path, capsys):
        data = tmp_path / "d.bin"
        assert main(["simulate", "--scheme", "het", "--samples", "3000",
                     "--seed", "9", "--format", "bin", "--out", str(data)]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "gaussianity", str(data))
        assert code == 0
        labels = [r["label"] for r in json.loads(stdout)["reports"]]
        assert labels == ["axis=x", "axis=p"]


    def test_too_few_bins_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--angles", "3", "--samples", "100",
                     "--seed", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        code, stdout, err = run(capsys, "gaussianity", str(data), "--bins", "2")
        assert code == 2
        assert err == "error: ConfigError: bins must be >= 5, got 2\n"
        assert stdout == ""


class TestVerifyCommand:
    def test_ok_and_tampered(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--samples", "20", "--angles", "3",
                     "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["verify", str(data)]) == 0
        capsys.readouterr()
        data.write_text(data.read_text().replace("seed=1", "seed=7", 1))
        code, stdout, _ = run(capsys, "verify", str(data))
        assert code == 2
        assert "mismatch" in stdout


    @pytest.mark.parametrize("command", ["verify", "estimate"])
    @pytest.mark.parametrize("corrupt", ["truncated", "list-header"])
    def test_corrupt_binary_exits_2(self, tmp_path, capsys, command, corrupt):
        data = tmp_path / "d.bin"
        assert main(["simulate", "--scheme", "het", "--samples", "20",
                     "--format", "bin", "--out", str(data)]) == 0
        capsys.readouterr()
        if corrupt == "truncated":
            data.write_bytes(data.read_bytes()[:-8])
            message = "payload length mismatch: header says 40 values, file has 39"
        else:
            data.write_bytes(b"GTB1" + (2).to_bytes(4, "little") + b"[]" + bytes(8))
            message = "binary header is not a JSON object"
        code, _, err = run(capsys, command, str(data))
        assert code == 2
        assert err == f"error: DataFormatError: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "estimate", "gaussianity"])
    def test_empty_file_exits_2_with_one_line(self, tmp_path, capsys, command):
        data = tmp_path / "empty.csv"
        data.write_bytes(b"")
        code, _, err = run(capsys, command, str(data))
        assert code == 2
        assert err == "error: DataFormatError: line 1: empty file\n"


class TestConfigFile:
    def test_ini_supplies_defaults_flags_override(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[state]\npreset = strong-sqz\n\n"
            "[detection]\neta = 0.8\n\n"
            "[run]\nseed = 12\nsamples = 60\nangles = 5\n"
        )
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", str(ini), "--samples", "40",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        d = read_dataset(out)
        assert d.meta["eta"] == 0.8
        assert d.meta["seed"] == 12
        assert d.meta["n_per_angle"] == 40  # flag beats config value
        assert d.meta["angle_count"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nwat = 1\n")
        code, _, err = run(capsys, "simulate", "--config", str(ini), "--out", "x")
        assert code == 2
        assert "ConfigError" in err

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[run]\nseed = \xff\n")
        code, _, err = run(capsys, "simulate", "--config", str(ini), "--out", "x")
        assert code == 2
        assert err.startswith(f"error: ConfigError: cannot parse config file {ini}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            ("garbage\n", "File contains no section headers. file: '{ini}', line: 1 'garbage\\n'"),
            ("[run]\nout = 50%\n", "'%' must be followed by '%' or '(', found: '%'"),
        ],
        ids=["no-section", "bad-interpolation"],
    )
    def test_unparsable_file_is_one_line(self, tmp_path, capsys, text, message):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        code, _, err = run(capsys, "simulate", "--config", str(ini), "--out", "x")
        assert code == 2
        assert err == (f"error: ConfigError: cannot parse config file {ini}: "
                       + message.format(ini=ini) + "\n")

    def test_nul_in_a_value_is_config_error(self, tmp_path, capsys):
        # a NUL in the output path made open() raise ValueError, a traceback
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nout = a\0b\n")
        code, stdout, err = run(capsys, "simulate", "--config", str(ini), "--samples", "10")
        assert code == 2
        assert err == "error: ConfigError: config key run.out: NUL character in 'a\\x00b'\n"
        assert stdout == ""

    def test_unknown_section_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[extras]\na = 1\n")
        code, _, err = run(capsys, "simulate", "--config", str(ini), "--out", "x")
        assert code == 2


class TestSettingsTable:
    """Every setting is declared once in cli._COMMANDS; flag and config-file
    values go through the same checks."""

    # (command, setting, source) for each setting with a cast or choices;
    # an on/off flag takes no value, so those are fed through the file only
    CHECKED = [
        (command, opt, source)
        for command, _, opts, _ in cli._COMMANDS
        for opt in opts
        if opt.cast is not str or opt.choices
        for source in ("flag", "ini")
        if source == "ini" or opt.cast is not cli._cast_bool
    ]

    def test_ini_keys(self):
        run_keys = {
            "seed", "scheme", "samples", "angles", "offset", "reps", "thermalize",
            "analytic", "exact_truth", "reference_size", "workers", "out", "format",
            "grid", "mu_range", "lambda_range", "bins", "method",
        }
        assert cli._INI_KEYS == {
            "state.preset", "state.mu", "state.lambda", "state.orientation",
            "detection.eta", "detection.g_elec",
        } | {f"run.{k}" for k in run_keys}

    @pytest.mark.parametrize(
        "command,opt,source", CHECKED, ids=[f"{c}{o.flag}-{src}" for c, o, src in CHECKED]
    )
    def test_bad_value_is_one_line(self, tmp_path, capsys, command, opt, source):
        argv = [command]
        if command in ("estimate", "gaussianity"):
            argv.append(str(tmp_path / "missing.csv"))
        if source == "flag":
            argv += [opt.flag, "abc"]
        else:
            section, _, name = opt.key.partition(".")
            ini = tmp_path / "bad.ini"
            ini.write_text(f"[{section}]\n{name} = abc\n")
            argv += ["--config", str(ini)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1
        assert stdout == ""

    def test_unknown_method_in_config(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--angles", "5", "--samples", "40", "--out", str(data)]) == 0
        capsys.readouterr()
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nmethod = foo\n")
        code, stdout, err = run(capsys, "estimate", str(data), "--config", str(ini))
        assert code == 2
        assert err == ("error: ConfigError: config key run.method: invalid choice 'foo' "
                       "(choose from ml, wls)\n")
        assert stdout == ""


class TestWorkers:
    BENCH = ["benchmark", "--angles", "5", "--reps", "10", "--exact-truth"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_non_positive_is_config_error(self, tmp_path, capsys, value, source):
        if source == "flag":
            extra = ["--workers", value]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[run]\nworkers = {value}\n")
            extra = ["--config", str(ini)]
        code, stdout, err = run(capsys, *self.BENCH, "--samples", "600", *extra)
        assert code == 2
        assert err == f"error: ConfigError: workers must be >= 1, got {value}\n"
        assert stdout == ""

    def test_pool_size_is_capped(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(bm.os, "cpu_count", lambda: 3)
        huge = ["--workers", "1000000"]
        # 2 sample sizes x (1 hom + 1 het) = 4 cells, 3 CPUs
        assert main([*self.BENCH, "--samples", "600,1200", *huge,
                     "--out", str(tmp_path / "a")]) == 0
        assert main([*self.BENCH, "--samples", "600,1200", "--workers", "1",
                     "--out", str(tmp_path / "b")]) == 0
        # 2 points x (1 hom + 1 het) = 4 cells, 3 CPUs
        assert main(["gamma-map", "--grid", "2x1", "--samples", "1000", "--angles", "5",
                     "--reps", "30", *huge]) == 0
        capsys.readouterr()
        assert sizes == [3, 3]
        for suffix in (".json", ".csv"):
            a = (tmp_path / f"a{suffix}").read_bytes()
            assert a == (tmp_path / f"b{suffix}").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["estimate", "d.csv", "--seed", "1"], ["gaussianity", "d.csv", "--seed", "1"],
     ["crossover", "--out", "x"]],
    ids=["estimate-seed", "gaussianity-seed", "crossover-out"],
)
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ConfigError: unrecognized arguments")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,tail",
    [(["gamma-map", "--analytic", "--grid", "1x1", "--mu-range", "1e-300:1e-300"],
      "1e-300,1.0,nan\n"),
     (["benchmark", "--mu", "1e-200", "--exact-truth", "--samples", "1500", "--angles", "5",
       "--reps", "30"], "gamma=nan (stderr nan, analytic nan)\n"),
     # a bright state: the distances overflow, the analytic gamma is the
     # bright-thermal limit
     (["benchmark", "--mu", "1e200", "--exact-truth", "--samples", "1500", "--angles", "5",
       "--reps", "30"], "dhs_het=inf gamma=nan (stderr nan, analytic 0.3)\n")],
    ids=["gamma-map-analytic", "benchmark", "benchmark-bright"],
)
def test_underflowing_state_gives_nan_without_warnings(capsys, argv, tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert stdout.endswith(tail)


@pytest.mark.parametrize("mu", ["1e306", "1e307"])
def test_bright_record_estimates_without_traceback(tmp_path, capsys, mu):
    # a record's statistics are taken on its samples over 2^k, so they do not
    # overflow; a fit that still does reports null parameters, or exits 3 with
    # one line
    for scheme, methods in (("hom", ("ml", "wls")), ("het", ("ml",))):
        data = tmp_path / f"{scheme}.csv"
        assert main(["simulate", "--scheme", scheme, "--mu", mu, "--lambda", "3",
                     "--samples", "1000", "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        for method in methods:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, stdout, err = run(capsys, "estimate", str(data), "--method", method)
            assert not caught, [str(w.message) for w in caught]
            assert code in (0, 3) and err.count("\n") <= 1
            assert "Traceback" not in err and "Warning" not in err
            if mu == "1e306":
                assert (code, err) == (0, "")
                assert json.loads(stdout)["mu"] == pytest.approx(1e306, rel=0.02)


def test_non_finite_report_values_print_as_null(tmp_path, capsys):
    # a mu 1.7e308 record has sample variances past the float range, so its
    # fit is not finite: stdout says null, as the file does
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    data, out = tmp_path / "d.csv", tmp_path / "e.json"
    assert main(["simulate", "--scheme", "hom", "--mu", "1.7e308", "--lambda", "1",
                 "--samples", "1000", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    for method in ("ml", "wls"):
        code, stdout, _ = run(capsys, "estimate", str(data), "--method", method)
        assert code == 0
        report = json.loads(stdout, parse_constant=no_constants)
        assert report["g11"] is None and report["diagnostics"]["converged"] is False, method
        code, stdout, _ = run(capsys, "estimate", str(data), "--method", method, "--out", str(out))
        assert json.loads(stdout, parse_constant=no_constants) == json.loads(out.read_text())


def test_bright_record_gaussianity(tmp_path, capsys):
    # the battery standardizes x / 2^k, so a record near the float limit is
    # tested as at unit scale
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scheme", "het", "--mu", "1e307", "--samples", "2000",
                 "--seed", "2", "--out", str(data)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "gaussianity", str(data))
    assert (code, err) == (0, "")
    reports = json.loads(stdout)["reports"]
    assert len(reports) == 2 and not any("error" in r for r in reports)


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("error: ConfigError: argument command: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [(["estimate", "d.csv", "--frobnicate"], "unrecognized arguments: --frobnicate"),
     ([], "the following arguments are required: command"),
     # a value that starts with '-' reads as a flag
     (["gamma-map", "--mu-range", "-1:1"], "argument --mu-range: expected one argument"),
     (["gamma-map", "--grid", "-2x3"], "argument --grid: expected one argument")],
    ids=["unknown-flag", "missing-subcommand", "dash-range", "dash-grid"],
)
def test_usage_error_is_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: ConfigError: {message}\n")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["gamma-map", "--help"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 0
        assert "usage: gauss-tomo" in capsys.readouterr().out


def test_lazy_parser_prints_what_the_full_parser_prints(capsys):
    # main builds only the parser of the subcommand its first argument names;
    # every help text and usage error must be the full parser's, byte for byte
    def full(argv):
        try:
            cli.build_parser().parse_args(argv)
        except ConfigError as exc:
            print(f"error: ConfigError: {exc}", file=sys.stderr)
            return 2

    def printed(parse, argv):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    names = sorted(cli._NAMES)
    assert len(names) == 7
    for argv in [[name, "--help"] for name in names] + [["--help"], [], ["bogus"]]:
        assert printed(main, argv) == printed(full, argv), argv
    code, out, _ = printed(main, ["--help"])
    assert code == 0 and all(name in out for name in names)
    for argv in ([], ["bogus"]):
        code, out, err = printed(main, argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv


_COLD_START = """
import contextlib, io, json, sys

def scipy_loaded():
    return "scipy" in sys.modules

steps = []
import gauss_tomo
from gauss_tomo import GaussianityReport, kl_divergence, test_gaussianity
from gauss_tomo.gaussianity import DEFAULT_BINS, MIN_BINS
steps.append(["import gauss_tomo", scipy_loaded()])
from gauss_tomo import cli
steps.append(["import gauss_tomo.cli", scipy_loaded()])
for argv in (
    ["simulate", "--scheme", "het", "--samples", "3000", "--seed", "1", "--format", "bin",
     "--out", "d.bin"],
    ["estimate", "d.bin", "--out", "e.json"],
    ["verify", "d.bin", "e.json"],
    ["benchmark", "--samples", "600", "--angles", "5", "--reps", "10", "--exact-truth",
     "--out", "b"],
    ["gamma-map", "--analytic", "--grid", "2x2", "--mu-range", "1:2", "--lambda-range", "1:3"],
    ["gaussianity", "d.bin"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, scipy_loaded()])
print(json.dumps(steps))
"""


def run_fresh(script, tmp_path):
    # the JSON a script prints, run in a fresh interpreter on this source tree
    src = str(Path(gauss_tomo.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_gaussianity_loads_scipy(tmp_path):
    # A fresh interpreter: scipy stays unloaded until the Gaussianity battery runs.
    assert run_fresh(_COLD_START, tmp_path) == [
        ["import gauss_tomo", False],
        ["import gauss_tomo.cli", False],
        ["simulate", 0, False],
        ["estimate", 0, False],
        ["verify", 0, False],
        ["benchmark", 0, False],
        ["gamma-map", 0, False],
        ["gaussianity", 0, True],
    ]


_SERIAL_START = """
import contextlib, io, json, sys

def pool_loaded():
    return "multiprocessing" in sys.modules

from gauss_tomo import cli
steps = [["import gauss_tomo.cli", pool_loaded()]]
for argv in (
    ["benchmark", "--samples", "600", "--angles", "5", "--reps", "10", "--exact-truth",
     "--workers", "1", "--out", "b"],
    ["gamma-map", "--analytic", "--grid", "2x2", "--mu-range", "1:2", "--lambda-range", "1:3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, pool_loaded()])
print(json.dumps(steps))
"""


def test_serial_runs_load_no_process_pool(tmp_path):
    # A fresh interpreter: only a run that starts a pool imports multiprocessing.
    assert run_fresh(_SERIAL_START, tmp_path) == [
        ["import gauss_tomo.cli", False],
        ["benchmark", 0, False],
        ["gamma-map", 0, False],
    ]
