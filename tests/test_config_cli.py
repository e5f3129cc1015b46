import argparse
import filecmp
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fluidnet
from fluidnet import cli
from fluidnet.cli import main
from fluidnet.config import (DEFAULT_ETAS, ExperimentConfig, config_from_mapping,
                             load_config_file, parse_float_list)
from fluidnet.errors import ConfigError
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.placement import generate_hexagonal
from oracles import rc_disk_cdf


class TestConfig:
    def test_default_eta_grid(self):
        assert DEFAULT_ETAS == (2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8, 4.0, 4.2)
        assert len(DEFAULT_ETAS) == 11

    def test_defaults_valid(self):
        cfg = ExperimentConfig().validate()
        assert cfg.runs == 100 and cfg.users == 2000 and cfg.expected_stations == 50.0

    @pytest.mark.parametrize("bad", [
        {"eta_list": (1.5, 3.0)},
        {"runs": 0},
        {"users": 0},
        {"exclusion": 0.0},
        {"exclusion": 1.0},
        {"expected_stations": 1e308},
        {"expected_stations": -1.0},
        {"rings": 0},
        {"eta_list": (float("nan"), 3.0)},
        {"eta_list": (3.0, float("inf"))},
        {"expected_stations": float("nan")},
        {"seed": -1},
        {"expected_stations": 6e307},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigError):
            config_from_mapping(bad)

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=2)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 12

    def test_parse_eta_list(self):
        assert parse_float_list("2.6,2.8, 3.0") == (2.6, 2.8, 3.0)
        for bad in ("abc", "", "3.0,nan", "inf"):
            with pytest.raises(ConfigError):
                parse_float_list(bad)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("# comment line\nseed = 9\nruns= 7\neta_list = 2.6,3.0 # inline\n")
        cfg = config_from_mapping(load_config_file(path))
        assert cfg.seed == 9 and cfg.runs == 7 and cfg.eta_list == (2.6, 3.0)

    def test_benchmark_config_loads(self):
        # the benchmark runs fit with this file: dropping a key it sets fails here first
        path = Path(__file__).resolve().parents[1] / "perfbench" / "fit_large_torus.cfg"
        cfg = config_from_mapping(load_config_file(path))
        assert cfg.expected_stations == 200.0 and cfg.runs == 50

    def test_config_file_errors(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("not a pair\n")
        with pytest.raises(ConfigError):
            load_config_file(path)
        path.write_text("unknown_key = 3\n")
        with pytest.raises(ConfigError):
            config_from_mapping(load_config_file(path))
        path.write_text("runs = many\n")
        with pytest.raises(ConfigError):
            config_from_mapping(load_config_file(path))
        # removed keys: the Monte Carlo-only power and noise keys, which the fluid side
        # never had, density_scale, which only divided half_isd, and half_isd, whose
        # length unit cancels from every SINR; whatever the value, including one
        # whose lattice density once left the float range
        for setting in ("noise_w = 1", "tx_power_w = 1", "path_gain_k = 1", "density_scale = 1",
                        "half_isd = 1.0", "half_isd = 1e-300", "half_isd = 1e160",
                        "half_isd = 1e300"):
            path.write_text(setting + "\n")
            key = setting.split()[0]
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config_from_mapping(load_config_file(path))


def test_readme_lists_config_keys_and_shared_flags():
    # the README's lists of config keys and of the flags every command takes
    # must name exactly what the code accepts
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = re.search(r"config file keys are ([^.]*)\.", text).group(1)
    assert set(re.findall(r"`(\w+)`", keys)) == {f.name for f in fields(ExperimentConfig)}
    # and every key it names as removed must be refused as unknown
    removed = re.search(r"Any other key exits 2 as unknown\.\s+This\s+includes ([^.]*)\.",
                        text).group(1)
    removed_keys = set(re.findall(r"`(\w+)`", removed))
    assert removed_keys and not removed_keys & {f.name for f in fields(ExperimentConfig)}
    for key in removed_keys:
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            config_from_mapping({key: "1"})
    flags = re.search(r"All commands share ([^.]*)\.", text).group(1)
    documented = {token.split()[0] for token in re.findall(r"`(--[^`]+)`", flags)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    shared = set.intersection(*(set(p._option_string_actions)
                                for p in subparsers.choices.values()))
    assert documented == shared - {"-h", "--help"}


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestCli:
    def test_generate_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["generate", "--model", "poisson", "--seed", "7",
                         "--out", str(d)]) == 0
        assert filecmp.cmp(d1 / "layout_0.csv", d2 / "layout_0.csv", shallow=False)

    def test_generate_hex_rings_two(self, tmp_path):
        # the file holds the lattice that cdf --model hex and report measure
        assert main(["generate", "--model", "hex", "--rings", "2",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "layout_0.csv"
        header, rows = read_rows(path)
        assert header == ["bs_id", "x", "y"]
        assert len(rows) == 30
        comments = dict(l[2:].split("=", 1) for l in path.read_text().splitlines()
                        if l.startswith("# "))
        region = TorusRegion(float(comments["width"]), float(comments["height"]))
        stations = np.array([[float(r[1]), float(r[2])] for r in rows])
        d = torus_distance_matrix(region, stations, stations)
        assert np.all(np.sum(np.abs(d - 2.0) < 1e-9, axis=1) == 6)
        expected = generate_hexagonal(2)
        assert np.array_equal(stations, expected.stations)
        assert (region.width, region.height) == (expected.region.width, expected.region.height)

    def test_generate_poisson_default_count(self, tmp_path):
        assert main(["generate", "--model", "poisson", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "layout_0.csv").read_text()
        assert "# model=poisson" in text and "# density=" in text
        _, rows = read_rows(tmp_path / "layout_0.csv")
        # Poisson(50) support: essentially always within [10, 110]
        assert 10 <= len(rows) <= 110

    def test_cdf_fluid_monotone(self, tmp_path):
        assert main(["cdf", "--model", "fluid", "--eta", "3.0",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "cdf_fluid_eta3.csv")
        assert header == ["sinr_db", "probability"]
        assert len(rows) == 512
        probs = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_fit_single_eta_exits_2(self, tmp_path):
        assert main(["fit", "--eta", "3.0", "--out", str(tmp_path)]) == 2

    def test_invalid_eta_exits_2(self, tmp_path, monkeypatch, capsys):
        # an empty --eta is rejected, not read as "use the default eta list"
        for eta in ("1.5", ""):
            assert main(["cdf", "--model", "fluid", "--eta", eta,
                         "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))
        # eta values that share a file label would overwrite each other's files:
        # refused before any simulation
        monkeypatch.setattr("fluidnet.cli._cdfs", lambda *a: pytest.fail("simulated"))
        capsys.readouterr()
        for argv in (["cdf", "--model", "poisson", "--eta", "3.00001,3.00002",
                      "--runs", "1", "--users", "10"], ["fit", "--eta", "3,3"]):
            assert main([*argv, "--out", str(tmp_path / "dup")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "dup").exists()

    def test_nan_config_value_exits_2(self, tmp_path):
        conf = tmp_path / "nan.conf"
        conf.write_text("expected_stations = nan\n")
        assert main(["cdf", "--model", "poisson", "--config", str(conf),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, code", [
        ("expected_stations = 1e308", 2), ("expected_stations = 1e30", 3),
    ], ids=["expected_stations=1e308", "expected_stations=1e30"])
    def test_extreme_config_value_exits_cleanly(self, tmp_path, setting, code):
        # a torus side that overflows to inf is a bad config; a Poisson mean numpy
        # cannot draw fails the run. Either way: one error line, no traceback and
        # no --out
        conf = tmp_path / "extreme.conf"
        conf.write_text(setting + "\n")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "fluidnet.cli", "cdf", "--model",
                                 "poisson", "--config", str(conf), "--runs", "1",
                                 "--users", "10", "--out", str(out)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == code
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert not out.exists()

    def test_bad_outage_thresholds_exit_2(self, tmp_path):
        assert main(["report", "--eta", "2.8,3.0", "--outage-thresholds", "abc",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, kind, capsys):
        path = tmp_path / "exp.conf"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"runs = 3\n# caf\xe9\n")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_out_names_a_file_exits_2(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert main(["cdf", "--model", "fluid", "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
    def test_out_file_refused_before_simulating(self, tmp_path, monkeypatch, sub):
        # the directory is made only after the Monte Carlo, but a bad --out fails first
        monkeypatch.setattr("fluidnet.cli._cdfs", lambda *a: pytest.fail("simulated"))
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert main(["cdf", "--model", "hex", "--out", str(afile / sub)]) == 2

    def test_tiny_expected_stations_exits_3(self, tmp_path):
        # no layout reaches 2 stations: the bounded redraw gives up instead of hanging
        conf = tmp_path / "tiny.conf"
        conf.write_text("expected_stations = 1e-9\n")
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "fluidnet.cli", "cdf", "--model",
                                 "poisson", "--config", str(conf), "--out", str(tmp_path)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert "fewer than 2 stations" in result.stderr

    @pytest.mark.parametrize("args", [
        ["--model", "hex", "--eta", "20", "--users", "50"],
        ["--model", "poisson", "--eta", "40", "--runs", "1", "--users", "50"],
    ], ids=["hex", "poisson"])
    def test_non_finite_sinr_exits_3(self, tmp_path, args):
        # stderr holds the error line alone, with no numpy warning before it, and
        # the failed run leaves no --out directory behind
        out = tmp_path / "o2"
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "fluidnet.cli", "cdf", *args,
                                 "--out", str(out)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stderr == f"error: non-finite SINR at eta={args[3]} in layout 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["400", "1e308", "3,400"])
    def test_non_finite_fluid_cdf_exits_3(self, tmp_path, eta):
        # the fluid SINR overflows: the column is refused before --out is created,
        # also when an earlier eta is fine, with no numpy overflow warning before
        # the error line
        out = tmp_path / "o4"
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "fluidnet.cli", "cdf", "--model", "fluid",
                                 "--eta", eta, "--out", str(out)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stderr.startswith("error: non-finite value in column sinr_db of ")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [("Unable to allocate 44.7 GiB", None),
                                               ("", "out of memory")])
    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys, message, line):
        # a stand-in for an allocation that fails: a real one could succeed on a large host
        def exhausted(args):
            raise MemoryError(message)
        monkeypatch.setitem(cli._COMMANDS, "cdf", exhausted)
        assert main(["cdf", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: {line or message}\n"

    @pytest.mark.parametrize("setting, runs_users", [
        ("", ("--runs", "1", "--users", "1")),
        ("exclusion = 1e-300", ("--runs", "1", "--users", "50")),
    ], ids=["one_sample_correlation", "tiny_exclusion_throughput"])
    def test_late_report_failure_leaves_no_out_dir(self, tmp_path, capsys, setting,
                                                   runs_users):
        # a one-sample Poisson CDF has no correlation, and a 1e-300 exclusion radius
        # overflows the fluid throughput; both fail after the fit, and report
        # computes every table before it creates --out
        conf = tmp_path / "exp.conf"
        conf.write_text(setting + "\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(conf), *runs_users, "--eta", "2.6,3",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_fit_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "o3"
        assert main(["fit", "--eta", "20,30", "--runs", "1", "--users", "50",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_fluid_curve_cdf_matches_evaluate(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--eta", "2.3,3.0,5.5", "--runs", "1", "--users", "50",
                     "--out", str(out)]) == 0
        for eta in (2.3, 3.0, 5.5):
            _, rows = read_rows(out / f"fluid_curve_eta{eta:g}.csv")
            sinr_db, written = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
            expected = [rc_disk_cdf(eta, 0.01, g) for g in sinr_db]
            assert np.max(np.abs(written - expected)) <= 1e-9

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, fluidnet.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_cli_import_and_one_row_start_no_thread_pool(self):
        # set-up pays for no threads: concurrent.futures and the pool load on the first split
        code = ("import sys, fluidnet.cli\n"
                "import numpy as np\n"
                "from fluidnet import UserSet, generate_hexagonal, parallel, sinr_field\n"
                "imported = 'concurrent.futures' in sys.modules\n"
                "users = UserSet(np.array([[0.1, 0.2]]), 0.0)\n"
                "sinr_field(generate_hexagonal(2), [3.0], users)\n"
                "print(imported, 'concurrent.futures' in sys.modules, parallel._pool)")
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "False False None"

    def test_fit_outputs(self, tmp_path):
        assert main(["fit", "--eta", "2.8,3.6", "--runs", "5", "--users", "200",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "fit.csv").read_text()
        assert "# a=" in text and "# b=" in text and "# rms=" in text
        header, rows = read_rows(tmp_path / "fit.csv")
        assert header == ["eta", "mean_shift_db", "predicted_shift_db", "residual_db"]
        assert len(rows) == 2
        assert (tmp_path / "cdf_fitted_eta2.8.csv").exists()
        assert (tmp_path / "cdf_poisson_eta3.6.csv").exists()

    def test_report_contents_and_digest_consistency(self, tmp_path):
        assert main(["report", "--eta", "2.8,3.0", "--runs", "5", "--users", "200",
                     "--out", str(tmp_path)]) == 0
        expected = ["fit.csv", "correlation.csv", "outage.csv", "throughput.csv",
                    "report.txt", "cdf_poisson_eta2.8.csv", "cdf_fluid_eta3.csv",
                    "cdf_hex_eta2.8.csv", "cdf_fitted_eta3.csv",
                    "fluid_curve_eta2.8.csv"]
        for name in expected:
            assert (tmp_path / name).exists(), name
        digests = set()
        for f in tmp_path.glob("*.csv"):
            for line in f.read_text().splitlines():
                if line.startswith("# digest="):
                    digests.add(line)
        assert len(digests) == 1

    def test_report_correlation_rows(self, tmp_path):
        assert main(["report", "--eta", "2.8,3.0", "--runs", "5", "--users", "200",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "correlation.csv")
        assert header == ["eta", "zeta"]
        assert len(rows) == 2
        assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("runs = 3\nusers = 100\neta_list = 2.8,3.0\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["cdf", "--model", "poisson", "--config", str(conf),
                     "--eta", "3.0", "--out", str(out)]) == 0
        assert (out / "cdf_poisson_eta3.csv").exists()
        assert not (out / "cdf_poisson_eta2.8.csv").exists()
