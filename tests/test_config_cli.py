import argparse
import errno
import filecmp
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fluidnet
from fluidnet import cli
from fluidnet.cli import main
from fluidnet.config import (DEFAULT_ETAS, ExperimentConfig, config_from_mapping,
                             load_config_file, parse_float_list)
from fluidnet.errors import ConfigError, DomainError
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.placement import ModelKind, generate_hexagonal
from oracles import rc_disk_cdf


class TestConfig:
    def test_default_eta_grid(self):
        assert DEFAULT_ETAS == (2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8, 4.0, 4.2)
        assert len(DEFAULT_ETAS) == 11

    def test_defaults_valid(self):
        cfg = ExperimentConfig()
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
        {"eta_list": (3.00001, 3.00002)},   # one file label, 3
        {"eta_list": (3.0, 3.0)},
        {"eta_list": ("fast", 3.0)},
    ])
    def test_validation_rejects(self, bad):
        # a config is checked whenever it is built, however it is built
        with pytest.raises(ConfigError):
            config_from_mapping(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **bad)

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=2)
        assert a.digest() == b.digest() == "2fa0d50b5c71"
        assert a.digest() != c.digest()
        assert len(a.digest()) == 12

    def test_eta_list_is_stored_as_a_tuple_of_floats(self):
        # one experiment has one digest and one hash, however its eta values are given
        as_list = ExperimentConfig(eta_list=[2.6, 3.0])
        assert type(as_list.eta_list) is tuple and as_list.eta_list == (2.6, 3.0)
        assert as_list == ExperimentConfig(eta_list=(2.6, 3.0))
        assert hash(as_list) == hash(ExperimentConfig(eta_list=(2.6, 3.0)))
        assert as_list.digest() == "f9325986a851"
        ints = replace(ExperimentConfig(), eta_list=(3,))
        assert [type(eta) for eta in ints.eta_list] == [float]
        assert ints.digest() == ExperimentConfig(eta_list=(3.0,)).digest() == "a05aec62f1de"

    @pytest.mark.parametrize("argv, digest", [
        (["report", "--seed", "6"], "f9bfd1c0c1ac"),
        (["fit", "--config", str(Path(__file__).resolve().parents[1] / "perfbench"
                                 / "fit_large_torus.cfg"),
          "--seed", "6", "--eta", "2.6,2.8,3,3.2,3.4,3.6,3.8"], "bef8e7726056"),
        (["cdf", "--model", "fluid", "--eta", "3"], "a05aec62f1de"),
    ])
    def test_cli_digests_are_pinned(self, argv, digest):
        # the digest names a run in every output file: storing eta as floats moved none
        args = cli.build_parser().parse_args([*argv, "--out", "unused"])
        assert cli.config_from_args(args).digest() == digest

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


def test_readme_library_example_runs(capsys):
    # the README's Python example runs as written against the current API
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def tree(root):
    """Every path below root, with the bytes of each file (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestCli:
    @pytest.fixture(autouse=True)
    def no_staging_directory_left(self, tmp_path):
        # no run, whether it fails or not, leaves its hidden staging directory behind
        yield
        assert not list(tmp_path.rglob(".fluidnet-*"))

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
            assert capsys.readouterr().err == \
                "error: eta values must differ in file label, got 3,3\n"
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

    @pytest.mark.parametrize("argv, sub", [
        (["cdf", "--model", "hex"], ""), (["cdf", "--model", "hex"], "sub"),
        (["fit"], ""), (["fit"], "sub"), (["report"], ""), (["report"], "sub"),
    ], ids=["file", "below_file", "fit_file", "fit_below_file", "report_file",
            "report_below_file"])
    def test_out_file_refused_before_simulating(self, tmp_path, monkeypatch, capsys, argv,
                                                sub):
        # the staging directory is made before the Monte Carlo, so a bad --out fails first
        monkeypatch.setattr("fluidnet.cli._cdfs", lambda *a: pytest.fail("simulated"))
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert main([*argv, "--out", str(afile / sub)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot create output directory {afile / sub}: Not a directory\n"
        assert afile.read_text() == "keep\n"

    def test_unwritable_out_refused_before_simulating(self, tmp_path, monkeypatch, capsys):
        # an existing --out that cannot hold the staging directory fails before any
        # Monte Carlo, with one line that names --out and not the staging directory
        def refused(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        before = tree(tmp_path)
        monkeypatch.setattr("fluidnet.cli._cdfs", lambda *a: pytest.fail("simulated"))
        monkeypatch.setattr(Path, "mkdir", refused)
        assert main(["fit", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot create output directory {out}: Permission denied\n"
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("command", ["generate", "cdf"])
    def test_huge_rings_exits_3_at_once(self, tmp_path, command):
        # numpy refuses the lattice's 284 PiB index array before touching memory: one
        # error line, no traceback and no --out, instead of a station-by-station hang
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "fluidnet.cli", command, "--model", "hex",
                                 "--rings", "100000000", "--out", str(out)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert not out.exists()

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
        # the fluid SINR overflows: the column is refused before its file is opened,
        # also when an earlier eta's file is already staged, and the failed run
        # leaves no --out, with no numpy overflow warning before the error line
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
        def exhausted(args, config, out):
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
        # overflows the fluid throughput; both fail after the fit, the second after
        # report has staged its earlier files, and neither leaves an --out
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

    @pytest.mark.parametrize("command, blocked", [("fit", "fit.csv"), ("report", "report.txt")])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, command, blocked):
        # a directory where an output file goes: one error line naming the file, no traceback
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--runs", "1", "--users", "10", "--eta", "3,4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / blocked}: Is a directory\n"
        assert os.listdir(out) == [blocked]  # the run's other files are gone again

    @pytest.mark.parametrize("existing, step, k", [
        (False, "write", 1), (False, "write", 5), (True, "write", 1), (True, "write", 3),
        (True, "move", 1), (True, "move", 3), (True, "move", 5)])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, existing,
                                               step, k):
        # fit writes 5 files; the k-th write into the staging directory, or the k-th
        # move from it into an existing --out, fails: no file or directory of the run stays
        calls = []

        def failing_on_k(real):
            def call(path, *args, **kwargs):
                calls.append(Path(path).name)
                if len(calls) == k:
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
                return real(path, *args, **kwargs)
            return call

        if step == "write":
            monkeypatch.setattr(fluidnet.io, "write_csv", failing_on_k(fluidnet.io.write_csv))
        else:
            monkeypatch.setattr(os, "replace", failing_on_k(os.replace))
        out = tmp_path / "parent" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["fit", "--runs", "1", "--users", "10", "--eta", "3,4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write {out / calls[-1]}: "
                                           "No space left on device\n")
        assert sorted(tmp_path.rglob("*")) == before
        if existing:
            assert (out / "notes.txt").read_text() == "kept\n"

    def test_report_writes_before_its_last_fluid_curve(self, tmp_path, monkeypatch):
        # each table is written as it is computed, not after the whole report
        events = []

        def recording(name, real):
            def call(*args):
                events.append(name)
                return real(*args)
            return call

        monkeypatch.setattr(cli, "fluid_curve", recording("curve", cli.fluid_curve))
        monkeypatch.setattr(fluidnet.io, "write_csv", recording("write", fluidnet.io.write_csv))
        assert main(["report", "--runs", "1", "--users", "10", "--eta", "2.6,3,3.4",
                     "--out", str(tmp_path / "out")]) == 0
        assert events.index("write") < len(events) - 1 - events[::-1].index("curve")

    def test_poisson_samples_are_gone_before_the_hexagonal_run(self, tmp_path, monkeypatch):
        poisson_runs, alive_at_hex = [], []
        real = fluidnet.experiment.run_monte_carlo

        def run_monte_carlo(config, model_kind):
            if model_kind is ModelKind.HEXAGONAL:
                alive_at_hex.append(poisson_runs[0]() is not None)
            samples = real(config, model_kind=model_kind)
            if model_kind is ModelKind.POISSON:
                poisson_runs.append(weakref.ref(next(iter(samples.values())).base))
            return samples

        monkeypatch.setattr(fluidnet.experiment, "run_monte_carlo", run_monte_carlo)
        assert main(["report", "--runs", "2", "--users", "20", "--eta", "2.6,3",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(poisson_runs) == 1 and alive_at_hex == [False]

    def test_report_memory_grows_by_one_poisson_column_per_eta(self, tmp_path):
        # the traced peak of a report grows with each eta by one kept 512-row float64
        # column of its Poisson CDF (4 kB) and that table's objects, not by all of its
        # tables: they are written as they come
        def traced_peak(n_etas):
            etas = ",".join(f"{2.05 + 0.05 * i:g}" for i in range(n_etas))
            tracemalloc.start()
            try:
                assert main(["report", "--runs", "1", "--users", "50", "--eta", etas,
                             "--out", str(tmp_path / str(n_etas))]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(["report", "--runs", "1", "--users", "50", "--eta", "2.6,3",
                     "--out", str(tmp_path / "warm_up")]) == 0
        assert (traced_peak(80) - traced_peak(10)) / 70 < 12e3

    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_failure_mid_stream_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                     existing, failing):
        # the fluid curves are report's last tables: when one of them fails, other
        # files are already staged, and the run still leaves --out as it was (and,
        # as after every test here, no staging directory)
        staged, curve = [], cli.fluid_curve

        def failing_curve(*args):
            staged.append(sum(".fluidnet-" in str(p) for p in tmp_path.rglob("*.csv")))
            if len(staged) == (1 if failing == "first" else 3):
                raise DomainError("fluid curve failed")
            return curve(*args)

        monkeypatch.setattr(cli, "fluid_curve", failing_curve)
        out = tmp_path / "parent" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept\n")
            (out / "fit.csv").write_text("old\n")
        before = tree(tmp_path)
        assert main(["report", "--runs", "1", "--users", "10", "--eta", "2.6,3,3.4",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: fluid curve failed\n"
        assert staged[-1] > 0
        assert tree(tmp_path) == before

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

    SMALL_RUNS = [["report", "--runs", "1", "--users", "20", "--eta", "3,4"],
                  ["fit", "--runs", "2", "--users", "20", "--eta", "3,4"],
                  ["cdf", "--model", "poisson", "--runs", "1", "--users", "20", "--eta", "3"],
                  ["cdf", "--model", "hex", "--users", "20", "--eta", "3"],
                  ["cdf", "--model", "fluid", "--eta", "3"],
                  ["generate", "--model", "poisson"],
                  ["generate", "--model", "hex"]]

    @pytest.mark.parametrize("argv, loaded", [(argv, []) for argv in SMALL_RUNS])
    def test_runs_load_neither_numpy_random_nor_openssl(self, tmp_path, argv, loaded):
        # numpy.random loads OpenSSL through secrets and hmac, and hashlib through
        # _hashlib; the throughput table's Gauss-Legendre rule needs no numpy.polynomial
        code = ("import sys\nfrom fluidnet.cli import main\n"
                f"assert main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0\n"
                "print(sorted(m for m in ('numpy.random', 'secrets', 'hmac', '_hashlib',\n"
                "                         'numpy.polynomial') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.splitlines()[-1] == str(loaded)

    @pytest.mark.parametrize("argv", SMALL_RUNS)
    def test_runs_call_no_lapack(self, tmp_path, argv):
        # every numpy.linalg routine that reaches LAPACK goes through _umath_linalg
        code = ("import numpy.linalg._linalg as linalg\n"
                "class NoLapack:\n"
                "    def __getattr__(self, name):\n"
                "        raise RuntimeError(f'LAPACK call: {name}')\n"
                "linalg._umath_linalg = NoLapack()\n"
                "from fluidnet.cli import main\n"
                f"raise SystemExit(main({[*argv, '--out', str(tmp_path / 'out')]!r}))")
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("config", [
        ExperimentConfig(),
        ExperimentConfig(seed=7, eta_list=(2.5, 3.5), users=30),
        ExperimentConfig(expected_stations=200.0, runs=3, exclusion=0.2, rings=2),
    ])
    def test_digest_is_hashlib_sha256(self, config):
        text = "\n".join(f"{k}={v!r}" for k, v in config.canonical_items())
        assert config.digest() == hashlib.sha256(text.encode()).hexdigest()[:12]

    def test_cli_import_and_one_row_start_no_thread_pool(self):
        # set-up pays for no threads, and a fit-sized layout goes in row tiles on the
        # calling thread, starting none
        code = ("import sys, threading, fluidnet.cli\n"
                "import numpy as np\n"
                "from fluidnet import (ModelKind, NetworkLayout, TorusRegion, UserSet,\n"
                "                      generate_hexagonal, sinr_field)\n"
                "imported = 'concurrent.futures' in sys.modules\n"
                "users = UserSet(np.array([[0.1, 0.2]]), 0.0)\n"
                "sinr_field(generate_hexagonal(2), [3.0], users)\n"
                "one_row = 'concurrent.futures' in sys.modules\n"
                "start, started = threading.Thread.start, []\n"
                "threading.Thread.start = lambda thread: (started.append(thread), start(thread))\n"
                "rng = np.random.default_rng(5)\n"
                "fit_sized = NetworkLayout(TorusRegion(10.0, 10.0), rng.random((200, 2)) * 10.0,\n"
                "                          ModelKind.POISSON)\n"
                "sinr_field(fit_sized, [3.0, 3.4], UserSet(rng.random((2000, 2)) * 10.0, 0.01))\n"
                "print(imported, one_row, len(started), 'concurrent.futures' in sys.modules,\n"
                "      threading.active_count())")
        env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "False False 0 False 1"

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

    def test_flag_overrides_bad_file_value(self, tmp_path, capsys):
        # the file and the flags make one config, checked once: a flag stands in for
        # a bad value in the file, and without the flag the file is refused
        conf = tmp_path / "exp.conf"
        conf.write_text("users = 0\n")
        argv = ["cdf", "--model", "fluid", "--config", str(conf), "--eta", "3"]
        assert main([*argv, "--users", "10", "--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "cdf_fluid_eta3.csv").exists()
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == "error: runs and users must be >= 1\n"
        assert not (tmp_path / "bad").exists()
