"""The benchmark tracer in perfbench/ wraps program names by where they are
looked up; a renamed or deleted name leaves its hook with no target, and a
call routed around the wrapped name leaves its span unrecorded."""
import json
import os
import subprocess
import sys
from pathlib import Path

from fluidnet import cli
from fluidnet.config import eta_label
from fluidnet.placement import generate_poisson, region_for_expected_count
from fluidnet.rng import child_seed
from fluidnet.sinr import _CLAMP_PASSES

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}

# Every span a small report records.
REPORT_SPANS = {"cli.main", "fluid.evaluate", "fluid.quantile", "fluid.throughput",
                "geometry.distance", "io.write", "placement.hexagonal", "placement.poisson",
                "sinr.clamp", "sinr.mc", "sinr.reduce", "stats.cdf", "stats.corr",
                "stats.evaluate", "stats.fit", "stats.quantile", "stats.shift"}


def test_every_tracer_hook_resolves():
    code = "import tracer\nt = tracer.Tracer()\nt.install()\nprint(t.missing)"
    result = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def report_csv_files(config) -> set:
    """The CSV files a report writes: its tables and five files per eta."""
    per_eta = ("cdf_poisson", "cdf_fitted", "cdf_fluid", "cdf_hex", "fluid_curve")
    return {"fit.csv", "correlation.csv", "outage.csv", "throughput.csv",
            *(f"{p}_eta{eta_label(eta)}.csv" for p in per_eta for eta in config.eta_list)}


def test_traced_report_records_every_layer(tmp_path):
    # the benchmark's own child in trace mode, on a small report whose wide
    # exclusion radius makes the clamp move users and re-measure their rows
    out, conf = tmp_path / "out", tmp_path / "wide_exclusion.cfg"
    conf.write_text("exclusion = 0.2\n")
    argv = ["report", "--config", str(conf), "--runs", "4", "--users", "50",
            "--eta", "2.6,3.0", "--out", str(out)]
    # the work the report must do, from its config alone: one Poisson layout per
    # run plus the hexagonal lattice, each measured once for every eta
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    # each layout's tile is a view of the run's larger scratch, also for a layout with
    # fewer stations than an earlier one
    region = region_for_expected_count(config.expected_stations)
    station_counts = [generate_poisson(region, child_seed(config.seed, k)).n_stations
                      for k in range(1, config.runs + 1)]
    assert any(s < max(station_counts[:i]) for i, s in enumerate(station_counts) if i)
    layouts = config.runs + 1
    samples = config.users * layouts * len(config.eta_list)
    csv_files = report_csv_files(config)

    result_path, spans_path = tmp_path / "result.json", tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(result_path),
                    str(spans_path), "trace", *argv],
                   env=ENV, capture_output=True, check=True, timeout=120)
    assert json.loads(result_path.read_text())["exit_code"] == 0
    traced = json.loads(spans_path.read_text())
    spans = traced["spans"]
    assert REPORT_SPANS <= {span[0] for span in spans}
    counts = traced["counters"]
    # fluid_sinr calls: FluidCdf.evaluate makes 2 (its bracket ends), quantile,
    # fluid_curve and each throughput 1. Per eta the report takes 5 quantiles
    # (the shift fit, the fitted and fluid tables, the correlation's grid ends),
    # 3 evaluates (the correlation and the fluid and fitted outage rows), two
    # throughputs and one fluid curve
    per_eta = 5 * 1 + 3 * 2 + 2 * 1 + 1
    assert counts["fluid.scalar_calls"] == per_eta * len(config.eta_list)

    assert counts["placement.layouts"] == layouts
    assert counts["sinr.samples"] == samples
    assert counts["io.files"] == len(csv_files)
    assert {p.name for p in out.iterdir()} == csv_files | {"report.txt"}

    # one distance pass per row tile, for all eta, and each of these layouts is one
    # tile; the clamp re-measures only the rows of users it moved, at most once a pass
    stations = counts["placement.stations"]
    field_pairs = config.users * stations
    remeasures = counts["geometry.pairs"] - field_pairs
    assert counts["check.field_pairs"] == counts["check.reduce_pairs"] == field_pairs
    # every distance call returns its own users x stations matrix, never the whole
    # of a larger buffer it was written into
    assert counts["geometry.bytes_computed"] == 8 * counts["geometry.pairs"]
    assert 0 <= remeasures <= counts["sinr.clamped_users"] * stations * _CLAMP_PASSES
    distance_parents = [spans[span[1]][0] for span in spans if span[0] == "geometry.distance"]
    assert distance_parents.count("sinr.reduce") == layouts
    assert distance_parents.count("sinr.clamp") == counts["geometry.calls"] - layouts
    assert remeasures > 0
