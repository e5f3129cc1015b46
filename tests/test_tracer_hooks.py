"""The benchmark tracer in perfbench/ wraps program names by where they are
looked up; a renamed or deleted name leaves its hook with no target, and a
call routed around the wrapped name leaves its span unrecorded."""
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_traced_report_records_every_layer(tmp_path):
    # the benchmark's own child in trace mode, on a small report
    argv = ["report", "--runs", "1", "--users", "50", "--eta", "2.6,3.0",
            "--out", str(tmp_path / "out")]
    result_path, spans_path = tmp_path / "result.json", tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(result_path),
                    str(spans_path), "trace", *argv],
                   env=ENV, capture_output=True, check=True, timeout=120)
    assert json.loads(result_path.read_text())["exit_code"] == 0
    traced = json.loads(spans_path.read_text())
    assert REPORT_SPANS <= {span[0] for span in traced["spans"]}
    assert traced["counters"]["fluid.scalar_calls"] > 0
