"""Self-tests of the benchmark harness (about a minute):

    python3 perfbench/selftest.py

1. The output check accepts a real analytic_sweep output directory and
   rejects each of a set of corruptions, one or more for every file it
   compares with reference.json, while admitting changes as large as
   float reordering makes them.
2. The counter self-test flags traced iterations whose counters differ.
3. A traced report_default run passes its own checks: counters repeat
   exactly between its two traced iterations, every tracer hook found its
   target, and the distance pairs computed under ``sinr_field`` equal
   users x stations of its layouts.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import check_outputs, load_reference
from run import Runner, Sample, check_counters
from workloads import HERE, WORKLOADS, child_env

SEED = 0


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path.name}")
    path.write_text(text.replace(old, new, 1))


def _move(name: str, column: str, delta: float, row: int = 0):
    """An edit that adds delta to one value of a CSV file (row counts data rows)."""
    def edit(out: Path):
        lines = (out / name).read_text().splitlines()
        data = [i for i, line in enumerate(lines) if not line.startswith("#")]
        header, line = lines[data[0]].split(","), lines[data[1 + row]]
        fields = line.split(",")
        j = header.index(column)
        fields[j] = repr(float(fields[j]) + delta)
        _edit(out / name, line + "\n", ",".join(fields) + "\n")
    return edit


def _report_zeta(out: Path):
    """Print eta=3's zeta in report.txt one unit (1e-5) above correlation.csv's."""
    line = next(x for x in (out / "report.txt").read_text().splitlines() if x.startswith("  3  "))
    head, _, zeta = line.rpartition("  ")
    _edit(out / "report.txt", line + "\n", f"{head}  {float(zeta) + 1e-5:.5f}\n")


def _move_zeta(delta: float, row: int):
    """Move one zeta in correlation.csv and print the new value in report.txt."""
    move = _move("correlation.csv", "zeta", delta, row)

    def edit(out: Path):
        move(out)
        eta, zeta = (out / "correlation.csv").read_text().splitlines()[2 + row].split(",")
        line = next(x for x in (out / "report.txt").read_text().splitlines()
                    if x.startswith(f"  {float(eta):g}  "))
        head, _, _ = line.rpartition("  ")
        _edit(out / "report.txt", line + "\n", f"{head}  {float(zeta):.5f}\n")
    return edit


def _swap_cdf_rows(out: Path):
    rows = (out / "cdf_poisson_eta3.csv").read_text().splitlines()
    _edit(out / "cdf_poisson_eta3.csv", f"{rows[5]}\n{rows[6]}", f"{rows[6]}\n{rows[5]}")


# analytic_sweep runs 1 x 500 users: one sample moves an empirical
# probability by 1/500.
SAMPLE = 1 / 500

# what -> (edit, a text the check's report must contain)
CORRUPTIONS = {
    "missing file": (lambda out: (out / "throughput.csv").unlink(), "missing throughput.csv"),
    "unexpected file": (lambda out: (out / "stray.csv").write_text("x\n1\n"), "stray.csv"),
    "NaN in a CDF": (_move("cdf_poisson_eta3.csv", "sinr_db", float("nan"), row=4),
                     "non-finite"),
    "decreasing CDF": (_swap_cdf_rows, "decreases"),
    "text in a number": (lambda out: _edit(out / "outage.csv", "\n3.0,", "\nthree,"),
                         "non-numeric"),
    "fit.csv shift off by one printed unit (1e-4 dB)":
        (_move("fit.csv", "mean_shift_db", 1e-4, 1), "fit.csv:mean_shift_db"),
    "fit.csv shift off by 1.5e-4 dB":
        (_move("fit.csv", "mean_shift_db", 1.5e-4, 1), "fit.csv:mean_shift_db"),
    "cdf_fluid quantile off by 1e-4 dB":
        (_move("cdf_fluid_eta3.csv", "sinr_db", 1e-4, 32), "cdf_fluid_eta3.csv:sinr_db"),
    "cdf_hex quantile off by 1e-4 dB":
        (_move("cdf_hex_eta3.csv", "sinr_db", -1e-4), "cdf_hex_eta3.csv:sinr_db"),
    "fluid_curve cdf off by 2e-9":
        (_move("fluid_curve_eta3.csv", "cdf", -2e-9, 64), "fluid_curve_eta3.csv:cdf"),
    "fluid_curve sinr off by 1e-4 dB":
        (_move("fluid_curve_eta3.csv", "sinr_db", 1e-4, 511), "fluid_curve_eta3.csv:sinr_db"),
    "fluid_curve spectral efficiency off by 2e-9":
        (_move("fluid_curve_eta3.csv", "spectral_efficiency", 2e-9, 96),
         "fluid_curve_eta3.csv:spectral_efficiency"),
    "outage fluid off by 2e-9": (_move("outage.csv", "fluid", 2e-9, 2), "outage.csv:fluid"),
    "outage fitted_fluid off by 2e-9":
        (_move("outage.csv", "fitted_fluid", -2e-9, 2), "outage.csv:fitted_fluid"),
    "outage poisson off by 3 samples":
        (_move("outage.csv", "poisson", 3 * SAMPLE, 2), "outage.csv:poisson"),
    "correlation zeta off by 2e-4": (_move_zeta(2e-4, 7), "correlation.csv:zeta"),
    "throughput average off by 2e-8":
        (_move("throughput.csv", "cell_average_bps_hz", 2e-8, 9),
         "throughput.csv:cell_average_bps_hz"),
    "throughput cell edge off by 2e-9":
        (_move("throughput.csv", "cell_edge_bps_hz", -2e-9, 9),
         "throughput.csv:cell_edge_bps_hz"),
    "report.txt zeta not that of correlation.csv": (_report_zeta, "report.txt: row"),
}

# Changes as large as float reordering makes them (3e-6 dB in a dB value,
# 1e-11 in a bisected probability), an empirical probability moved by two
# samples, and zeta moved as far as reordering moved it on 500 samples.
ADMITTED = {
    "fit.csv shift off by 3e-6 dB": _move("fit.csv", "mean_shift_db", 3e-6, 1),
    "cdf_hex quantile off by 3e-6 dB": _move("cdf_hex_eta3.csv", "sinr_db", -3e-6),
    "fluid_curve cdf off by 1e-11": _move("fluid_curve_eta3.csv", "cdf", 1e-11, 64),
    "outage poisson off by 2 samples": _move("outage.csv", "poisson", 2 * SAMPLE, 2),
    "correlation zeta off by 3e-5": _move_zeta(3e-5, 7),
}


def test_output_check(work: Path):
    w = WORKLOADS["analytic_sweep"]
    base = work / "base"
    subprocess.run([sys.executable, "-m", "fluidnet.cli", *w.argv(SEED, base)],
                   env=child_env(), check=True, stderr=subprocess.DEVNULL)
    ref = load_reference(w, SEED)
    problems = check_outputs(base, w, ref)
    if problems:
        raise AssertionError(f"real outputs rejected: {problems}")

    def corrupted(edit) -> list[str]:
        out = work / "case"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(base, out)
        edit(out)
        return check_outputs(out, w, ref)

    for what, edit in ADMITTED.items():
        problems = corrupted(edit)
        if problems:
            raise AssertionError(f"check rejected {what}: {problems}")
        print(f"  admits {what}")
    for what, (edit, reason) in CORRUPTIONS.items():
        problems = [p for p in corrupted(edit) if reason in p]
        if not problems:
            raise AssertionError(f"check did not report {reason!r} for: {what}")
        print(f"  rejects {what}: {problems[0][:90]}")


def test_counter_check():
    def traced(pairs):
        return Sample("trace", trace={"metrics": {"geometry.pairs": pairs, "io.self_s": 0.1}})
    samples = [traced(10), traced(11)]
    check_counters(samples)
    if not samples[1].problems or samples[0].problems:
        raise AssertionError("differing counters were not flagged")
    print(f"  flags {samples[1].problems[0][:60]}...")


def test_traced_run():
    runner = Runner("report_default", SEED, 1, trace=1)
    traced = [s for s in runner.run() if s.mode == "trace"]
    if len(traced) < 2:
        raise AssertionError(f"{len(traced)} traced iterations, want 2")
    check_counters(traced)
    for s in traced:
        if s.problems:
            raise AssertionError(f"traced iteration failed its checks: {s.problems}")
        if s.trace["missing"]:
            raise AssertionError(f"tracer hooks with no target: {s.trace['missing']}")
        check = s.trace["check"]
        if check["check.reduce_pairs"] != check["check.field_pairs"]:
            raise AssertionError(f"pairs under sinr_field != users x stations: {check}")
    print(f"  traced report_default: counters repeat, geometry pairs under sinr_field = "
          f"users x stations = {traced[0].trace['check']['check.field_pairs']}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=HERE / ".work") as tmp:
        for test in (lambda: test_output_check(Path(tmp)), test_counter_check, test_traced_run):
            test()
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    (HERE / ".work").mkdir(exist_ok=True)
    sys.exit(main())
