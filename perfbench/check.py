"""Output checks applied to every benchmark iteration.

An iteration is correct when its output directory holds exactly the
expected files, every number in them is finite, CDF curves are monotone
probabilities, report.txt prints the values of fit.csv and
correlation.csv, the values listed in COMPARED match those recorded from
the seed commit (reference.json) within TOLERANCE, and the bytes repeat
those of the run's first iteration with the same seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import HERE, Workload

# What is compared with reference.json: (file name pattern, columns, row
# stride, whether the values depend on the program seed). A stride of k
# keeps rows 0, k, 2k, ... and the last row. A column that is not in the
# header is a `# key=value` comment (fit.csv's a and b). Values that do not
# depend on the seed are stored once per workload.
COMPARED = (
    ("fit.csv", ("eta", "mean_shift_db", "a", "b"), 1, True),
    ("correlation.csv", ("zeta",), 1, True),
    ("outage.csv", ("poisson",), 1, True),
    ("cdf_hex_eta*.csv", ("sinr_db",), 128, True),
    ("outage.csv", ("fluid", "fitted_fluid"), 1, False),
    ("cdf_fluid_eta*.csv", ("sinr_db",), 32, False),
    ("fluid_curve_eta*.csv", ("sinr_db", "cdf", "spectral_efficiency"), 32, False),
    ("throughput.csv", ("cell_edge_bps_hz", "cell_average_bps_hz"), 1, False),
)

# Largest absolute change from reference.json, by column. Float reordering
# (a 7e-7 relative change of linear SINR) moves a dB value by at most
# 3e-6 dB. The dB and zeta limits are half a unit of the last decimal
# report.txt prints (1e-4 dB and 1e-5), so a change of one printed unit
# fails (for zeta, when the Monte Carlo is large; see PER_SAMPLE). The
# fluid columns are analytic: FluidCdf.evaluate bisects to
# 1e-12 relative and the throughput integral is asked for 1e-9 relative,
# so their limits sit far above what a correct reimplementation changes
# and below what a bisection stopped at 1e-6 (2^-20) changes.
DB_TOL = 5e-5
TOLERANCE = {
    "eta": 0.0,
    "mean_shift_db": DB_TOL, "a": DB_TOL, "b": DB_TOL, "sinr_db": DB_TOL,
    "zeta": 5e-6,
    "cdf": 1e-9, "fluid": 1e-9, "fitted_fluid": 1e-9,
    "spectral_efficiency": 1e-9, "cell_edge_bps_hz": 1e-9, "cell_average_bps_hz": 1e-8,
}
# Columns read off the empirical Poisson CDF also move when a sample within
# 3e-6 dB of a threshold or grid point crosses it: by up to this much over
# n, the Monte Carlo's sample count. outage.csv's poisson column may move
# by 2 samples. Scaling every SINR by 1 +/- 7e-7 moved it by 1 sample and
# zeta by up to 0.023/n, over program seeds 0-31 of analytic_sweep and
# 0-5 of report_default.
PER_SAMPLE = {"poisson": 2.5, "zeta": 0.05}

# ROADMAP item 5 plans a deterministic run manifest in --out.
OPTIONAL_FILES = {"manifest.json"}

REFERENCE_PATH = HERE / "reference.json"


def eta_label(eta: float) -> str:
    """The label the CLI puts in per-eta file names."""
    return f"{round(float(eta), 4):g}"


def expected_files(w: Workload) -> set[str]:
    per_eta = ("cdf_poisson", "cdf_fitted")
    files = {"fit.csv"}
    if w.command == "report":
        per_eta += ("cdf_fluid", "cdf_hex", "fluid_curve")
        files |= {"correlation.csv", "outage.csv", "throughput.csv", "report.txt"}
    return files | {f"{p}_eta{eta_label(e)}.csv" for p in per_eta for e in w.etas}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path):
    """Header, data rows as float lists, and `# key=value` comments."""
    header, rows, comments = None, [], {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, rows, comments


def _check_csv(path: Path) -> list[str]:
    try:
        header, rows, _ = _read_csv(path)
    except ValueError as exc:
        return [f"{path.name}: non-numeric field ({exc})"]
    problems = []
    if not rows:
        problems.append(f"{path.name}: no data rows")
    if any(len(r) != len(header) for r in rows):
        problems.append(f"{path.name}: ragged rows")
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append(f"{path.name}: non-finite value")
        return problems
    cols = dict(zip(header, zip(*rows)))
    for name in ("probability", "cdf", "poisson", "fluid", "fitted_fluid"):
        if name in cols and not all(0.0 <= v <= 1.0 for v in cols[name]):
            problems.append(f"{path.name}: {name} outside [0, 1]")
    if path.name.startswith("cdf_"):
        for name in ("sinr_db", "probability"):
            c = cols.get(name, ())
            if any(b < a for a, b in zip(c, c[1:])):
                problems.append(f"{path.name}: {name} decreases")
    return problems


def _check_report(out: Path) -> list[str]:
    """report.txt's eta/shift/zeta table must print fit.csv's and correlation.csv's values."""
    text = (out / "report.txt").read_text()
    if re.search(r"\b(nan|inf)\b", text, re.I):
        return ["report.txt: non-finite value"]
    _, fit, _ = _read_csv(out / "fit.csv")
    _, corr, _ = _read_csv(out / "correlation.csv")
    table = text.partition("zeta(fitted vs poisson)\n")[2].splitlines()
    if len(table) != len(fit):
        return [f"report.txt: {len(table)} table rows, fit.csv has {len(fit)}"]
    problems = []
    for line, (eta, shift, *_), (_, zeta) in zip(table, fit, corr):
        want = f"  {eta:g}  {shift:.4f}  {zeta:.5f}"
        if line != want:
            problems.append(f"report.txt: row {line!r} does not print {want!r}")
    return problems


def extract(out: Path) -> tuple[dict, dict]:
    """The COMPARED values of an output directory: (seed-free, per-seed), by file:column."""
    common, seeded = {}, {}
    for pattern, columns, stride, per_seed in COMPARED:
        for path in sorted(out.glob(pattern)):
            header, rows, comments = _read_csv(path)
            kept = rows[::stride] + ([rows[-1]] if (len(rows) - 1) % stride else [])
            cols = dict(zip(header, map(list, zip(*kept))))
            for column in columns:
                values = cols[column] if column in header else [float(comments[column])]
                (seeded if per_seed else common)[f"{path.name}:{column}"] = values
    return common, seeded


def compare(got: dict, reference: dict) -> list[str]:
    """Values in ``got`` that differ from ``reference`` by more than their tolerance."""
    problems = []
    for key, want in reference["values"].items():
        column = key.rpartition(":")[2]
        tol = TOLERANCE.get(column, 0.0) + \
            PER_SAMPLE.get(column, 0.0) / reference["poisson_samples"]
        values = got.get(key, [])
        if len(values) != len(want):
            problems.append(f"{key}: {len(values)} values, reference has {len(want)}")
            continue
        bad = [(i, v, r) for i, (v, r) in enumerate(zip(values, want)) if not abs(v - r) <= tol]
        if bad:
            i, v, r = bad[0]
            problems.append(f"{key}: {len(bad)} of {len(want)} values differ by more than "
                            f"{tol:g}, e.g. value {i}: {v!r}, reference {r!r}")
    return problems


def load_reference(w: Workload, program_seed: int) -> dict:
    """The reference values of one workload and program seed, and its sample count."""
    table = json.loads(REFERENCE_PATH.read_text())["workloads"][w.name]
    return {"poisson_samples": table["poisson_samples"],
            "values": {**table["common"], **table["seeds"][str(program_seed)]}}


def check_file_set(out: Path, w: Workload) -> list[str]:
    names = {p.name for p in out.iterdir()}
    want = expected_files(w)
    problems = [f"missing {n}" for n in sorted(want - names)]
    problems += [f"unexpected {n}" for n in sorted(names - want - OPTIONAL_FILES)]
    return problems


def check_outputs(out: Path, w: Workload, reference: dict) -> list[str]:
    """Full check of one iteration's output directory; [] when correct."""
    problems = check_file_set(out, w)
    if problems:
        return problems
    for path in sorted(out.glob("*.csv")):
        problems += _check_csv(path)
    if problems:
        return problems
    if (out / "report.txt").exists():
        problems += _check_report(out)
    try:
        common, seeded = extract(out)
    except (KeyError, ValueError) as exc:
        return problems + [f"cannot read the compared values: {exc!r}"]
    return problems + compare({**common, **seeded}, reference)
