"""fluidnet benchmark: one workload, closed loop, one fresh process per iteration.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each iteration starts a fresh interpreter (perfbench/child.py) that imports
``fluidnet.cli``, builds the configuration and runs ``cli.main`` once with
a fresh ``--out`` directory; the next one
starts only after it has exited. Every iteration's outputs are checked
(perfbench/check.py). Iterations run until S seconds are used, and at
least three run. N maps to three program seeds (``--seed``), which the
iterations cycle through (perfbench/workloads.py says why).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of
``cli.main`` after set-up), ``wall_s_p75`` (its upper quartile: a 35 s run
has 6 to 15 iterations, so no percentile has ten samples beyond it, and
the upper quartile is the highest one that keeps a sample beyond it),
``setup_s`` (median over the iterations of the time from spawning the
interpreter until ``fluidnet.cli`` is imported and the config built) and
``peak_rss_mb`` (median of each child's peak RSS, from ``os.wait4``).
``error_rate`` is ``failed / attempted``; it is printed by name but kept
out of the metrics, since a metric that reads 0 has no relative spread.

``--trace 1`` alternates traced and untraced iterations and prints the
per-layer metrics of perfbench/tracer.py, medians over traced iterations
for times, with ``trace.overhead_s`` = traced minus untraced median wall
time. Counters must repeat exactly between traced iterations. Tracer
hooks whose target no longer exists are printed on stderr and listed in
the environment line as ``missing_hooks``.

Why a fresh ``--out`` per iteration: on ext4 (2 vCPU AMD EPYC VM),
rewriting 60 existing 20 kB files in place took 3.2-3.9 s once their
earlier contents had reached the disk, against 1-4 ms into a new
directory; ext4 flushes a truncated-and-rewritten file when it is
closed. Reusing ``--out`` would swamp every layer with disk flushes.

The last line of stdout is the result JSON; the line before it records
the run environment.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_file_set, check_outputs, load_reference, output_digest
from workloads import HERE, NPROC, SRC, THREAD_CAPS, WORKLOADS, child_env, program_seeds

WORK = HERE / ".work"
MIN_ITERATIONS = 3
POLL_S = 0.02
DEADLINE_S = 160           # the whole run ends well inside 180 s


@dataclass
class Sample:
    mode: str
    program_seed: int = -1
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    rss_mb: float = float("nan")
    problems: list = field(default_factory=list)
    trace: dict | None = None


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.w = WORKLOADS[workload]
        self.seeds = program_seeds(seed)
        if trace:   # counters must repeat between traced iterations
            self.seeds = self.seeds[:1]
        self.seconds = seconds
        self.trace = trace
        self.t_begin = time.monotonic()
        self.dir = WORK / f"run-{os.getpid()}"
        self.env = child_env()
        self.digests = {}        # program seed -> digest of its first correct outputs
        self.info = {}           # versions and config digests the children reported

    def elapsed(self):
        return time.monotonic() - self.t_begin

    def spawn(self, mode, d: Path, seed: int) -> Sample:
        """Run child.py once in d; set-up time, wall time and peak RSS."""
        d.mkdir(parents=True)
        result_path = d / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               str(d / "spans.json"), mode, *self.w.argv(seed, d / "out")]
        s = Sample(mode, seed)
        with open(d / "stderr.log", "wb") as log:
            t_spawn = time.monotonic()
            p = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=log)
            try:
                while True:
                    pid, status, usage = os.wait4(p.pid, os.WNOHANG)
                    if pid:
                        break
                    if self.elapsed() > DEADLINE_S:
                        s.problems.append("timed out")
                        raise TimeoutError
                    time.sleep(POLL_S)
            except BaseException as exc:   # never leave the child running
                p.kill()
                _, status, usage = os.wait4(p.pid, 0)
                if not isinstance(exc, TimeoutError):
                    raise
        p.returncode = os.waitstatus_to_exitcode(status)
        s.rss_mb = usage.ru_maxrss / 1024.0
        if p.returncode != 0 or not result_path.exists():
            err = (d / "stderr.log").read_text(errors="replace").strip().splitlines()
            s.problems.append(f"child exited {p.returncode}: {err[-1] if err else ''}")
            return s
        result = json.loads(result_path.read_text())
        s.setup_s = result["setup_done"] - t_spawn
        self.info.setdefault("versions", result["versions"])
        self.info.setdefault("config_digests", {})[seed] = result["config_digest"]
        if not Path(result["fluidnet"]).resolve().is_relative_to(SRC.resolve()):
            s.problems.append(f"fluidnet imported from {result['fluidnet']}, not {SRC}")
        if mode == "setup":
            return s
        s.wall_s = result["wall_s"]
        if result["exit_code"] != 0:
            s.problems.append(f"cli.main returned {result['exit_code']}")
        return s

    def iteration(self, k: int, mode: str) -> Sample:
        d = self.dir / str(k)
        seed = self.seeds[k % len(self.seeds)]
        s = self.spawn(mode, d, seed)
        out = d / "out"
        if not s.problems:
            s.problems = check_file_set(out, self.w)
        if not s.problems:
            digest = output_digest(out)
            if seed not in self.digests:
                s.problems = check_outputs(out, self.w, load_reference(self.w, seed))
                if not s.problems:
                    self.digests[seed] = digest
            elif digest != self.digests[seed]:
                s.problems = [f"outputs differ from the first iteration's with seed {seed}"]
        if mode == "trace" and (d / "spans.json").exists():
            from tracer import summarize
            s.trace = summarize(d / "spans.json")
            shutil.copyfile(d / "spans.json", WORK / f"spans_{self.w.name}.json")
        shutil.rmtree(d)
        return s

    def mode(self, k: int) -> str:
        """Trace runs alternate traced and untraced iterations, starting traced."""
        if not self.trace:
            return "run"
        return "trace" if k % 2 == 0 else "run"

    def run(self) -> list[Sample]:
        self.dir.mkdir(parents=True)
        try:
            seed = self.seeds[0]
            warm = self.spawn("setup", self.dir / "warm", seed)   # compiles .pyc, fills caches
            if warm.problems:
                raise RuntimeError("; ".join(warm.problems))
            samples, longest, k = [], 0.0, 0
            while True:
                t = self.elapsed()
                samples.append(self.iteration(k, self.mode(k)))
                longest = max(longest, self.elapsed() - t)
                k += 1
                if self.elapsed() > DEADLINE_S - longest:
                    break
                if k >= MIN_ITERATIONS and self.elapsed() + longest > self.seconds:
                    break
            return samples
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def check_counters(traced: list[Sample]):
    """Counters must repeat exactly between traced iterations; marks failures in place."""
    def counters(s):
        return {k: v for k, v in s.trace["metrics"].items() if not k.endswith("_s")}

    want = counters(traced[0])
    for s in traced:
        counts = counters(s)
        if counts != want:
            s.problems.append(f"counters differ between traced iterations: {counts} != {want}")


def end_to_end(runs: list[Sample]) -> dict:
    walls = [s.wall_s for s in runs]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_p75": (statistics.quantiles(walls, n=4, method="inclusive")[2], "s"),
        "setup_s": (statistics.median(s.setup_s for s in runs), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in runs), "MB"),
    }


def per_layer(traced: list[Sample], untraced: list[Sample]) -> dict:
    metrics = {}
    for name, value in traced[0].trace["metrics"].items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(s.trace["metrics"][name] for s in traced), "s")
        else:
            metrics[name] = (value, "ratio" if name.endswith("ratio") else "count")
    traced_wall = statistics.median(s.wall_s for s in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(s.wall_s for s in untraced), "s")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(runner: Runner, seed: int, missing) -> dict:
    try:
        whys = {w["name"]: w["why"]
                for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}
    except (OSError, ValueError, KeyError):
        whys = {}
    return {"workload": runner.w.name,
            "argv": runner.w.argv(runner.seeds[0], Path("<fresh dir>")), "seed": seed, "program_seeds": runner.seeds,
            "config_digests": runner.info.get("config_digests"),
            "nproc": NPROC, "cpu_model": cpu_model(), "python": platform.python_version(),
            **runner.info.get("versions", {}), "thread_caps": THREAD_CAPS,
            "workload_reasons": whys, "missing_hooks": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fluidnet" / "cli.py").is_file():
        print(f"error: no fluidnet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds, args.trace)
    try:
        measured = runner.run()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Times come from every iteration that ran to the end, also when its
    # outputs failed a check: the result then reads "correct": false.
    untraced = [s for s in measured if s.mode == "run" and not math.isnan(s.wall_s)]
    traced = [s for s in measured if s.trace]
    # Hooks whose target is gone (None on untraced runs): their metrics read 0.
    missing = sorted({h for s in traced for h in s.trace["missing"]}) if traced else None
    if traced:
        check_counters(traced)
    if missing:
        print(f"warning: tracer hooks with no target, their metrics read 0: {missing}",
              file=sys.stderr)
    for i, s in enumerate(measured):
        for problem in s.problems:
            print(f"iteration {i} ({s.mode}): {problem}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no iteration ran to the end", file=sys.stderr)
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    failed = sum(1 for s in measured if s.problems)

    print(f"{runner.w.name}: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f", error_rate={failed / len(measured):g} ({failed}/{len(measured)} failed)")
    print(f"wall_s of {len(untraced)} untraced iterations (program seed: s): " +
          " ".join(f"{s.program_seed}:{s.wall_s:.4f}" for s in untraced))
    print(json.dumps({"env": environment(runner, args.seed, missing)}))
    print(json.dumps({"correct": not failed, "attempted": len(measured), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
