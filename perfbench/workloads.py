"""The benchmark's workloads: fixed fluidnet CLI invocations.

Each workload is one closed-loop client running one CLI command at a
time. Its inputs are fixed here; the only thing that varies between
runs is the seed, which reaches the program only as ``--seed``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# BLAS/OpenMP pools are capped at the core count (the CPUs this process may run on).
NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {k: str(NPROC) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Reference outputs (reference.json) exist for program seeds 0..31, so
# that every run can be checked against results recorded from the seed
# commit. A benchmark seed maps onto SEEDS_PER_RUN of them, which a run
# cycles through: the station count, and with it the work, varies by a
# few percent between program seeds, and a run that covers several of
# them varies less from one benchmark seed to the next.
REFERENCE_SEEDS = 32
SEEDS_PER_RUN = 3

# Fixed here rather than imported from fluidnet: a change to the program's
# default eta list must fail the file-set check, not follow it silently.
DEFAULT_ETAS = tuple(round(2.2 + 0.2 * i, 1) for i in range(11))
FIT_ETAS = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8)
SWEEP_ETAS = tuple(round(2.05 + 0.05 * i, 2) for i in range(80))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str     # fluidnet subcommand
    etas: tuple      # eta values the command runs, which fix the output file set
    args: tuple      # further CLI arguments

    def argv(self, program_seed: int, out: Path) -> list[str]:
        return [self.command, *self.args, "--seed", str(program_seed), "--out", str(out)]


def _eta_arg(etas) -> tuple:
    return ("--eta", ",".join(f"{e:g}" for e in etas))


WORKLOADS = {w.name: w for w in (
    # The headline user run: default config, 11 eta values, 100 Poisson
    # layouts x 2000 users, 50 expected stations. Touches every layer.
    Workload("report_default", "report", DEFAULT_ETAS, ()),
    # Geometry-bound: 200 expected stations, 50 layouts. No fluid
    # evaluate calls and only 15 output files, so fluid and io changes
    # must show no change here.
    Workload("fit_large_torus", "fit", FIT_ETAS,
             ("--config", str(HERE / "fit_large_torus.cfg"), *_eta_arg(FIT_ETAS))),
    # Analytic-bound: 80 eta values with a token Monte Carlo (1 layout x
    # 500 users). Fluid evaluation, CSV writing (405 files) and quantiles
    # dominate; the bypass case for geometry work.
    Workload("analytic_sweep", "report", SWEEP_ETAS,
             (*_eta_arg(SWEEP_ETAS), "--runs", "1", "--users", "500")),
)}


def program_seeds(seed: int) -> list[int]:
    """The program seeds a run with benchmark seed ``seed`` cycles through."""
    return [(seed * SEEDS_PER_RUN + j) % REFERENCE_SEEDS for j in range(SEEDS_PER_RUN)]


def child_env() -> dict:
    """Environment for a fluidnet process: the checkout's src/ first, threads capped.

    Bytecode caching stays on, as for an installed package, so set-up time
    does not include compiling fluidnet; a run's warm-up child writes the cache.
    """
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
