"""Record the output values that every benchmark iteration is checked against.

Run once on the commit whose results are the reference (the seed commit):

    python3 perfbench/record_reference.py

It runs every workload for program seeds 0..REFERENCE_SEEDS-1 through the
CLI, keeps the values check.COMPARED names and writes perfbench/reference.json:
per workload, the Monte Carlo sample count (runs x users), the seed-free
values once, and the per-seed values for each seed. It fails if a value
check.py treats as seed-free differs between seeds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from check import REFERENCE_PATH, extract
from workloads import REFERENCE_SEEDS, SRC, WORKLOADS, child_env


def record(name: str, seed: int) -> tuple[dict, dict]:
    out = Path(tempfile.mkdtemp(prefix="ref-", dir=REFERENCE_PATH.parent / ".work"))
    try:
        subprocess.run([sys.executable, "-m", "fluidnet.cli",
                        *WORKLOADS[name].argv(seed, out)],
                       env=child_env(), check=True, stderr=subprocess.DEVNULL)
        return extract(out)
    finally:
        shutil.rmtree(out)


def poisson_samples(name: str) -> int:
    sys.path.insert(0, str(SRC))
    from fluidnet import cli
    argv = WORKLOADS[name].argv(0, Path("unused"))
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    return config.runs * config.users


def dumps(commit: str, table: dict) -> str:
    """reference.json with one line per workload section and per seed."""
    workloads = []
    for name, ref in table.items():
        seeds = ",\n".join(f"   {json.dumps(s)}: {json.dumps(v)}"
                           for s, v in ref["seeds"].items())
        workloads.append(f' {json.dumps(name)}: {{\n'
                         f'  "poisson_samples": {ref["poisson_samples"]},\n'
                         f'  "common": {json.dumps(ref["common"])},\n'
                         f'  "seeds": {{\n{seeds}\n  }}\n }}')
    return (f'{{"recorded_from": {json.dumps(commit)},\n"workloads": {{\n'
            + ",\n".join(workloads) + "\n}}\n")


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=SRC,
                            capture_output=True, text=True).stdout.strip()
    (REFERENCE_PATH.parent / ".work").mkdir(exist_ok=True)
    jobs = [(name, seed) for name in WORKLOADS for seed in range(REFERENCE_SEEDS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job), jobs))
    table = {name: {"poisson_samples": poisson_samples(name), "common": None, "seeds": {}}
             for name in WORKLOADS}
    for (name, seed), (common, seeded) in zip(jobs, results):
        ref = table[name]
        if ref["common"] is None:
            ref["common"] = common
        elif common != ref["common"]:
            raise SystemExit(f"{name}: seed-free values differ at program seed {seed}")
        ref["seeds"][str(seed)] = seeded
    REFERENCE_PATH.write_text(dumps(commit or "unknown", table))
    json.loads(REFERENCE_PATH.read_text())   # the hand-made layout must parse
    return 0


if __name__ == "__main__":
    sys.exit(main())
