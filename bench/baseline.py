"""Run every workload over several seeds and summarise the runs as JSON.

Usage, from the repository root:

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload it makes one untraced run per seed and one traced run
(first seed), and records, per end-to-end metric, the median, the
quartiles and their distance as a share of the median, with quartiles
as ``statistics.quantiles(values, n=4)`` gives them, the definition
``run.py`` uses too.  Runs are sequential
and use ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    low, mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": low, "q3": high, "spread": (high - low) / median,
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, {name: round(m["spread"], 4) for name, m in metrics.items()},
              flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
