"""Record a baseline: every metric of every workload, with the environment.

    python3 perfbench/baseline.py --seeds 1-10 --holdout 99 --out perfbench/BASELINE.json

Runs run.py once per workload and seed with --trace 0, then once per
workload with --trace 1 on the first seed and once with --trace 0 on the
held-out seed.  For each end-to-end metric it stores the median over the
seeds and the spread (distance between the first and third quartile, as a
share of the median), which is what BENCHMARK.json's bounds are checked
against.  Run from the repository root on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def loadavg() -> float | None:
    try:
        with open("/proc/loadavg") as src:
            return float(src.read().split()[0])
    except OSError:
        return None


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(workload, seed, f"trace={trace}", f"{wall:.1f}s", json.dumps(result), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--holdout", type=int, default=99)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        bench = json.load(src)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    record = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "loadavg_1min_before": loadavg(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "run_seconds": seconds,
            "seeds": seeds,
            "holdout_seed": args.holdout,
        },
        "workloads": {},
    }
    for name in names:
        runs = [run(name, s, seconds, 0) for s in seeds]
        e2e = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            e2e[metric] = {"median": med, "iqr_share": (q[2] - q[0]) / med if med else None,
                           "unit": runs[0]["metrics"][metric]["unit"], "values": values}
        traced = run(name, seeds[0], seconds, 1)
        holdout = run(name, args.holdout, seconds, 0)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced, holdout]),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "holdout": {k: m["value"] for k, m in holdout["metrics"].items()},
        }
    record["environment"]["loadavg_1min_after"] = loadavg()
    with open(args.out, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
