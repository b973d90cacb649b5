"""Scaling ladders for the model checker and the successor-arithmetic decider,
and the verify suites.

The checker ladder times check(H, h_n) for growing n, the decider ladder
decide_sentence on the alternation ladder for growing k, and the verify
runs each suite of slnkit.verify over a range of seeds.

    python3 bench/scale.py                                  # n = 4..12, this tree
    python3 bench/scale.py --source parent=../old/src --source change=src \
        > BENCH_checker.json
    python3 bench/scale.py --decider --source parent=../old/src --source change=src \
        > BENCH_decider.json                                # k = 2..15
    python3 bench/scale.py --verify --source parent=../old/src --source change=src \
        > BENCH_verify.json                                 # seeds 0..19

Run from the repository root.  Each --source LABEL=DIR is one column, a
directory holding the slnkit package; the default is one column, current=src.
Every run is its own subprocess that imports slnkit from the column's
directory.  A checker run builds simple_table_heap(n) and H untimed, copies
the table into a fresh Heap (so no memo or value index survives), and times
one check(VarAssignment(), heap, H).  A decider run parses ladder(k) from
tests/test_succ.py untimed and times one decide_sentence; a run that raises
BudgetExceeded is timed to the raise.  A verify run times run_suite(suite,
seed) for every seed of the range in one process, so that what the suite
caches carries over from seed to seed, and records each report's
agreements and instances; its verdict is whether every instance agreed.
Each (column, n) or (column, suite) is run REPEATS times, interleaved
across columns, the first column changing place with each repeat, so a
drift in the host's speed falls on every column alike.
Each entry records the median and the minimum of the run times, the largest
peak RSS of its subprocesses and the verdict, or the status "budget" when
the runs ended in BudgetExceeded; a run past --timeout is recorded as
"timeout" and the rest of that entry's runs are skipped.  The JSON on
standard output also records the environment and a hash of each column's
source files; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3  # runs per (column, n)

# One timed run, in a fresh interpreter; prints one JSON line.  The checker
# run reads n from argv; the decider run reads the sentence's text.
CHILD = """
import json, resource, sys, time
from slnkit import Heap, VarAssignment, check, simple_table_heap, table_heap_condition
n = int(sys.argv[1])
H, table = table_heap_condition(), simple_table_heap(n)
heap = Heap(dict(table.cells))
start = time.perf_counter()
verdict = check(VarAssignment(), heap, H)
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "verdict": verdict, "peak_rss_mb": rss_mb,
                  "cells": len(table)}))
"""
DECIDER_CHILD = """
import json, resource, sys, time
from slnkit import decide_sentence, parse_sln
from slnkit.succ import BudgetExceeded
a = parse_sln(sys.argv[1])
start = time.perf_counter()
try:
    verdict = decide_sentence(a)
except BudgetExceeded:
    verdict = "budget"
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "verdict": verdict, "peak_rss_mb": rss_mb}))
"""
VERIFY_CHILD = """
import json, resource, sys, time
from slnkit.verify import run_suite
suite, seeds = sys.argv[1], range(int(sys.argv[2]), int(sys.argv[3]) + 1)
start = time.perf_counter()
reports = [run_suite(suite, seed) for seed in seeds]
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss_mb,
                  "agreements": [r["agreements"] for r in reports],
                  "instances": [r["instances"] for r in reports],
                  "verdict": all(r["agreements"] == r["instances"] for r in reports)}))
"""
SUITES = ["pa2hn", "hn2forallh", "representation", "sigma01", "fol"]


def decider_ladders(ks: list[int]) -> dict[int, str]:
    """The texts of tests/test_succ.py's ladder(k), false sentences, made in
    a subprocess so that the test module's imports do not grow this process,
    whose peak RSS a run's subprocess can report as its own."""
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'tests'}{os.pathsep}{ROOT / 'src'}",
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = ("import json, sys; from test_succ import ladder; "
            "print(json.dumps([ladder(int(k)) for k in sys.argv[1:]]))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, ks)], env=env,
                         capture_output=True, text=True, check=True)
    return dict(zip(ks, json.loads(out.stdout)))


def run_once(src: Path, child: str, args: list[str], timeout: float) -> dict | None:
    """One run of child on args against the package in src; None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        out = subprocess.run([sys.executable, "-c", child, *args], env=env,
                             capture_output=True, text=True, timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_hash(src: Path) -> str:
    """sha256 over the package's module files, in name order."""
    digest = hashlib.sha256()
    for path in sorted((src / "slnkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(),
            "cpu": cpu, "cpu_count": os.cpu_count()}


def ladder(sources: dict[str, Path], child: str, key: str, args: dict,
           timeout: float) -> dict:
    """Run child on args[n] for each n in turn, REPEATS times per column;
    the entries of each column, keyed by `key`."""
    ns = list(args)
    labels = list(sources)
    runs = {(label, n): [] for label in labels for n in ns}
    timed_out = set()
    for n in ns:
        for r in range(REPEATS):
            order = labels[r % len(labels):] + labels[:r % len(labels)]
            for label in order:
                if (label, n) in timed_out:
                    continue
                result = run_once(sources[label], child, args[n], timeout)
                if result is None:
                    timed_out.add((label, n))
                else:
                    runs[label, n].append(result)
                took = "timeout" if result is None else f"{result['seconds']:.3f} s"
                print(f"{label} {key}={n} run {r + 1}: {took}", file=sys.stderr)
    columns = {}
    for label in labels:
        entries = []
        for n in ns:
            done = runs[label, n]
            if (label, n) in timed_out:
                entries.append({key: n, "status": "timeout", "timeout_s": timeout,
                                "runs_before_timeout": len(done)})
                continue
            times = [d["seconds"] for d in done]
            entry = {key: n, "status": "budget" if done[0]["verdict"] == "budget" else "ok"}
            entry.update({k: done[0][k] for k in ("cells", "agreements", "instances")
                          if k in done[0]})
            if entry["status"] == "ok":
                entry["verdict"] = done[0]["verdict"]
            entries.append({**entry, "runs": len(times),
                            "median_s": round(statistics.median(times), 4),
                            "min_s": round(min(times), 4),
                            "peak_rss_mb": round(max(d["peak_rss_mb"] for d in done), 1)})
        columns[label] = {"source_sha256": source_hash(sources[label]), "entries": entries}
    return columns


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--source", action="append", metavar="LABEL=DIR",
                        help="a column: a label and a directory holding slnkit")
    parser.add_argument("--n", help="sizes, as LO-HI: table sizes (default 4-12), ladder"
                        " sizes k with --decider (default 2-15), or seeds with --verify"
                        " (default 0-19)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--decider", action="store_true",
                      help="run the decider's alternation ladder instead")
    mode.add_argument("--verify", action="store_true",
                      help="run each verify suite over the seeds instead")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds before a run counts as a timeout (default 120)")
    args = parser.parse_args(argv)
    sources = {}
    for item in args.source or ["current=src"]:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "slnkit" / "__init__.py").is_file():
            parser.error(f"--source {item!r}: expected LABEL=DIR with DIR/slnkit")
        sources[label] = Path(path).resolve()
    sizes = args.n or ("2-15" if args.decider else "0-19" if args.verify else "4-12")
    lo, _, hi = sizes.partition("-")
    ns = list(range(int(lo), int(hi or lo) + 1))
    if not ns:
        parser.error(f"--n {sizes!r}: no sizes")
    if args.verify:
        benchmark = f"run_suite(suite, seed) for seed = {ns[0]}..{ns[-1]} in one process"
        child, key = VERIFY_CHILD, "suite"
        runs = {suite: [suite, str(ns[0]), str(ns[-1])] for suite in SUITES}
    elif args.decider:
        benchmark = "decide_sentence(parse_sln(ladder(k))), ladder from tests/test_succ.py"
        child, key = DECIDER_CHILD, "k"
        runs = {k: [text] for k, text in decider_ladders(ns).items()}
    else:
        benchmark = "check(VarAssignment(), Heap(simple_table_heap(n)), H)"
        child, key = CHILD, "n"
        runs = {n: [str(n)] for n in ns}
    report = {"benchmark": benchmark, "repeats": REPEATS, "environment": environment(),
              "columns": ladder(sources, child, key, runs, args.timeout)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
