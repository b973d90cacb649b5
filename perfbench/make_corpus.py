"""Build the benchmark's fixed corpora.

    python3 perfbench/make_corpus.py [decide] [pipeline] [search]
    python3 perfbench/make_corpus.py recost [decide] [pipeline]

Run from the repository root on an idle machine.  Candidates come from the
benchmark's own generators (inputs.py) under fixed corpus seeds.  Each kept
row stores its expected verdict, from the independent oracles in
tests/oracles.py (stable_brute_force for decide, naive_pa_eval and eval_fol
for pipeline), and its cost in milliseconds at the commit that built it.
run.py sorts a corpus by that cost, always takes the costliest rows and
draws one row from each run of neighbouring rows below them, so every seed
gets the same cost profile.  `recost` re-times the kept rows of the decide
and pipeline corpora (the median of RECOST_ROUNDS shuffled rounds, with the
collector off, as run.py times ops) and rewrites their cost_ms, because a
single timing taken while a row was built ranks neighbouring rows too
noisily.  Run it after rebuilding either corpus.
search_seeds.jsonl holds heap-pool seeds for
the search workload, with the cost of searching every valid representation
case on that pool, at the reference core speed of speed.py.

A candidate is dropped when the program needs more than the corpus's time
limit, raises, or the oracle needs more than ORACLE_S seconds: workloads
must not contain failing operations.  Each corpus's header line counts what
was dropped and why, so that share stays visible; the known-defect inputs
are probed separately by run.py.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import slnkit  # noqa: E402
import slnkit.finite  # noqa: E402
import slnkit.verify  # noqa: E402
import speed  # noqa: E402
from run import Program, fol_assignments, pipeline_fol, pipeline_pa  # noqa: E402
from slnkit.finite import parse_l, parse_structure  # noqa: E402

CORPUS_SEED = 20260
KEEP_S = {"decide": 1.0, "pipeline": 0.5}
ORACLE_S = 20.0
DECIDE_PER_CLASS = {1: 24, 2: 24, 3: 60, 4: 60}  # by clause count
PIPELINE_PA = 500
PIPELINE_FOL = 150
SEARCH_SEEDS = 120
RECOST_ROUNDS = 3


class Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise Overrun()


def timed(fn, limit: float):
    """(result, seconds); result is Overrun or the exception raised."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        out = fn()
    except (Overrun, RecursionError, ValueError, AssertionError) as err:
        out = err
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, time.perf_counter() - start


def build_decide(rng: random.Random) -> tuple[list[dict], dict]:
    kept, dropped = [], {"program_over_limit": 0, "program_error": 0, "oracle_over_limit": 0}
    sigma0 = slnkit.VarAssignment()
    for nvars, nclauses in itertools.product(range(2, 7), range(1, 5)):
        for _ in range(DECIDE_PER_CLASS[nclauses]):
            text = inputs.decide_sentence_text(rng, nvars, nclauses)
            sentence = slnkit.parse_sln(text)
            verdict, cost = timed(lambda: slnkit.decide_sentence(sentence), KEEP_S["decide"])
            if isinstance(verdict, BaseException):
                dropped["program_over_limit" if isinstance(verdict, Overrun)
                        else "program_error"] += 1
                continue
            expected, oracle_cost = timed(
                lambda: oracles.stable_brute_force(sigma0, slnkit.Heap(), sentence), ORACLE_S)
            if isinstance(expected, BaseException):
                dropped["oracle_over_limit"] += 1
                continue
            kept.append({"expected": expected, "vars": nvars, "clauses": nclauses,
                         "cost_ms": round(cost * 1e3, 3),
                         "oracle_ms": round(oracle_cost * 1e3, 3), "text": text})
    return kept, dropped


def build_pipeline(rng: random.Random) -> tuple[list[dict], dict]:
    kept, dropped = [], {"program_over_limit": 0, "program_error": 0}
    limit = KEEP_S["pipeline"]
    for _ in range(PIPELINE_PA):
        text, sigma_text = inputs.pa_instance(rng)
        verdict, cost = timed(lambda: pipeline_pa(slnkit, text, sigma_text), limit)
        if isinstance(verdict, BaseException):
            dropped["program_over_limit" if isinstance(verdict, Overrun) else "program_error"] += 1
            continue
        expected = oracles.naive_pa_eval(slnkit.parse_assignment(sigma_text), slnkit.parse_pa(text))
        kept.append({"kind": "pa", "expected": expected, "cost_ms": round(cost * 1e3, 3),
                     "text": text, "sigma": sigma_text})
    for _ in range(PIPELINE_FOL):
        structure_text, text, names = inputs.fol_instance(rng)
        verdict, cost = timed(
            lambda: pipeline_fol(slnkit, slnkit.finite, structure_text, text, names), limit)
        if isinstance(verdict, BaseException):
            dropped["program_over_limit" if isinstance(verdict, Overrun) else "program_error"] += 1
            continue
        m = parse_structure(structure_text)
        a = parse_l(text)
        expected = [slnkit.eval_fol(m, s, a) for s in fol_assignments(slnkit, m, names)]
        kept.append({"kind": "fol", "expected": expected, "cost_ms": round(cost * 1e3, 3),
                     "structure": structure_text, "text": text, "free": names})
    return kept, dropped


def build_search(rng: random.Random) -> tuple[list[dict], dict]:
    cases = [(slnkit.parse_pa(t), label, w) for t, label, w in inputs.representation_cases()]

    def run_seed(seed: int, labels: tuple[str, ...] = ("valid",)) -> float:
        limits = slnkit.verify.SearchLimits(seed=seed, **inputs.SEARCH_LIMITS)
        start = time.perf_counter()
        for a, label, witness in cases:
            if label in labels:
                report = slnkit.verify.verify_representation(a, label, witness, limits)
                assert report["as_expected"]
        return time.perf_counter() - start

    # Warm the shared table heaps, as the first seed of a pass does.
    run_seed(-1, ("valid", "invalid"))
    def cost(seed: int) -> float:
        """The first search on the seed's pool, at the reference core
        speed; a repeat would find the pool's memos filled."""
        before = speed.calibrate()
        wall = run_seed(seed)
        return speed.scale(wall, before, speed.calibrate())

    kept = [{"seed": s, "cost_ms": round(cost(s) * 1e3, 3)}
            for s in rng.sample(range(1_000_000), SEARCH_SEEDS)]
    return kept, {}


def row_op(kind: str, row: dict, program: Program):
    """The timed op of a kept decide or pipeline row, as run.py runs it."""
    sl = program.sl
    if kind == "decide":
        sentence = sl.parse_sln(row["text"])
        return lambda: sl.decide_sentence(sentence)
    if row["kind"] == "pa":
        return lambda: pipeline_pa(sl, row["text"], row["sigma"])
    return lambda: pipeline_fol(sl, program.finite, row["structure"], row["text"], row["free"])


def recost(kind: str) -> None:
    name = f"{kind}_corpus.jsonl"
    with open(os.path.join(HERE, name)) as src:
        header, *rows = [json.loads(line) for line in src]
    times: list[list[float]] = [[] for _ in rows]
    for round_ in range(RECOST_ROUNDS):
        # A fresh import each round, as each pass of run.py starts cold:
        # the table heaps it caches carry checker memos.
        program = Program()
        ops = [row_op(kind, row, program) for row in rows]
        order = list(range(len(rows)))
        random.Random(round_).shuffle(order)
        gc.collect()
        gc.disable()
        for i in order:
            start = time.perf_counter()
            ops[i]()
            times[i].append(time.perf_counter() - start)
        gc.enable()
    for row, ts in zip(rows, times):
        row["cost_ms"] = round(statistics.median(ts) * 1e3, 3)
    header = header["header"]
    header["recost_rounds"] = RECOST_ROUNDS
    write(name, rows, header["dropped"], header["keep_s"], header)


def write(name: str, rows: list[dict], dropped: dict, keep_s: float | None,
          header: dict | None = None) -> None:
    header = {**(header or {}), "corpus_seed": CORPUS_SEED, "keep_s": keep_s,
              "kept": len(rows), "cost_ms_total": round(sum(r["cost_ms"] for r in rows), 1),
              "dropped": dropped}
    with open(os.path.join(HERE, name), "w") as out:
        out.write(json.dumps({"header": header}) + "\n")
        for row in rows:
            out.write(json.dumps(row) + "\n")
    print(name, json.dumps(header), file=sys.stderr)


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    which = sys.argv[1:] or ["decide", "pipeline", "search"]
    if which[0] == "recost":
        for kind in which[1:] or ["decide", "pipeline"]:
            recost(kind)
        return
    if "pipeline" in which:
        write("pipeline_corpus.jsonl", *build_pipeline(random.Random(CORPUS_SEED + 1)),
              KEEP_S["pipeline"])
    if "decide" in which:
        write("decide_corpus.jsonl", *build_decide(random.Random(CORPUS_SEED)),
              KEEP_S["decide"])
    if "search" in which:
        write("search_seeds.jsonl", *build_search(random.Random(CORPUS_SEED + 2)), None)


if __name__ == "__main__":
    main()
