"""Time-to-verdict benchmark for slnkit.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process, one caller: every op starts
after the previous verdict, as with `slnkit check` or `slnkit verify`.
Within --seconds the workload's pass is repeated; before each pass the
program is imported afresh and the inputs are rebuilt, so every pass
starts cold, as a new `slnkit` process would.  Every verdict is checked
against a reference that does not come from the code under test.  The
known-defect inputs are probed after the passes, outside the timed
metrics.

A shared host's cores drift in speed, so times are paired: every op is
also run on pinned_slnkit, a frozen copy of the package, on the same
inputs, right before or after the program (in the first pass, the
program's ops run alone and then the pinned copy's).  Each end-to-end time
is the program's figure over the pinned copy's, on the same ops in the
same run, times the pinned copy's figure on the recording machine
(PINNED_FIGURES), so a slow phase of the host slows both sides alike.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints per-layer metrics from the traced ones; the
spans are also written to .perfbench_trace/ in the working directory.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Workloads, metrics and the known defects are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import inputs  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402

OP_LIMIT_S = 10.0
TRACE_DIR = ".perfbench_trace"

# The frozen copy of src/slnkit that every op is paired with.  It is never
# edited, so a change to the program cannot move it.
PINNED = "pinned_slnkit"
# The pinned copy's time figures on the recording machine, the medians
# over seeds 1-3 (see README.md); they turn the paired ratios into seconds.
PINNED_FIGURES = {
    "table": {"run_s": 1.469, "verdict_s_p50": 0.002995, "verdict_s_p90": 0.01038,
              "setup_s": 0.09448},
    "search": {"run_s": 1.681, "verdict_s_p50": 0.00988, "verdict_s_p90": 0.03581,
               "setup_s": 0.07135},
    "decide": {"run_s": 4.436, "verdict_s_p50": 0.0002551, "verdict_s_p90": 0.2237,
               "setup_s": 0.131},
    "pipeline": {"run_s": 6.131, "verdict_s_p50": 0.008642, "verdict_s_p90": 0.3226,
                 "setup_s": 0.1043},
}


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# The program under test


class Program:
    """A fresh import of a package (the program under test or its pinned
    copy) and of the oracles.  The pinned copy borrows the program's
    oracles, which it only uses to pick inputs.  Calls go through module
    attributes at call time, so the tracer's rebinding takes effect."""

    def __init__(self, package: str = "slnkit", oracles=None) -> None:
        for path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
            if path not in sys.path:
                sys.path.insert(0, path)
        stale = {package} if oracles else {package, "oracles"}
        for name in list(sys.modules):
            if name.split(".")[0] in stale:
                del sys.modules[name]
        self.oracles = oracles or importlib.import_module("oracles")
        self.sl = importlib.import_module(package)
        self.finite = importlib.import_module(package + ".finite")
        self.verify = importlib.import_module(package + ".verify")

    def trace_targets(self) -> dict[str, Callable]:
        sl, fin, ver = self.sl, self.finite, self.verify
        return {
            "checker.check": sl.check,
            "succ.decide_sentence": sl.decide_sentence,
            "verify.verify_representation": ver.verify_representation,
            "verify.bounded_counterexample_search": ver.bounded_counterexample_search,
            "verify.verify_pa2hn": ver.verify_pa2hn,
            "parser.parse_pa": sl.parse_pa,
            "parser.parse_sln": sl.parse_sln,
            "parser.parse_l": fin.parse_l,
            "parser.parse_structure": fin.parse_structure,
            "parser.parse_assignment": sl.parse_assignment,
            "normalize.normalize_bounded": sl.normalize_bounded,
            "normalize.box_translate": sl.box_translate,
            "normalize.max_bound": sl.max_bound,
            "translate.circle_translate": sl.circle_translate,
            "translate.table_heap_condition": sl.table_heap_condition,
            "heap.simple_table_heap": sl.simple_table_heap,
            "finite.encode_structure": sl.encode_structure,
            "finite.triangle_translate": sl.triangle_translate,
        }


def count_nodes(root) -> tuple[int, int]:
    """(all dataclass nodes, ExistsEq nodes) below root, iteratively so
    deep formulas cannot exhaust the stack."""
    total = defining = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += 1
        defining += type(node).__name__ == "ExistsEq"
        for name in getattr(node, "__dataclass_fields__", ()):
            child = getattr(node, name)
            if hasattr(child, "__dataclass_fields__"):
                stack.append(child)
    return total, defining


def _observe_check(info, args, out):
    info["heap"] = args[1]


def _observe_normalize(info, args, out):
    info["defs_added"] = count_nodes(out)[1] - count_nodes(args[0])[1]


def _observe_translate(info, args, out):
    info["out_nodes"] = count_nodes(out)[0]


OBSERVERS = {
    "checker.check": _observe_check,
    "normalize.normalize_bounded": _observe_normalize,
    "translate.circle_translate": _observe_translate,
}


# ---------------------------------------------------------------------------
# Ops and workloads


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    expected: Any = None
    # Live reference, timed as oracle time; must agree with `expected`
    # when both are given.
    reference: Callable[[], Any] | None = None


@dataclass
class Env:
    program: Program | None = None
    oracle_s: float = 0.0

    def oracle(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.oracle_s += time.perf_counter() - start


def read_jsonl(name: str) -> list[dict]:
    with open(os.path.join(HERE, name)) as src:
        rows = [json.loads(line) for line in src]
    return [r for r in rows if "header" not in r]


def cost_sample(rows: list[dict], rng: random.Random, group: int, top: int) -> list[dict]:
    """The `top` costliest rows, then one row drawn from each run of
    `group` neighbouring rows in cost order.  Every seed gets the same cost
    profile, and with `top` above a tenth of the sample the 90th percentile
    falls on rows that every seed shares."""
    ranked = sorted(rows, key=lambda r: r["cost_ms"])
    cut = len(ranked) - top
    picked = ranked[cut:] + [rng.choice(ranked[i:min(i + group, cut)])
                             for i in range(0, cut, group)]
    rng.shuffle(picked)
    return picked


# Ops look functions up on the module when they run, so that the tracer's
# rebinding applies to them.
def _check(sl, sigma, h, a) -> bool:
    return sl.check(sigma, h, a)


def _decide(sl, sentence) -> bool:
    return sl.decide_sentence(sentence)


def build_table(env: Env, rng: random.Random) -> list[Op]:
    """check(sigma0, h, H) on intact tables, corrupted addition results and
    single-cell mutations.  Every op gets its own heap object.  Intact h_4
    is left out: one op of 1.5-3 s would be half of a pass, and the pass's
    time would hinge on the pairing of that one op (probe (a) checks h_4)."""
    sl = env.program.sl
    scan = env.program.oracles.scan_violations
    H = sl.table_heap_condition()
    sigma0 = sl.VarAssignment()
    tables = [sl.simple_table_heap(n) for n in range(4)]
    ops = [Op(f"intact h{n}", partial(_check, sl, sigma0, sl.Heap(dict(t.cells)), H), True)
           for n, t in enumerate(tables)]
    # Corrupted addition results at fixed rows of h_2 and h_3.  Time grows
    # with the row index; fixed rows give every seed the same slow end.
    for n, rows in ((2, range(0, 25, 2)), (3, range(19, 100, 40))):
        t = tables[n]
        for i in rows:
            cell = 4 * i + 3
            h = t.mutated(cell, t.get(cell) + 1)
            ops.append(Op(f"corrupt h{n} row {i}", partial(_check, sl, sigma0, h, H), False))
    # Seeded single-cell mutations of h_0 and h_1 that break some row by
    # the independent scan, one per band of addresses.
    for n, picks in ((0, 30), (1, 100)):
        t = tables[n]
        size = len(t)
        for j in range(picks):
            lo = size * j // picks
            hi = max(lo + 1, size * (j + 1) // picks)
            for attempt in itertools.count():
                if attempt and attempt % 32 == 0:
                    # No breaking value found in the band yet: widen it by
                    # one address on each side.  Cost grows with the
                    # address, so a neighbour keeps the op's cost.
                    lo, hi = max(0, lo - 1), min(size, hi + 1)
                addr, value = rng.randrange(lo, hi), rng.randint(0, t.max_val + 2)
                h = t.mutated(addr, value)
                if env.oracle(scan, h):
                    break
            ops.append(Op(f"mutate h{n} [{addr}]={value}",
                          partial(_check, sl, sigma0, h, H), False))
    return ops


def build_search(env: Env, rng: random.Random) -> list[Op]:
    """verify_representation on the valid labelled cases for twenty
    heap-pool seeds drawn by cost from search_seeds.jsonl; the cases of one
    seed share that seed's pool.  The verdict is whether no counterexample
    was found.  The invalid cases are left out: each is refuted on one
    table heap without a search, as the table workload checks, and the
    costliest checks h_4 and would be half of a pass."""
    sl, ver = env.program.sl, env.program.verify

    def op(text, limits):
        return ver.verify_representation(sl.parse_pa(text), "valid", None, limits)["as_expected"]

    ops = []
    seeds = cost_sample(read_jsonl("search_seeds.jsonl"), rng, group=6, top=0)
    for row in seeds:
        limits = ver.SearchLimits(seed=row["seed"], **inputs.SEARCH_LIMITS)
        for text, label, _ in inputs.representation_cases():
            if label == "valid":
                ops.append(Op(f"{text} seed {row['seed']}", partial(op, text, limits), True))
    return ops


def build_decide(env: Env, rng: random.Random) -> list[Op]:
    """decide_sentence on corpus sentences; sentences are parsed here, in
    set-up, so the timed op is the decider alone."""
    sl = env.program.sl
    stable = env.program.oracles.stable_brute_force
    ops = []
    for row in cost_sample(read_jsonl("decide_corpus.jsonl"), rng, group=7, top=14):
        sentence = sl.parse_sln(row["text"])
        reference = None
        if row["oracle_ms"] < 20:
            reference = partial(stable, sl.VarAssignment(), sl.Heap(), sentence)
        ops.append(Op(f"{row['vars']}v/{row['clauses']}c {row['text']}",
                      partial(_decide, sl, sentence), row["expected"], reference))
    return ops


def pipeline_pa(sl, text: str, sigma_text: str) -> bool:
    sigma = sl.parse_assignment(sigma_text)
    normal = sl.normalize_bounded(sl.parse_pa(text))
    h = sl.simple_table_heap(sl.max_bound(sigma, normal))
    return sl.check(sigma, h, sl.circle_translate(normal))


def fol_assignments(sl, m, names: list[str]):
    for values in itertools.product(sorted(m.universe), repeat=len(names)):
        yield sl.VarAssignment(dict(zip(names, values)))


def pipeline_fol(sl, fin, structure_text: str, text: str, names: list[str]) -> list[bool]:
    m = fin.parse_structure(structure_text)
    h = sl.encode_structure(m)
    translated = sl.triangle_translate(fin.parse_l(text))
    return [sl.check(s, h, translated) for s in fol_assignments(sl, m, names)]


def build_pipeline(env: Env, rng: random.Random) -> list[Op]:
    """Text in, verdict out: PA formulas through parse, normalize, bound,
    table, translation and check; L formulas over finite structures."""
    sl, fin, orc = env.program.sl, env.program.finite, env.program.oracles
    rows = read_jsonl("pipeline_corpus.jsonl")
    ops = []
    for row in cost_sample([r for r in rows if r["kind"] == "pa"], rng, group=10, top=10):
        def reference(t=row["text"], s=row["sigma"]):
            return orc.naive_pa_eval(sl.parse_assignment(s), sl.parse_pa(t))
        ops.append(Op(f"pa {row['text']} | {row['sigma']}",
                      partial(pipeline_pa, sl, row["text"], row["sigma"]),
                      row["expected"], reference))
    for row in cost_sample([r for r in rows if r["kind"] == "fol"], rng, group=3, top=0):
        def reference(st=row["structure"], t=row["text"], names=row["free"]):
            m, a = fin.parse_structure(st), fin.parse_l(t)
            return [sl.eval_fol(m, s, a) for s in fol_assignments(sl, m, names)]
        ops.append(Op(f"fol {row['text']} | {row['structure']!r}",
                      partial(pipeline_fol, sl, fin, row["structure"], row["text"], row["free"]),
                      row["expected"], reference))
    return ops


WORKLOADS = {
    "table": build_table,
    "search": build_search,
    "decide": build_decide,
    "pipeline": build_pipeline,
}


# ---------------------------------------------------------------------------
# Known defects: probed after the passes, outside the timed metrics, so a
# fix does not register as a slowdown.  `kind` is the documented failure.


@dataclass
class Probe:
    key: str
    workload: str
    kind: str
    run: Callable[[Program], Any]
    expected: Callable[[Program], Any]


def _nested_not_depth(a) -> int:
    depth = 0
    while type(a).__name__ == "Not":
        depth, a = depth + 1, a.body
    return depth


DEFECT_A = "forall x. exists a. (a |-> 0 /\\ x = a) \\/ !(x = x)"
DEFECT_C = ("forall x0. exists x1. forall x2. exists x3. ((x0 = s(x1) \\/ x0 = x2) /\\ "
            "(x1 = s(x2) \\/ x1 = x3) /\\ (x0 = s(x1) \\/ x0 = x2))")
DEFECT_D = "exists (z = 0 * s(s(0))) !(z = 0)"

PROBES = [
    # (a) address_free_rewrite builds a chain as long as the heap; _elim
    # recurses through it.  No x is an address holding 0 in h_4 (cell 1
    # holds 3), so the verdict is false.
    Probe("a", "table", "RecursionError",
          lambda p: p.sl.check(p.sl.VarAssignment(), p.sl.simple_table_heap(4),
                               p.sl.parse_sln(DEFECT_A)),
          lambda p: False),
    # (b) the recursive-descent parser on 3000 nested negations.
    Probe("b", "pipeline", "RecursionError",
          lambda p: _nested_not_depth(p.sl.parse_sln("!" * 3000 + "(0 = 0)")),
          lambda p: 3000),
    # (c) found with the decide workload's generator.
    Probe("c", "decide", "RecursionError",
          lambda p: p.sl.decide_sentence(p.sl.parse_sln(DEFECT_C)),
          lambda p: p.oracles.stable_brute_force(p.sl.VarAssignment(), p.sl.Heap(),
                                                 p.sl.parse_sln(DEFECT_C))),
    # (d) max_bound ignores the operands of a zero product, so h_0 has no
    # multiplication row for 0 * 2 and the lookup is vacuous.
    Probe("d", "pipeline", "wrong",
          lambda p: p.verify.verify_pa2hn(p.sl.parse_pa(DEFECT_D), p.sl.VarAssignment())["sln"],
          lambda p: p.oracles.naive_pa_eval(p.sl.VarAssignment(), p.sl.parse_pa(DEFECT_D))),
]


# ---------------------------------------------------------------------------
# Running


@dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "wrong", "timeout" or an exception class name


def run_op(fn: Callable[[], Any], expected: Any, limit: float = OP_LIMIT_S) -> Outcome:
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        status = "ok" if fn() == expected else "wrong"
    except OpTimeout:
        status = "timeout"
    except Exception as err:  # every exception is a failed op; RecursionError included
        status = type(err).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(time.perf_counter() - start, status)


@dataclass
class PassResult:
    outcomes: list[Outcome]
    pinned: list[Outcome]  # the same ops on the pinned copy; empty if unpaired
    tracer: Tracer | None = None

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def ratio(self) -> float:
        """The program's time over the pinned copy's, on the same ops."""
        return self.seconds / sum(o.seconds for o in self.pinned)


def op_medians(passes: list[PassResult], side: str) -> list[float]:
    """Each op's median time over the passes on one side ("outcomes" or
    "pinned"), so that a burst of load on the host during one op does not
    count."""
    return [statistics.median(ts)
            for ts in zip(*([o.seconds for o in getattr(p, side)] for p in passes))]


def time_figures(op_s: list[float], setup_s: list[float]) -> dict[str, float]:
    """The end-to-end time figures of one side, from its ops' median times
    and its set-up times."""
    return {"run_s": sum(op_s), "verdict_s_p50": percentile(op_s, 50),
            "verdict_s_p90": percentile(op_s, 90), "setup_s": statistics.median(setup_s)}


def run_pass(ops: list[Op], pinned_ops: list[Op] | None = None,
             tracer: Tracer | None = None, turn: int = 0) -> PassResult:
    """Run every op once.  With pinned_ops, each op is paired with the same
    op on the pinned copy, run right before or right after it, so that both
    see the host at the same speed.  Which side goes first alternates from
    op to op, and from pass to pass with `turn`."""
    outcomes: list[Outcome] = []
    pinned: list[Outcome] = []
    for i, op in enumerate(ops):
        pinned_first = (i + turn) % 2
        if pinned_ops and pinned_first:
            pinned.append(run_op(pinned_ops[i].run, pinned_ops[i].expected))
        if tracer is None:
            out = run_op(op.run, op.expected)
        else:
            tracer.op = i
            root = tracer.begin(ROOT_SPAN)
            try:
                out = run_op(op.run, op.expected)
            finally:
                tracer.end(root)
        outcomes.append(out)
        if pinned_ops and not pinned_first:
            pinned.append(run_op(pinned_ops[i].run, pinned_ops[i].expected))
    return PassResult(outcomes, pinned, tracer)


def set_up(build: Callable, seed: int, package: str = "slnkit",
           oracles=None) -> tuple[Env, list[Op], float]:
    """A fresh import of the package and the workload's inputs for the
    seed: the inputs' Env, the ops and the set-up time without reference
    time."""
    start = time.perf_counter()
    env = Env(Program(package, oracles))
    ops = build(env, random.Random(seed))
    return env, ops, time.perf_counter() - start - env.oracle_s


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 4..96), smoothed: the mean of the percentiles
    from q - 3 to q + 3 by statistics.quantiles.  A single order statistic
    moves with the timing jitter of the one or two ops at it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.fmean(statistics.quantiles(values, n=100)[q - 4:q + 3])


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    def inclusive(prefix):
        return sum(s.end - s.start for s in tracer.outermost(prefix))

    def calls(prefix):
        return sum(s.name.startswith(prefix) for s in tracer.spans)

    self_s = tracer.self_times()
    checks = [s for s in tracer.spans if s.name == "checker.check"]
    seen: set[int] = set()
    reused = 0
    for s in checks:
        key = id(s.info["heap"])
        reused += key in seen
        seen.add(key)
    cells = [len(s.info["heap"]) for s in checks]
    decide_s = inclusive("succ.")
    return {
        "checker.check_s": inclusive("checker."),
        "checker.self_s": sum(self_s[i] for i, s in enumerate(tracer.spans)
                              if s.name.startswith("checker.")),
        "checker.calls": len(checks),
        "heap.reused_ratio": reused / len(checks) if checks else 0.0,
        "heap.cells_p50": statistics.median(cells) if cells else 0,
        "heap.cells_max": max(cells, default=0),
        "heap.build_s": inclusive("heap."),
        "succ.decide_s": decide_s,
        "succ.calls": calls("succ."),
        "succ.time_share": decide_s / pass_s,
        "verify.search_s": inclusive("verify."),
        "verify.calls": calls("verify."),
        "parser.parse_s": inclusive("parser."),
        "normalize.normalize_s": inclusive("normalize."),
        "normalize.defs_added": sum(s.info.get("defs_added", 0) for s in tracer.spans),
        "translate.translate_s": inclusive("translate."),
        "translate.out_nodes": sum(s.info.get("out_nodes", 0) for s in tracer.spans),
        "finite.encode_s": inclusive("finite.encode"),
        "finite.translate_s": inclusive("finite.triangle"),
        "bench.op_self_s": sum(self_s[i] for i, s in enumerate(tracer.spans)
                               if s.name == ROOT_SPAN),
    }


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in a section; the
    result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        return {m["name"]: m["unit"] for m in json.load(src)[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    build = WORKLOADS[args.workload]
    traced = bool(args.trace)
    deadline = time.perf_counter() + args.seconds
    setups: list[tuple[float, float]] = []  # (program, pinned copy) per pass
    warm_up: PassResult | None = None
    untraced: list[PassResult] = []
    traced_passes: list[PassResult] = []
    env = pinned_env = None
    ops: list[Op] = []
    pinned_ops: list[Op] = []
    oracle_s = 0.0
    longest = 0.0
    peak_rss_kb = 0
    while True:
        pass_start = time.perf_counter()
        # Drop the previous pass's programs and inputs first, so that one
        # pass's heaps and memos are alive at a time.
        env = pinned_env = None
        ops, pinned_ops = [], []
        gc.enable()
        gc.collect()
        # As timeit does: a collection would fall on whichever op crosses
        # the allocation threshold, the same one in every pass, and tilt
        # its pair.  Garbage is collected between passes.
        gc.disable()
        try:
            env, ops, setup_s = set_up(build, args.seed)
        except ImportError as err:
            print(f"perfbench: cannot import the program under test: {err}", file=sys.stderr)
            return 2
        oracle_s += env.oracle_s
        if warm_up is None:
            # The first pass runs the program alone, before the pinned copy
            # is imported, so that its peak memory is the program's own.  It
            # only warms up: its times are not paired, so they are left out.
            warm_up = run_pass(ops)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            continue
        pinned_env, pinned_ops, pinned_setup_s = set_up(build, args.seed, PINNED,
                                                        env.program.oracles)
        oracle_s += pinned_env.oracle_s
        if [op.name for op in pinned_ops] != [op.name for op in ops]:
            gc.enable()
            print("perfbench: the pinned copy got other inputs than the program",
                  file=sys.stderr)
            return 2
        setups.append((setup_s, pinned_setup_s))
        if traced and len(traced_passes) < len(untraced):
            tracer = Tracer(OBSERVERS)
            tracer.install(env.program.trace_targets(), "slnkit")
            try:
                traced_passes.append(run_pass(ops, pinned_ops, tracer, len(traced_passes)))
            finally:
                tracer.uninstall()
        else:
            untraced.append(run_pass(ops, pinned_ops, turn=len(untraced)))
        longest = max(longest, time.perf_counter() - pass_start)
        if (time.perf_counter() + longest > deadline and untraced
                and (not traced or traced_passes)):
            break
    gc.enable()
    program = env.program

    # References, outside every timed metric.
    env.oracle_s = 0.0
    wrong_refs = 0
    for op in ops:
        if op.reference is not None:
            ref = env.oracle(op.reference)
            if op.expected is not None and ref != op.expected:
                wrong_refs += 1
                print(f"reference mismatch: {op.name}: corpus {op.expected!r}, oracle {ref!r}",
                      file=sys.stderr)

    # Known-defect probes.
    probe_rows = []
    for probe in PROBES:
        if probe.workload != args.workload:
            continue
        expected = env.oracle(probe.expected, program)
        out = run_op(partial(probe.run, program), expected)
        probe_rows.append((probe, out))
        note = {probe.kind: "as documented", "ok": "fixed"}.get(
            out.status, f"documented as {probe.kind}")
        print(f"known defect ({probe.key}): {out.status} in {out.seconds:.3f}s ({note})")
    oracle_s += env.oracle_s

    passes = untraced + traced_passes

    recorded = PINNED_FIGURES[args.workload]
    pinned = time_figures(op_medians(passes, "pinned"), [b for _, b in setups])
    # The pinned copy's recorded pass time over its time here: the host's
    # speed on this seed's inputs, as a share of the recording machine's.
    speed = recorded["run_s"] / pinned["run_s"]
    every_pass = [warm_up] + passes
    outcomes = [o for p in every_pass for o in p.outcomes]
    failures = [o for o in outcomes if o.status != "ok"]
    for p in every_pass:
        for op, o in zip(ops, p.outcomes):
            if o.status != "ok":
                print(f"failed op: {op.name}: {o.status} after {o.seconds:.3f}s", file=sys.stderr)
    pinned_failures = 0
    for p in every_pass:
        for op, o in zip(ops, p.pinned):
            if o.status != "ok":
                pinned_failures += 1
                print(f"failed op on the pinned copy: {op.name}: {o.status}", file=sys.stderr)
    probe_fail = [o for _, o in probe_rows if o.status != "ok"]
    correct = (not failures and not wrong_refs and not pinned_failures
               and all(o.status in ("ok", p.kind) for p, o in probe_rows))

    if traced:
        per_pass = [layer_metrics(p.tracer, p.seconds) for p in traced_passes]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        attempted_all = len(outcomes) + len(probe_rows)
        values.update({
            "bench.oracle_s": oracle_s,
            "bench.ops": len(ops),
            "bench.failed_ratio": (len(failures) + len(probe_fail)) / attempted_all,
            "bench.wrong_verdicts": sum(o.status == "wrong" for o in failures + probe_fail),
            "defects.failed": len(probe_fail),
            "bench.core_speed": speed,
            "trace.overhead_ratio": (statistics.median(p.ratio for p in traced_passes)
                                     / statistics.median(p.ratio for p in untraced)),
        })
        os.makedirs(TRACE_DIR, exist_ok=True)
        traced_passes[0].tracer.dump(
            os.path.join(TRACE_DIR, f"{args.workload}-{args.seed}.jsonl"))
    else:
        # Each figure is the program's over the pinned copy's, on the same
        # ops in the same run, times the pinned copy's recorded figure.
        program_s = op_medians(untraced, "outcomes")
        program = time_figures(program_s, [a for a, _ in setups])
        values = {name: recorded[name] * program[name] / pinned[name] for name in program}
        values["peak_rss_mb"] = peak_rss_kb / 1024
        for seconds, name in sorted(zip(program_s, (op.name for op in ops)))[-5:]:
            print(f"slow op {seconds:.4f}s wall {name[:100]}")
    units = metric_units("per_layer" if traced else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(ops)} ops x {len(every_pass)} passes (1 warm-up), "
          f"{len(failures)} failed, oracle {oracle_s:.3f}s, "
          f"ratios {' '.join(f'{p.ratio:.3f}' for p in passes)}, "
          f"host speed {speed:.3f} of the recording, "
          f"wall pass {statistics.median(p.seconds for p in passes):.3f}s, pinned copy "
          + json.dumps({name: round(v, 7) for name, v in pinned.items()}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
