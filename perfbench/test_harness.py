"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q     # from the repository root

Checks that the harness counts what it claims to count: a flipped verdict
is wrong, a timeout and a RecursionError are failures, the tracer's self
times add up to the op time, and the pinned copy is unchanged and runs
the same ops.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys

import pytest

import run
from tracer import ROOT_SPAN, Tracer


@pytest.fixture(scope="module")
def program():
    return run.Program()


@pytest.fixture(autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_flipped_verdict_counts_as_wrong(program):
    ops = run.build_table(run.Env(program), random.Random(0))
    intact = ops[0]
    assert run.run_op(intact.run, intact.expected).status == "ok"
    assert run.run_op(intact.run, not intact.expected).status == "wrong"


def test_timeout_counts_as_failed():
    def spin():
        while True:
            pass

    out = run.run_op(spin, True, limit=0.05)
    assert out.status == "timeout"
    assert 0.05 <= out.seconds < 1.0


def test_recursion_error_counts_as_failed(program):
    probe = next(p for p in run.PROBES if p.key == "b")
    out = run.run_op(lambda: probe.run(program), 3000)
    assert out.status == "RecursionError"

    def dive(n):
        return dive(n + 1)

    assert run.run_op(lambda: dive(0), 0).status == "RecursionError"


def test_self_times_sum_to_op_time(program):
    ops = run.build_pipeline(run.Env(program), random.Random(0))
    tracer = Tracer(run.OBSERVERS)
    tracer.install(program.trace_targets(), "slnkit")
    try:
        result = run.run_pass(ops[:20], tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(o.status == "ok" for o in result.outcomes)
    self_s = tracer.self_times()
    for op_id in range(20):
        members = [i for i, s in enumerate(tracer.spans) if s.op == op_id]
        root = [tracer.spans[i] for i in members if tracer.spans[i].name == ROOT_SPAN]
        assert len(root) == 1 and len(members) > 1
        total = sum(self_s[i] for i in members)
        assert total == pytest.approx(root[0].end - root[0].start, abs=1e-9)
        assert min(self_s[i] for i in members) >= 0


def test_pinned_copy_gets_the_same_inputs_and_pairs_every_op(program):
    ops = run.build_table(run.Env(program), random.Random(5))
    pinned_env, pinned_ops, _ = run.set_up(run.build_table, 5, run.PINNED, program.oracles)
    assert pinned_env.program.sl.__name__ == run.PINNED
    assert [op.name for op in pinned_ops] == [op.name for op in ops]
    result = run.run_pass(ops[:30], pinned_ops[:30])
    assert len(result.pinned) == len(result.outcomes) == 30
    assert all(o.status == "ok" for o in result.outcomes + result.pinned)
    pinned_s = sum(o.seconds for o in result.pinned)
    assert result.ratio == pytest.approx(result.seconds / pinned_s)


# Every end-to-end time is relative to the pinned copy; re-pinning it means
# re-recording the baseline (see README.md).
PINNED_SHA256 = "dbca5ed9d9ae03cdc027151bfc5f1f445f970c2a3f375d4380580138364db958"


def test_pinned_copy_is_unchanged():
    digest = hashlib.sha256()
    folder = os.path.join(run.HERE, run.PINNED)
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as src:
                digest.update(name.encode())
                digest.update(src.read())
    assert digest.hexdigest() == PINNED_SHA256


def test_decider_inside_check_is_attributed_to_succ(program):
    sl = program.sl
    # x does not occur in a points-to atom, so check hands the quantifier
    # to the successor-arithmetic decider through checker's own binding.
    formula = sl.parse_sln("exists x. !(x = 0)")
    tracer = Tracer(run.OBSERVERS)
    tracer.install(program.trace_targets(), "slnkit")
    try:
        assert run._check(sl, sl.VarAssignment(), sl.Heap(), formula)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["checker.check", "succ.decide_sentence"]
    assert tracer.spans[1].parent == 0
    assert not hasattr(sl.check, "__wrapped__")  # uninstalled


def test_main_prints_result_line(program, capsys):
    assert run.main(["--workload", "decide", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"run_s", "verdict_s_p50", "verdict_s_p90",
                                      "setup_s", "peak_rss_mb"}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
