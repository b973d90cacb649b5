"""Reference-speed clock for ranking corpus rows by cost on a drifting host.

make_corpus.py uses it to store the cost of each search pool seed: on a
shared host the same pure-Python work can take 25 ms in one minute and
37 ms in the next, so a wall time alone would rank seeds by when they were
measured.  A fixed calibration kernel runs around the measured work, and
the wall time is scaled by NOMINAL_S / (kernel time around it).  A scaled
time reads as the wall time the work would take on a core that runs the
kernel in NOMINAL_S.  The kernel is the benchmark's own code and imports
nothing from the program under test.

The kernel mixes the kinds of interpreter work the checker does: dict and
tuple hashing, a memoised pattern-matching walk over frozen dataclass
trees, and a plain arithmetic loop.  Each calibration takes the fastest of
three kernel runs, so one preemption does not count as a slow core.
run.py does not use this clock: it pairs every op with the pinned copy of
the package, which tracks the host's speed more closely than any kernel.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

# Median calibration (fastest of three kernel runs) on an Intel Xeon
# x86-64 core with CPython 3.11.7 at its usual speed.
NOMINAL_S = 0.0031


@dataclass(frozen=True)
class _Num:
    k: int


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return _Num(rng.randint(0, 3)) if rng.random() < 0.5 else _Var(rng.choice("xyz"))
    return _Bin(rng.choice("+*m"), _tree(rng, depth - 1), _tree(rng, depth - 1))


_TREES = [_tree(random.Random(i), 6) for i in range(10)]


def _eval(t, env: dict, memo: dict) -> int:
    """Memoised walk keyed on (node, x), as the checker memoises on
    formula nodes: every lookup hashes a frozen dataclass tree."""
    key = (t, env["x"])
    hit = memo.get(key)
    if hit is not None:
        return hit
    match t:
        case _Num(k):
            value = k
        case _Var(name):
            value = env[name]
        case _Bin("+", left, right):
            value = _eval(left, env, memo) + _eval(right, env, memo)
        case _Bin("*", left, right):
            value = _eval(left, env, memo) * _eval(right, env, memo) % 1009
        case _Bin(_, left, right):
            value = max(_eval(left, env, memo), _eval(right, env, memo))
    memo[key] = value
    return value


def kernel() -> int:
    acc = 0
    table: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13, "k")
        table[key] = table.get(key, 0) + 1
        acc += hash(key) & 7
    for x in range(3):
        memo: dict = {}
        env = {"x": x, "y": 2, "z": 3}
        for t in _TREES:
            acc += _eval(t, env, memo)
    for i in range(8000):
        acc += i * i % 7
    return acc


def calibrate() -> float:
    """Seconds of the fastest of three kernel runs, now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(wall_s: float, before: float, after: float) -> float:
    """wall_s at the reference speed, given the calibrations that bracket it."""
    return wall_s * NOMINAL_S / ((before + after) / 2)
