"""Desk-scale verification drivers: bounded counterexample search over
assignments and heaps, executable forms of the translation lemmas, and the
lemma suites.  `SUITES` maps each suite name to its driver and
`run_suite(lemma, seed, samples)` returns the suite's JSON report.  Each
representation case is translated once per process: the last `_TRANSLATIONS`
formulas keep their box and full translations, text and compiled nodes."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from .ast import Eq, Exists, Forall, Formula, Not, Plus, Var, Zero, free_vars
from .checker import check
from .finite import (
    decode_heap, encode_structure, eval_fol, l_free_vars, triangle_translate,
)
from .gen import Generators
from .heap import Heap, simple_table_heap
from .normalize import box_translate, normalize_bounded
from .parser import parse_pa
from .render import render
from .semantics import VarAssignment, eval_bounded, max_bound, render_assignment
from .transform import is_normal, is_pi01
from .translate import circle_translate


@dataclass(frozen=True)
class SearchLimits:
    max_assign_val: int = 4
    heap_samples: int = 200
    table_sizes: tuple[int, ...] = (0, 1, 2, 3, 4)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_assign_val < 0 or self.heap_samples < 0:
            raise ValueError("max_assign_val and heap_samples must not be negative")


@dataclass(frozen=True)
class Counterexample:
    """A falsifying assignment/heap pair; re-validated on construction."""

    assignment: VarAssignment
    heap: Heap
    formula: Formula
    verdict: bool = False

    def __post_init__(self) -> None:
        if check(self.assignment, self.heap, self.formula) != self.verdict:
            raise ValueError("counterexample does not re-validate")


@lru_cache(maxsize=64)
def _heap_pool(seed: int, count: int, table_sizes: tuple[int, ...]) -> tuple[Heap, ...]:
    """The empty heap, the tables of the given sizes and `count` heaps
    sampled from them, in that order.  Reusing the heap objects across
    drivers lets the checker's per-heap memo amortize over a whole suite."""
    gens = Generators(seed)
    tables = [simple_table_heap(n) for n in table_sizes]
    samples = [gens.heap_sample(tables) for _ in range(count)]
    return (Heap(), *tables, *samples)


def bounded_counterexample_search(a: Formula, limits: SearchLimits = SearchLimits()) -> Counterexample | None:
    """First (assignment, heap) pair falsifying `a` within the limits, or
    None.  Deterministic under the seed: the empty heap and the tables
    first, then sampled heaps; assignments in lexicographic order."""
    heaps = _heap_pool(limits.seed, limits.heap_samples, limits.table_sizes)
    names = sorted(free_vars(a))
    for h in heaps:
        for values in itertools.product(range(limits.max_assign_val + 1), repeat=len(names)):
            sigma = VarAssignment(dict(zip(names, values)))
            if not check(sigma, h, a):
                return Counterexample(sigma, h, a, False)
    return None


# ---------------------------------------------------------------------------
# Lemma drivers


def verify_pa2hn(a: Formula, sigma: VarAssignment) -> dict:
    """Executable equivalence: truth of a normal formula equals truth of
    its translation on the simple table heap sized by max_bound."""
    if not is_normal(a):
        raise ValueError("verify_pa2hn expects a normal formula")
    start = time.perf_counter()
    n = max_bound(sigma, a)
    h = simple_table_heap(n)
    pa_truth = eval_bounded(sigma, a)
    sln_truth = check(sigma, h, circle_translate(a))
    return {
        "n": n,
        "pa": pa_truth,
        "sln": sln_truth,
        "agree": pa_truth == sln_truth,
        "formula": render(a),
        "sigma": render_assignment(sigma),
        "runtime": time.perf_counter() - start,
    }


def verify_hn2forallh(a: Formula, sigma: VarAssignment, samples: int = 50,
                      seed: int = 0) -> dict:
    """Sampled universal: once the translation holds on the sized table
    heap, it holds on every heap.  Any failing heap contradicts the
    underlying lemma and is reported."""
    if not is_normal(a):
        raise ValueError("verify_hn2forallh expects a normal formula")
    start = time.perf_counter()
    n = max_bound(sigma, a)
    translated = circle_translate(a)
    if not check(sigma, simple_table_heap(n), translated):
        return {
            "precondition": False,
            "n": n,
            "formula": render(a),
            "sigma": render_assignment(sigma),
            "runtime": time.perf_counter() - start,
        }
    heaps = _heap_pool(seed, samples, tuple(range(n + 1)))
    failures = []
    for i, h in enumerate(heaps):
        if not check(sigma, h, translated):
            failures.append({"heap_index": i, "heap_cells": len(h)})
    return {
        "precondition": True,
        "n": n,
        "heaps": len(heaps),
        "failures": failures,
        "formula": render(a),
        "sigma": render_assignment(sigma),
        "runtime": time.perf_counter() - start,
    }


_TRANSLATIONS = 32  # the suite's 10 cases, the search workload's 5, and room


@lru_cache(maxsize=_TRANSLATIONS)
def _translation(a: Formula) -> tuple[Forall, Formula, str]:
    """box_translate(a), its circle translation (whose body translates the
    boxed body: outer universals stay) and render(a)."""
    boxed = box_translate(a)
    return boxed, circle_translate(boxed), render(a)


def verify_representation(a: Formula, truth: str, witness: int | None = None,
                          limits: SearchLimits = SearchLimits()) -> dict:
    """Desk-scale check of the representation property for one closed
    universal formula: a valid input admits no counterexample to its full
    translation within limits; an invalid input with witness k yields a
    directed counterexample on the table heap sized at k."""
    if not is_pi01(a):
        raise ValueError("verify_representation expects forall x B with B bounded")
    start = time.perf_counter()
    boxed, translated, text = _translation(a)
    if truth == "valid":
        found = bounded_counterexample_search(translated, limits)
        return {
            "truth": "valid",
            "as_expected": found is None,
            "counterexample": None if found is None else {
                "sigma": render_assignment(found.assignment),
                "heap_cells": len(found.heap),
            },
            "formula": text,
            "runtime": time.perf_counter() - start,
        }
    if truth != "invalid" or witness is None:
        raise ValueError("truth must be 'valid' or 'invalid' with a witness")
    body = boxed.body
    sigma = VarAssignment({boxed.var: witness})
    n = max_bound(sigma, body)
    refuted = not check(sigma, simple_table_heap(n), translated.body)
    return {
        "truth": "invalid",
        "witness": witness,
        "n": n,
        "as_expected": refuted,
        "formula": text,
        "runtime": time.perf_counter() - start,
    }


@lru_cache(maxsize=1)
def _sigma01_sentence() -> tuple[Formula, Formula, str]:
    """x+0 != x, the full translation of exists x of it, and that text."""
    body = Not(Eq(Plus(Var("x"), Zero()), Var("x")))
    translated = Exists("x", circle_translate(normalize_bounded(body)))
    return body, translated, render(translated)


PA_WITNESS_BOUND = 50  # the largest x the standard model is searched at


def verify_sigma01_counterexample(samples: int = 100, seed: int = 0) -> dict:
    """The boundary example: exists x (x+0 != x) has no witness in the
    standard model, yet its full translation holds on every sampled heap."""
    start = time.perf_counter()
    body, translated, text = _sigma01_sentence()
    witnesses = [k for k in range(PA_WITNESS_BOUND + 1)
                 if eval_bounded(VarAssignment({"x": k}), body)]
    heaps = _heap_pool(seed, samples, (0, 1, 2, 3))
    sigma = VarAssignment()
    failures = [i for i, h in enumerate(heaps) if not check(sigma, h, translated)]
    return {
        "pa_witnesses": witnesses,
        "heaps": len(heaps),
        "failures": failures,
        "as_expected": not witnesses and not failures,
        "formula": text,
        "runtime": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# Suites.  Each maps (seed, samples) to (instances, agreements, failures);
# run_suite wraps that triple in the report the CLI prints.


def pa2hn_instances(seed: int, count: int):
    """Deterministic (normal formula, assignment) pairs."""
    gens = Generators(seed)
    out = []
    for _ in range(count):
        a = gens.pa_normal()
        sigma = gens.assignment(sorted(free_vars(a)))
        out.append((a, sigma))
    return out


def _pa2hn(seed: int, samples: int):
    reports = [verify_pa2hn(a, sigma) for a, sigma in pa2hn_instances(seed, samples)]
    failures = [r for r in reports if not r["agree"]]
    return len(reports), len(reports) - len(failures), failures


def _hn2forallh(seed: int, samples: int):
    reports = [verify_hn2forallh(a, sigma, seed=seed)
               for a, sigma in pa2hn_instances(seed, samples)]
    checked = [r for r in reports if r["precondition"]]  # the others are vacuous
    failures = [r for r in checked if r["failures"]]
    return len(checked), len(checked) - len(failures), failures


REPRESENTATION_CASES: list[tuple[str, str, int | None]] = [
    ("forall x. 0 <= x", "valid", None),
    ("forall x. forall y <= x. y <= x", "valid", None),
    ("forall x. x <= x", "valid", None),
    ("forall x. x <= x + s(0)", "valid", None),
    ("forall x. exists y <= x. x <= y", "valid", None),
    ("forall x. x + x <= x", "invalid", 1),
    ("forall x. x <= 0", "invalid", 1),
    ("forall x. x = x + s(0)", "invalid", 0),
    ("forall x. forall y <= x. x <= y", "invalid", 1),
    ("forall x. x * x = x", "invalid", 2),
]


def _representation(seed: int, samples: int):
    """The fixed cases above; `samples` does not size this suite."""
    limits = SearchLimits(seed=seed)
    reports = [verify_representation(parse_pa(text), truth, witness, limits)
               for text, truth, witness in REPRESENTATION_CASES]
    failures = [r for r in reports if not r["as_expected"]]
    return len(reports), len(reports) - len(failures), failures


def _sigma01(seed: int, samples: int):
    report = verify_sigma01_counterexample(samples=samples, seed=seed)
    instances = report["heaps"] + 1
    if report["as_expected"]:
        return instances, instances, []
    return instances, 0, [report]


def _fol(seed: int, samples: int):
    """Finite-model equivalence plus the decode-encode round trip."""
    gens = Generators(seed)
    instances = agreements = 0
    failures = []
    for _ in range(samples):
        m = gens.finite_structure()
        a = gens.l_formula()
        h = encode_structure(m)
        if decode_heap(h) != m:
            failures.append({"kind": "roundtrip", "structure": repr(m)})
            continue
        instances += 1
        translated = triangle_translate(a)
        names = sorted(l_free_vars(a))
        for values in itertools.product(sorted(m.universe), repeat=len(names)):
            sigma = VarAssignment(dict(zip(names, values)))
            if eval_fol(m, sigma, a) != check(sigma, h, translated):
                failures.append({"kind": "equivalence", "structure": repr(m),
                                 "sigma": render_assignment(sigma)})
                break
        else:
            agreements += 1
    return instances, agreements, failures


SUITES = {
    "pa2hn": _pa2hn,
    "hn2forallh": _hn2forallh,
    "representation": _representation,
    "sigma01": _sigma01,
    "fol": _fol,
}


def run_suite(lemma: str, seed: int = 0, samples: int = 100) -> dict:
    """The JSON report of one suite; runtime is wall time in seconds."""
    if samples < 0:
        raise ValueError("samples must not be negative")
    start = time.perf_counter()
    instances, agreements, failures = SUITES[lemma](seed, samples)
    return {
        "lemma": lemma,
        "instances": instances,
        "agreements": agreements,
        "failures": failures,
        "seed": seed,
        "runtime": time.perf_counter() - start,
    }
