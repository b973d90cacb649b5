"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Shared expensive artifacts (the generated lemma
instances) are computed once at module scope.
"""

import itertools
import time

from slnkit.ast import (
    And, Eq, Exists, Forall, Not, Or, alpha_eq, free_vars, imp, sln_num,
    svar, SLNTerm,
)
from slnkit.checker import check
from slnkit.finite import decode_heap, encode_structure, eval_fol, l_free_vars, triangle_translate
from slnkit.gen import Generators
from slnkit.heap import Heap, simple_table_heap
from slnkit.normalize import box_translate
from slnkit.parser import parse_pa
from slnkit.semantics import VarAssignment, max_bound
from slnkit.translate import (
    add_formula, circle_translate, ineq_formula, mult_formula,
    table_heap_condition,
)
from slnkit.verify import (
    REPRESENTATION_CASES, SearchLimits, pa2hn_instances,
    verify_hn2forallh, verify_pa2hn, verify_representation,
    verify_sigma01_counterexample,
)

from oracles import scan_violations, stable_brute_force

SIGMA0 = VarAssignment()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 3/4 shared instances ------------------------------------------

_LEMMA_CACHE: dict = {}


def _lemma_results():
    if "reports" not in _LEMMA_CACHE:
        instances = pa2hn_instances(seed=104, count=100)
        reports = [(a, sigma, verify_pa2hn(a, sigma)) for a, sigma in instances]
        _LEMMA_CACHE["reports"] = reports
    return _LEMMA_CACHE["reports"]


def test_criterion_01_table_heap_condition():
    """check(sigma, h_n, H) for n in 0..4, each under 30 seconds."""
    h_formula = table_heap_condition()
    times = []
    ok = True
    for n in range(5):
        start = time.perf_counter()
        verdict = check(SIGMA0, simple_table_heap(n), h_formula)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        ok = ok and verdict and elapsed < 30.0
    detail = "h_0..h_4 satisfy H, times " + ", ".join(f"{t:.2f}s" for t in times)
    _report(1, ok, detail)


def test_criterion_02_table_correctness():
    """Scan agreement on 200 mutations of h_0..h_3, and every corrupted
    addition-result cell of h_3 refutes H."""
    h_formula = table_heap_condition()
    gens = Generators(102)
    tables = [simple_table_heap(n) for n in range(4)]
    scanned = 0
    violations = 0
    for _ in range(200):
        table = gens.rng.choice(tables)
        addr = gens.rng.randrange(len(table))
        mutated = table.mutated(addr, gens.rng.randint(0, table.max_val + 2))
        if check(SIGMA0, mutated, h_formula):
            scanned += 1
            if scan_violations(mutated):
                violations += 1

    h3 = simple_table_heap(3)
    add_rows = (3 * 3 + 1) ** 2
    undetected = 0
    for i in range(add_rows):
        cell = 4 * i + 3
        corrupted = h3.mutated(cell, h3.get(cell) + 1)
        if check(SIGMA0, corrupted, h_formula):
            undetected += 1

    ok = violations == 0 and undetected == 0 and scanned > 0
    _report(2, ok, f"{scanned}/200 mutations still satisfy H with 0 scan "
                   f"violations; {add_rows}/{add_rows - undetected} corrupted "
                   f"result cells refute H")


def test_criterion_03_pa_iff_table_heap():
    """100 generated normal formulas: truth equals the translated check on
    the sized table heap, within 10 minutes."""
    start = time.perf_counter()
    reports = _lemma_results()
    agree = sum(r["agree"] for _, _, r in reports)
    elapsed = time.perf_counter() - start
    ok = agree == 100 and elapsed < 600.0
    _report(3, ok, f"{agree}/100 agreements in {elapsed:.1f}s")


def test_criterion_04_table_heap_implies_all_heaps():
    """Satisfied subset of criterion 3: 50 sampled heaps each, all
    satisfying the translation."""
    satisfied = [(a, sigma, r) for a, sigma, r in _lemma_results()
                 if r["agree"] and r["sln"]]
    total_heaps = 0
    failures = 0
    for a, sigma, r in satisfied:
        samples = max(0, 50 - 2 - r["n"])
        report = verify_hn2forallh(a, sigma, samples=samples, seed=104)
        assert report["precondition"]
        total_heaps += report["heaps"]
        failures += len(report["failures"])
    ok = failures == 0 and len(satisfied) > 0
    _report(4, ok, f"{len(satisfied)} satisfied formulas x ~50 heaps "
                   f"({total_heaps} checks), {failures} failures")


def test_criterion_05_representation_theorem():
    """5 known-valid formulas admit no counterexample within limits; 5
    known-invalid ones yield the directed counterexample."""
    limits = SearchLimits(max_assign_val=4, heap_samples=200,
                          table_sizes=(0, 1, 2, 3, 4), seed=105)
    as_expected = 0
    details = []
    for text, truth, witness in REPRESENTATION_CASES:
        report = verify_representation(parse_pa(text), truth, witness, limits)
        as_expected += report["as_expected"]
        details.append(f"{text!r}:{'ok' if report['as_expected'] else 'FAIL'}")
    ok = as_expected == 10
    _report(5, ok, f"{as_expected}/10 as expected")


def test_criterion_06_sigma01_boundary():
    """exists x (x+0 != x): no standard-model witness up to 50, but the
    full translation holds on the empty heap, h_0..h_3 and 100 samples."""
    report = verify_sigma01_counterexample(samples=100, seed=106,
                                           pa_witness_bound=50)
    ok = report["as_expected"]
    _report(6, ok, f"witnesses {report['pa_witnesses']}, "
                   f"{report['heaps'] - len(report['failures'])}/{report['heaps']} heaps satisfy")


def test_criterion_07_checker_vs_oracle():
    """300 random SLN instances agree with the stability-checked
    brute-force oracle, within 10 minutes."""
    start = time.perf_counter()
    gens = Generators(107)
    agree = 0
    for _ in range(300):
        heap = gens.sparse_heap()
        a = gens.sln_formula(depth=2)
        sigma = gens.assignment(sorted(free_vars(a)), 4)
        if check(sigma, heap, a) == stable_brute_force(sigma, heap, a):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == 300 and elapsed < 600.0
    _report(7, ok, f"{agree}/300 agreements in {elapsed:.1f}s")


def test_criterion_08_succ_decider_vs_oracle():
    """500 random closed successor-arithmetic sentences agree with the
    bounded oracle."""
    from slnkit.succ import decide_sentence

    gens = Generators(108)
    agree = 0
    for _ in range(500):
        a = gens.succ_sentence(depth=3)
        if decide_sentence(a) == stable_brute_force(SIGMA0, Heap(), a):
            agree += 1
    ok = agree == 500
    _report(8, ok, f"{agree}/500 agreements")


def test_criterion_09_finite_model_equivalence():
    """100 random structure/formula pairs: finite satisfaction equals the
    translated check on the encoding heap, for every assignment into the
    universe; plus 100 decode(encode) identities."""
    gens = Generators(109)
    pair_ok = 0
    for _ in range(100):
        m = gens.finite_structure()
        a = gens.l_formula(depth=2)
        h = encode_structure(m)
        translated = triangle_translate(a)
        names = sorted(l_free_vars(a))
        good = True
        for values in itertools.product(sorted(m.universe), repeat=len(names)):
            sigma = VarAssignment(dict(zip(names, values)))
            if eval_fol(m, sigma, a) != check(sigma, h, translated):
                good = False
                break
        pair_ok += good
    roundtrips = 0
    for _ in range(100):
        m = gens.finite_structure()
        if decode_heap(encode_structure(m)) == m:
            roundtrips += 1
    ok = pair_ok == 100 and roundtrips == 100
    _report(9, ok, f"{pair_ok}/100 equivalences, {roundtrips}/100 round trips")


def test_criterion_10_goldens():
    """The worked normal form, its translation, and the size-bound closed
    form reproduce exactly, modulo fresh bound names."""
    source = parse_pa("forall x. forall y <= x + (x + s(x)). 0 <= x + (y * (x + y))")
    boxed = box_translate(source)
    golden_box = parse_pa(
        "forall x. exists (x1 = x + s(x)) exists (x2 = x + x1) forall y <= x2. "
        "exists (x3 = x + y) exists (x4 = y * x3) exists (x5 = x + x4) 0 <= x5")
    box_ok = alpha_eq(boxed, golden_box)

    h = table_heap_condition()
    x, y = svar("x"), svar("y")
    x1, x2, x3, x4, x5 = (svar(n) for n in ("x1", "x2", "x3", "x4", "x5"))
    inner = imp(h, Or(Not(ineq_formula(x5, sln_num(0))), Eq(sln_num(0), x5)))
    inner = imp(h, Exists("x5", And(add_formula(x, x4, x5), inner)))
    inner = imp(h, Exists("x4", And(mult_formula(y, x3, x4), inner)))
    inner = imp(h, Exists("x3", And(add_formula(x, y, x3), inner)))
    inner = imp(h, Forall("y", Or(Not(ineq_formula(y, x2)), inner)))
    inner = imp(h, Exists("x2", And(add_formula(x, x1, x2), inner)))
    golden_circle = imp(h, Exists("x1", And(add_formula(x, SLNTerm("x", 1), x1), inner)))
    circle_ok = alpha_eq(circle_translate(golden_box.body), golden_circle)

    bound_ok = True
    for v in range(4):
        sigma = VarAssignment({"x": v})
        if max_bound(sigma, golden_box.body) != v + (3 * v + 1) * (4 * v + 1):
            bound_ok = False

    ok = box_ok and circle_ok and bound_ok
    _report(10, ok, f"normal-form golden: {box_ok}, translation golden: "
                    f"{circle_ok}, size-bound closed form 0..3: {bound_ok}")
