import pytest

import slnkit.verify as verify
from slnkit.ast import Eq, Exists, Not, Plus, Var, Zero
from slnkit.gen import Generators
from slnkit.heap import Heap, simple_table_heap
from slnkit.normalize import box_translate, normalize_bounded
from slnkit.parser import parse_pa, parse_sln
from slnkit.render import render
from slnkit.semantics import VarAssignment
from slnkit.translate import circle_translate
from slnkit.verify import (
    REPRESENTATION_CASES, Counterexample, SearchLimits, bounded_counterexample_search,
    verify_hn2forallh, verify_pa2hn, verify_representation,
    verify_sigma01_counterexample,
)

from shallow import shallow

FAST_LIMITS = SearchLimits(max_assign_val=2, heap_samples=25, table_sizes=(0, 1, 2), seed=5)


def test_counterexample_revalidates():
    f = parse_sln("0 |-> 0")
    Counterexample(VarAssignment(), Heap(), f, False)  # fine: empty heap refutes
    with pytest.raises(ValueError):
        Counterexample(VarAssignment(), Heap({0: 0}), f, False)


def test_search_trivial_formula_has_no_counterexample():
    assert bounded_counterexample_search(parse_sln("0 = 0"), FAST_LIMITS) is None


def test_search_finds_falsifying_pair():
    found = bounded_counterexample_search(parse_sln("exists a (a |-> 0)"), FAST_LIMITS)
    assert found is not None
    assert len(found.heap) == 0  # the empty heap comes first


def test_search_finds_table_counterexample_for_invalid_translation():
    """The translation of forall x (x <= 0) fails on the first table heap
    carrying an inequality row for (0, 1)."""
    from slnkit.normalize import box_translate
    from slnkit.translate import circle_translate

    a = circle_translate(box_translate(parse_pa("forall x. x <= 0")))
    found = bounded_counterexample_search(a, FAST_LIMITS)
    assert found is not None
    assert found.heap == simple_table_heap(1)


def test_search_is_deterministic():
    f = parse_sln("x = s(y)")
    a = bounded_counterexample_search(f, FAST_LIMITS)
    b = bounded_counterexample_search(f, FAST_LIMITS)
    assert a is not None and b is not None
    assert a.assignment == b.assignment and a.heap == b.heap


def test_verify_pa2hn_known_cases():
    worked_body = parse_pa(
        "exists (x1 = x + s(x)) exists (x2 = x + x1) forall y <= x2. "
        "exists (x3 = x + y) exists (x4 = y * x3) exists (x5 = x + x4) 0 <= x5")
    report = verify_pa2hn(worked_body, VarAssignment({"x": 0}))
    assert report["agree"] and report["pa"] and report["n"] == 1

    leq0 = parse_pa("x <= 0")
    report = verify_pa2hn(leq0, VarAssignment({"x": 1}))
    assert report["agree"] and not report["pa"] and report["n"] == 1

    trivial = parse_pa("0 = 0")
    report = verify_pa2hn(trivial, VarAssignment())
    assert report["agree"] and report["pa"] and report["n"] == 0


def test_verify_pa2hn_zero_product():
    """The table must hold the row for 0 * 2, so its size covers the
    operand 2 even though the product is 0."""
    report = verify_pa2hn(parse_pa("exists (z = 0 * s(s(0))) !(z = 0)"), VarAssignment())
    assert report["agree"] and not report["pa"] and report["n"] == 2


def test_verify_pa2hn_long_conjunction():
    """max_bound and eval_bounded read a normalized 3000-term conjunction
    without a frame per conjunct."""
    a = normalize_bounded(parse_pa(" /\\ ".join(f"x{k} <= s(x{k})" for k in range(3000))))
    report = shallow(verify_pa2hn, a, VarAssignment({"x1": 1}))
    assert (report["n"], report["pa"], report["agree"]) == (2, True, True)


def test_verify_hn2forallh():
    report = verify_hn2forallh(parse_pa("0 = 0"), VarAssignment(), samples=10)
    assert report["precondition"] and not report["failures"]
    # unsatisfied side: precondition reported, not raised
    report = verify_hn2forallh(parse_pa("x <= 0"), VarAssignment({"x": 1}), samples=5)
    assert report["precondition"] is False


def test_verify_representation_valid_and_invalid():
    valid = verify_representation(parse_pa("forall x. x <= x"), "valid", limits=FAST_LIMITS)
    assert valid["as_expected"]
    invalid = verify_representation(parse_pa("forall x. x + x <= x"), "invalid", 1,
                                    limits=FAST_LIMITS)
    assert invalid["as_expected"] and invalid["n"] == 2
    with pytest.raises(ValueError):
        verify_representation(parse_pa("exists x. x = 0"), "valid")


def _without_runtime(report):
    return {k: v for k, v in report.items() if k != "runtime"}


def test_cached_translation_gives_the_uncached_reports():
    """Each case, parsed afresh twice, reports what it reports with the
    translation cache cleared, in both branches."""
    for seed in (0, 3):
        limits = SearchLimits(seed=seed)
        for text, truth, witness in REPRESENTATION_CASES:
            verify._translation.cache_clear()
            cold = verify_representation(parse_pa(text), truth, witness, limits)
            for _ in range(2):
                warm = verify_representation(parse_pa(text), truth, witness, limits)
                assert _without_runtime(warm) == _without_runtime(cold), text
                assert warm["as_expected"] and warm["formula"] == render(parse_pa(text))


def test_each_case_is_translated_once(monkeypatch):
    calls = {"box": 0, "circle": 0}

    def counting(name, fn):
        def wrapper(a):
            calls[name] += 1
            return fn(a)
        return wrapper

    monkeypatch.setattr(verify, "box_translate", counting("box", box_translate))
    monkeypatch.setattr(verify, "circle_translate", counting("circle", circle_translate))
    verify._translation.cache_clear()
    try:
        for seed in (0, 1, 2):
            report = verify.run_suite("representation", seed, 0)
            assert report["agreements"] == report["instances"] == len(REPRESENTATION_CASES)
    finally:
        verify._translation.cache_clear()  # drop the entries built by the wrappers
    assert calls == {"box": len(REPRESENTATION_CASES), "circle": len(REPRESENTATION_CASES)}


def test_circle_translation_keeps_the_outer_universal():
    """The invalid branch checks the body of the cached full translation in
    place of translating the boxed body again."""
    for text, _, _ in REPRESENTATION_CASES:
        boxed = box_translate(parse_pa(text))
        assert circle_translate(boxed).body == circle_translate(boxed.body)


def test_non_pi01_input_raises_on_every_call():
    a = parse_pa("exists x. x = 0")
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            verify_representation(a, "valid")
        messages.add(str(err.value))
    assert messages == {"verify_representation expects forall x B with B bounded"}


def test_sigma01_driver_small():
    report = verify_sigma01_counterexample(samples=20, seed=2)
    assert report["as_expected"]
    assert report["pa_witnesses"] == []


def test_sigma01_sentence_is_built_once():
    first = verify_sigma01_counterexample(samples=3, seed=0)
    second = verify_sigma01_counterexample(samples=5, seed=1)
    x = Var("x")
    fresh = Exists("x", circle_translate(normalize_bounded(Not(Eq(Plus(x, Zero()), x)))))
    assert first["formula"] == second["formula"] == render(fresh)


def test_generator_determinism():
    a = [Generators(9).pa_normal() for _ in range(5)]
    b = [Generators(9).pa_normal() for _ in range(5)]
    assert a == b
    ha = [Generators(9).sparse_heap() for _ in range(5)]
    hb = [Generators(9).sparse_heap() for _ in range(5)]
    assert ha == hb
