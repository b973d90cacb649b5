"""Model checker tests: the worked examples, the syntactic rewrites, and
differential comparison against the brute-force oracle."""

import random
import time
from functools import reduce

import pytest

from slnkit import checker
from slnkit.ast import (
    And, Eq, Exists, Forall, GExists, GForall, Not, Or, PointsTo, SLNTerm,
    TruthConst, and_all, free_vars, nest, sln_num, subformulas, svar,
)
from slnkit.checker import (
    address_free_rewrite, check, ground_points_to_eval, value_free_rewrite,
)
from slnkit.cli import main
from slnkit.gen import Generators
from slnkit.heap import Heap, save_heap, simple_table_heap
from slnkit.normalize import normalize_bounded
from slnkit.parser import parse_pa, parse_sln
from slnkit.semantics import VarAssignment
from slnkit.succ import BudgetExceeded
from slnkit.translate import add_formula, circle_translate, table_heap_condition

from oracles import brute_force_sln, scan_violations, sln_bound, stable_brute_force
from shallow import shallow

SIGMA = VarAssignment()


def test_worked_examples():
    f = parse_sln("forall x (x |-> s(y) \\/ x = s(z))")
    assert not check(VarAssignment({"y": 1, "z": 2}), simple_table_heap(1), f)
    assert not check(SIGMA, Heap(), parse_sln("a |-> 0"))
    assert check(SIGMA, simple_table_heap(2), table_heap_condition())


def test_check_is_total_on_plain_equalities():
    assert check(SIGMA, Heap(), parse_sln("forall x. exists y. y = s(x)"))
    assert not check(SIGMA, Heap(), parse_sln("exists y. forall x. y = s(x)"))


# w is pinned by !(w = 3), and at w = 3 the equation s(w) = s(x) pins x.
PINNED_TEXT = ("forall w. !(w = s(s(s(0)))) \\/ exists x. forall a. "
               "(!(a |-> 0 /\\ s(a) |-> s(0)) \\/ s(s(a)) |-> x) /\\ s(w) = s(x)")
# No equation pins w here, and w is in no points-to atom.
BUDGET_TEXT = ("forall w. (!(w = s(s(s(0)))) /\\ !(w = s(s(s(s(0)))))) \\/ exists x. forall a. "
               "(!(a |-> 0 /\\ s(a) |-> s(0)) \\/ s(s(a)) |-> x) /\\ s(w) = s(x)")


def test_check_ends_in_a_verdict_or_budget_exceeded(tmp_path, capsys, monkeypatch):
    """check is total up to the decider's budget.  The first formula is
    decided by its pins, True as the oracle has it, with no call to the
    decider, and the CLI exits 0.  In the second, w goes to the decider as
    a residual that joins one disjunct per value of x's block, since x's
    pin has w unbound there, and deciding it multiplies out past MAX_CUBES:
    check must end quickly, with the oracle's verdict or with
    BudgetExceeded, and the CLI must exit to match."""
    heap = Heap({0: 7, 2: 3, 4: 3, 5: 0})
    heap_file = tmp_path / "budget.heap"
    heap_file.write_text(save_heap(heap) + "\n")
    decided, decide = [], checker.decide_sentence
    monkeypatch.setattr(checker, "decide_sentence", lambda s: decided.append(s) or decide(s))
    a = parse_sln(PINNED_TEXT)
    assert check(SIGMA, heap, a) is stable_brute_force(SIGMA, heap, a) is True
    assert decided == []
    assert main(["check", "--heap", str(heap_file), PINNED_TEXT]) == 0
    a = parse_sln(BUDGET_TEXT)
    start = time.perf_counter()
    try:
        verdict = check(SIGMA, heap, a)
    except BudgetExceeded:
        verdict = None
    assert time.perf_counter() - start < 5
    assert verdict in (None, stable_brute_force(SIGMA, heap, a))
    capsys.readouterr()
    code = main(["check", "--heap", str(heap_file), BUDGET_TEXT])
    assert code == {None: 2, True: 0, False: 1}[verdict]
    if verdict is None:
        assert capsys.readouterr().err.startswith("error: budget exceeded")


def test_address_free_rewrite_shape():
    h = Heap({0: 2, 1: 5})
    f = parse_sln("forall x (x |-> s(y) \\/ x = s(z))")
    out = address_free_rewrite(f, h.max_addr)
    # (0 |-> s(y) \/ 0 = s(z)) /\ (1 |-> s(y) \/ 1 = s(z)) /\ forall x >= 2 (x = s(z))
    y1, z1 = SLNTerm("y", 1), SLNTerm("z", 1)
    assert out == And(Or(PointsTo(sln_num(0), y1), Eq(sln_num(0), z1)),
                      And(Or(PointsTo(sln_num(1), y1), Eq(sln_num(1), z1)),
                          GForall("x", 2, Eq(svar("x"), z1))))


def test_address_free_rewrite_empty_heap():
    out = address_free_rewrite(parse_sln("exists x (x |-> 0)"), -1)
    # the replacement makes the body false and the guarded node folds away
    assert out == TruthConst(False)


def test_address_free_rewrite_no_address_atoms():
    f = parse_sln("exists x (x = s(y))")
    out = address_free_rewrite(f, 1)
    assert out == Or(Eq(sln_num(0), SLNTerm("y", 1)),
                     Or(Eq(sln_num(1), SLNTerm("y", 1)),
                        GExists("x", 2, Eq(svar("x"), SLNTerm("y", 1)))))


def test_address_free_rewrite_keeps_a_rebinding_quantifier():
    """An inner quantifier that rebinds the split variable is kept as it is
    in the tail: its atoms are about its own x."""
    f = parse_sln("exists x (x |-> 0 \\/ forall x (x |-> s(0)))")
    inner = Forall("x", PointsTo(svar("x"), sln_num(1)))
    out = address_free_rewrite(f, 0)
    assert out == Or(Or(PointsTo(sln_num(0), sln_num(0)), inner), GExists("x", 1, inner))
    for h in (Heap({0: 0}), Heap({0: 1}), Heap({0: 2})):
        assert check(SIGMA, h, out) == check(SIGMA, h, f) == stable_brute_force(SIGMA, h, f)


def test_check_truth_constant():
    for h in (Heap(), Heap({0: 1})):
        assert check(SIGMA, h, TruthConst(True)) is True
        assert check(SIGMA, h, TruthConst(False)) is False


def test_value_free_rewrite_shape():
    f = parse_sln("exists x (a |-> x)")
    out = value_free_rewrite(f, 1)
    assert out == Or(PointsTo(svar("a"), sln_num(0)),
                     Or(PointsTo(svar("a"), sln_num(1)),
                        TruthConst(False)))


def test_rewrites_preserve_truth_differentially():
    gens = Generators(51)
    for _ in range(150):
        heap = gens.sparse_heap()
        a = gens.sln_formula(depth=2)
        sigma = gens.assignment(sorted(free_vars(a)), 4)
        if not isinstance(a, (Exists, Forall, GExists, GForall)):
            a = Exists("w", a) if gens.rng.random() < 0.5 else Forall("w", a)
        bound = sln_bound(sigma, heap, a)
        before = brute_force_sln(sigma, heap, a, bound)
        for rewritten in (address_free_rewrite(a, heap.max_addr),
                          value_free_rewrite(a, heap.max_val)):
            after = brute_force_sln(sigma, heap, rewritten,
                                    max(bound, sln_bound(sigma, heap, rewritten)))
            assert before == after


def test_ground_points_to_eval():
    h = Heap({0: 3})
    assert ground_points_to_eval(h, parse_sln("0 |-> s(s(s(0)))")) == TruthConst(True)
    assert ground_points_to_eval(h, parse_sln("s(0) |-> 0")) == TruthConst(False)
    with pytest.raises(ValueError):
        ground_points_to_eval(h, parse_sln("x |-> 0"))


def test_ground_points_to_after_rewrite():
    """After grounding and the address split, the enumerated atom for an
    address whose cell holds sigma(y)+1 evaluates to true."""
    sigma = VarAssignment({"y": 4, "z": 0})
    h = Heap({0: 9, 2: 5})  # h(2) = sigma(y) + 1
    f = parse_sln("forall x (x |-> s(y) \\/ x = s(z))")
    grounded = parse_sln("forall x (x |-> s(s(s(s(s(0))))) \\/ x = s(0))")
    rewritten = address_free_rewrite(grounded, h.max_addr)
    out = ground_points_to_eval(h, rewritten)
    # the conjunct for address 2 held (h(2) = 5) and folded away; addresses
    # 0 and 1 fall back to their equality disjuncts; the guarded tail stays
    assert out == And(Eq(sln_num(0), sln_num(1)),
                      And(Eq(sln_num(1), sln_num(1)),
                          GForall("x", 3, Eq(svar("x"), sln_num(1)))))
    # the residual is successor arithmetic; the full pipeline stays correct
    assert check(sigma, h, f) == stable_brute_force(sigma, h, f) is False


def test_check_against_oracle():
    gens = Generators(52)
    for _ in range(150):
        heap = gens.heap_sample([simple_table_heap(1)])
        a = gens.sln_formula(depth=2)
        sigma = gens.assignment(sorted(free_vars(a)), 4)
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a)


def test_check_guarded_inputs_against_oracle():
    gens = Generators(53)
    for _ in range(100):
        heap = gens.sparse_heap()
        body = gens.sln_formula(depth=1, scope=["x", "y"])
        a = GForall("x", gens.rng.randint(0, 3), body)
        sigma = gens.assignment(["y"], 4)
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a)


def test_shadowed_binders():
    f = parse_sln("exists x (x |-> 0 /\\ forall x (x = x))")
    g = parse_sln("forall x. exists x (x |-> s(0))")
    h = Heap({3: 0, 4: 1})
    for formula in (f, g):
        assert check(SIGMA, h, formula) == stable_brute_force(SIGMA, h, formula)
        assert check(SIGMA, Heap(), formula) == stable_brute_force(SIGMA, Heap(), formula)


def test_memo_is_per_heap():
    h1, h2 = Heap({0: 1}), Heap({0: 2})
    f = parse_sln("exists x (x |-> s(0))")
    assert check(SIGMA, h1, f)
    assert not check(SIGMA, h2, f)
    assert check(SIGMA, h1, f)
    # a verdict is cached on the heap it was reached on, and only there
    g = parse_sln("forall y. exists x. (x |-> y \\/ y = s(s(0)))")
    before = dict(h1.memo)
    assert not check(SIGMA, h2, g)
    assert h1.memo == before
    assert not check(SIGMA, h1, g)
    assert len(h1.memo) > len(before)
    assert check(SIGMA, h1, f) and not check(SIGMA, h2, f)


def test_memo_is_keyed_on_shape():
    """Two formulas sharing a structurally equal subformula, parsed apart,
    share its memo entries on one heap; a pinned quantifier adds none."""
    h = Heap({0: 2, 1: 0, 2: 3, 4: 0, 5: 1})
    shared = "forall b. exists c. (b |-> c => c |-> b \\/ s(c) |-> b)"
    f = parse_sln(f"exists a. (a |-> 0 /\\ {shared})")
    g = parse_sln(f"{shared} \\/ forall a. !(a |-> s(s(s(s(0)))))")
    assert check(SIGMA, h, f) == stable_brute_force(SIGMA, h, f)
    entries = len(h.memo)
    assert check(SIGMA, h, parse_sln(shared)) == stable_brute_force(SIGMA, h, parse_sln(shared))
    assert len(h.memo) == entries
    assert check(SIGMA, h, g) == stable_brute_force(SIGMA, h, g)
    # a closed pinned quantifier is one heap read, and is not memoized
    pinned = parse_sln("exists c. (0 |-> c /\\ !(c |-> c))")
    entries = len(h.memo)
    assert check(SIGMA, h, pinned) is stable_brute_force(SIGMA, h, pinned) is True
    assert len(h.memo) == entries


def _term(rng, scope):
    if scope and rng.random() < 0.7:
        return SLNTerm(rng.choice(scope), rng.randint(0, 2))
    return sln_num(rng.randint(0, 4))


def _anchored(rng, scope, depth):
    """A quantifier whose body needs a points-to conjunct on its variable,
    as address (x+i |-> t) or value (t |-> x+i), under a negation for
    forall, optionally under a nested quantifier, a guard or a binder that
    shadows an outer one."""
    x = rng.choice(["a", "b", "y", "x"])
    if rng.random() < 0.5:
        atom = PointsTo(SLNTerm(x, rng.randint(0, 2)), _term(rng, scope))
    else:
        atom = PointsTo(_term(rng, scope), SLNTerm(x, rng.randint(0, 2)))
    rest = _random_formula(rng, scope + [x], depth - 1)
    exists = rng.random() < 0.5
    body = And(atom, rest) if exists else Or(Not(atom), rest)
    if rng.random() < 0.4:
        y = rng.choice(["a", "b", "z"])
        same_kind = rng.random() < 0.7
        body = (Exists if exists == same_kind else Forall)(y, body)
    if rng.random() < 0.3:
        guard = rng.randint(0, 3)
        return GExists(x, guard, body) if exists else GForall(x, guard, body)
    return Exists(x, body) if exists else Forall(x, body)


def _random_formula(rng, scope, depth):
    if depth <= 0:
        l, r = _term(rng, scope), _term(rng, scope)
        return PointsTo(l, r) if rng.random() < 0.6 else Eq(l, r)
    roll = rng.random()
    if roll < 0.35:
        return _anchored(rng, scope, depth)
    if roll < 0.5:
        return Not(_random_formula(rng, scope, depth - 1))
    if roll < 0.8:
        op = And if roll < 0.65 else Or
        return op(_random_formula(rng, scope, depth - 1), _random_formula(rng, scope, depth - 1))
    x = rng.choice(["a", "b", "y", "z"])
    return rng.choice([Exists, Forall])(x, _random_formula(rng, scope + [x], depth - 1))


def test_anchored_enumeration_against_oracle():
    rng = random.Random(54)
    for _ in range(400):
        a = _random_formula(rng, ["x"] if rng.random() < 0.5 else [], rng.randint(1, 3))
        heap = Heap({rng.randint(0, 7): rng.randint(0, 4) for _ in range(rng.randint(0, 6))})
        sigma = VarAssignment({v: rng.randint(0, 4) for v in free_vars(a)})
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a), a


@pytest.mark.parametrize("text", [
    # address anchors, on the quantifier itself and under a nested one
    "exists a. (s(a) |-> s(s(0)) /\\ a |-> 0)",
    "forall a. forall y. (a |-> 0 /\\ s(a) |-> y => s(s(a)) |-> s(y))",
    "forall a. exists y. !(a |-> 0) \\/ s(a) |-> y /\\ !(y = 0)",
    # value anchors
    "forall y. (s(0) |-> s(y) => exists a. a |-> y)",
    "exists y. (0 |-> y /\\ !(y = s(s(0))))",
    # guarded, shadowed, and the residual path over an anchored inner block
    "exists a >= 2. (a |-> 0 /\\ forall a. (a |-> 0 => a = a))",
    "forall x. exists a. (a |-> 0 /\\ x = s(a)) \\/ x = 0",
    "forall x >= 1. exists a. (a |-> x \\/ s(a) |-> x) \\/ !(x = s(0))",
    # an anchor's or a pin's atom again under a binder of x or of its t: it
    # holds at the value it chose only where both mean what they mean there
    "exists a. (a |-> 0 /\\ exists a. (s(a) |-> s(s(s(0))) /\\ !(a |-> 0)))",
    "exists y. (0 |-> y /\\ exists a. (a |-> y /\\ exists y. (s(0) |-> y /\\ !(a |-> y))))",
    "forall a. (!(a |-> 0) \\/ forall a. (!(a |-> 0) \\/ s(a) |-> s(0)))",
    "forall y. (!(0 |-> y) \\/ forall a. (!(a |-> y) \\/ exists y. (s(0) |-> y /\\ a |-> y)))",
    "exists y. (0 |-> y /\\ forall y. (0 |-> y => y = s(s(0))))",
    "exists w. (s(0) |-> w /\\ exists y. (y = w /\\ exists w. (0 |-> w /\\ !(y = w))))",
    "forall y. (!(0 |-> y) \\/ exists y. (0 |-> y /\\ !(y = s(s(0)))))",
    "forall w. (!(s(0) |-> w) \\/ forall y. (!(y = w) \\/ forall w. (!(0 |-> w) \\/ !(y = w))))",
])
def test_anchored_shapes(text):
    a = parse_sln(text)
    for heap in (Heap(), Heap({0: 2, 1: 3, 2: 0, 3: 1, 4: 0, 5: 2}), Heap({1: 0, 2: 1, 3: 2, 6: 0, 7: 1})):
        assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a)


@pytest.mark.parametrize("text, heap, sigma", [
    # the inner binder's atom belongs to the inner a, not to the outer one
    ("exists a. (exists a. a |-> s(0)) /\\ a |-> s(s(0))", Heap({0: 1, 5: 2, 6: 2}), {}),
    # t mentions the inner y, not the y that sigma or an outer binder binds
    ("exists a. exists y. (a |-> y /\\ y = s(0))", Heap({0: 1}), {"y": 3}),
    ("exists y. (0 |-> y /\\ exists a. (!(a = y) /\\ exists y. (a |-> y /\\ y = s(s(0)))))",
     Heap({0: 1, 3: 2}), {}),
    # the inner x is unbound while its body folds, whatever the outer x is
    ("exists x. (0 |-> x /\\ exists w. (s(0) |-> w /\\ !(w = x) /\\ forall x. !(x |-> w)))",
     Heap({0: 3, 1: 5, 3: 7, 4: 5}), {}),
    # a points-to atom under a disjunction is no anchor
    ("exists a. (a |-> 0 \\/ a = s(0))", Heap({0: 1, 1: 5}), {}),
    ("forall a. !(a |-> 0 \\/ a = s(0))", Heap({0: 1, 1: 5}), {}),
    ("forall a. !((a |-> 0 \\/ a = s(s(0))) /\\ s(a) |-> s(0))", Heap({2: 3, 3: 1}), {}),
    # residual blocks with several copies join by the quantifier's kind
    ("exists x. exists a. (a |-> 0 /\\ x = s(a))", Heap({2: 0, 4: 0}), {}),
    ("forall x. forall a. (!(a |-> 0) \\/ !(x = a))", Heap({2: 0, 4: 0}), {}),
    # an address below the guard is no candidate
    ("exists a >= 1. (a |-> 0 /\\ !(s(a) |-> s(0)))", Heap({0: 0, 3: 0, 4: 1}), {}),
    # an open quantifier pinned below its guard folds to its neutral verdict
    ("forall w. (w = s(0) \\/ exists x >= 2. (x = s(0) /\\ s(w) = s(x)))", Heap({0: 1}), {}),
    ("forall w. (w = s(s(s(s(s(0))))) \\/ forall x >= 2. (!(x = s(0)) \\/ w = x))",
     Heap({0: 1}), {}),
    # the equation x = s(b) is about the inner b, so it pins nothing
    ("exists b. (0 |-> b /\\ exists x. ((exists b. (x = s(b) /\\ b = s(s(0)))) /\\ !(x = s(b))))",
     Heap({0: 1}), {}),
])
def test_anchor_scoping(text, heap, sigma):
    a, sigma = parse_sln(text), VarAssignment(sigma)
    assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a)


@pytest.mark.parametrize("heap", [Heap(), Heap({0: 2, 3: 0}), Heap({1: 4, 2: 1, 5: 4})])
def test_tail_starts_right_after_the_block(heap):
    """The tail takes over at the bound plus one, on either side."""
    past_addr = "s(" * (heap.max_addr + 1) + "0" + ")" * (heap.max_addr + 1)
    past_val = "s(" * (heap.max_val + 1) + "0" + ")" * (heap.max_val + 1)
    for text in (f"exists x. (x |-> s(0) \\/ x = {past_addr})",
                 f"forall x. (!(s(s(0)) |-> x) /\\ !(x = {past_val}))"):
        a = parse_sln(text)
        assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a)


def test_residual_chain_stays_shallow(monkeypatch):
    """The copies left undecided under a residual quantifier are joined
    into one right-nested chain, 1,369 operands on h_6, past the default
    recursion limit, which the checker and the decider read in a loop."""
    decided, decide = [], checker.decide_sentence
    monkeypatch.setattr(checker, "decide_sentence", lambda s: decided.append(s) or decide(s))
    f = parse_sln("forall x. exists a. (a |-> 0 /\\ x = a) \\/ !(x = x)")
    assert shallow(check, SIGMA, simple_table_heap(6), f) is False
    [sentence] = decided
    assert sum(type(b) is Eq for b in subformulas(sentence)) > 1000


# Closed quantifiers whose tail reaches the decider through an open
# quantifier's anchored residual: forall x >= 4. ... and forall x >= 2. s(0) = x.
OPEN_TAIL_CASES = [
    ("forall x. x |-> s(0) \\/ exists y. (y |-> 0 /\\ !(y = x))", Heap({0: 1, 2: 0, 3: 0}), True),
    ("forall x. x |-> s(0) \\/ exists y. (y |-> 0 /\\ y = x)", Heap({0: 1, 1: 0}), False),
]


def _open_tail(rng):
    """A closed quantifier on x whose body joins a points-to atom on x, not
    needed, with an inner quantifier on y that an equation ties to x: past
    the heap's bound the atom is false and the inner quantifier, x unbound,
    is open.  Its y is pinned (by a heap read or an equation), anchored,
    enumerated as a block, or in no points-to atom."""
    num = lambda: sln_num(rng.randint(0, 3))
    y = SLNTerm("y", rng.randint(0, 1))
    kind = rng.randrange(4)
    if kind == 0:  # pinned
        core = rng.choice([PointsTo(num(), y), Eq(y, num())])
    elif kind == 1:  # anchored
        core = PointsTo(y, num())
    elif kind == 2:  # addressed, but no atom on y is needed
        core = rng.choice([Not(PointsTo(y, num())), Or(PointsTo(y, num()), Eq(y, num()))])
    else:  # in no points-to atom
        core = rng.choice([Not(Eq(y, num())), Or(Eq(y, num()), Eq(y, num()))])
    tie = Eq(SLNTerm("y", rng.randint(0, 2)), SLNTerm("x", rng.randint(0, 2)))
    tie = Not(tie) if rng.random() < 0.5 else tie
    exists = rng.random() < 0.5
    inner = _quantifier(rng, exists, "y", And(core, tie) if exists else Or(Not(core), tie))
    x = SLNTerm("x", rng.randint(0, 1))
    atom = PointsTo(x, num()) if rng.random() < 0.5 else PointsTo(num(), x)
    body = Or(atom, inner) if rng.random() < 0.5 else And(Not(atom), inner)
    return _quantifier(rng, rng.random() < 0.5, "x", body)


def _quantifier(rng, exists, var, body):
    guard = rng.choice([0, 0, 1, 2])
    if guard:
        return (GExists if exists else GForall)(var, guard, body)
    return (Exists if exists else Forall)(var, body)


def test_open_tail_residuals_against_oracle(monkeypatch):
    """A closed quantifier whose tail stays undecided splits the open
    quantifier in it into a residual for the decider: every verdict is the
    oracle's, and at least a fifth of the sentences reach the decider."""
    calls, decide = [], checker.decide_sentence
    monkeypatch.setattr(checker, "decide_sentence", lambda s: calls.append(s) or decide(s))
    rng, decided = random.Random(59), 0
    cases = [(parse_sln(text), heap) for text, heap, _ in OPEN_TAIL_CASES]
    cases += [(_open_tail(rng), Heap({rng.randint(0, 4): rng.randint(0, 3)
                                      for _ in range(rng.randint(0, 4))})) for _ in range(300)]
    for a, heap in cases:
        calls.clear()
        assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a), (a, heap)
        decided += bool(calls)
    assert decided >= len(cases) / 5, decided
    for text, heap, verdict in OPEN_TAIL_CASES:
        assert check(SIGMA, heap, parse_sln(text)) is verdict


def test_nested_exists_chain_takes_one_frame_per_level():
    """A closed quantifier is decided in one frame per level, so check
    takes 800 nested exists at the default recursion limit."""
    a = PointsTo(svar("x799"), svar("x0"))
    for i in reversed(range(800)):
        a = Exists(f"x{i}", a)
    assert shallow(check, SIGMA, Heap({0: 0, 1: 1}), a) is True


def _table_condition(h: Heap) -> bool:
    """H read clause by clause off the cells of h, without a formula.  The
    scan of oracles.py checks each row's arithmetic; H also asks every row
    with a nonzero first operand for its predecessor row."""
    cells = h.cells

    def row(*values):
        return any(all(cells.get(b + i) == v for i, v in enumerate(values))
                   for b in h.addresses_holding(values[0]))

    for a, tag in cells.items():
        x, y, r = cells.get(a + 1), cells.get(a + 2), cells.get(a + 3)
        if tag not in (0, 1, 2) or x is None or y is None or x < 3 or y < 3:
            continue
        if tag == 0 and x == 3 and r != y:  # add1
            return False
        if tag == 0 and x > 3 and not (r is not None and r > 3 and row(0, x - 1, y, r - 1)):
            return False  # add2
        if tag == 1 and x == 3 and r != 3:  # mult1
            return False
        if tag == 1 and x > 3 and not (r is not None and any(
                row(1, x - 1, y, z) and row(0, z, y, r) for z in range(3, h.max_val + 1))):
            return False  # mult2
        if tag == 2 and x > 3 and not (y > 3 and row(2, x - 1, y - 1) and row(2, x - 1, y)):
            return False  # ineq1 and ineq2
    return True


def test_closed_decisions_build_no_residual(monkeypatch):
    """Every quantifier of H is closed when it is decided: each value of
    its block decides the body, and each tail's body is decided with the
    variable unbound, so no node builds a residual formula and none goes
    to the decider.  The verdicts are the scan's on intact tables and on
    every corrupted addition result of h_2, and H's read off the cells on
    every single-cell mutation of h_1, where the scan misses the mutations
    that break a predecessor row."""

    def no_residual(*args):
        raise AssertionError("a closed decision built a residual")

    for cls in (checker._Const, checker._Eq, checker._PointsTo, checker._Not,
                checker._And, checker._Or, checker._Quant):
        monkeypatch.setattr(cls, "res", no_residual)
    monkeypatch.setattr(checker, "decide_sentence", no_residual)
    H = table_heap_condition()
    h1, h2 = simple_table_heap(1), simple_table_heap(2)
    heaps = [Heap(simple_table_heap(n).cells) for n in range(4)]
    heaps += [h2.mutated(4 * i + 3, h2.get(4 * i + 3) + 1) for i in range(25)]
    for h in heaps:
        assert check(SIGMA, h, H) is (not scan_violations(h))
    mutations = [h1.mutated(addr, v) for addr, value in h1.cells.items()
                 for v in range(h1.max_val + 3) if v != value]
    verdicts = [check(SIGMA, h, H) for h in mutations]
    assert verdicts == [_table_condition(h) for h in mutations]
    assert not any(v and scan_violations(h) for v, h in zip(verdicts, mutations))
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("text, verdict, evaluations", [
    ("exists y. y = s(s(0))", True, 0),
    ("exists y. (y = s(s(0)) /\\ y = s(0))", False, 1),  # no value is a witness
    ("exists y. !(y = s(s(0)))", True, None),
])
def test_unanchored_closed_quantifier_goes_to_the_decider(monkeypatch, text, verdict,
                                                          evaluations):
    """A closed quantifier whose variable is in no points-to atom is
    decided by a pin, when its body needs an equation on the variable (the
    first two: one evaluation of the body at y = 2, where the pinning
    equation is known to hold, so only the other equations are evaluated),
    and is otherwise handed to the decider whole (the third, whose equation
    is negated): either way its body's atoms are evaluated a few times, not
    once per value up to the heap's largest value, 10^6."""
    calls, decided = [], []
    ev, decide = checker._Eq.ev, checker.decide_sentence
    monkeypatch.setattr(checker._Eq, "ev",
                        lambda self, env, h: calls.append(self) or ev(self, env, h))
    monkeypatch.setattr(checker, "decide_sentence", lambda s: decided.append(s) or decide(s))
    assert check(SIGMA, Heap({0: 10**6}), parse_sln(text)) is verdict
    if evaluations is None:
        assert len(decided) == 1 and 0 < len(calls) < 10
    else:
        assert not decided and len(calls) == evaluations


def test_table_heap_condition_on_larger_tables():
    H = table_heap_condition()
    assert check(SIGMA, simple_table_heap(6), H) is True
    h5 = simple_table_heap(5)
    cell = 4 * 17 + 3  # the result of addition row 17
    assert check(SIGMA, h5.mutated(cell, h5.get(cell) + 1), H) is False


class _StandInHeap:
    """A heap over a plain dict with only the members the checker reads,
    its lookups by brute force, and none of Heap's private ones."""

    __slots__ = ("_data", "get", "max_addr", "max_val", "memo")

    def __init__(self, cells) -> None:
        self._data = dict(cells)
        self.get = self._data.get
        self.max_addr = max(self._data, default=-1)
        self.max_val = max(self._data.values(), default=-1)
        self.memo = {}

    def addresses_holding(self, value):
        return tuple(a for a in sorted(self._data) if self._data[a] == value)

    def matching(self, pairs, guard=0):
        last = self.max_addr - min(i for i, _ in pairs)
        return [k for k in range(guard, last + 1) if all(self.get(k + i) == v for i, v in pairs)]


def test_checker_reads_a_heap_through_its_public_members():
    """A stand-in heap that has only the public members gives Heap's
    verdicts: on H over h_0..h_3 and the single-cell mutations of h_1, and
    on a seeded slice of the differential generators."""
    H = table_heap_condition()
    h1 = simple_table_heap(1)
    heaps = [simple_table_heap(n) for n in range(4)]
    heaps += [h1.mutated(a, v) for a in h1.cells for v in range(h1.max_val + 3) if v != h1.get(a)]
    verdicts = [check(SIGMA, _StandInHeap(h.cells), H) for h in heaps]
    assert verdicts == [check(SIGMA, h, H) for h in heaps]
    assert verdicts[:4] == [True] * 4 and False in verdicts
    rng = random.Random(60)

    def small_heap(addrs, values):
        return Heap({rng.randint(0, addrs): rng.randint(0, values)
                     for _ in range(rng.randint(0, 6))})

    cases = []
    for _ in range(60):
        scope = ["x"] if rng.random() < 0.5 else []
        cases.append((_random_formula(rng, scope, rng.randint(1, 3)), small_heap(7, 4)))
        cases.append((_pinned_sentence(rng), small_heap(5, 4)))
        cases.append((_multi_anchored(rng), small_heap(6, 3)))
        cases.append((_nested_join(rng), _rows(rng)))
    for a, heap in cases:
        sigma = VarAssignment({v: rng.randint(0, 4) for v in free_vars(a)})
        assert check(sigma, _StandInHeap(heap.cells), a) == check(sigma, heap, a), (a, heap)


def test_shared_subformula_compiles_once(monkeypatch):
    """A second translation embedding the same H compiles only its own
    part: H keeps the node it compiled to the first time."""
    H = table_heap_condition()
    h, sigma = simple_table_heap(2), VarAssignment({"x": 1})
    first = circle_translate(normalize_bounded(parse_pa("x <= s(0)")))
    second = circle_translate(normalize_bounded(parse_pa("s(s(0)) <= x + x")))
    assert check(sigma, h, first) is True
    calls = []
    intern = checker._intern
    monkeypatch.setattr(checker, "_intern", lambda key: calls.append(key) or intern(key))
    assert check(sigma, h, second) is True
    assert 0 < len(calls) < sum(1 for _ in subformulas(H))


def _multi_anchored(rng):
    """A quantifier on x whose body needs two or three address anchors
    x+i |-> t, each t a numeral, the free w or an outer y or z, under zero
    to two outer quantifiers.  While an outer variable is unbound (in the
    outer prepass and tail) its anchors are skipped, and an equality on x
    and the outer variables leaves a residual for the decider."""
    scope = ["w", "y", "z"]
    anchors = [PointsTo(SLNTerm("x", rng.randint(0, 2)), _term(rng, scope))
               for _ in range(rng.randint(2, 3))]
    rest = rng.choice([Eq(SLNTerm("x", rng.randint(0, 1)), _term(rng, scope)),
                       Not(Eq(_term(rng, scope), _term(rng, scope))),
                       _random_formula(rng, ["x"] + scope, 1)])
    exists = rng.random() < 0.5
    body = And(and_all(anchors), rest) if exists else Or(Not(and_all(anchors)), rest)
    guard = rng.randint(0, 2)
    if guard:
        a = (GExists if exists else GForall)("x", guard, body)
    else:
        a = (Exists if exists else Forall)("x", body)
    for y in rng.sample(["y", "z"], rng.randint(0, 2)):
        side = Eq(svar(y), _term(rng, scope))
        a = rng.choice([Exists, Forall])(y, rng.choice([Or, And])(a, side))
    return a


def test_multi_anchor_enumeration_against_oracle(monkeypatch):
    rng = random.Random(55)
    decided = []
    decide = checker.decide_sentence
    monkeypatch.setattr(checker, "decide_sentence",
                        lambda s: decided.append(s) or decide(s))
    for _ in range(300):
        a = _multi_anchored(rng)
        heap = Heap({rng.randint(0, 6): rng.randint(0, 3) for _ in range(rng.randint(0, 7))})
        sigma = VarAssignment({v: rng.randint(0, 3) for v in free_vars(a)})
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a), a
    assert decided  # some residuals reached the decider


# The lookup of x at the row (0, 1): every row tagged 0 with operand 1
# stores x as its result; vacuous without such a row.
LOOKUP = "(forall a. (!(a |-> 0 /\\ s(a) |-> s(0)) \\/ s(s(a)) |-> x))"


@pytest.mark.parametrize("text", [
    # witness joins: an exists needed true, a forall needed false
    "exists x. ((exists a. (a |-> 0 /\\ s(a) |-> s(0) /\\ s(s(a)) |-> x)) /\\ !(x = s(s(0))))",
    "forall x. (!(exists a. (a |-> 0 /\\ s(s(a)) |-> s(x))) \\/ x = s(0))",
    "exists x. (!(forall a. !(a |-> 0 /\\ s(s(a)) |-> x)) /\\ !(x = s(s(s(0)))))",
    # lookup pins, under exists and under forall
    f"exists x. ({LOOKUP} /\\ !(x = s(s(s(0)))))",
    f"exists x. ({LOOKUP} /\\ x = s(s(0)))",
    f"forall x. (!{LOOKUP} \\/ x = s(s(s(0))))",
    # an exists needed false pins nothing, though its body is a disjunction
    "exists x. (!(exists a. ((a |-> 0 /\\ !(a |-> 0)) \\/ s(a) |-> x)) /\\ x = s(0))",
    # guarded inner quantifiers
    "exists x. exists a >= 1. (a |-> 0 /\\ s(s(a)) |-> x)",
    "exists x. ((forall a >= 1. (!(a |-> 0 /\\ s(a) |-> s(0)) \\/ s(s(a)) |-> x)) /\\ x = s(s(0)))",
    # inner variables that shadow an outer one; in the second, the inner
    # y's own candidates come from a join on z that reads y
    "exists a. (s(s(0)) |-> a /\\ exists x. (!(x = a) /\\ exists a. (a |-> 0 /\\ s(s(a)) |-> x)))",
    "exists y. (0 |-> y /\\ exists x. (!(x = y) /\\ exists y. (y |-> x /\\ exists z. (z |-> s(y) /\\ s(z) |-> 0))))",
    # open quantifiers on x, split into residuals: w is in no points-to atom
    f"exists w. (w = s(s(s(0))) /\\ exists x. ({LOOKUP} /\\ s(w) = s(x)))",
    "exists w. exists x. ((exists a. (a |-> 0 /\\ s(s(a)) |-> x)) /\\ s(w) = x)",
])
@pytest.mark.parametrize("heap", [
    Heap(),
    Heap({0: 0, 1: 1, 2: 3, 3: 0, 4: 2, 5: 4}),  # rows (0, 1, 3) and (0, 2, 4)
    Heap({3: 0, 4: 2, 5: 4}),  # the row for operand 1 cut
    Heap({0: 0, 1: 1, 2: 3, 3: 0, 4: 1, 5: 4}),  # two rows for operand 1
    Heap({0: 7, 2: 3, 4: 3, 5: 0}),  # a row for the shadowing shape, none for operand 1
])
def test_joined_shapes(text, heap):
    a = parse_sln(text)
    assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a)


def test_pin_is_the_only_x_in_the_lookup():
    """A forall whose other disjunct mentions x too pins nothing: the
    first y whose row is there need not fix x through that atom."""
    a = parse_sln("exists x. forall y. (!(y |-> 0) \\/ s(y) |-> x) \\/ s(s(y)) |-> x")
    heap = Heap({0: 0, 1: 5, 2: 7, 3: 0, 4: 9, 5: 5})
    assert check(SIGMA, heap, a) is stable_brute_force(SIGMA, heap, a) is True


def test_table_lookups_read_their_rows(monkeypatch):
    """On a table heap the defining existential of a sum reads one value,
    and a bounded quantifier takes the operands of the inequality rows it
    asks for, not its whole block; the lookups of a translation are built
    once.  In b + b <= y, x#1 = b + b has no pin: the forall lookup of its
    sum row joins it to that row's result, one candidate, not its block."""
    sizes = {}
    candidates, pin = checker._Shape.candidates, checker._Shape.pin

    def counted(self, env, h, guard):
        values = candidates(self, env, h, guard)
        if self.var in sizes:
            sizes[self.var].append(None if values is None else len(values))
        return values

    def pinned(self, env, h):
        k = pin(self, env, h)
        if self.var in sizes and k is not None:
            sizes[self.var].append(1)
        return k

    monkeypatch.setattr(checker._Shape, "candidates", counted)
    monkeypatch.setattr(checker._Shape, "pin", pinned)
    for text, sigma, expected in [
        ("forall b <= x. exists c <= y. b + c = y", {"x": 1, "y": 2}, {"x#1": {1}, "c": {3}, "b": {2}}),
        ("forall b <= x. b + b <= y", {"x": 2, "y": 4}, {"x#1": {1}, "c": set(), "b": {3}}),
    ]:
        sizes.update({"x#1": [], "c": [], "b": []})
        a = circle_translate(normalize_bounded(parse_pa(text)))
        heap = Heap(simple_table_heap(3).cells)
        assert check(VarAssignment(sigma), heap, a) is True
        assert {var: set(n) for var, n in sizes.items()} == expected, text
    x, y, z = svar("x"), svar("y"), svar("z")
    assert add_formula(x, y, z) is add_formula(x, y, z)


def _tie(rng, x, scope, nested):
    """A quantifier q on y that ties x to a cell y+i |-> x+j, with the
    verdict of q that the tie needs: a witness of an exists (true) or of a
    forall (false), or a lookup forall y. rest \\/ y+i |-> x+j (true).
    rest is a row of cells at y; at times it has x in it, so that nothing
    is pinned, or a nested tie of y.  y may shadow an outer variable."""
    y = rng.choice(["a", "b", "w", "z"])
    inner = [v for v in scope if v != x] + [y]
    cell = PointsTo(SLNTerm(y, rng.randint(0, 2)), SLNTerm(x, rng.randint(0, 2)))
    row = [PointsTo(SLNTerm(y, rng.randint(0, 2)), _term(rng, inner))
           for _ in range(rng.randint(0 if nested else 1, 2))]
    if rng.random() < 0.2:
        row.append(PointsTo(SLNTerm(y, rng.randint(0, 2)), SLNTerm(x, rng.randint(0, 1))))
    if nested and (not row or rng.random() < 0.5):
        q, verdict = _tie(rng, y, inner, False)
        row.append(q if verdict else Not(q))
    row = and_all(row)
    kind = rng.randrange(4)
    if kind == 0:
        exists, verdict, body = True, True, And(row, cell)
    elif kind == 1:
        exists, verdict, body = False, False, Not(And(row, cell))
    else:
        exists, verdict, body = False, True, Or(Not(row), cell)
        if kind == 3:  # x twice in the disjunction
            body = Or(body, PointsTo(SLNTerm(y, rng.randint(0, 2)), SLNTerm(x, rng.randint(0, 2))))
    guard = rng.choice([0, 0, 1, 2])
    if guard:
        return (GExists if exists else GForall)(y, guard, body), verdict
    return (Exists if exists else Forall)(y, body), verdict


def _nested_join(rng):
    """A quantifier on x with no anchor whose body needs a tie of x, at
    times one that nests a second tie, at times under an outer quantifier
    that leaves x open in its prepass and tail."""
    scope = ["w", "z"]
    nested = rng.random() < 0.25
    q, verdict = _tie(rng, "x", scope, nested)
    need = q if verdict else Not(q)
    rest = rng.choice([Eq(SLNTerm("x", rng.randint(0, 1)), _term(rng, scope)),
                       Not(Eq(svar("x"), _term(rng, scope))),
                       _random_formula(rng, ["x"] + scope, 0)])
    exists = rng.random() < 0.5
    body = And(need, rest) if exists else Or(Not(need), rest)
    guard = rng.choice([0, 0, 1, 2])
    if guard:
        a = (GExists if exists else GForall)("x", guard, body)
    else:
        a = (Exists if exists else Forall)("x", body)
    if not nested and rng.random() < 0.3:
        y = rng.choice(scope)
        a = rng.choice([Exists, Forall])(y, rng.choice([Or, And])(a, Eq(svar(y), _term(rng, scope))))
    return a


def _rows(rng):
    """A heap of up to two rows (tag, operand, result), at times
    overlapping, or of random cells."""
    if rng.random() < 0.5:
        return Heap({rng.randint(0, 4): rng.randint(0, 3) for _ in range(rng.randint(0, 5))})
    cells = {}
    for r in range(rng.randint(0, 2)):
        cells.update({3 * r + rng.randint(0, 1) + k: rng.randint(0, 3) for k in range(3)})
    return Heap(cells)


def test_nested_joins_against_oracle():
    rng = random.Random(57)
    for _ in range(300):
        a, heap = _nested_join(rng), _rows(rng)
        sigma = VarAssignment({v: rng.randint(0, 3) for v in free_vars(a)})
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a), (a, heap)


# x's join values, 5 - 0, pass the largest address, 0, where x |-> 0 is false.
ADDRESSED_JOIN_TEXT = "exists x. ((exists y. y |-> x) /\\ !(x |-> 0))"


def test_addressed_join_keeps_values_past_the_largest_address():
    """An addressed x's join values can pass the largest address; they are
    kept among its candidates, so x = 5 is evaluated there, and past the
    candidates the body is false at every value."""
    a = parse_sln(ADDRESSED_JOIN_TEXT)
    assert check(SIGMA, Heap({0: 5}), a) is stable_brute_force(SIGMA, Heap({0: 5}), a) is True


def _joined_and_addressed(rng):
    """A quantifier on x whose body needs a join exists y. y+k |-> x+j and
    has x in a points-to atom x+i |-> n or n |-> x+i, at times negated or
    beside an equation; the join values can pass the largest address."""
    join = Exists("y", PointsTo(SLNTerm("y", rng.randint(0, 2)), SLNTerm("x", rng.randint(0, 2))))
    if rng.random() < 0.6:
        atom = PointsTo(SLNTerm("x", rng.randint(0, 2)), sln_num(rng.randint(0, 4)))
    else:
        atom = PointsTo(sln_num(rng.randint(0, 4)), SLNTerm("x", rng.randint(0, 2)))
    if rng.random() < 0.5:
        atom = Not(atom)
    if rng.random() < 0.3:
        atom = Or(atom, Eq(svar("x"), sln_num(rng.randint(0, 6))))
    exists = rng.random() < 0.5
    body = And(join, atom) if exists else Or(Not(join), atom)
    guard = rng.choice([0, 0, 1, 2])
    if guard:
        return (GExists if exists else GForall)("x", guard, body)
    return (Exists if exists else Forall)("x", body)


def test_joined_tails_against_oracle():
    """Joined quantifiers, addressed and on the value side, on heaps whose
    values pass their addresses, agree with the oracle."""
    rng = random.Random(59)
    for _ in range(500):
        a = _joined_and_addressed(rng)
        heap = Heap({rng.randint(0, 4): rng.randint(0, 8) for _ in range(rng.randint(0, 4))})
        assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a), (a, heap)


def _counted_tails(monkeypatch) -> list:
    """The shapes whose tail is asked for from now on, in call order."""
    tails, tail = [], checker._Shape.tail

    def counted(self, guard):
        tails.append(self)
        return tail(self, guard)

    monkeypatch.setattr(checker._Shape, "tail", counted)
    return tails


def test_neutral_tails_are_not_built(monkeypatch):
    """Anchored and joined candidates are exact over the whole domain, so
    past them a closed quantifier has its neutral verdict: H on the intact
    tables h_0 to h_2 builds no tail, nor does a join on the value side or
    on an addressed x, whose join values are kept past the largest
    address."""
    tails = _counted_tails(monkeypatch)
    for n in range(3):
        assert check(SIGMA, Heap(simple_table_heap(n).cells), table_heap_condition()) is True
    valued = parse_sln("exists x. ((exists y. y |-> x) /\\ !(s(0) |-> x))")
    assert check(SIGMA, Heap({0: 5, 1: 5}), valued) is False
    assert check(SIGMA, Heap({0: 5}), parse_sln(ADDRESSED_JOIN_TEXT)) is True
    assert tails == []


def test_only_a_block_builds_a_tail(monkeypatch):
    """In each OPEN_TAIL_CASES sentence x has no pin, anchor or join, so its
    block is followed by a tail, while the open exists y in that tail, read
    off its anchored candidates, builds none; the verdicts are the
    oracle's."""
    tails = _counted_tails(monkeypatch)
    for text, heap, verdict in OPEN_TAIL_CASES:
        tails.clear()
        a, heap = parse_sln(text), Heap(heap.cells)  # a fresh memo
        assert check(SIGMA, heap, a) is stable_brute_force(SIGMA, heap, a) is verdict
        assert tails and {shape.var for shape in tails} == {"x"}, text


def _equations(rng, scope, depth):
    """A formula over equations only: its variables are in no points-to atom."""
    if depth <= 0:
        return Eq(_term(rng, scope), _term(rng, scope))
    roll = rng.random()
    if roll < 0.2:
        return Not(_equations(rng, scope, depth - 1))
    if roll < 0.7:
        return rng.choice([And, Or])(_equations(rng, scope, depth - 1),
                                     _equations(rng, scope, depth - 1))
    y = rng.choice(["b", "z"])
    return rng.choice([Exists, Forall])(y, _equations(rng, scope + [y], depth - 1))


def _pinned(rng, scope, depth, bases):
    """A quantifier on x whose body needs a pin, t |-> x+i or x+i = t
    either way round, t's base in bases, under a negation for forall; at
    times with x in no points-to atom, under a nested quantifier (at times
    one that binds t's base, which then pins nothing), with a guard, or
    with x shadowing an outer binder."""
    x = rng.choice(["a", "x", "y", "u"])
    t, xi = _term(rng, bases), SLNTerm(x, rng.randint(0, 2))
    roll = rng.random()
    pin = PointsTo(t, xi) if roll < 0.4 else Eq(xi, t) if roll < 0.7 else Eq(t, xi)
    if rng.random() < 0.6:
        rest = _equations(rng, scope + [x], depth - 1)
    else:
        rest = _random_formula(rng, scope + [x], depth - 1)
    exists = rng.random() < 0.5
    body = And(pin, rest) if exists else Or(Not(pin), rest)
    if rng.random() < 0.4:
        y = rng.choice(["b", "z", t.base or "b"])
        body = rng.choice([Exists, Forall])(y, body)
    guard = rng.choice([0, 0, 1, 3])
    if guard:
        return (GExists if exists else GForall)(x, guard, body)
    return (Exists if exists else Forall)(x, body)


def _pinned_sentence(rng):
    """A pinned quantifier under up to two outer quantifiers, whose
    variables may be t's base or only in the rest of its body (then it is
    open, with its pin bound, while an outer residual is folded), with
    three quantifiers at most: the oracle's cost grows as its bound to the
    power of their number."""
    while True:
        free = ["f"] if rng.random() < 0.5 else []
        outer = rng.sample(["u", "v"], rng.randint(0, 2))
        bases = free + outer if rng.random() < 0.5 else free
        a = _pinned(rng, free + outer, rng.randint(1, 2), bases)
        for u in reversed(outer):
            side = Eq(svar(u), _term(rng, free))
            a = rng.choice([Exists, Forall])(u, rng.choice([And, Or])(a, side))
        if sum(type(sub) in (Exists, Forall, GExists, GForall) for sub in subformulas(a)) <= 3:
            return a


def test_pins_against_oracle(monkeypatch):
    """Quantifiers pinned by value atoms and by equations, closed and open
    (under outer quantifiers whose variables are t's bases), agree with the
    oracle at two bounds; some pinned ones have x in no points-to atom."""
    rng = random.Random(58)
    sides = []
    pin = checker._Shape.pin

    def pinned(self, env, h):
        k = pin(self, env, h)
        if k is not None:
            sides.append(self.side)
        return k

    monkeypatch.setattr(checker._Shape, "pin", pinned)
    for _ in range(300):
        a = _pinned_sentence(rng)
        heap = Heap({rng.randint(0, 5): rng.randint(0, 4) for _ in range(rng.randint(0, 5))})
        sigma = VarAssignment({v: rng.randint(0, 5) for v in free_vars(a)})
        expected = stable_brute_force(sigma, heap, a)
        bound = sln_bound(sigma, heap, a) + 3
        assert check(sigma, heap, a) == expected == brute_force_sln(sigma, heap, a, bound), a
    assert {None, "addr", "val"} <= set(sides)


def _add2_exists_b():
    """The `exists $b` of the add2 clause: the only one whose body needs a
    row tagged 0 at $b."""
    tag = PointsTo(svar("$b"), sln_num(0))
    (node,) = {checker._compile(sub) for sub in subformulas(table_heap_condition())
               if isinstance(sub, Exists) and sub.var == "$b"
               and tag in set(subformulas(sub.body))}
    return node.shape


@pytest.mark.parametrize("n", [2, 3])
def test_add2_gets_one_candidate_per_row(monkeypatch, n):
    """On an intact table, every anchor of add2's `exists $b` filters the
    candidates: each addition row with a nonzero first operand asks for
    its predecessor row once and gets exactly that row."""
    shape = _add2_exists_b()
    sizes = []
    candidates = checker._Shape.candidates

    def counted(self, env, h, guard):
        values = candidates(self, env, h, guard)
        if self is shape:
            sizes.append(len(values))
        return values

    monkeypatch.setattr(checker._Shape, "candidates", counted)
    heap = Heap(simple_table_heap(n).cells)  # a fresh memo
    assert check(SIGMA, heap, table_heap_condition()) is True
    rows = n * n + 1
    assert sizes == [1] * (rows * (rows - 1))


def _ineq1_exists_z():
    """The `exists $z` of the ineq1 clause: the one whose body has the
    equation $y = s($z)."""
    eq = Eq(svar("$y"), SLNTerm("$z", 1))
    (node,) = {checker._compile(sub) for sub in subformulas(table_heap_condition())
               if isinstance(sub, Exists) and sub.var == "$z"
               and eq in set(subformulas(sub.body))}
    return node.shape


def test_ineq1_reads_one_value_of_z(monkeypatch):
    """The equation $y = s($z) pins ineq1's `exists $z`: each evaluation
    reads the one value $y - 1 and takes no candidate list.  The verdicts
    are the scan's on intact tables; on single-cell mutations (every cell
    of h_1, the inequality rows of h_2 and h_3) they are H's read off the
    cells, and reject every heap the scan rejects."""
    shape, reads = _ineq1_exists_z(), []
    candidates, pin = checker._Shape.candidates, checker._Shape.pin

    def pinned(self, env, h):
        k = pin(self, env, h)
        if self is shape:
            reads.append((k, env["$y"]))
        return k

    def listed(self, env, h, guard):
        assert self is not shape, "ineq1's exists $z took a candidate list"
        return candidates(self, env, h, guard)

    monkeypatch.setattr(checker._Shape, "pin", pinned)
    monkeypatch.setattr(checker._Shape, "candidates", listed)
    H = table_heap_condition()
    for n in (1, 2, 3):
        t = simple_table_heap(n)
        assert check(SIGMA, Heap(t.cells), H) is True and not scan_violations(t)
        ineq = 4 * (n * n + 1) ** 2 + 4 * (n + 1) ** 2  # the first inequality row
        cells = [a for a in t.cells if n == 1 or a >= ineq]
        for a in cells:
            old = t.get(a)
            for v in range(t.max_val + 3) if n < 3 else (old - 1, old + 1):
                if v != old and v >= 0:
                    h = t.mutated(a, v)
                    verdict = check(SIGMA, h, H)
                    assert verdict is _table_condition(h)
                    assert not (verdict and scan_violations(h))
    assert reads and all(k == y - 1 for k, y in reads)


def test_anchored_closed_quantifier_skips_the_prepass(monkeypatch):
    """A closed quantifier with an anchor enumerates its candidates
    straight away; one without first evaluates its body with the variable
    unbound."""
    unbound = []
    for cls in (checker._And, checker._Or):
        def ev(self, env, h, ev=cls.ev):
            if "a" not in env:
                unbound.append(self)
            return ev(self, env, h)
        monkeypatch.setattr(cls, "ev", ev)
    anchored = parse_sln("exists a. (a |-> 0 /\\ s(a) |-> s(s(0)))")
    unanchored = parse_sln("exists a. (a |-> 0 \\/ s(a) |-> s(s(0)))")
    for a in (anchored, unanchored):
        heap = Heap({0: 0, 1: 1, 2: 0, 3: 2})
        assert check(SIGMA, heap, a) == stable_brute_force(SIGMA, heap, a) is True
    assert unbound == [checker._compile(unanchored).shape.body]


@pytest.mark.parametrize("depth", [1, 2, 3, 3000, 10**4, 10**4 + 1])
def test_deep_negation_chain(depth):
    """A run of ! compiles in a loop, folded by its parity, so check takes
    chains far deeper than the recursion limit."""
    odd = depth % 2 == 1
    assert check(SIGMA, Heap(), parse_sln("!" * depth + "(0 = 0)")) is not odd
    h = simple_table_heap(1)
    assert check(VarAssignment({"y": 0}), h, parse_sln("!" * depth + "(y = 0)")) is not odd
    # with a quantifier inside, decided by enumeration and by the decider
    assert check(SIGMA, h, parse_sln("!" * depth + "exists x. x |-> s(0)")) is not odd
    assert check(SIGMA, h, parse_sln("!" * depth + "forall x. exists y. y = s(x)")) is not odd


@pytest.mark.parametrize("nest", [
    lambda cls, parts: nest(parts, cls),
    lambda cls, parts: reduce(cls, parts),
], ids=["right", "left"])
def test_deep_junction_chains(monkeypatch, nest):
    """A chain of one connective compiles in a loop to one junction node, so
    check takes 10^4 operands, nested either way, at the default recursion
    limit.  The operands are distinct, so dropping repeats cannot fold the
    chain away; the anchored exists never reaches the decider."""

    def no_decider(sentence):
        raise AssertionError("a chain reached the decider")

    monkeypatch.setattr(checker, "decide_sentence", no_decider)
    n, one, h = 10**4, sln_num(1), Heap({0: 1, 1: 1})
    xs = [svar(f"x{k}") for k in range(n)]
    assert shallow(check, SIGMA, h, nest(And, [Not(Eq(x, one)) for x in xs])) is True
    assert shallow(check, SIGMA, h, nest(Or, [Eq(x, one) for x in xs])) is False
    # x |-> 1 and !(x |-> 1) among the operands: no x is a witness
    cells = [PointsTo(svar("x"), one)] + [Not(PointsTo(svar("x"), sln_num(k))) for k in range(1, n)]
    assert shallow(check, SIGMA, h, Exists("x", nest(And, cells))) is False
    assert shallow(check, SIGMA, h, parse_sln(" /\\ ".join(["0 = 0"] * n))) is True


def test_public_rewrites_on_deep_chains():
    """The public rewrites fold a quantifier over a 10^4-deep chain at the
    default recursion limit."""
    depth, one = 10**4, Eq(svar("x"), sln_num(1))
    wraps = {"not": Not, "and": lambda b: And(one, b), "or": lambda b: Or(one, b),
             "exists": lambda b: Exists("x", b)}

    def chain(n, wrap, bottom):
        for _ in range(n):
            bottom = wrap(bottom)
        return bottom

    # The tail of the split at address 1: the points-to atom at the bottom
    # is false past it, which folds the whole chain but for the conjuncts
    # of \/; an inner exists rebinds x and is kept.
    tails = {"not": TruthConst(False), "and": TruthConst(False),
             "or": GExists("x", 2, chain(depth - 1, wraps["or"], one)),
             "exists": GExists("x", 2, chain(depth, wraps["exists"], PointsTo(svar("x"), sln_num(0))))}
    # Against h = {0: 1} the closed points-to atom at the bottom is true.
    grounded = {"not": TruthConst(True), "and": Exists("x", chain(depth - 1, wraps["and"], one)),
                "or": TruthConst(True), "exists": TruthConst(True)}
    for name, wrap in wraps.items():
        a = Exists("x", chain(depth, wrap, PointsTo(svar("x"), sln_num(0))))
        out = address_free_rewrite(a, 1)
        assert type(out) is Or and type(out.right) is Or and out.right.right == tails[name]
        # no atom stores x, so the value split keeps the body whole
        assert value_free_rewrite(a, 1).right.right == GExists("x", 2, a.body)
        closed = Exists("x", chain(depth, wrap, PointsTo(sln_num(0), sln_num(1))))
        assert ground_points_to_eval(Heap({0: 1}), closed) == grounded[name]


def test_double_negation_shares_the_node():
    """!!A compiles to the node of A."""
    a = parse_sln("exists x. x |-> y")
    assert checker._compile(Not(Not(a))) is checker._compile(a)
    assert checker._compile(Not(Not(Not(a)))) is checker._compile(Not(a))


def test_intern_table_keeps_nodes():
    """The intern table holds its nodes for the whole process: once the
    formula that compiled to a node is gone, a fresh copy of it compiles
    to the same node."""
    text = "exists x. x |-> s(s(s(s(s(s(s(y)))))))"
    a = parse_sln(text)
    node = checker._compile(a)
    (key,) = [key for key, n in checker._NODES.items() if n is node]
    del a, node
    assert checker._compile(parse_sln(text)) is checker._NODES[key]
    assert check(VarAssignment({"y": 0}), Heap(), parse_sln(text)) is False


def test_intern_table_is_bounded(monkeypatch):
    """The intern table is cleared when it reaches its bound, and verdicts
    stay right across the clears."""
    monkeypatch.setattr(checker, "_NODES_MAX", 50)
    monkeypatch.setattr(checker, "_NODES", {})
    heap = Heap({0: 2, 1: 0, 2: 2})
    sizes = []
    for k in range(60):
        a = Or(Exists("x", And(PointsTo(svar("x"), sln_num(2)),
                               PointsTo(SLNTerm("x", 1), sln_num(k % 3)))),
               Eq(svar("y"), sln_num(k)))
        sigma = VarAssignment({"y": k % 7})
        assert check(sigma, heap, a) == stable_brute_force(sigma, heap, a)
        sizes.append(len(checker._NODES))
    assert max(sizes) <= 50 and min(sizes[20:]) < max(sizes)
