"""Successor-arithmetic decider vs the bounded oracle."""

import random

import pytest

from slnkit import succ
from slnkit.ast import (
    And, Eq, Exists, Forall, GExists, GForall, Leq, Not, Or, PointsTo, SLNTerm,
    TruthConst, Var, Zero, free_vars, sln_num, subformulas, svar,
)
from slnkit.cli import main
from slnkit.gen import Generators
from slnkit.heap import Heap
from slnkit.normalize import normalize_bounded
from slnkit.parser import parse_pa, parse_sln
from slnkit.semantics import VarAssignment
from slnkit.succ import BudgetExceeded, _absorb, _and, _cube, _negate, _or, decide_sentence
from slnkit.translate import circle_translate, table_heap_condition

from oracles import stable_brute_force

EMPTY = Heap()
SIGMA = VarAssignment()


def test_basic_sentences():
    assert decide_sentence(parse_sln("forall x. !(x = s(x))"))
    assert not decide_sentence(parse_sln("exists x. s(x) = 0"))
    # an inner binder rebinds its name
    assert decide_sentence(parse_sln("exists x. (x = 0 /\\ exists x. x = 0)"))
    # forall x >= m (x = numeral) is false for every m and numeral
    for m in range(4):
        for z in range(4):
            f = GForall("x", m, Eq(svar("x"), sln_num(z)))
            assert not decide_sentence(f)


def test_equality_reasoning():
    assert decide_sentence(parse_sln("forall x. exists y. y = s(s(x))"))
    assert not decide_sentence(parse_sln("forall x. exists y. x = s(y)"))
    assert decide_sentence(parse_sln("forall x >= 1. exists y. x = s(y)"))
    assert decide_sentence(parse_sln("exists x. exists y. !(x = y)"))
    assert not decide_sentence(parse_sln("forall x. forall y. x = y"))
    assert decide_sentence(parse_sln("forall x. forall y. !(x = s(y)) \\/ !(y = s(x))"))


def test_rejects_points_to_and_free_variables():
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("forall x. x |-> 0"))
    # also where constant folding never reaches the atom
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("0 = s(0) /\\ 0 |-> 0"))
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("x = 0"))


@pytest.mark.parametrize("text, message", [
    # operands a short circuit skips are still checked
    ("0 = s(0) /\\ x = 0", "free variables in sentence: ['x']"),
    ("0 = 0 \\/ 0 |-> 0", "points-to atom in successor-arithmetic input"),
    ("!(0 = 0 \\/ x = 0)", "free variables in sentence: ['x']"),
    # a binder's scope ends with its body
    ("(exists x. x = 0) /\\ x = 0", "free variables in sentence: ['x']"),
    # every free name is reported, sorted, and a points-to atom comes first
    ("x = 0 /\\ y = s(0)", "free variables in sentence: ['x', 'y']"),
    ("y = 0 /\\ 0 |-> 0 /\\ x = 0", "points-to atom in successor-arithmetic input"),
])
def test_rejection_messages(text, message):
    with pytest.raises(ValueError) as err:
        decide_sentence(parse_sln(text))
    assert str(err.value) == message


def test_free_name_past_the_budget(monkeypatch):
    """A free name right of an operand that exceeds the budget still gives
    the free-variable message; without it the budget error stands."""
    monkeypatch.setattr(succ, "MAX_CUBES", 8)
    with pytest.raises(BudgetExceeded):
        decide_sentence(parse_sln(ladder(6)))
    with pytest.raises(ValueError, match="^free variables in sentence: \\['x'\\]$"):
        decide_sentence(And(parse_sln(ladder(6)), Eq(svar("x"), sln_num(0))))


def test_structural_error_only_on_a_sentence():
    """An atom outside successor arithmetic is reported as such only when
    the sentence has no free variable and no points-to atom, also in an
    operand that a short circuit skips."""
    with pytest.raises(ValueError, match="^not a successor-arithmetic formula: Leq"):
        decide_sentence(Or(Eq(sln_num(0), sln_num(1)), Leq(Zero(), Zero())))
    zero = Eq(sln_num(0), sln_num(0))
    for skipped in (Leq(Zero(), Zero()), Eq(Zero(), Zero())):
        message = f"^not a successor-arithmetic formula: {type(skipped).__name__}"
        for a in (Or(zero, skipped), And(Not(zero), skipped),
                  Exists("x", Or(Eq(svar("x"), svar("x")), Not(skipped)))):
            with pytest.raises(ValueError, match=message):
                decide_sentence(a)
    with pytest.raises(ValueError, match="^free variables in sentence: \\['x'\\]$"):
        decide_sentence(And(Leq(Zero(), Zero()), Eq(svar("x"), sln_num(0))))


def _mixed(rng, depth, names=("x", "y")):
    """A small formula of equalities, points-to and PA atoms, connectives
    and plain or guarded binders, free names allowed."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        term = lambda: SLNTerm(rng.choice((None, *names)), rng.randrange(3))
        if roll < 0.75:
            return Eq(term(), term())
        if roll < 0.85:
            return PointsTo(term(), term())
        if roll < 0.9:
            return Leq(rng.choice((Zero(), Var(names[0]))), Zero())
        return TruthConst(rng.random() < 0.5)
    roll, var = rng.random(), rng.choice(names)
    if roll < 0.25:
        return And(_mixed(rng, depth - 1), _mixed(rng, depth - 1))
    if roll < 0.5:
        return Or(_mixed(rng, depth - 1), _mixed(rng, depth - 1))
    if roll < 0.6:
        return Not(_mixed(rng, depth - 1))
    body, guard = _mixed(rng, depth - 1), rng.randrange(3)
    return rng.choice((Exists(var, body), Forall(var, body),
                       GExists(var, guard, body), GForall(var, guard, body)))


def test_rejects_exactly_the_non_sentences():
    """A points-to atom or a free name anywhere, skipped operands included,
    is rejected with the message of the whole-sentence walk, and so is a
    closed PA atom once neither is there."""
    rng = random.Random(18)
    counts = dict.fromkeys(("points-to", "free", "leq", "decided"), 0)
    for _ in range(1000):
        a = _mixed(rng, rng.randrange(1, 5))
        kinds = {type(b) for b in subformulas(a)}
        if PointsTo in kinds or free_vars(a):
            kind = "points-to" if PointsTo in kinds else "free"
            message = ("points-to atom in successor-arithmetic input" if kind == "points-to"
                       else f"free variables in sentence: {sorted(free_vars(a))}")
            with pytest.raises(ValueError) as err:
                decide_sentence(a)
            assert str(err.value) == message, a
        elif Leq in kinds:
            kind = "leq"
            with pytest.raises(ValueError, match="^not a successor-arithmetic formula: Leq"):
                decide_sentence(a)
        else:
            kind = "decided"
            assert decide_sentence(a) == stable_brute_force(SIGMA, EMPTY, a), a
        counts[kind] += 1
    assert min(counts.values()) >= 20, counts


def test_against_oracle():
    # Depth 4 reaches six quantifiers, four of them nested, and solves
    # equations with a negative offset, x = s^-k(w), one under a guard.
    for seed, depth, count in ((61, 3, 250), (62, 4, 100)):
        gens = Generators(seed)
        for _ in range(count):
            a = gens.succ_sentence(depth=depth)
            assert decide_sentence(a) == stable_brute_force(SIGMA, EMPTY, a), a


def test_long_cube_list_against_oracle():
    """Without pruning, eliminating this alternation multiplies out a list
    of over a hundred cubes; deciding it must not recurse along one."""
    a = parse_sln("forall x0. exists x1. forall x2. exists x3. "
                  "((x0 = s(x1) \\/ x0 = x2) /\\ (x1 = s(x2) \\/ x1 = x3) "
                  "/\\ (x0 = s(x1) \\/ x0 = x2))")
    assert decide_sentence(a) == stable_brute_force(SIGMA, EMPTY, a)


# Literals x = 1, x != 1, y = 2, z = 3 and their negations.
X, Y, Z = (True, None, 1, "x"), (True, None, 2, "y"), (True, None, 3, "z")
NX, NY, NZ = ((False, *lit[1:]) for lit in (X, Y, Z))


def test_contradictory_merges_are_dropped():
    assert _and([(X,), (Y,)], [(NX,)]) == [(Y, NX)]
    assert _and([(X, Y)], [(NY, Z), (NX,)]) == []
    assert _cube([X, True, NX]) == []


def test_long_cube_keeps_order_and_contradictions():
    """Past eight literals a cube is built through a dict; repeats still go,
    the first occurrence keeps its place, and a literal with its negation
    or a false literal still gives []."""
    assert _cube([Z, True, Y, Z, X, Y, NY, X, Z, Y]) == []
    assert _cube([Z, True, Y, Z, X, Y, X, Z, Y, True]) == [(Z, Y, X)]
    assert _cube([X, Y, Z, X, Y, Z, X, Y, Z, False]) == []


def test_long_guard():
    """A guard x >= m gives one disequality per value below it, so deciding
    these sentences builds a cube of 3000 literals."""
    assert decide_sentence(parse_sln("exists y. exists x >= 3000. x = y")) is True
    assert decide_sentence(parse_sln("forall y. exists x >= 3000. x = y")) is False
    assert decide_sentence(parse_sln("exists y. exists x >= 3000. x = s(y)")) is True


def test_absorption_drops_supersets_in_order():
    # (Z, NY) comes first and survives; (X, Y) contains (Y,), and (NY, Z)
    # repeats (Z, NY).
    assert _absorb([(Z, NY), (Y,), (X, Y), (X,), (NY, Z)]) == [(Z, NY), (Y,), (X,)]
    # !(x = 1 /\ y = 2) /\ !(x = 1) is x != 1
    assert _negate([(X, Y), (X,)]) == [(NX,)]
    assert _negate([(X,), (Y, Z)]) == [(NX, NY), (NX, NZ)]


def test_true_cube_still_collapses():
    assert _or([(X,)], [(Y,), ()]) == [()]
    assert _and([(), (X,)], [()]) == [()]
    assert _negate([]) == [()]
    assert _negate([()]) == []


def ladder(k: int) -> str:
    r"""The alternation ladder: k + 2 alternating quantifiers over
    /\_{i<k} (x_i = s(x_{i+1}) \/ x_i = x_{i+2}), which is false."""
    quants = " ".join(f"{'exists' if i % 2 else 'forall'} x{i}." for i in range(k + 2))
    body = " /\\ ".join(f"(x{i} = s(x{i + 1}) \\/ x{i} = x{i + 2})" for i in range(k))
    return f"{quants} ({body})"


def test_ladder():
    for k in range(2, 9):
        assert decide_sentence(parse_sln(ladder(k))) is False, k
    for k in (2, 3):
        a = parse_sln(ladder(k))
        assert stable_brute_force(SIGMA, EMPTY, a) is False


def test_budget_exceeded(monkeypatch, capsys):
    monkeypatch.setattr(succ, "MAX_CUBES", 4)
    with pytest.raises(BudgetExceeded):
        decide_sentence(parse_sln(ladder(4)))
    assert main(["decide-succ", ladder(4)]) == 2
    assert capsys.readouterr().err.startswith("error: budget exceeded")


def test_absorption_budget(monkeypatch, capsys):
    """The subset tests of one absorption are charged to the budget: with
    the cubes well inside MAX_CUBES, an absorption past MAX_TESTS stops."""
    sentence = parse_sln(ladder(6))
    monkeypatch.setattr(succ, "MAX_TESTS", 120)  # the most ladder(6) makes in one absorption
    assert decide_sentence(sentence) is False
    monkeypatch.setattr(succ, "MAX_TESTS", 119)
    with pytest.raises(BudgetExceeded, match="subset tests pass MAX_TESTS = 119"):
        decide_sentence(sentence)
    assert main(["decide-succ", ladder(6)]) == 2
    assert capsys.readouterr().err.startswith("error: budget exceeded")


DEEP = 10_000


@pytest.mark.parametrize("text, verdict", [
    ("!" * DEEP + "0 = 0", True),
    ("!" * (DEEP + 1) + "0 = 0", False),
    (" /\\ ".join(["0 = 0"] * DEEP), True),
    (" \\/ ".join(["0 = s(0)"] * DEEP), False),
], ids=["not-even", "not-odd", "and", "or-all-false"])
def test_deep_chains(text, verdict, capsys):
    """A run of ! and a long chain of one connective are decided at the
    default recursion limit; every operand of the false disjunction is
    false, so each one is read."""
    assert decide_sentence(parse_sln(text)) is verdict
    assert main(["decide-succ", text]) == (0 if verdict else 1)
    assert capsys.readouterr().out.strip() == str(verdict).lower()


def test_truth_constant():
    assert decide_sentence(TruthConst(True)) is True
    assert decide_sentence(TruthConst(False)) is False


def test_free_vars_memo_on_translations_sharing_h():
    h = table_heap_condition()
    a, b = (circle_translate(normalize_bounded(parse_pa(text)))
            for text in ("exists y <= x. y + y = x", "forall y <= x. y * y <= z"))
    for sub in (*subformulas(a), *subformulas(b)):
        vars(sub).pop("_free", None)
    before = free_vars(a), free_vars(b)
    assert before == ({"x"}, {"x", "z"})
    assert vars(h)["_free"] == frozenset()
    assert (free_vars(a), free_vars(b)) == before
