import pytest
from hypothesis import given, strategies as st

from slnkit.ast import (
    And, BForall, Eq, Exists, Leq, Not, Or, Plus, SLNTerm, Succ, Times,
    TruthConst, Var, Zero, pa_num, sln_num,
)
from slnkit.normalize import normalize_bounded
from slnkit.parser import parse_pa
from slnkit.render import render
from slnkit.semantics import (
    VarAssignment, eval_bounded, eval_term, max_bound, parse_assignment,
    render_assignment,
)

from shallow import shallow


def test_eval_term_examples():
    sigma = VarAssignment({"x": 2})
    assert eval_term(sigma, Plus(Var("x"), Succ(Var("x")))) == 5
    assert eval_term(sigma, pa_num(3)) == 3
    # the bound of the worked example at x = 1
    sigma1 = VarAssignment({"x": 1})
    bound = Plus(Var("x"), Plus(Var("x"), Succ(Var("x"))))
    assert eval_term(sigma1, bound) == 4


def test_deep_sum_eval_term():
    """eval_term folds + and * on an explicit stack, so it takes 10^4-deep
    sums, nested either way, at the default recursion limit."""
    n, sigma = 10_000, VarAssignment({"x": 1, "y": 2})
    right, left = Var("y"), Var("y")
    for i in range(n):
        right = (Plus if i % 2 else Times)(Var("x"), right)
        left = Plus(left, Succ(Var("x")))
    assert shallow(eval_term, sigma, right) == n // 2 + 2
    assert shallow(eval_term, sigma, left) == 2 * n + 2


def test_eval_bounded_examples():
    sigma = VarAssignment({"x": 1})
    assert not eval_bounded(sigma, parse_pa("x + x <= x"))
    worked = parse_pa("forall y <= x + (x + s(x)). 0 <= x + (y * (x + y))")
    assert eval_bounded(VarAssignment(), worked)
    counter = parse_pa("exists (z = x + 0) !(z = x)")
    for v in range(6):
        assert not eval_bounded(VarAssignment({"x": v}), counter)


def test_eval_term_sln():
    sigma = VarAssignment({"x": 2})
    assert eval_term(sigma, SLNTerm("x", 3)) == 5
    assert eval_term(sigma, sln_num(4)) == 4


def test_truth_constant():
    for v in (True, False):
        assert eval_bounded(VarAssignment(), TruthConst(v)) is v
    assert render(TruthConst(True)) == "0 = 0"
    assert render(TruthConst(False)) == "!(0 = 0)"


def test_eval_bounded_rejects_unbounded():
    with pytest.raises(ValueError):
        eval_bounded(VarAssignment(), Exists("x", Eq(Var("x"), Zero())))


def test_max_bound_closed_form():
    worked = normalize_bounded(
        parse_pa("forall y <= x + (x + s(x)). 0 <= x + (y * (x + y))"))
    for v in range(4):
        sigma = VarAssignment({"x": v})
        assert max_bound(sigma, worked) == v + (3 * v + 1) * (4 * v + 1)


def test_max_bound_equality_is_zero():
    assert max_bound(VarAssignment(), parse_pa("0 = 0")) == 0


def test_max_bound_quantifier_case():
    # forall y <= x. y <= x at x = 3: bound value and substituted body
    a = parse_pa("forall y <= x. y <= x")
    assert max_bound(VarAssignment({"x": 3}), a) == 3


def test_max_bound_under_a_shadowing_binder():
    # the inner binder rebinds x: its body reads x = 3, not the outer x = 2
    a = parse_pa("forall y <= x. exists x <= s(y). x + x <= y")
    assert max_bound(VarAssignment({"x": 2}), a) == 6
    b = parse_pa("exists (z = x + x) forall x <= z. x * x <= z")
    assert max_bound(VarAssignment({"x": 1}), b) == 4

def test_max_bound_counts_defining_operands():
    # a zero product is smaller than its other operand
    assert max_bound(VarAssignment(), parse_pa("exists (z = 0 * s(s(0))) !(z = 0)")) == 2
    assert max_bound(VarAssignment({"x": 4}), parse_pa("exists (z = x * 0) z = 0")) == 4
    # sums and nonzero products already cover their operands
    assert max_bound(VarAssignment({"x": 3}), parse_pa("exists (z = x * s(0)) z = x")) == 3
    assert max_bound(VarAssignment({"x": 3}), parse_pa("exists (z = x + 0) z = x")) == 3


def _deep_chain(kind: str, n: int = 10_000):
    """n levels of one kind above x <= 9.  Each /\\ operand is true and
    each \\/ operand false at x = 1, so only the innermost atom decides the
    chain: at x = 1 every chain is true, and its max_bound is 9."""
    x = Var("x")
    a = Leq(x, pa_num(9))
    for i in range(n):
        if kind == "not":
            a = Not(a)
        elif kind == "bounded forall":
            a = BForall("y", Zero(), a)
        elif kind == "and" or kind == "alternating" and i % 2:
            a = And(Leq(x, pa_num(1 + i % 3)), a)
        else:
            a = Or(Leq(pa_num(2 + i % 2), x), a)
    return a


CHAINS = ("not", "and", "or", "alternating", "bounded forall")


@pytest.mark.parametrize("kind", CHAINS)
def test_max_bound_deep_chain(kind):
    """max_bound walks one worklist, so 10^4-deep chains of each kind
    cost no frame per level."""
    assert shallow(max_bound, VarAssignment({"x": 1}), _deep_chain(kind)) == 9


@pytest.mark.parametrize("kind", [
    *CHAINS[:-1],
    pytest.param(CHAINS[-1], marks=pytest.mark.xfail(
        strict=True, reason="a bounded quantifier takes frames per level")),
])
def test_eval_bounded_deep_chain(kind):
    """eval_bounded reads runs of ! and chains of /\\ and \\/ in one loop;
    a chain of bounded quantifiers still recurses once per level."""
    assert shallow(eval_bounded, VarAssignment({"x": 1}), _deep_chain(kind)) is True


@given(st.integers(0, 30), st.integers(0, 30))
def test_update_law(n, m):
    sigma = VarAssignment({"y": m})
    updated = sigma.update("x", n)
    assert updated("x") == n
    assert updated("y") == sigma("y")
    assert sigma("x") == 0  # the original is untouched


def test_assignment_text_format():
    sigma = parse_assignment("x=2,y=0")
    assert sigma("x") == 2 and sigma("y") == 0 and sigma("z") == 0
    assert parse_assignment("") == VarAssignment()
    assert render_assignment(VarAssignment({"b": 1, "a": 2})) == "a=2,b=1"
    with pytest.raises(ValueError):
        parse_assignment("x=-1")
    with pytest.raises(ValueError):
        parse_assignment("x=1,x=2")
    with pytest.raises(ValueError):
        parse_assignment("nonsense")
    # a superscript is a digit to str.isdigit, but not to int
    with pytest.raises(ValueError, match="assignment value for x is not a natural: '²'"):
        parse_assignment("x=²")
