import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnkit.ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, GForall, Leq, Not, Or,
    Plus, Succ, Var, Zero, alpha_eq, and_all, free_vars, imp, or_all, pa_num,
    sln_num, svar,
)
from slnkit.finite import LEq, l_free_vars, triangle_translate
from slnkit.gen import Generators
from slnkit.normalize import normalize_bounded
from slnkit.parser import parse_pa
from slnkit.render import render
from slnkit.semantics import VarAssignment, eval_bounded, eval_term
from slnkit.transform import (
    expand_guards, is_bounded, is_dnf_matrix, is_normal, is_pi01, substitute,
    to_dnf, to_prenex, unfold_bounded,
)
from slnkit.translate import circle_translate, ineq_formula, table_heap_condition

from oracles import naive_pa_eval
from shallow import shallow


def all_sigmas(names, top):
    for values in itertools.product(range(top + 1), repeat=len(names)):
        yield VarAssignment(dict(zip(sorted(names), values)))


def test_substitute_simple():
    a = Leq(Var("x"), Var("y"))
    assert substitute(a, "x", Succ(Zero())) == Leq(Succ(Zero()), Var("y"))


def test_substitute_capture_avoidance():
    # (exists y (x = y))[x := s(y)] must rename the binder
    a = Exists("y", Eq(Var("x"), Var("y")))
    out = substitute(a, "x", Succ(Var("y")))
    assert isinstance(out, Exists)
    assert out.var != "y"
    assert out.body == Eq(Succ(Var("y")), Var(out.var))
    assert free_vars(out) == {"y"}


def test_substitute_shadowing_leaves_body():
    a = Exists("x", Eq(Var("x"), Zero()))
    assert substitute(a, "x", Succ(Zero())) == a


@pytest.mark.parametrize("first", ["exists x.", "exists x <= w."])
def test_substitute_shadowing_binder_spends_no_fresh_name(first):
    a = parse_pa(f"({first} x = 0) /\\ (exists w. x = w)")
    out = substitute(a, "x", Plus(Var("x"), Var("w")))
    assert render(out) == f"({first} x = 0) /\\ exists w#1. x + w = w#1"


def test_substitute_into_bounds():
    a = BForall("y", Var("x"), Leq(Var("y"), Var("x")))
    out = substitute(a, "x", pa_num(2))
    assert out == BForall("y", pa_num(2), Leq(Var("y"), pa_num(2)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_substitution_lemma(xval, yval, data):
    gens = Generators(data.draw(st.integers(0, 10_000)))
    a = gens.pa_bounded(depth=2)
    t = gens.pa_term(["y"], 1)
    sigma = VarAssignment({"x": xval, "y": yval})
    lhs = eval_bounded(sigma, substitute(a, "x", t))
    rhs = eval_bounded(sigma.update("x", eval_term(sigma, t)), a)
    assert lhs == rhs


def test_substitute_free_var_postcondition():
    gens = Generators(25)
    for _ in range(200):
        a = gens.pa_bounded(depth=2)
        t = gens.pa_term(["x", "y", "w"], 1)
        out = substitute(a, "x", t)
        from slnkit.ast import pa_term_vars
        if "x" in free_vars(a):
            assert free_vars(out) == (free_vars(a) - {"x"}) | pa_term_vars(t)
        else:
            assert out == a


def test_unfold_bounded():
    a = parse_pa("forall y <= x. y <= x")
    u = unfold_bounded(a)
    assert u == Forall("y", Or(Not(Leq(Var("y"), Var("x"))), Leq(Var("y"), Var("x"))))
    e = parse_pa("exists (z = x + 0) z = x")
    assert unfold_bounded(e) == Exists("z", And(Eq(Var("z"), Plus(Var("x"), Zero())),
                                                Eq(Var("z"), Var("x"))))


def test_to_prenex_flips_bounded_quantifiers():
    a = Not(BExists("x", Var("t"), Leq(Var("x"), Var("t"))))
    p = to_prenex(a)
    assert isinstance(p, BForall)
    assert p.body == Not(Leq(Var(p.var), Var("t")))


def test_to_prenex_already_prenex():
    a = parse_pa("forall x <= y. x <= y")
    assert alpha_eq(to_prenex(a), a)


def test_to_prenex_preserves_truth():
    gens = Generators(21)
    for _ in range(120):
        a = gens.pa_bounded(depth=3)
        p = to_prenex(a)
        for sigma in all_sigmas(free_vars(a), 3):
            assert eval_bounded(sigma, a) == eval_bounded(sigma, p)


def test_to_dnf_rewrites_negated_leq():
    a = Not(Leq(Var("t"), Var("u")))
    out = to_dnf(a)
    assert out == And(Leq(Var("u"), Var("t")), Not(Eq(Var("u"), Var("t"))))


def test_to_dnf_distributes():
    a, b, c = Eq(Var("a"), Zero()), Eq(Var("b"), Zero()), Eq(Var("c"), Zero())
    out = to_dnf(And(a, Or(b, c)))
    assert out == Or(And(a, b), And(a, c))
    assert is_dnf_matrix(out)


def test_to_dnf_preserves_truth():
    gens = Generators(22)
    for _ in range(150):
        a = gens.pa_atom(["x", "y"], 1)
        b = gens.pa_atom(["x", "y"], 1)
        c = gens.pa_atom(["x"], 1)
        f = Not(Or(And(a, Not(b)), c))
        d = to_dnf(f)
        assert is_dnf_matrix(d)
        for sigma in all_sigmas(free_vars(f), 3):
            assert eval_bounded(sigma, f) == eval_bounded(sigma, d)


def test_is_bounded():
    assert is_bounded(parse_pa("forall x <= y. x <= y"))
    assert not is_bounded(parse_pa("forall x. x <= y"))
    # strict reading: the defining existential is not a bounded quantifier
    assert not is_bounded(parse_pa("exists (z = x + 0) !(z = x)"))


def test_is_pi01():
    assert is_pi01(parse_pa("forall x. forall y <= x. y <= x"))
    assert not is_pi01(parse_pa("exists x. x = 0"))
    assert not is_pi01(parse_pa("forall x. exists y. y = x"))


def test_is_normal():
    good = parse_pa("exists (x1 = x + s(x)) exists (x2 = x + x1) forall y <= x2. "
                    "exists (x3 = x + y) exists (x4 = y * x3) exists (x5 = x + x4) 0 <= x5")
    assert is_normal(good)
    assert not is_normal(parse_pa("exists (z = (x + y) + w) z = z"))
    assert not is_normal(parse_pa("forall x <= y + z. x <= y"))
    assert not is_normal(parse_pa("exists (z = x) z = z"))
    assert not is_normal(Not(Leq(Var("x"), Var("y"))))


def test_expand_guards_preserves_truth():
    from slnkit.checker import check
    from slnkit.transform import expand_guards

    gens = Generators(24)
    for _ in range(100):
        a = gens.sln_formula(depth=2)
        h = gens.sparse_heap()
        sigma = gens.assignment(sorted(free_vars(a)), 3)
        expanded = expand_guards(a)
        assert check(sigma, h, a) == check(sigma, h, expanded)


def test_expand_guards_shape():
    from slnkit.ast import GExists, GForall, SLNTerm, sln_num
    from slnkit.parser import parse_sln
    from slnkit.transform import expand_guards

    f = GForall("x", 2, Eq(SLNTerm("x", 0), sln_num(5)))
    assert expand_guards(f) == parse_sln(
        "forall x. x = 0 \\/ x = s(0) \\/ x = s(s(s(s(s(0)))))")
    g = GExists("x", 2, Eq(SLNTerm("x", 0), sln_num(5)))
    assert expand_guards(g) == parse_sln(
        "exists x. !(x = 0) /\\ !(x = s(0)) /\\ x = s(s(s(s(s(0)))))")


def test_naive_pa_oracle_agrees_with_eval_bounded():
    gens = Generators(23)
    for _ in range(500):
        a = gens.pa_bounded(depth=2)
        sigma = gens.assignment(sorted(free_vars(a)), 3)
        assert eval_bounded(sigma, a) == naive_pa_eval(sigma, a)


# ---------------------------------------------------------------------------
# Deep chains: every transform rebuilds on an explicit stack, so a 10^4-deep
# chain of !, /\, \/ or binders goes through at the default recursion limit.

DEEP = 10_000


def _wrap(level, core):
    """level(i, inner) applied for i = DEEP - 1 down to 0 around core."""
    for i in reversed(range(DEEP)):
        core = level(i, core)
    return core


def _chain(kind: str, atom):
    """DEEP negations of atom, or a chain of DEEP copies of it."""
    if kind == "!":
        return _wrap(lambda i, b: Not(b), atom)
    return (and_all if kind == "/\\" else or_all)([atom] * DEEP)


@pytest.mark.parametrize("name, chain", [
    (name, chain)
    for name in ["unfold_bounded", "expand_guards", "to_prenex", "to_dnf",
                 "normalize_bounded", "circle_translate"]
    for chain in ["!", "/\\", "\\/"]
    if (name, chain) != ("circle_translate", "!")  # a run of ! is not a normal matrix
])
def test_deep_connective_chain(name, chain):
    leq, seq = Leq(Var("x"), Var("y")), Eq(svar("x"), svar("y"))
    transform, atom, image = {
        "unfold_bounded": (unfold_bounded, leq, leq),
        "expand_guards": (expand_guards, seq, seq),
        "to_prenex": (to_prenex, leq, leq),
        "to_dnf": (to_dnf, leq, leq),
        "normalize_bounded": (normalize_bounded, leq, leq),
        "circle_translate": (circle_translate, Eq(Var("x"), Var("y")), seq),
    }[name]
    if chain == "!" and name in ("to_dnf", "normalize_bounded"):
        expected = image  # an even run of ! cancels
    else:
        expected = _chain(chain, image)
    assert shallow(transform, _chain(chain, atom)) == expected


def test_deep_binder_chain_unfold_bounded():
    leq, y = Leq(Var("x"), Var("y")), Var("y")
    a = _wrap(lambda i, b: BForall(f"x{i}", y, b), leq)
    assert shallow(unfold_bounded, a) == _wrap(
        lambda i, b: Forall(f"x{i}", imp(Leq(Var(f"x{i}"), y), b)), leq)


def test_deep_binder_chain_expand_guards():
    seq = Eq(svar("x"), svar("y"))
    a = _wrap(lambda i, b: GForall(f"x{i}", 1, b), seq)
    assert shallow(expand_guards, a) == _wrap(
        lambda i, b: Forall(f"x{i}", Or(Eq(svar(f"x{i}"), sln_num(0)), b)), seq)


@pytest.mark.parametrize("transform", [to_prenex, normalize_bounded])
def test_deep_binder_chain_is_prenex_and_normal(transform):
    a = _wrap(lambda i, b: BForall(f"x{i}", Var("y"), b), Leq(Var("x"), Var("y")))
    assert shallow(transform, a) == a


def test_deep_binder_chain_circle_translate():
    eq, seq = Eq(Var("x"), Var("y")), Eq(svar("x"), svar("y"))
    bounded = _wrap(lambda i, b: BForall(f"x{i}", Var("y"), b), eq)
    h = table_heap_condition()
    assert shallow(circle_translate, bounded) == _wrap(lambda i, b: imp(h, Forall(f"x{i}", Or(
        Not(ineq_formula(svar(f"x{i}"), svar("y"))), b))), seq)
    outer = _wrap(lambda i, b: Forall(f"x{i}", b), eq)
    assert shallow(circle_translate, outer) == _wrap(lambda i, b: Forall(f"x{i}", b), seq)


@pytest.mark.parametrize("chain", ["!", "/\\", "exists"])
def test_deep_l_chain(chain):
    lxy = LEq("x", "y")
    image = triangle_translate(lxy)
    if chain == "!":
        a, expected, free = _wrap(lambda i, b: Not(b), lxy), _chain("!", image), {"x", "y"}
    elif chain == "/\\":
        a = _wrap(lambda i, b: And(lxy, b), lxy)
        expected, free = and_all([image] * (DEEP + 1)), {"x", "y"}
    else:
        a = _wrap(lambda i, b: Exists(f"x{i}", b), LEq("x0", "y"))
        expected = _wrap(lambda i, b: Exists(f"x{i}", And(
            triangle_translate(Exists(f"x{i}", lxy)).body.left, b)),  # x{i}'s witness
            triangle_translate(LEq("x0", "y")))
        free = {"y"}
    assert shallow(triangle_translate, a) == expected
    assert shallow(l_free_vars, a) == free


def test_deep_numeral_term_walks():
    """The PA term walks read a run of s in a loop, so free_vars, render,
    to_prenex, substitute, normalize_bounded, eval_term and the circle
    translation take s^(10^4)(0) at the default recursion limit."""
    n = 10_000
    a = Leq(Var("x"), pa_num(n))
    assert shallow(free_vars, a) == {"x"}
    assert shallow(render, a) == "x <= " + "s(" * n + "0" + ")" * n
    assert shallow(to_prenex, a) == a
    assert shallow(substitute, a, "x", Succ(Var("y"))) == Leq(Succ(Var("y")), pa_num(n))
    assert shallow(normalize_bounded, a) == a
    assert shallow(eval_term, VarAssignment(), pa_num(n)) == n
    assert shallow(circle_translate, Eq(Var("x"), pa_num(n))) == Eq(svar("x"), sln_num(n))
    # a sum under a long run of s gets its variable, inside the same run
    total = Plus(Var("x"), Var("x"))
    for _ in range(n):
        total = Succ(total)
    out = shallow(normalize_bounded, Leq(Var("y"), total))
    assert isinstance(out, ExistsEq) and out.defn == Plus(Var("x"), Var("x"))
    assert render(out.body) == "y <= " + "s(" * n + out.var + ")" * n
