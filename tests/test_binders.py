"""Coverage of every walker over each of the seven binder classes: free
variables, subformula order, substitution, alpha equivalence, rendering and
the binders each transformation rejects."""

import itertools
import random

import pytest

from slnkit.ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, GExists, GForall,
    Leq, Not, Or, Plus, PointsTo, SLNTerm, Succ, Times, TruthConst, Var, Zero,
    alpha_eq, binder_term, free_vars, quantifier, subformulas, svar,
)
from slnkit.gen import Generators
from slnkit.parser import parse_pa, parse_sln
from slnkit.render import render
from slnkit.transform import (
    expand_guards, substitute, to_prenex, unfold_bounded,
)

# (class, bound, definition or guard, logic); the bound and definition
# mention w, a guard mentions no variable.
BINDERS = [
    (Exists, None, "pa"),
    (Forall, None, "pa"),
    (BForall, Var("w"), "pa"),
    (BExists, Succ(Var("w")), "pa"),
    (ExistsEq, Plus(Var("w"), Zero()), "pa"),
    (GForall, 2, "sln"),
    (GExists, 3, "sln"),
]
IDS = [cls.__name__ for cls, _, _ in BINDERS]


def build(cls, var, term, body):
    return cls(var, body) if term is None else cls(var, term, body)


def var(logic, name, offset=0):
    if logic == "sln":
        return SLNTerm(name, offset)
    out = Var(name)
    for _ in range(offset):
        out = Succ(out)
    return out


def term_names(term):
    return {"w"} if term is not None and not isinstance(term, int) else set()


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_free_vars_counts_bound_and_definition_not_guard(cls, term, logic):
    a = build(cls, "x", term, Eq(var(logic, "x"), var(logic, "y")))
    assert free_vars(a) == {"y"} | term_names(term)


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_subformulas_preorder(cls, term, logic):
    inner = Eq(var(logic, "x"), var(logic, "y"))
    other = Eq(var(logic, "y"), var(logic, "y"))
    q = build(cls, "x", term, Not(inner))
    a = And(q, other)
    assert list(subformulas(a)) == [a, q, Not(inner), inner, other]


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_substitute_renames_a_capturing_binder(cls, term, logic):
    a = build(cls, "y", term, Eq(var(logic, "x"), var(logic, "y")))
    out = substitute(a, "x", var(logic, "y", 1))
    assert type(out) is cls
    assert out.var != "y"
    assert out.body == Eq(var(logic, "y", 1), var(logic, out.var))
    assert free_vars(out) == {"y"} | term_names(term)


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_substitute_stops_at_a_shadowing_binder(cls, term, logic):
    a = build(cls, "x", term, Eq(var(logic, "x"), var(logic, "z")))
    assert substitute(a, "x", var(logic, "z", 1)) == a
    # the variable is replaced outside the binder
    outer = And(Eq(var(logic, "x"), var(logic, "x")), a)
    out = substitute(outer, "x", var(logic, "z"))
    assert out == And(Eq(var(logic, "z"), var(logic, "z")), a)


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_alpha_eq_renames_within_a_class(cls, term, logic):
    a = build(cls, "x", term, Eq(var(logic, "x"), var(logic, "y")))
    b = build(cls, "u", term, Eq(var(logic, "u"), var(logic, "y")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, build(cls, "u", term, Eq(var(logic, "x"), var(logic, "y"))))


@pytest.mark.parametrize("cls, term, logic", BINDERS[2:5], ids=IDS[2:5])
def test_substitute_renames_a_binder_its_bound_would_capture(cls, term, logic):
    """x occurs only in the bound or definition, which lies outside the
    binder's scope, so the y put in for it must stay free there."""
    a = build(cls, "y", Succ(Var("x")), Eq(Var("y"), Zero()))
    out = substitute(a, "x", Var("y"))
    assert out == build(cls, "y#1", Succ(Var("y")), Eq(Var("y#1"), Zero()))
    assert free_vars(out) == {"y"}


def test_substitute_avoids_a_bound_fresh_name():
    """The first fresh name for y, y#1, is already bound inside; the binder
    renamed for the capture must not take it."""
    a = Exists("y", And(Eq(Var("x"), Var("y")), Exists("y#1", Eq(Var("y"), Var("y#1")))))
    out = substitute(a, "x", Succ(Var("y")))
    assert render(out) == "exists y#2. s(y) = y#2 /\\ exists y#1. y#2 = y#1"
    assert alpha_eq(out, Exists("u", And(Eq(Succ(Var("y")), Var("u")),
                                         Exists("v", Eq(Var("u"), Var("v"))))))
    assert free_vars(out) == {"y"}


def rewrite(a, var, binder, env=None):
    """a rebuilt by plain recursion: each binder v is renamed to binder(v),
    and each variable occurrence v to var(v, env), where env maps the names
    bound around it to their new names."""
    env = {} if env is None else env

    def term(t):
        match t:
            case SLNTerm(v, k) if v is not None:
                return SLNTerm(var(v, env), k)
            case Var(v):
                return Var(var(v, env))
            case Succ(u):
                return Succ(term(u))
            case Plus(l, r) | Times(l, r):
                return type(t)(term(l), term(r))
        return t

    match a:
        case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
            return type(a)(term(l), term(r))
        case TruthConst():
            return a
        case Not(b):
            return Not(rewrite(b, var, binder, env))
        case And(l, r) | Or(l, r):
            return type(a)(rewrite(l, var, binder, env), rewrite(r, var, binder, env))
    t = binder_term(a)
    y = binder(a.var)
    body = rewrite(a.body, var, binder, {**env, a.var: y})
    return quantifier(type(a), y, t if t is None or isinstance(t, int) else term(t), body)


def test_alpha_eq_on_generated_formulas():
    """A copy with every binder renamed is alpha-equal; a copy with one free
    occurrence changed to a new name is not."""
    gens, rng = Generators(14), random.Random(14)
    formulas = [gens.pa_bounded(depth=3) for _ in range(100)]
    formulas += [gens.sln_formula(depth=3) for _ in range(100)]
    formulas += [gens.pa_normal() for _ in range(100)]
    changed = 0
    for a in formulas:
        names = (f"r{i}" for i in itertools.count())
        renamed = rewrite(a, lambda v, env: env.get(v, v), lambda v: next(names))
        assert alpha_eq(a, renamed) and alpha_eq(renamed, a), a
        free = []
        rewrite(a, lambda v, env: env.get(v) or free.append(v) or v, lambda v: v)
        if not free:
            continue
        k, seen = rng.randrange(len(free)), itertools.count()

        def var(v, env):
            if v in env:
                return env[v]
            return "z" if next(seen) == k else v

        assert not alpha_eq(a, rewrite(a, var, lambda v: v)), (a, k)
        changed += 1
    assert changed > 200


def test_alpha_eq_is_false_across_classes():
    body = Eq(Var("x"), Var("y"))
    formulas = [build(cls, "x", term, body) for cls, term, _ in BINDERS]
    formulas.append(GForall("x", 3, body))  # the guard of GExists, on GForall
    formulas.append(BExists("x", Var("w"), body))  # the bound of BForall
    for a, b in itertools.combinations(formulas, 2):
        assert not alpha_eq(a, b), (a, b)


@pytest.mark.parametrize("cls, term, logic", BINDERS, ids=IDS)
def test_render_parse_round_trip(cls, term, logic):
    parse = parse_pa if logic == "pa" else parse_sln
    a = build(cls, "x", term, Eq(var(logic, "x"), var(logic, "y", 1)))
    assert parse(render(a)) == a
    nested = And(a, Not(build(cls, "v", term, a)))
    assert parse(render(nested)) == nested


@pytest.mark.parametrize("cls, term", [(GForall, 2), (GExists, 0)])
def test_unfold_bounded_and_to_prenex_reject_guards(cls, term):
    a = And(Eq(svar("y"), svar("y")), cls("x", term, Eq(svar("x"), svar("y"))))
    with pytest.raises(TypeError):
        unfold_bounded(a)
    with pytest.raises(TypeError):
        to_prenex(a)


@pytest.mark.parametrize("cls, term", [(BForall, Var("w")), (BExists, Var("w")),
                                       (ExistsEq, Plus(Var("w"), Zero()))])
def test_expand_guards_rejects_pa_binders(cls, term):
    a = Not(cls("x", term, Eq(Var("x"), Var("y"))))
    with pytest.raises(TypeError):
        expand_guards(a)
