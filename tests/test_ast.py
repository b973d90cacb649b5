import pytest

from slnkit.ast import (
    And, BForall, Eq, Exists, ExistsEq, Forall, GForall, Leq, Not, Or, Plus,
    SLNTerm, Succ, Var, Zero, alpha_eq, free_vars, is_quantifier_free, pa_num,
    shift, sln_num, subformulas, svar,
)
from slnkit.transform import is_bounded


def test_pa_num():
    assert pa_num(0) == Zero()
    assert pa_num(3) == Succ(Succ(Succ(Zero())))
    with pytest.raises(ValueError):
        pa_num(-1)


def test_sln_term_canonical():
    assert shift(shift(svar("x"), 1), 1) == SLNTerm("x", 2)
    assert sln_num(2) == SLNTerm(None, 2)
    with pytest.raises(ValueError):
        SLNTerm("x", -1)


def test_binder_invariants():
    with pytest.raises(ValueError):
        BForall("x", Plus(Var("x"), Zero()), Eq(Var("x"), Zero()))
    with pytest.raises(ValueError):
        ExistsEq("z", Plus(Var("z"), Zero()), Eq(Var("z"), Zero()))
    with pytest.raises(ValueError):
        GForall("x", -1, Eq(svar("x"), sln_num(0)))


def test_free_vars_examples():
    # forall x (x <= y) has only y free
    assert free_vars(Forall("x", Leq(Var("x"), Var("y")))) == {"y"}
    # exists (z = x+0) (z != x) has only x free
    a = ExistsEq("z", Plus(Var("x"), Zero()), Not(Eq(Var("z"), Var("x"))))
    assert free_vars(a) == {"x"}
    # closed formula
    assert free_vars(Forall("x", Eq(Var("x"), Var("x")))) == frozenset()


def test_free_vars_bounded_counts_bound_term():
    a = BForall("y", Var("x"), Leq(Var("y"), Var("y")))
    assert free_vars(a) == {"x"}


def test_alpha_eq():
    a = Exists("x", Eq(svar("x"), sln_num(0)))
    b = Exists("y", Eq(svar("y"), sln_num(0)))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Exists("y", Eq(svar("y"), sln_num(1))))
    # free variables must match exactly
    assert not alpha_eq(Eq(svar("x"), sln_num(0)), Eq(svar("y"), sln_num(0)))
    # binder map must be consistent across uses
    c = Exists("x", And(Eq(svar("x"), sln_num(0)), Eq(svar("x"), sln_num(1))))
    d = Exists("y", And(Eq(svar("y"), sln_num(0)), Eq(svar("z"), sln_num(1))))
    assert not alpha_eq(c, d)


def test_alpha_eq_mixed_binders():
    a = BForall("u", Var("x"), Leq(Var("u"), Var("x")))
    b = BForall("v", Var("x"), Leq(Var("v"), Var("x")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, BForall("v", Var("y"), Leq(Var("v"), Var("y"))))


def test_deep_chain_traversal():
    """subformulas, free_vars, is_quantifier_free and is_bounded walk a
    10^4-deep chain at the default recursion limit, subformulas in
    preorder."""
    depth = 10_000
    leaf, other = Leq(Zero(), Var("x")), Eq(Var("x"), Var("x"))

    def chain(bottom, wrap):
        a = bottom
        for _ in range(depth):
            a = wrap(a)
        return a

    left_deep = chain(leaf, lambda b: And(b, other))
    subs = list(subformulas(left_deep))
    assert len(subs) == 2 * depth + 1
    assert all(isinstance(b, And) for b in subs[:depth])
    assert subs[depth] is leaf and all(b is other for b in subs[depth + 1:])

    assert free_vars(left_deep) == {"x"}
    assert free_vars(chain(leaf, Not)) == {"x"}
    assert free_vars(chain(leaf, lambda b: Or(other, b))) == {"x"}
    assert free_vars(chain(leaf, lambda b: Exists("x", b))) == frozenset()
    assert free_vars(chain(Leq(Var("y"), Var("x")), lambda b: Exists("x", b))) == {"y"}

    assert is_quantifier_free(chain(leaf, Not))
    assert not is_quantifier_free(chain(Exists("y", leaf), Not))
    assert is_bounded(chain(leaf, lambda b: BForall("y", Zero(), Or(other, b))))
    assert not is_bounded(chain(Exists("y", leaf), lambda b: BForall("y", Zero(), b)))
