import dataclasses
import operator
import pickle

import pytest

from slnkit.ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, GExists, GForall, Leq,
    Node, Not, Or, Plus, PointsTo, SLNTerm, Succ, Times, TruthConst, Var, Zero,
    alpha_eq, free_vars, is_quantifier_free, map_term, pa_num, pa_term_vars,
    shift, sln_num, subformulas, svar, term_vars,
)
from slnkit.finite import LAnd, LEq, LExists, LNot, LPred
from slnkit.gen import Generators
from slnkit.normalize import normalize_bounded
from slnkit.transform import is_bounded, substitute

from shallow import shallow


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


def test_pa_term_vars_names_the_offending_subterm():
    """A node that is no PA term is reported inside the operand of + or *
    that holds it, with the run of s above it."""
    bad = Succ(svar("y"))
    with pytest.raises(TypeError, match=r"not a PA term: Succ\(arg=SLNTerm"):
        pa_term_vars(Plus(Var("x"), Times(Zero(), bad)))


def test_deep_sum_term_vars():
    """pa_term_vars walks + and * on an explicit stack, so term_vars and the
    bound check of BForall, BExists and ExistsEq take 10^4-deep sums and
    products at the default recursion limit."""
    n = 10_000
    right, left = Var("y"), Var("y")
    for i in range(n):
        right = (Plus if i % 2 else Times)(Var("x"), right)
        left = (Plus if i % 2 else Times)(left, Succ(Var("x")))
    for t in (right, left):
        assert shallow(term_vars, t) == {"x", "y"}
        for cls in (BForall, BExists, ExistsEq):
            assert shallow(cls, "z", t, Leq(Var("z"), Var("x"))).var == "z"
            with pytest.raises(ValueError, match="mentions y"):
                shallow(cls, "y", t, Leq(Var("y"), Var("x")))


def test_deep_sum_map_term():
    """map_term folds + and * on an explicit stack, so renaming x to z takes
    10^4-deep sums, nested either way, at the default recursion limit."""

    def sums(x):
        right, left = Var("y"), Var("y")
        for i in range(10_000):
            right = (Plus if i % 2 else Times)(Var(x), right)
            left = (Plus if i % 2 else Times)(left, Succ(Var(x)))
        return right, left

    for t, renamed in zip(sums("x"), sums("z")):
        assert shallow(map_term, t, {"x": "z"}) == renamed


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


@pytest.mark.parametrize("name", ["#0", "##1", "x0", "x#1", "0"])
def test_alpha_eq_canonical_names_avoid_the_free_ones(name):
    """Binders are compared by renaming them to shared names; a free
    variable that happens to carry such a name is not captured by them."""
    a = Exists("y", Eq(svar("y"), svar(name)))
    assert alpha_eq(a, Exists("u", Eq(svar("u"), svar(name))))
    assert not alpha_eq(a, Exists(name, Eq(svar(name), svar(name))))


def test_deep_chain_traversal():
    """subformulas, free_vars, is_quantifier_free, is_bounded, hash, ==,
    repr, alpha_eq and substitute walk a 10^4-deep chain at the default
    recursion limit, subformulas in preorder."""
    depth = 10_000
    leaf, other = Leq(Zero(), Var("x")), Eq(Var("x"), Var("x"))

    def chain(bottom, wrap):
        a = bottom
        for _ in range(depth):
            a = wrap(a)
        return a

    left_deep = chain(leaf, lambda b: And(b, other))
    subs = shallow(list, subformulas(left_deep))
    assert len(subs) == 2 * depth + 1
    assert all(isinstance(b, And) for b in subs[:depth])
    assert subs[depth] is leaf and all(b is other for b in subs[depth + 1:])

    assert shallow(free_vars, left_deep) == {"x"}
    assert shallow(free_vars, chain(leaf, Not)) == {"x"}
    assert shallow(free_vars, chain(leaf, lambda b: Or(other, b))) == {"x"}
    assert shallow(free_vars, chain(leaf, lambda b: Exists("x", b))) == frozenset()
    assert shallow(free_vars, chain(Leq(Var("y"), Var("x")), lambda b: Exists("x", b))) == {"y"}

    assert shallow(is_quantifier_free, chain(leaf, Not))
    assert not shallow(is_quantifier_free, chain(Exists("y", leaf), Not))
    assert shallow(is_bounded, chain(leaf, lambda b: BForall("y", Zero(), Or(other, b))))
    assert not shallow(is_bounded, chain(Exists("y", leaf), lambda b: BForall("y", Zero(), b)))

    # hash and == on two separately built copies of each chain, and on a
    # copy that differs at the bottom.
    def fresh():
        return Eq(Var("x"), Var("x"))

    wraps = [Not, lambda b: And(fresh(), b), lambda b: Or(fresh(), b),
             lambda b: Exists("x", b)]
    for wrap in wraps:
        a, b, c = (chain(Eq(svar("x"), sln_num(k)), wrap) for k in (0, 0, 1))
        assert shallow(operator.eq, a, b) and shallow(hash, a) == shallow(hash, b)
        assert shallow(operator.ne, a, c)
    assert shallow(repr, chain(leaf, Not)) == "Not(body=" * depth + repr(leaf) + ")" * depth

    # alpha_eq on two separately built copies of each chain under one more
    # binder, the second copy with every binder renamed, and substitute.
    def wraps_over(v, t):
        return [Not, lambda b: And(Eq(svar(v), t), b), lambda b: Or(Eq(svar(v), t), b),
                lambda b: Exists(v, b)]

    for wrap, renamed, substituted in zip(wraps_over("x", svar("y")), wraps_over("u", svar("y")),
                                          wraps_over("x", sln_num(2))):
        a = Exists("x", chain(Eq(svar("x"), sln_num(0)), wrap))
        assert shallow(alpha_eq, a, Exists("u", chain(Eq(svar("u"), sln_num(0)), renamed)))
        assert not shallow(alpha_eq, a, Exists("u", chain(Eq(svar("x"), sln_num(0)), renamed)))
        assert shallow(substitute, a, "y", sln_num(2)) == Exists(
            "x", chain(Eq(svar("x"), sln_num(0)), substituted))
    # Each of the 10^4 binders would capture the x put in for y, so each is
    # renamed, in preorder.
    out = shallow(substitute, chain(Eq(svar("x"), svar("y")), lambda b: Exists("x", b)),
                  "y", svar("x"))
    names = [b.var for b in shallow(list, subformulas(out)) if isinstance(b, Exists)]
    assert names == [f"x#{i}" for i in range(1, depth + 1)]
    assert shallow(list, subformulas(out))[-1] == Eq(svar(f"x#{depth}"), svar("x"))
    assert shallow(free_vars, out) == {"x"}


def test_equal_formulas_hash_equal():
    """On generated formulas, == agrees with the printed structure, equal
    formulas hash equal, and the hash is that of the tuple of fields."""
    def sample():
        gens = Generators(5)
        return [gens.pa_bounded(depth=2) for _ in range(150)]

    firsts, seconds = sample(), sample()
    for a, b in zip(firsts, seconds):
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)))
    texts = [repr(b) for b in seconds]
    for a in firsts:
        text = repr(a)
        for b, b_text in zip(seconds, texts):
            assert (a == b) == (text == b_text)


def test_repr_of_a_large_normal_form():
    """normalize_bounded of this formula nests 408 defining existentials,
    deeper than a recursive repr can print."""
    gens = Generators(59)
    a = [gens.pa_bounded(depth=4) for _ in range(37)][-1]
    text = repr(normalize_bounded(a))
    assert text.count("ExistsEq(") == 408


_x, _y = Var("x"), Var("y")
_atom = Eq(SLNTerm("x", 0), SLNTerm(None, 1))
_atom_text = "Eq(left=SLNTerm(base='x', offset=0), right=SLNTerm(base=None, offset=1))"

# One node of each class, with the repr its frozen dataclass printed.
NODES = [
    (_x, "Var(name='x')"),
    (Zero(), "Zero()"),
    (Succ(Zero()), "Succ(arg=Zero())"),
    (Plus(_x, Zero()), "Plus(left=Var(name='x'), right=Zero())"),
    (Times(_x, _y), "Times(left=Var(name='x'), right=Var(name='y'))"),
    (SLNTerm("x", 2), "SLNTerm(base='x', offset=2)"),
    (Eq(_x, Succ(_y)), "Eq(left=Var(name='x'), right=Succ(arg=Var(name='y')))"),
    (Leq(Zero(), _x), "Leq(left=Zero(), right=Var(name='x'))"),
    (PointsTo(SLNTerm("x", 1), SLNTerm(None, 0)),
     "PointsTo(addr=SLNTerm(base='x', offset=1), val=SLNTerm(base=None, offset=0))"),
    (TruthConst(False), "TruthConst(value=False)"),
    (Not(_atom), f"Not(body={_atom_text})"),
    (And(_atom, TruthConst(True)), f"And(left={_atom_text}, right=TruthConst(value=True))"),
    (Or(TruthConst(True), _atom), f"Or(left=TruthConst(value=True), right={_atom_text})"),
    (Exists("x", _atom), f"Exists(var='x', body={_atom_text})"),
    (Forall("x", _atom), f"Forall(var='x', body={_atom_text})"),
    (BForall("y", _x, Leq(_y, _x)),
     "BForall(var='y', bound=Var(name='x'), body=Leq(left=Var(name='y'), right=Var(name='x')))"),
    (BExists("y", Succ(_x), Eq(_y, _x)),
     "BExists(var='y', bound=Succ(arg=Var(name='x')), "
     "body=Eq(left=Var(name='y'), right=Var(name='x')))"),
    (ExistsEq("z", Plus(_x, _y), Eq(Var("z"), _x)),
     "ExistsEq(var='z', defn=Plus(left=Var(name='x'), right=Var(name='y')), "
     "body=Eq(left=Var(name='z'), right=Var(name='x')))"),
    (GForall("x", 2, _atom), f"GForall(var='x', guard=2, body={_atom_text})"),
    (GExists("x", 0, _atom), f"GExists(var='x', guard=0, body={_atom_text})"),
    (LEq("x", "y"), "LEq(left='x', right='y')"),
    (LPred("x", "x"), "LPred(left='x', right='x')"),
    (LNot(LEq("x", "y")), "LNot(body=LEq(left='x', right='y'))"),
    (LAnd(LPred("x", "y"), LEq("y", "y")),
     "LAnd(left=LPred(left='x', right='y'), right=LEq(left='y', right='y'))"),
    (LExists("y", LPred("x", "y")), "LExists(var='y', body=LPred(left='x', right='y'))"),
]


def test_every_node_class_is_pinned():
    assert {type(a) for a, _ in NODES} == set(Node.__subclasses__())
    assert len(NODES) == 25


@pytest.mark.parametrize("node,text", NODES, ids=[type(a).__name__ for a, _ in NODES])
def test_node_class_contract(node, text):
    """What each class got from @dataclass(frozen=True): its repr, fields in
    match order, keyword construction, equality and hash by fields, copies
    and immutability.  A pickle leaves the cached hash behind."""
    cls = type(node)
    assert repr(node) == text
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names == cls.__match_args__
    values = {n: getattr(node, n) for n in names}
    copy = cls(**values)
    assert copy is not node and copy == node and hash(copy) == hash(node)
    assert dataclasses.replace(node) == node
    unpickled = pickle.loads(pickle.dumps(node))
    assert unpickled == node and "_hash" not in vars(unpickled)
    assert node != object() and node != ()
    for n in names:
        with pytest.raises(AttributeError):
            setattr(node, n, values[n])
        with pytest.raises(AttributeError):
            delattr(node, n)
    with pytest.raises(AttributeError):
        node.extra = 0



def test_field_checks_raise():
    """Every __post_init__ check raises, on positional and keyword calls."""
    for bad in (lambda: Var(""), lambda: SLNTerm("x", -1), lambda: SLNTerm("", 0)):
        with pytest.raises(ValueError):
            bad()
    for cls in (BForall, BExists, ExistsEq):
        with pytest.raises(ValueError):
            cls("x", Succ(Var("x")), TruthConst(True))
        with pytest.raises(ValueError):
            cls(var="x", body=TruthConst(True), **{cls.__match_args__[1]: Var("x")})
    for cls in (GForall, GExists):
        with pytest.raises(ValueError):
            cls("x", -1, TruthConst(True))
        with pytest.raises(ValueError):
            cls(var="x", guard=-1, body=TruthConst(True))
