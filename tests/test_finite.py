import itertools

import pytest

from slnkit.ast import (
    And, Eq, Exists, Leq, Not, Or, PointsTo, Var, free_vars, sln_num, svar,
)
from slnkit.checker import check
from slnkit.finite import (
    LEq, LPred, decode_heap, encode_structure,
    eval_fol, finite_validity_premise, l_forall, l_free_vars, l_imp,
    parse_l, parse_structure, render_structure, structure,
    triangle_translate,
)
from slnkit.gen import Generators
from slnkit.heap import Heap
from slnkit.semantics import VarAssignment

from shallow import shallow


def test_eval_fol_examples():
    m = structure({0}, [])
    assert eval_fol(m, VarAssignment(), Exists("x", LEq("x", "x")))
    m2 = structure({0, 1}, [(0, 1)])
    assert eval_fol(m2, VarAssignment(), Exists("x", Exists("y", LPred("x", "y"))))
    symmetric = l_forall("x", l_forall("y", l_imp(LPred("x", "y"), LPred("y", "x"))))
    assert not eval_fol(m2, VarAssignment(), symmetric)


DEEP = 10**4


@pytest.mark.parametrize("text, expected", [
    ("!" * DEEP + "x = x", True),
    ("!" * (DEEP + 1) + "x = x", False),
    (" /\\ ".join(["x = x"] * DEEP), True),
    (" /\\ ".join(["x = x"] * DEEP + ["P(x,x)"]), False),
    (" \\/ ".join(["P(x,x)"] * DEEP), False),
    (" \\/ ".join(["P(x,x)"] * DEEP + ["x = x"]), True),
    (" => ".join(["x = x"] * DEEP + ["P(x,x)"]), False),
    (" => ".join(["x = x"] * DEEP), True),
], ids=["!-even", "!-odd", "and-true", "and-false", "or-false", "or-true",
        "imp-false", "imp-true"])
def test_eval_fol_deep_chain(text, expected):
    """A run of ! and a chain of /\\, \\/ or => cost eval_fol no frame: the
    last operand of each chain decides it, so every operand is read."""
    a = parse_l(text)
    m = structure({0}, [])
    assert shallow(eval_fol, m, VarAssignment({"x": 0}), a) is expected


def test_eval_fol_deep_exists_chain():
    """A run of exists is one loop over tuples of the universe, so it
    costs eval_fol no frame per exists, with one name or many."""
    m = structure({0}, [(0, 0)])
    assert shallow(eval_fol, m, VarAssignment(), parse_l("exists x. " * DEEP + "x = x")) is True
    distinct = "".join(f"exists x{k}. " for k in range(DEEP))
    a = parse_l(distinct + f"P(x0, x{DEEP - 1})")
    assert shallow(eval_fol, m, VarAssignment(), a) is True
    assert shallow(eval_fol, structure({0}, []), VarAssignment(), a) is False


@pytest.mark.parametrize("text, expected", [
    ("exists x. exists y. exists x. P(x, y)", True),
    ("exists x. exists y. exists x. (P(x, y) /\\ x = y)", False),
    ("exists x. exists y. (P(x, y) /\\ exists x. P(y, x))", True),
    ("exists y. exists y. P(y, x)", True),
    ("exists y. exists y. P(x, y)", False),
    ("exists y. (P(y, x) /\\ exists x. P(x, y))", True),
])
def test_eval_fol_shadowed_exists(text, expected):
    """An inner exists on a name shadows the outer one and the free one."""
    m = structure({0, 1, 2}, [(1, 0), (0, 2)])
    assert eval_fol(m, VarAssignment({"x": 2}), parse_l(text)) is expected


_XY = VarAssignment({"x": 0, "y": 0})


@pytest.mark.parametrize("a", [
    And(LEq("x", "y"), Eq(svar("x"), svar("y"))),
    Not(Exists("x", And(LPred("x", "y"), Leq(Var("x"), Var("y"))))),
    Or(LEq("x", "y"), LPred("x", "y")),
], ids=["sln-atom", "pa-atom", "or"])
def test_mixed_formula_is_not_l(a):
    """L formulas are built from ast's connectives, so a formula can put L
    atoms beside PA or SLN ones, or under a connective L lacks; every L walk
    rejects it."""
    for walk in (triangle_translate, l_free_vars,
                 lambda b: eval_fol(structure({0}, []), _XY, b)):
        with pytest.raises(TypeError, match="not an L formula"):
            walk(a)


@pytest.mark.parametrize("a", [
    LEq("x", "y"),
    Not(LPred("x", "y")),
    Exists("x", And(LEq("x", "y"), Eq(svar("x"), svar("y")))),
])
def test_check_rejects_l_formula(a):
    with pytest.raises(TypeError, match="not an SLN formula"):
        check(_XY, Heap({}), a)


def test_eval_fol_rejects_outside_universe():
    m = structure({1, 2}, [])
    with pytest.raises(ValueError):
        eval_fol(m, VarAssignment({"x": 0}), LEq("x", "x"))
    with pytest.raises(ValueError):
        # unmapped variables default to 0, which is outside this universe
        eval_fol(m, VarAssignment(), LEq("x", "x"))


def test_encode_examples():
    assert dict(encode_structure(structure({5}, [])).cells) == {0: 0, 1: 7}
    m = structure({0, 1}, [(0, 1)])
    assert dict(encode_structure(m).cells) == {0: 0, 1: 2, 2: 0, 3: 3, 4: 1, 5: 2, 6: 3}
    assert len(encode_structure(structure(set(), []))) == 0


def test_decode_examples():
    assert decode_heap(Heap({0: 0, 1: 2})) == structure({0}, [])
    with pytest.raises(ValueError):
        decode_heap(Heap())
    # out-of-universe relation rows are retained as decoded
    h = Heap({0: 0, 1: 2, 2: 1, 3: 9, 4: 9})
    m = decode_heap(h)
    assert m.universe == {0}
    assert m.relation == {(7, 7)}
    assert not m.well_formed


def test_decode_encode_round_trip():
    gens = Generators(71)
    for _ in range(100):
        m = gens.finite_structure()
        assert decode_heap(encode_structure(m)) == m


def test_triangle_clauses():
    from slnkit.ast import SLNTerm

    eq = triangle_translate(LEq("x", "y"))
    member_x = Exists("$a", And(PointsTo(svar("$a"), sln_num(0)),
                                PointsTo(SLNTerm("$a", 1), SLNTerm("x", 2))))
    assert eq == And(Eq(svar("x"), svar("y")), member_x)
    neg = triangle_translate(Not(LEq("x", "x")))
    assert neg == Not(triangle_translate(LEq("x", "x")))
    ex = triangle_translate(Exists("x", LPred("x", "x")))
    assert ex == Exists("x", And(member_x, triangle_translate(LPred("x", "x"))))
    pred = triangle_translate(LPred("x", "y"))
    rel = Exists("$a", And(PointsTo(svar("$a"), sln_num(1)),
                           And(PointsTo(SLNTerm("$a", 1), SLNTerm("x", 2)),
                               PointsTo(SLNTerm("$a", 2), SLNTerm("y", 2)))))
    assert pred.left == rel


def test_premise_shape():
    closed = Exists("x", LEq("x", "x"))
    wrapped = finite_validity_premise(closed)
    # guard -> translation, with no membership conjuncts for a closed input
    assert isinstance(wrapped, Or) and isinstance(wrapped.left, Not)
    assert wrapped.right == triangle_translate(closed)
    open_formula = LPred("x", "x")
    wrapped2 = finite_validity_premise(open_formula)
    # membership premise for the one free variable, then the translation
    assert isinstance(wrapped2.right, Or)
    assert wrapped2.right.right == triangle_translate(open_formula)
    assert free_vars(wrapped2) == {"x"}


def test_equivalence_on_random_pairs():
    gens = Generators(72)
    for _ in range(60):
        m = gens.finite_structure()
        a = gens.l_formula()
        h = encode_structure(m)
        translated = triangle_translate(a)
        names = sorted(l_free_vars(a))
        for values in itertools.product(sorted(m.universe), repeat=len(names)):
            sigma = VarAssignment(dict(zip(names, values)))
            assert eval_fol(m, sigma, a) == check(sigma, h, translated)


def test_decoding_direction_equivalence():
    """Only-if direction: heaps satisfying the guard decode to structures
    that agree with the translation."""
    gens = Generators(73)
    tried = 0
    for _ in range(200):
        h = gens.sparse_heap()
        if gens.rng.random() < 0.7:
            # plant a universe row so the guard usually holds
            addr = gens.rng.randint(0, 10)
            h = h.mutated(addr, 0).mutated(addr + 1, gens.rng.randint(2, 8))
        try:
            m = decode_heap(h)
        except ValueError:
            continue
        a = gens.l_formula(depth=1)
        names = sorted(l_free_vars(a))
        translated = triangle_translate(a)
        for values in itertools.product(sorted(m.universe), repeat=len(names)):
            sigma = VarAssignment(dict(zip(names, values)))
            assert eval_fol(m, sigma, a) == check(sigma, h, translated)
        tried += 1
    assert tried > 10


def test_premise_validity_tracks_finite_truth():
    """The guarded implication is valid exactly when the source formula
    holds in every finite structure: checked by bounded search both ways."""
    from slnkit.verify import SearchLimits, bounded_counterexample_search

    limits = SearchLimits(max_assign_val=2, heap_samples=60, table_sizes=(), seed=6)
    # true in every finite structure with a nonempty universe
    nonempty = Exists("x", LEq("x", "x"))
    assert bounded_counterexample_search(finite_validity_premise(nonempty),
                                         limits) is None
    # false as soon as the universe has two elements: the encoding of any
    # two-element structure is a counterexample, a one-element one is not
    singleton = l_forall("x", l_forall("y", LEq("x", "y")))
    two = encode_structure(structure({0, 1}, []))
    assert not check(VarAssignment(), two, finite_validity_premise(singleton))
    one = encode_structure(structure({3}, []))
    assert check(VarAssignment(), one, finite_validity_premise(singleton))


def test_structure_text_round_trip():
    m = structure({0, 2, 5}, [(0, 2), (5, 5)])
    assert parse_structure(render_structure(m)) == m
    with pytest.raises(ValueError):
        parse_structure("R: 1 2")
    with pytest.raises(ValueError):
        parse_structure("U: x")
    # a superscript is a digit to str.isdigit, but not to int
    with pytest.raises(ValueError, match="line 1: bad universe element '²'"):
        parse_structure("U: ²")
    with pytest.raises(ValueError, match="line 2: relation line needs two naturals"):
        parse_structure("U: 1\nR: 1 ²")


def test_parse_l():
    assert parse_l("P(x,y)") == LPred("x", "y")
    assert parse_l("x = y") == LEq("x", "y")
    assert parse_l("exists x. P(x,x) /\\ x = x") == Exists("x", And(LPred("x", "x"), LEq("x", "x")))
    assert parse_l("forall x. P(x,x)") == l_forall("x", LPred("x", "x"))


@pytest.mark.parametrize("text, expected", [
    ("exists s. P(s,s)", Exists("s", LPred("s", "s"))),
    ("forall P. P(P,P)", l_forall("P", LPred("P", "P"))),
    ("x = P", LEq("x", "P")),
    ("P(x,y) => x = y", l_imp(LPred("x", "y"), LEq("x", "y"))),
    ("x = y \\/ P(x,x)", Not(And(Not(LEq("x", "y")), Not(LPred("x", "x"))))),
    ("x = y => y = x => P(x,y)",
     l_imp(LEq("x", "y"), l_imp(LEq("y", "x"), LPred("x", "y")))),
    ("exists x P(x,x)", Exists("x", LPred("x", "x"))),
    ("forall x (x = x)", l_forall("x", LEq("x", "x"))),
    ("!!x = y /\\ (P(x,y))", And(Not(Not(LEq("x", "y"))), LPred("x", "y"))),
])
def test_parse_l_accepts(text, expected):
    assert parse_l(text) == expected


@pytest.mark.parametrize("text", [
    "exists x <= y. P(x,x)",
    "forall x >= 2. x = x",
    "exists (x = y) x = x",
    "P = x",
    "P(x y)",
    "x = y y",
    "x = y)",
    "0 = x",
    "x + y = x",
    "x |-> y",
    "",
])
def test_parse_l_rejects(text):
    from slnkit.parser import ParseError

    with pytest.raises(ParseError):
        parse_l(text)
