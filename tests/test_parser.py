import pytest

from slnkit.ast import (
    And, BForall, Eq, Exists, ExistsEq, Forall, GForall, Leq, Not, Or, Plus,
    PointsTo, SLNTerm, Succ, Times, Var, Zero, free_vars, sln_num, svar,
)
from slnkit.finite import LAnd, LNot, parse_l
from slnkit.gen import Generators
from slnkit.parser import ParseError, parse_pa, parse_sln
from slnkit.render import render


def test_parse_pa_simple_forall():
    a = parse_pa("forall x. x <= x + s(0)")
    assert a == Forall("x", Leq(Var("x"), Plus(Var("x"), Succ(Zero()))))


def test_parse_pa_bounded_example():
    a = parse_pa("forall y <= x + (x + s(x)). 0 <= x + (y * (x + y))")
    assert isinstance(a, BForall)
    assert a.var == "y"
    assert a.bound == Plus(Var("x"), Plus(Var("x"), Succ(Var("x"))))
    assert a.body == Leq(Zero(), Plus(Var("x"), Times(Var("y"), Plus(Var("x"), Var("y")))))


def test_parse_pa_exists_eq():
    a = parse_pa("exists (z = x + 0) !(z = x)")
    assert a == ExistsEq("z", Plus(Var("x"), Zero()), Not(Eq(Var("z"), Var("x"))))


def test_parse_sln_guarded_and_points_to():
    a = parse_sln("forall x (x |-> s(y) \\/ x = s(z))")
    assert a == Forall("x", Or(PointsTo(svar("x"), SLNTerm("y", 1)),
                               Eq(svar("x"), SLNTerm("z", 1))))
    b = parse_sln("exists a (a |-> s(s(0)))")
    assert b == Exists("a", PointsTo(svar("a"), sln_num(2)))
    c = parse_sln("forall x >= 3. x = s(z)")
    assert c == GForall("x", 3, Eq(svar("x"), SLNTerm("z", 1)))


def test_parse_sln_rejects_pa_symbols():
    with pytest.raises(ParseError):
        parse_sln("x + y = z")
    with pytest.raises(ParseError):
        parse_sln("x <= y")
    with pytest.raises(ParseError):
        parse_sln("forall x <= y. x = y")


def test_parse_pa_rejects_sln_symbols():
    with pytest.raises(ParseError):
        parse_pa("x |-> y")
    with pytest.raises(ParseError):
        parse_pa("forall x >= 3. x = x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_pa("forall x.\n x <= ")
    assert err.value.line == 2


def test_implication_desugars():
    a = parse_pa("x = y => y = x")
    assert a == Or(Not(Eq(Var("x"), Var("y"))), Eq(Var("y"), Var("x")))


def test_precedence():
    a = parse_pa("!x = y /\\ y = z \\/ x = z")
    # ! binds the atom, /\ before \/
    assert a == Or(And(Not(Eq(Var("x"), Var("y"))), Eq(Var("y"), Var("z"))),
                   Eq(Var("x"), Var("z")))


def test_numerals_must_use_s():
    with pytest.raises(ParseError):
        parse_pa("x = 3")
    assert parse_pa("x = s(s(s(0)))") == Eq(Var("x"), Succ(Succ(Succ(Zero()))))


def test_render_examples():
    assert render(Forall("x", Leq(Var("x"), Var("x")))) == "forall x. x <= x"
    assert render(GForall("x", 3, Eq(svar("x"), SLNTerm("z", 1)))) == "forall x >= 3. x = s(z)"


def test_duplicate_render_parses_structurally():
    # quantifier on the left of a connective needs parentheses
    a = And(Forall("x", Eq(svar("x"), svar("x"))), Eq(sln_num(0), sln_num(0)))
    assert parse_sln(render(a)) == a
    b = Or(And(Eq(sln_num(0), sln_num(0)), Forall("x", Eq(svar("x"), svar("x")))),
           Eq(sln_num(1), sln_num(1)))
    assert parse_sln(render(b)) == b


def test_round_trip_generated_pa():
    gens = Generators(11)
    for i in range(1000):
        a = gens.pa_normal() if i % 3 == 0 else gens.pa_bounded()
        if i % 5 == 0:
            # cover the unbounded quantifiers too
            for v in sorted(free_vars(a)):
                a = Forall(v, a) if gens.rng.random() < 0.5 else Exists(v, a)
        assert parse_pa(render(a)) == a


def test_round_trip_generated_sln():
    gens = Generators(13)
    for _ in range(1000):
        a = gens.sln_formula()
        assert parse_sln(render(a)) == a


@pytest.mark.parametrize("parse, atom", [(parse_pa, "(0 = 0)"), (parse_sln, "(0 = 0)"),
                                         (parse_l, "x = x")])
def test_deep_negation_chain(parse, atom):
    """A run of 3000 negations parses without exhausting the stack."""
    a = parse("!" * 3000 + atom)
    depth = 0
    while isinstance(a, (Not, LNot)):
        a, depth = a.body, depth + 1
    assert depth == 3000
    assert a == parse(atom)


def _chain_operands(a, op):
    """The operands of the right-nested chain of op at the top of a."""
    out = []
    while True:
        match op, a:
            case (("/\\", And(l, r) | LAnd(l, r))
                  | ("\\/", Or(l, r) | LNot(LAnd(LNot(l), LNot(r))))
                  | ("=>", Or(Not(l), r) | LNot(LAnd(l, LNot(r))))):
                out.append(l)
                a = r
            case _:
                return out + [a]


@pytest.mark.parametrize("op", ["/\\", "\\/", "=>"])
@pytest.mark.parametrize("parse, atom", [(parse_pa, "(0 = 0)"), (parse_sln, "(0 = 0)"),
                                         (parse_l, "x = x")])
def test_long_connective_chain(parse, atom, op):
    """A chain of 3000 operands joined by one connective parses without
    exhausting the stack, nested to the right."""
    a = parse(f" {op} ".join([atom] * 3000))
    assert _chain_operands(a, op) == [parse(atom)] * 3000


@pytest.mark.parametrize("parse, atom", [(parse_pa, "0 = 0"), (parse_sln, "0 = 0"),
                                         (parse_l, "x = x")])
def test_nested_parentheses(parse, atom):
    """150 levels of parentheses stay within the default recursion limit."""
    assert parse("(" * 150 + atom + ")" * 150) == parse(atom)


def test_render_deep_chains():
    """render walks an explicit stack: chains far deeper than the
    recursion limit print, with the text the grammar asks for."""
    atom, depth, text = Eq(svar("x"), sln_num(0)), 5000, "x = 0"
    inner = depth - 1  # a left operand disjunction is parenthesized, the root one is not
    chains = [(Not, "!(" * depth + text + ")" * depth),
              (lambda b: Exists("x", b), "exists x. " * depth + text),
              (lambda b: And(atom, b), " /\\ ".join([text] * (depth + 1))),
              (lambda b: Or(b, atom), "(" * inner + text + " \\/ x = 0)" * inner + " \\/ x = 0")]
    for wrap, expected in chains:
        a = atom
        for _ in range(depth):
            a = wrap(a)
        assert render(a) == expected
