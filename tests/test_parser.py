import pytest
from hypothesis import given, settings, strategies as st

from slnkit.ast import (
    And, BForall, Eq, Exists, ExistsEq, Forall, GForall, Leq, Not, Or, Plus,
    PointsTo, SLNTerm, Succ, Times, Var, Zero, free_vars, pa_num, sln_num, svar,
)
from slnkit.finite import parse_l
from slnkit.gen import Generators
from slnkit.parser import ParseError, _line_col, _Parser, _tokenize, parse_pa, parse_sln
from slnkit.render import render, render_term

from shallow import shallow


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
    while isinstance(a, Not):
        a, depth = a.body, depth + 1
    assert depth == 3000
    assert a == parse(atom)


def _chain_operands(a, op):
    """The operands of the right-nested chain of op at the top of a."""
    out = []
    while True:
        match op, a:
            case (("/\\", And(l, r))
                  | ("\\/", Or(l, r) | Not(And(Not(l), Not(r))))
                  | ("=>", Or(Not(l), r) | Not(And(l, Not(r))))):
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


DEEP = 10**4


def _peel(a, inner):
    """The number of levels that inner unwraps off a, one per call until it
    returns None, and what is left."""
    depth = 0
    while (b := inner(a)) is not None:
        a, depth = b, depth + 1
    return depth, a


def _body(cls):
    return lambda a: a.body if type(a) is cls else None


def _l_forall_body(a):
    match a:
        case Not(Exists(_, Not(body))):
            return body


def _negated_exists_body(a):
    match a:
        case Not(Exists(_, body)):
            return body


@pytest.mark.parametrize("parse, atom", [(parse_pa, "0 = 0"), (parse_sln, "0 = 0"),
                                         (parse_l, "x = x")])
def test_nested_parentheses(parse, atom):
    """10^4 levels of parentheses around a formula parse at the default
    recursion limit."""
    assert shallow(parse, "(" * DEEP + atom + ")" * DEEP) == parse(atom)


@pytest.mark.parametrize("parse, head, atom, inner", [
    (parse_pa, "exists x. ", "x = x", _body(Exists)),
    (parse_pa, "forall x. ", "x = x", _body(Forall)),
    (parse_pa, "forall y <= x. ", "x = y", _body(BForall)),
    (parse_pa, "exists (z = x + y) ", "x = z", _body(ExistsEq)),
    (parse_sln, "exists x. ", "x = x", _body(Exists)),
    (parse_sln, "forall x. ", "x = x", _body(Forall)),
    (parse_sln, "forall x >= 3. ", "x = x", _body(GForall)),
    (parse_l, "exists x. ", "x = x", _body(Exists)),
    (parse_l, "forall x. ", "x = x", _l_forall_body),
], ids=["pa-exists", "pa-forall", "pa-bforall", "pa-existseq", "sln-exists", "sln-forall",
        "sln-gforall", "l-exists", "l-forall"])
def test_deep_quantifier_heads(parse, head, atom, inner):
    """10^4 quantifier heads parse at the default recursion limit, each
    body reaching to the end of the text."""
    assert _peel(shallow(parse, head * DEEP + atom), inner) == (DEEP, parse(atom))


@pytest.mark.parametrize("parse", [parse_pa, parse_sln, parse_l])
def test_deep_negated_quantifiers(parse):
    """10^4 levels of !(exists x. ( ... )) parse at the default recursion
    limit."""
    text = "!(exists x. (" * DEEP + "x = x" + "))" * DEEP
    assert _peel(shallow(parse, text), _negated_exists_body) == (DEEP, parse("x = x"))


def test_deep_terms():
    """s(^10^4 and 10^4 parentheses around a term parse at the default
    recursion limit, on either side of an atom."""
    nested = "s(" * DEEP + "0" + ")" * DEEP
    assert shallow(parse_pa, "x <= " + nested) == Leq(Var("x"), pa_num(DEEP))
    assert shallow(parse_sln, "x = " + nested) == Eq(svar("x"), sln_num(DEEP))
    nested = "(" * DEEP + "y" + ")" * DEEP
    assert shallow(parse_pa, "x = " + nested) == Eq(Var("x"), Var("y"))
    assert shallow(parse_pa, nested + " <= x") == Leq(Var("y"), Var("x"))
    assert shallow(parse_sln, nested + " |-> x") == PointsTo(svar("y"), svar("x"))


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


X, Y, Z = Var("x"), Var("y"), Var("z")
A, B, C = Eq(X, Zero()), Leq(Y, X), Eq(Z, Succ(Zero()))
# (term, text): + and * nest to the left, so a right operand of the same or
# a looser operator is parenthesized, and s( holds a sum bare.
TERM_GOLDENS = [
    (Plus(Plus(X, Y), Z), "x + y + z"),
    (Plus(X, Plus(Y, Z)), "x + (y + z)"),
    (Times(Times(X, Y), Z), "x * y * z"),
    (Times(X, Times(Y, Z)), "x * (y * z)"),
    (Plus(Times(X, Y), Times(Y, Z)), "x * y + y * z"),
    (Plus(X, Times(Y, Z)), "x + y * z"),
    (Times(Plus(X, Y), Plus(Y, Z)), "(x + y) * (y + z)"),
    (Times(X, Plus(Y, Z)), "x * (y + z)"),
    (Plus(Plus(X, Times(Y, Z)), Times(Plus(X, Y), Z)), "x + y * z + (x + y) * z"),
    (Succ(Plus(X, Y)), "s(x + y)"),
    (Succ(Succ(Times(Plus(X, Y), Z))), "s(s((x + y) * z))"),
    (Times(Succ(Plus(X, Y)), Plus(Succ(Zero()), X)), "s(x + y) * (s(0) + x)"),
]
# (formula, text): the connectives nest to the right, /\ binds tighter than
# \/, and a quantifier that is not the tail of its text is parenthesized.
FORMULA_GOLDENS = [
    (And(And(A, B), C), "(x = 0 /\\ y <= x) /\\ z = s(0)"),
    (And(A, And(B, C)), "x = 0 /\\ y <= x /\\ z = s(0)"),
    (Or(Or(A, B), C), "(x = 0 \\/ y <= x) \\/ z = s(0)"),
    (Or(A, Or(B, C)), "x = 0 \\/ y <= x \\/ z = s(0)"),
    (And(Or(A, B), C), "(x = 0 \\/ y <= x) /\\ z = s(0)"),
    (And(A, Or(B, C)), "x = 0 /\\ (y <= x \\/ z = s(0))"),
    (Or(And(A, B), C), "x = 0 /\\ y <= x \\/ z = s(0)"),
    (Or(A, And(B, C)), "x = 0 \\/ y <= x /\\ z = s(0)"),
    (And(Exists("x", A), B), "(exists x. x = 0) /\\ y <= x"),
    (And(B, Exists("x", A)), "y <= x /\\ exists x. x = 0"),
    (Or(And(A, Forall("y", B)), C), "x = 0 /\\ (forall y. y <= x) \\/ z = s(0)"),
    (And(Or(A, Forall("y", B)), C), "(x = 0 \\/ forall y. y <= x) /\\ z = s(0)"),
    (Or(ExistsEq("z", Plus(X, Y), C), A), "(exists (z = x + y) z = s(0)) \\/ x = 0"),
    (Not(BForall("z", Times(X, Plus(Y, X)), C)), "!(forall z <= x * (y + x). z = s(0))"),
    (Leq(Plus(X, Plus(Y, Z)), Times(X, Times(Y, Z))), "x + (y + z) <= x * (y * z)"),
]


@pytest.mark.parametrize("t, text", TERM_GOLDENS, ids=[t for _, t in TERM_GOLDENS])
def test_render_term_goldens(t, text):
    assert render_term(t) == text
    assert parse_pa(f"x = {text}") == Eq(X, t)


@pytest.mark.parametrize("a, text", FORMULA_GOLDENS, ids=[t for _, t in FORMULA_GOLDENS])
def test_render_formula_goldens(a, text):
    assert render(a) == text
    assert parse_pa(text) == a


@pytest.mark.parametrize("node", [Plus, Times])
def test_render_deep_sums_and_products(node):
    """Terms print on render's explicit stack too: 10^4-deep sums and
    products, nested to either side, print at the default recursion limit."""
    n, op = 10_000, " + " if node is Plus else " * "
    left, right = Y, Y
    for _ in range(n):
        left, right = node(left, X), node(X, right)
    left_text = "y" + (op + "x") * n
    right_text = ("x" + op + "(") * (n - 1) + "x" + op + "y" + ")" * (n - 1)
    for t, text in ((left, left_text), (right, right_text)):
        assert shallow(render_term, t) == text
        assert shallow(render, Leq(Z, t)) == "z <= " + text


def test_deep_sum_bound_parses():
    """A bound that is a 10^4-deep sum parses, its binder checks its
    variable against it, and free_vars reads it, all on explicit stacks."""
    n = 10_000
    text = "forall z <= " + "x + (" * n + "x + y" + ")" * n + ". z <= x"
    a = shallow(parse_pa, text)
    assert isinstance(a, BForall) and shallow(free_vars, a) == {"x", "y"}
    assert shallow(render, a) == text


# (grammar, text, message, line, col) of the error each malformed text gives
PARSE_ERRORS = [
    ('pa', 'x = y ; z', "unexpected character ';'", 1, 7),
    ('sln', 'x = # y', "unexpected character '#'", 1, 5),
    ('pa', 'x ≤ y', "unexpected character '≤'", 1, 3),
    ('pa', 'x = 3', 'numerals other than 0 must be written with s(...)', 1, 5),
    ('sln', 'forall x. x = 007', 'numerals other than 0 must be written with s(...)', 1, 15),
    ('pa', 'x |-> y', '|-> is not PA syntax', 1, 3),
    ('pa', 'forall x >= 3. x = x', 'guarded quantifiers are SLN-only syntax', 1, 10),
    ('sln', 'x + y = z', "'+' is not SLN syntax", 1, 3),
    ('sln', 'x * y = z', "'*' is not SLN syntax", 1, 3),
    ('sln', 'x <= y', '<= is not SLN syntax', 1, 3),
    ('sln', 'forall x <= y. x = y', 'bounded quantifiers are PA-only syntax', 1, 10),
    ('sln', '(x) <= y', "expected '=', '<=' or '|->' after a term", 1, 3),
    ('sln', '(x) + y = z', "expected '=', '<=' or '|->' after a term", 1, 3),
    ('pa', '(x = y', "expected ')', found 'end of input'", 1, 7),
    ('sln', 's(x = y', "expected ')', found '='", 1, 5),
    ('pa', '((x = y) /\\ y = z', "expected ')', found 'end of input'", 1, 18),
    ('pa', '(x + y = z', "expected ')', found 'end of input'", 1, 11),
    ('pa', 'x = y)', "unexpected trailing input ')'", 1, 6),
    ('sln', 'x = y z', "unexpected trailing input 'z'", 1, 7),
    ('pa', '(x = y) = z', "unexpected trailing input '='", 1, 9),
    ('pa', '(x y) = z', "expected '=', '<=' or '|->' after a term", 1, 4),
    ('pa', '(x) = +', "expected '=', '<=' or '|->' after a term", 1, 3),
    ('pa', '(()) = z', "expected a term, found ')'", 1, 3),
    ('pa', '((((x y) + a) + b) + c) = z', "expected '=', '<=' or '|->' after a term", 1, 7),
    ('pa', 'forall x.\n x <= ', "expected a term, found 'end of input'", 2, 7),
    ('pa', 'forall x.\n\tx <= y /\\\n\r\t y = # ', "unexpected character '#'", 3, 8),
    ('sln', 'exists a.\r\n  a |-> 0 /\\\n\t\t!(a = s(0)) \\/ + a', "expected a term, found '+'", 3, 18),
    ('sln', 'forall x\n>= y. x = x', 'guard must be a decimal natural', 2, 4),
    ('l', 'P(x,y) /\\\n  x = ', 'expected a variable name', 2, 7),
    ('l', 'exists x. P(x, s) \\/ (x = y', "expected ')', found 'end of input'", 1, 28),
    ('l', 'P(x y)', "expected ',', found 'y'", 1, 5),
    ('pa', 'exists (z = x) . z = x', "expected a term, found '.'", 1, 16),
    ('pa', '', "expected a term, found 'end of input'", 1, 1),
    ('sln', 'forall s. s = 0', 'expected a variable name', 1, 8),
    ('pa', 'x = s(s(1))', 'numerals other than 0 must be written with s(...)', 1, 9),
]


@pytest.mark.parametrize("mode, text, message, line, col", PARSE_ERRORS)
def test_parse_error_messages(mode, text, message, line, col):
    parse = {"pa": parse_pa, "sln": parse_sln, "l": parse_l}[mode]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}", line, col)


def test_guard_must_be_decimal():
    """A guard of digits that are not decimal, such as a superscript, is a
    parse error, not a failed int()."""
    for text in ("forall x >= \u00b2. x = x", "exists x >= 1\u00b2. x = x"):
        with pytest.raises(ParseError, match="guard must be a decimal natural"):
            parse_sln(text)


_REFERENCE_SYMBOLS = ("|->", "<=", ">=", "=>", "/\\", "\\/", "(", ")", ".", "=", "+", "*", "!", ",")


def _reference_tokenize(text):
    """The tokenizer as a character loop: (kind, text, line, col) of each
    token, the str methods deciding what is a digit, a letter or a word
    character."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        for sym in _REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(("num", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch in "_$":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_$#"):
                    j += 1
                word = text[i:j]
                tokens.append(("kw" if word in ("forall", "exists") else "ident", word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _reference_groups(tokens):
    """Each "(" whose parenthesis holds only term tokens, to its ")"."""
    groups = {}
    for p, (_, word, _, _) in enumerate(tokens):
        if word != "(":
            continue
        depth = 0
        for q in range(p, len(tokens)):
            kind, inner = tokens[q][:2]
            depth += (inner == "(") - (inner == ")")
            if kind == "kw" or (kind == "sym" and inner not in "()+*"):
                break
            if depth == 0:
                groups[p] = q
                break
    return groups


_TOKEN_ALPHABET = list(_REFERENCE_SYMBOLS) + [
    "forall", "exists", "x", "s", "P", "0", "12", "x1", "a_b", "$", "#", "_",
    "\u03b1", "\u00b2", "\u00bd", "\u0661", ";", "\xa0", " ", "  ", "\t", "\r", "\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=30))
def test_tokenize_matches_reference(parts):
    """The regular-expression tokenizer gives the character loop's tokens,
    positions and errors, on ASCII and non-ASCII letters and digits."""
    text = "".join(parts)
    try:
        expected = _reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert (str(got.value), got.value.line, got.value.col) == (str(err), err.line, err.col)
        return
    kinds, texts, starts, groups = _tokenize(text)
    assert [(k, t, *_line_col(text, s)) for k, t, s in zip(kinds, texts, starts)] == expected
    assert groups == _reference_groups(expected)


@pytest.mark.parametrize("parse, atom", [(parse_pa, "x <= y"), (parse_sln, "x |-> y")])
def test_parentheses_parse_in_linear_time(monkeypatch, parse, atom):
    """Each level of parentheses, around a formula or around a term, costs
    a bounded number of term reads: no term is tried and given up."""
    calls = 0
    term = _Parser.term

    def counted(self):
        nonlocal calls
        calls += 1
        return term(self)

    monkeypatch.setattr(_Parser, "term", counted)
    left, op, right = atom.split()
    for d in (25, 50, 100, 150):
        for text in ("(" * d + atom + ")" * d, "(" * d + left + ")" * d + f" {op} {right}"):
            calls = 0
            assert parse(text) == parse(atom)
            assert calls <= 2 * d + 4, (d, text[:40], calls)
