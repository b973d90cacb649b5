"""Pretty printer inverse to the parsers: parse(render(a)) == a for every
well-formed AST (truth constants print as 0 = 0 and its negation, so they
round-trip to that encoding instead).  A variable named s or a keyword,
which the parsers read as something else, is a ValueError."""

from __future__ import annotations

from .ast import (
    QUANTIFIERS, And, BExists, BForall, Eq, Exists, ExistsEq, Forall,
    Formula, GExists, GForall, Leq, Not, Or, Plus, PointsTo, SLNTerm, Succ,
    Term, Times, TruthConst, Var, Zero, binder_term, succ_run,
)
from .parser import PRECEDENCE, RESERVED

# The text before a binder's bound, definition or guard (x is its
# variable), and the text between that and the body.
_HEADS = {
    Forall: ("forall {x}. ",), Exists: ("exists {x}. ",),
    BForall: ("forall {x} <= ", ". "), BExists: ("exists {x} <= ", ". "),
    ExistsEq: ("exists ({x} = ", ") "),
    GForall: ("forall {x} >= ", ". "), GExists: ("exists {x} >= ", ". "),
}
# The text between the two operands of an atom, connective, + or *.
_INFIX = {Eq: " = ", Leq: " <= ", PointsTo: " |-> ",
          And: " /\\ ", Or: " \\/ ", Plus: " + ", Times: " * "}


def render(a: Formula | Term) -> str:
    """Concrete syntax for a PA or SLN formula or term, built on an explicit
    stack of text still to emit and (node, level, tail) tasks still to
    expand: the node is parenthesized if it binds looser than level, or is a
    quantifier and not the tail of the text around it."""
    out, stack = [], [(a, 0, True)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(*item)))
    return "".join(out)


render_term = render


def _name(x: str) -> str:
    if x in RESERVED:
        raise ValueError(f"cannot render the variable {x!r}: the parsers reserve that name")
    return x


def _pieces(a, level: int, tail: bool) -> list:
    """a's text one level down: strings, and a task per direct child."""
    match a:
        case SLNTerm(base, offset):
            return ["s(" * offset + ("0" if base is None else _name(base)) + ")" * offset]
        case Var(name):
            return [_name(name)]
        case Zero():
            return ["0"]
        case Succ():
            u, n = succ_run(a)
            return ["s(" * n, (u, 0, True), ")" * n]
        case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
            return [(l, 0, True), _INFIX[type(a)], (r, 0, True)]
        case TruthConst(v):
            return ["0 = 0" if v else "!(0 = 0)"]
        case Not(b):
            return ["!(", (b, 0, True), ")"]
        case And(l, r) | Or(l, r) | Plus(l, r) | Times(l, r):
            op = _INFIX[type(a)]
            prec = PRECEDENCE[op.strip()]
            # One operand is printed a level up: the connectives nest to the
            # right, so the left one; + and * to the left, so the right one.
            up = isinstance(a, (And, Or))
            wrap = level > prec
            out = [(l, prec + up, False), op, (r, prec + (not up), tail or wrap)]
            return ["(", *out, ")"] if wrap else out
    if not isinstance(a, QUANTIFIERS):
        raise TypeError(f"not a formula or term: {a!r}")
    head, *rest = _HEADS[type(a)]
    t = binder_term(a)
    out = [head.format(x=_name(a.var)), *rest, (a.body, 0, True)]
    if t is not None:
        out.insert(1, str(t) if isinstance(t, int) else (t, 0, True))
    return out if tail else ["(", *out, ")"]
