"""Pretty printer inverse to the parsers: parse(render(a)) == a for every
well-formed AST (truth constants print as 0 = 0 and its negation, so they
round-trip to that encoding instead)."""

from __future__ import annotations

from .ast import (
    QUANTIFIERS, And, BExists, BForall, Eq, Exists, ExistsEq, Forall,
    Formula, GExists, GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm,
    Succ, Times, TruthConst, Var, Zero, binder_term, succ_run,
)

_PLUS, _TIMES, _PRIM = 1, 2, 3

# The text before each binder's body: x is its variable, t its bound,
# definition or guard.
_HEADS = {
    Forall: "forall {x}. ", Exists: "exists {x}. ",
    BForall: "forall {x} <= {t}. ", BExists: "exists {x} <= {t}. ",
    ExistsEq: "exists ({x} = {t}) ",
    GForall: "forall {x} >= {t}. ", GExists: "exists {x} >= {t}. ",
}


def render_term(t) -> str:
    if isinstance(t, SLNTerm):
        base = "0" if t.base is None else t.base
        return "s(" * t.offset + base + ")" * t.offset
    return _pa_term(t, _PLUS)


def _pa_term(t: PATerm, req: int) -> str:
    match t:
        case Var(name):
            return name
        case Zero():
            return "0"
        case Succ():
            u, n = succ_run(t)
            return "s(" * n + _pa_term(u, _PLUS) + ")" * n
        case Plus(l, r):
            out = f"{_pa_term(l, _PLUS)} + {_pa_term(r, _TIMES)}"
            return f"({out})" if req > _PLUS else out
        case Times(l, r):
            out = f"{_pa_term(l, _TIMES)} * {_pa_term(r, _PRIM)}"
            return f"({out})" if req > _TIMES else out
    raise TypeError(f"not a term: {t!r}")


def render(a: Formula) -> str:
    """Concrete syntax for a PA or SLN formula."""
    return _fmt(a, req=0, tail=True)


def _fmt(a: Formula, req: int, tail: bool) -> str:
    """The text of a, built on an explicit stack so that nesting depth is
    bounded by memory, not by the recursion limit.  The stack holds text
    still to emit and (formula, req, tail) tasks still to expand."""
    out: list[str] = []
    stack: list = [(a, req, tail)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(*item)))
    return "".join(out)


def _pieces(a: Formula, req: int, tail: bool) -> list:
    """a's text one level down: strings, and a task per direct subformula."""
    match a:
        case Eq(l, r):
            return [f"{render_term(l)} = {render_term(r)}"]
        case Leq(l, r):
            return [f"{render_term(l)} <= {render_term(r)}"]
        case PointsTo(l, r):
            return [f"{render_term(l)} |-> {render_term(r)}"]
        case TruthConst(v):
            return ["0 = 0" if v else "!(0 = 0)"]
        case Not(b):
            return ["!(", (b, 0, True), ")"]
        case And(l, r):
            if req > 2:
                return ["(", (l, 3, False), " /\\ ", (r, 2, True), ")"]
            return [(l, 3, False), " /\\ ", (r, 2, tail)]
        case Or(l, r):
            if req > 1:
                return ["(", (l, 2, False), " \\/ ", (r, 1, True), ")"]
            return [(l, 2, False), " \\/ ", (r, 1, tail)]
    if not isinstance(a, QUANTIFIERS):
        raise TypeError(f"not a formula: {a!r}")
    t = binder_term(a)
    if t is not None and not isinstance(t, int):
        t = render_term(t)
    head = _HEADS[type(a)].format(x=a.var, t=t)
    return [head, (a.body, 0, True)] if tail else ["(", head, (a.body, 0, True), ")"]
