"""Evaluation of PA terms and decidable-by-construction PA formulas in the
standard model, plus the operation-table size bound for a formula."""

from __future__ import annotations

from functools import partial
from operator import add

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, Leq, Not,
    Or, Plus, SLNTerm, Times, TruthConst, Var, Zero, fold_term,
    succ_run,
)


class VarAssignment:
    """Total map from variables to naturals with finite support; unmapped
    variables read as 0."""

    __slots__ = ("_support",)

    def __init__(self, support: dict[str, int] | None = None) -> None:
        support = dict(support or {})
        for name, value in support.items():
            if value < 0:
                raise ValueError(f"assignment maps {name} to a negative value")
        self._support = {n: v for n, v in support.items() if v != 0}

    def __call__(self, name: str) -> int:
        return self._support.get(name, 0)

    def update(self, name: str, value: int) -> "VarAssignment":
        out = dict(self._support)
        out[name] = value
        return VarAssignment(out)

    @property
    def support(self) -> dict[str, int]:
        return dict(self._support)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarAssignment) and self._support == other._support

    def __repr__(self) -> str:
        inner = ",".join(f"{n}={v}" for n, v in sorted(self._support.items()))
        return f"VarAssignment({inner})"


def parse_assignment(text: str) -> VarAssignment:
    """Parse the "x=2,y=0" surface form; the empty string is sigma_0."""
    support: dict[str, int] = {}
    text = text.strip()
    if not text:
        return VarAssignment()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise ValueError(f"malformed assignment entry: {chunk!r}")
        name, _, val = chunk.partition("=")
        name, val = name.strip(), val.strip()
        if not name:
            raise ValueError(f"malformed assignment entry: {chunk!r}")
        if not val.isdecimal():
            raise ValueError(f"assignment value for {name} is not a natural: {val!r}")
        if name in support:
            raise ValueError(f"duplicate assignment for {name}")
        support[name] = int(val)
    return VarAssignment(support)


def render_assignment(sigma: VarAssignment) -> str:
    return ",".join(f"{n}={v}" for n, v in sorted(sigma.support.items()))


def eval_term(sigma: VarAssignment, t) -> int:
    """Standard interpretation of a PA or SLN term."""
    if isinstance(t, SLNTerm):
        return t.offset + (0 if t.base is None else sigma(t.base))
    u, n = succ_run(t)
    if isinstance(u, Var):
        return sigma(u.name) + n
    if isinstance(u, Zero):
        return n
    if isinstance(u, (Plus, Times)):
        return fold_term(t, partial(eval_term, sigma),
                         lambda u, l, r: l + r if isinstance(u, Plus) else l * r, add)
    raise TypeError(f"not a term: {t!r}")


def eval_bounded(sigma: VarAssignment, a: Formula) -> bool:
    """Truth in the standard model for formulas whose quantifiers are all
    bounded or defining; plain quantifiers are rejected.  One loop strips
    each run of !, follows the right operand of each /\\ or \\/ whose left
    operand does not decide it, and rebinds each defining existential, so
    such chains cost no frame; a bounded quantifier does."""
    positive = True  # an even number of ! above a
    while True:
        match a:
            case Not(b):
                a, positive = b, not positive
            case And(l, r) | Or(l, r):
                decides = isinstance(a, Or)  # the left value that decides a
                if eval_bounded(sigma, l) == decides:
                    return decides == positive
                a = r
            case ExistsEq(x, t, b):
                sigma, a = sigma.update(x, eval_term(sigma, t)), b
            case Eq(l, r):
                return (eval_term(sigma, l) == eval_term(sigma, r)) == positive
            case Leq(l, r):
                return (eval_term(sigma, l) <= eval_term(sigma, r)) == positive
            case TruthConst(v):
                return v == positive
            case BForall(x, t, b):
                top = eval_term(sigma, t)
                return all(eval_bounded(sigma.update(x, k), b) for k in range(top + 1)) == positive
            case BExists(x, t, b):
                top = eval_term(sigma, t)
                return any(eval_bounded(sigma.update(x, k), b) for k in range(top + 1)) == positive
            case Exists() | Forall():
                raise ValueError("unbounded quantifier is not eval_bounded-evaluable")
            case _:
                raise TypeError(f"not a PA formula: {a!r}")


def max_bound(sigma: VarAssignment, a: Formula) -> int:
    """Largest value any argument of +, * or <= takes while expanding the
    quantifiers of a normal-shaped formula under sigma.

    Quantifier cases bind the variable to the value of its bound or
    definition, as eval_bounded does, which agrees with substituting the
    term itself.  A defining term u + v or u * v also contributes its
    operands, which the table row for it must hold: a zero product is
    smaller than its other operand.  Equalities contribute 0.  One worklist
    of (subformula, assignment) pairs, left operands first, so a formula of
    any depth costs no frame.
    """
    out, todo = 0, [(a, sigma)]
    while todo:
        a, sigma = todo.pop()
        match a:
            case Leq(t, u):
                out = max(out, eval_term(sigma, t), eval_term(sigma, u))
            case Eq() | TruthConst():
                pass
            case Not(b):
                todo.append((b, sigma))
            case And(l, r) | Or(l, r):
                todo += ((r, sigma), (l, sigma))
            case BForall(x, t, b) | BExists(x, t, b) | ExistsEq(x, t, b):
                k = eval_term(sigma, t)
                operands = (t.left, t.right) if isinstance(t, (Plus, Times)) else ()
                out = max(out, k, *(eval_term(sigma, u) for u in operands))
                todo.append((b, sigma.update(x, k)))
            case _:
                raise TypeError(f"max_bound does not handle {a!r}")
    return out
