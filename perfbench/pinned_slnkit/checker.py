"""Terminating decision procedure for truth of an SLN formula under a given
assignment and heap.

The method bounds the search space of each quantified variable: values used
as an address beyond the largest heap address, or as a stored value beyond
the largest heap value, satisfy no points-to atom, so the quantifier splits
into an enumerated block plus a guarded tail whose offending atoms are
replaced by false.  What remains mentions quantified variables only in
equalities and is handed to the successor-arithmetic decider.

The splits are evaluated lazily (enumerated branches short-circuit and
closed subformulas are memoized per heap), which is what makes checking the
table-heap condition on real tables affordable; the syntactic single-step
rewrites are exposed as address_free_rewrite and value_free_rewrite.
"""

from __future__ import annotations

from .ast import (
    And, Eq, Exists, Forall, Formula, GExists, GForall, Not, Or, PointsTo,
    SLNTerm, TruthConst, and_all, free_vars, or_all, sln_num,
)
from .heap import Heap
from .semantics import VarAssignment
from .succ import decide_sentence
from .transform import substitute

TRUE = TruthConst(True)
FALSE = TruthConst(False)


# ---------------------------------------------------------------------------
# Quantifier plumbing


def _split_quant(a: Formula) -> tuple[str, str, int, Formula]:
    """(kind, var, guard, body) of a quantifier-rooted formula."""
    match a:
        case Exists(x, b):
            return "exists", x, 0, b
        case Forall(x, b):
            return "forall", x, 0, b
        case GExists(x, m, b):
            return "exists", x, m, b
        case GForall(x, m, b):
            return "forall", x, m, b
    raise ValueError(f"expected a quantified formula, got {a!r}")


def _guarded(kind: str, x: str, guard: int, body: Formula) -> Formula:
    if isinstance(body, TruthConst):
        return body
    if kind == "exists":
        return GExists(x, guard, body) if guard > 0 else Exists(x, body)
    return GForall(x, guard, body) if guard > 0 else Forall(x, body)


# ---------------------------------------------------------------------------
# Scoped occurrence scans and false-replacements


def _addr_relevant(a: Formula, x: str) -> bool:
    """Does some points-to atom use an s-iterate of x as its address?"""
    match a:
        case PointsTo(l, _):
            return l.base == x
        case Eq() | TruthConst():
            return False
        case Not(b):
            return _addr_relevant(b, x)
        case And(l, r) | Or(l, r):
            return _addr_relevant(l, x) or _addr_relevant(r, x)
        case Exists(y, b) | Forall(y, b) | GExists(y, _, b) | GForall(y, _, b):
            return y != x and _addr_relevant(b, x)
    raise TypeError(f"not an SLN formula: {a!r}")


def _val_relevant(a: Formula, x: str) -> bool:
    match a:
        case PointsTo(_, r):
            return r.base == x
        case Eq() | TruthConst():
            return False
        case Not(b):
            return _val_relevant(b, x)
        case And(l, r) | Or(l, r):
            return _val_relevant(l, x) or _val_relevant(r, x)
        case Exists(y, b) | Forall(y, b) | GExists(y, _, b) | GForall(y, _, b):
            return y != x and _val_relevant(b, x)
    raise TypeError(f"not an SLN formula: {a!r}")


def _not(a: Formula) -> Formula:
    if isinstance(a, TruthConst):
        return TruthConst(not a.value)
    return Not(a)


def _and(l: Formula, r: Formula) -> Formula:
    if l == FALSE or r == FALSE:
        return FALSE
    if l == TRUE:
        return r
    if r == TRUE:
        return l
    return And(l, r)


def _or(l: Formula, r: Formula) -> Formula:
    if l == TRUE or r == TRUE:
        return TRUE
    if l == FALSE:
        return r
    if r == FALSE:
        return l
    return Or(l, r)


def _replace_atoms(a: Formula, x: str, side: str) -> Formula:
    """Replace points-to atoms whose `side` term iterates x by false,
    folding constants on the way up."""
    match a:
        case PointsTo(l, r):
            hit = (l.base == x) if side == "addr" else (r.base == x)
            return FALSE if hit else a
        case Eq() | TruthConst():
            return a
        case Not(b):
            return _not(_replace_atoms(b, x, side))
        case And(l, r):
            return _and(_replace_atoms(l, x, side), _replace_atoms(r, x, side))
        case Or(l, r):
            return _or(_replace_atoms(l, x, side), _replace_atoms(r, x, side))
        case Exists(y, b):
            if y == x:
                return a
            return _guarded("exists", y, 0, _replace_atoms(b, x, side))
        case Forall(y, b):
            if y == x:
                return a
            return _guarded("forall", y, 0, _replace_atoms(b, x, side))
        case GExists(y, m, b):
            if y == x:
                return a
            return _guarded("exists", y, m, _replace_atoms(b, x, side))
        case GForall(y, m, b):
            if y == x:
                return a
            return _guarded("forall", y, m, _replace_atoms(b, x, side))
    raise TypeError(f"not an SLN formula: {a!r}")


# ---------------------------------------------------------------------------
# The syntactic single-quantifier rewrites


def address_free_rewrite(a: Formula, max_addr: int) -> Formula:
    """Split a quantified formula at the largest heap address.

    Values of the bound variable up to max_addr are enumerated as numeral
    instances; beyond they satisfy no points-to atom addressed by the
    variable, so the guarded tail replaces those atoms by false.  Pass
    max_addr = -1 for the empty heap.
    """
    kind, x, guard, body = _split_quant(a)
    copies = [substitute(body, x, sln_num(k)) for k in range(guard, max_addr + 1)]
    tail = _guarded(kind, x, max(guard, max_addr + 1), _replace_atoms(body, x, "addr"))
    parts = copies + [tail]
    return or_all(parts) if kind == "exists" else and_all(parts)


def value_free_rewrite(a: Formula, max_val: int) -> Formula:
    """Mirror image of address_free_rewrite for stored values."""
    kind, x, guard, body = _split_quant(a)
    copies = [substitute(body, x, sln_num(k)) for k in range(guard, max_val + 1)]
    tail = _guarded(kind, x, max(guard, max_val + 1), _replace_atoms(body, x, "val"))
    parts = copies + [tail]
    return or_all(parts) if kind == "exists" else and_all(parts)


def ground_points_to_eval(h: Heap, a: Formula) -> Formula:
    """Replace every closed points-to atom by its truth value against h.

    A points-to atom still mentioning a variable signals a pipeline bug and
    is rejected.
    """
    match a:
        case PointsTo(l, r):
            if l.base is not None or r.base is not None:
                raise ValueError(f"non-closed points-to atom: {a!r}")
            return TruthConst(h.get(l.offset) == r.offset)
        case Eq() | TruthConst():
            return a
        case Not(b):
            return _not(ground_points_to_eval(h, b))
        case And(l, r):
            return _and(ground_points_to_eval(h, l), ground_points_to_eval(h, r))
        case Or(l, r):
            return _or(ground_points_to_eval(h, l), ground_points_to_eval(h, r))
        case Exists(x, b):
            return _guarded("exists", x, 0, ground_points_to_eval(h, b))
        case Forall(x, b):
            return _guarded("forall", x, 0, ground_points_to_eval(h, b))
        case GExists(x, m, b):
            return _guarded("exists", x, m, ground_points_to_eval(h, b))
        case GForall(x, m, b):
            return _guarded("forall", x, m, ground_points_to_eval(h, b))
    raise TypeError(f"not an SLN formula: {a!r}")


# ---------------------------------------------------------------------------
# Partial evaluation under an environment of numeral bindings


def _env_term(t: SLNTerm, env: dict[str, int]) -> SLNTerm:
    if t.base is not None and t.base in env:
        return sln_num(env[t.base] + t.offset)
    return t


def _peval(a: Formula, env: dict[str, int], h: Heap) -> Formula:
    """Substitute env numerals, evaluate ground atoms against h, and fold
    constants; returns the input object unchanged where possible."""
    match a:
        case TruthConst():
            return a
        case Eq(l, r):
            if not isinstance(l, SLNTerm) or not isinstance(r, SLNTerm):
                raise TypeError("check operates on SLN formulas")
            l2, r2 = _env_term(l, env), _env_term(r, env)
            if l2.base is None and r2.base is None:
                return TruthConst(l2.offset == r2.offset)
            if l2.base == r2.base:
                return TruthConst(l2.offset == r2.offset)
            if l2 is l and r2 is r:
                return a
            return Eq(l2, r2)
        case PointsTo(l, r):
            l2, r2 = _env_term(l, env), _env_term(r, env)
            if l2.base is None and r2.base is None:
                return TruthConst(h.get(l2.offset) == r2.offset)
            if l2 is l and r2 is r:
                return a
            return PointsTo(l2, r2)
        case Not(b):
            b2 = _peval(b, env, h)
            if isinstance(b2, TruthConst):
                return TruthConst(not b2.value)
            return a if b2 is b else Not(b2)
        case And(l, r):
            l2 = _peval(l, env, h)
            if l2 == FALSE:
                return FALSE
            r2 = _peval(r, env, h)
            folded = _and(l2, r2)
            if l2 is l and r2 is r and isinstance(folded, And):
                return a
            return folded
        case Or(l, r):
            l2 = _peval(l, env, h)
            if l2 == TRUE:
                return TRUE
            r2 = _peval(r, env, h)
            folded = _or(l2, r2)
            if l2 is l and r2 is r and isinstance(folded, Or):
                return a
            return folded
        case Exists(x, b) | Forall(x, b) | GExists(x, _, b) | GForall(x, _, b):
            inner_env = env
            if x in env:
                inner_env = {k: v for k, v in env.items() if k != x}
            b2 = _peval(b, inner_env, h)
            if isinstance(b2, TruthConst):
                return b2
            if b2 is b:
                return a
            match a:
                case Exists():
                    return Exists(x, b2)
                case Forall():
                    return Forall(x, b2)
                case GExists(_, m, _):
                    return GExists(x, m, b2)
                case GForall(_, m, _):
                    return GForall(x, m, b2)
    raise TypeError(f"not an SLN formula: {a!r}")


# ---------------------------------------------------------------------------
# The decision recursion


def _dec(a: Formula, h: Heap) -> bool:
    """Decide a closed, partially evaluated SLN formula."""
    match a:
        case TruthConst(v):
            return v
        case Not(b):
            return not _dec(b, h)
        case And(l, r):
            return _dec(l, h) and _dec(r, h)
        case Or(l, r):
            return _dec(l, h) or _dec(r, h)
        case Eq() | PointsTo():
            return _peval(a, {}, h) == TRUE
    kind, x, guard, body = _split_quant(a)
    cached = h._memo.get(a)
    if cached is not None:
        return cached
    result = _dec_quant(kind, x, guard, body, h)
    h._memo[a] = result
    return result


def _dec_quant(kind: str, x: str, guard: int, body: Formula, h: Heap) -> bool:
    want_witness = kind == "exists"
    if _addr_relevant(body, x):
        bound, side = h.max_addr, "addr"
    elif _val_relevant(body, x):
        bound, side = h.max_val, "val"
    else:
        residual = _elim(body, h)
        return decide_sentence(_guarded(kind, x, guard, residual))
    for k in range(guard, bound + 1):
        verdict = _dec(_peval(body, {x: k}, h), h)
        if verdict == want_witness:
            return want_witness
    tail = _guarded(kind, x, max(guard, bound + 1), _replace_atoms(body, x, side))
    return _dec(tail, h)


def _elim(a: Formula, h: Heap) -> Formula:
    """Rewrite away every points-to atom, preserving truth under h for all
    values of the free variables; the result is pure successor arithmetic."""
    match a:
        case TruthConst():
            return a
        case Eq():
            return _peval(a, {}, h)
        case PointsTo(l, r):
            if l.base is not None or r.base is not None:
                raise AssertionError(f"points-to atom escaped its rewrites: {a!r}")
            return TruthConst(h.get(l.offset) == r.offset)
        case Not(b):
            return _not(_elim(b, h))
        case And(l, r):
            return _and(_elim(l, h), _elim(r, h))
        case Or(l, r):
            return _or(_elim(l, h), _elim(r, h))
    kind, x, guard, body = _split_quant(a)
    if not free_vars(a):
        return TruthConst(_dec(_peval(a, {}, h), h))
    if _addr_relevant(body, x):
        return _elim(address_free_rewrite(a, h.max_addr), h)
    if _val_relevant(body, x):
        return _elim(value_free_rewrite(a, h.max_val), h)
    return _guarded(kind, x, guard, _elim(body, h))


def check(sigma: VarAssignment, h: Heap, a: Formula) -> bool:
    """Truth of sigma, h |= a.  Total on every SLN formula."""
    env = {v: sigma(v) for v in free_vars(a)}
    return _dec(_peval(a, env, h), h)
