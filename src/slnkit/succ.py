"""Decision procedure for closed formulas of successor arithmetic with
guarded quantifiers, by innermost-first quantifier elimination.

Guards x >= m turn into finitely many disequalities.  Within a DNF cube an
existential variable is either pinned by a positive equation (substitute,
carrying a lower-bound side condition when solving u = s^k(x)) or occurs
only in disequalities, which a witness over the infinite domain always
avoids."""

from __future__ import annotations

from .ast import (
    And, Eq, Exists, Forall, Formula, GExists, GForall, Not, Or, PointsTo,
    SLNTerm, TruthConst, conj, disj, free_vars, is_quantifier_free,
    map_children, shift, sln_num, subformulas, svar,
)
from .transform import dnf_cubes, nnf

TRUE = TruthConst(True)
FALSE = TruthConst(False)


def _norm_literal(lit: Formula, x: str) -> Formula:
    """Orient equalities so a live x sits on the left; fold ground and
    same-variable cases to constants."""
    positive = True
    inner = lit
    if isinstance(lit, Not):
        positive = False
        inner = lit.body
    if isinstance(inner, TruthConst):
        return inner if positive else TruthConst(not inner.value)
    if not isinstance(inner, Eq):
        raise ValueError(f"not a successor-arithmetic literal: {lit!r}")
    l, r = inner.left, inner.right
    if not isinstance(l, SLNTerm) or not isinstance(r, SLNTerm):
        raise ValueError("successor arithmetic handles SLN terms only")
    if l.base == r.base:
        holds = l.offset == r.offset
        return TruthConst(holds if positive else not holds)
    if l.base is None and r.base is None:
        holds = l.offset == r.offset
        return TruthConst(holds if positive else not holds)
    if r.base == x and l.base != x:
        l, r = r, l
    eq = Eq(l, r)
    return eq if positive else Not(eq)


def _mentions(t: SLNTerm, x: str) -> bool:
    return t.base == x


def _rewrite_with_offset(lit: Formula, x: str, y: str, drop: int) -> Formula:
    """Rewrite an x-literal under the solution x = y with `drop` successors
    removed, i.e. s^drop(x) = y held."""

    def rw(eq: Eq) -> Eq:
        l, r = eq.left, eq.right
        assert isinstance(l, SLNTerm) and isinstance(r, SLNTerm)
        if _mentions(r, x) and not _mentions(l, x):
            l, r = r, l
        assert _mentions(l, x) and not _mentions(r, x)
        if l.offset >= drop:
            return Eq(SLNTerm(y, l.offset - drop), r)
        return Eq(svar(y), shift(r, drop - l.offset))

    if isinstance(lit, Not):
        assert isinstance(lit.body, Eq)
        return Not(rw(lit.body))
    assert isinstance(lit, Eq)
    return rw(lit)


def _subst_value(lit: Formula, x: str, value: SLNTerm) -> Formula:
    def sub(t: SLNTerm) -> SLNTerm:
        return shift(value, t.offset) if t.base == x else t

    if isinstance(lit, Not):
        assert isinstance(lit.body, Eq)
        l, r = lit.body.left, lit.body.right
        return Not(Eq(sub(l), sub(r)))
    assert isinstance(lit, Eq)
    return Eq(sub(lit.left), sub(lit.right))


def _solve_cube(x: str, literals: list[Formula]) -> Formula:
    """Eliminate exists x from a conjunction of literals."""
    rest: list[Formula] = []
    on_x: list[Formula] = []
    for lit in literals:
        lit = _norm_literal(lit, x)
        if lit == FALSE:
            return FALSE
        if lit == TRUE:
            continue
        inner = lit.body if isinstance(lit, Not) else lit
        assert isinstance(inner, Eq)
        assert isinstance(inner.left, SLNTerm)
        if _mentions(inner.left, x) or _mentions(inner.right, x):
            on_x.append(lit)
        else:
            rest.append(lit)

    equation = next((l for l in on_x if isinstance(l, Eq)), None)
    if equation is None:
        # Only disequalities constrain x; the domain is infinite, so a
        # witness always exists.
        return conj(*rest)

    on_x.remove(equation)
    lhs, rhs = equation.left, equation.right
    assert isinstance(lhs, SLNTerm) and isinstance(rhs, SLNTerm)
    a = lhs.offset
    if rhs.base is None:
        if rhs.offset < a:
            return FALSE
        value = sln_num(rhs.offset - a)
        rewritten = [_subst_value(l, x, value) for l in on_x]
    elif rhs.offset >= a:
        value = SLNTerm(rhs.base, rhs.offset - a)
        rewritten = [_subst_value(l, x, value) for l in on_x]
    else:
        # s^(a - rhs.offset)(x) = y: solvable iff y >= a - rhs.offset.
        drop = a - rhs.offset
        y = rhs.base
        rest.extend(Not(Eq(svar(y), sln_num(i))) for i in range(drop))
        rewritten = [_rewrite_with_offset(l, x, y, drop) for l in on_x]

    for lit in rewritten:
        folded = _norm_literal(lit, x)
        if folded == FALSE:
            return FALSE
        if folded != TRUE:
            rest.append(folded)
    return conj(*rest)


def _eliminate_exists(x: str, guard: int, body: Formula) -> Formula:
    guard_lits: list[Formula] = [Not(Eq(svar(x), sln_num(i))) for i in range(guard)]
    out = []
    for cube in dnf_cubes(nnf(body)):
        out.append(_solve_cube(x, cube + guard_lits))
    result = disj(*out)
    assert is_quantifier_free(result)
    return result


def _eliminate_all(a: Formula) -> Formula:
    match a:
        case Eq() | TruthConst() | Not() | And() | Or():
            return map_children(a, _eliminate_all)
        case Exists(x, b):
            return _eliminate_exists(x, 0, _eliminate_all(b))
        case GExists(x, m, b):
            return _eliminate_exists(x, m, _eliminate_all(b))
        case Forall(x, b):
            return Not(_eliminate_exists(x, 0, Not(_eliminate_all(b))))
        case GForall(x, m, b):
            return Not(_eliminate_exists(x, m, Not(_eliminate_all(b))))
        case PointsTo():
            raise ValueError("points-to atom in successor-arithmetic input")
    raise ValueError(f"not a successor-arithmetic formula: {a!r}")


def _eval_ground(a: Formula) -> bool:
    match a:
        case TruthConst(v):
            return v
        case Eq(l, r):
            assert isinstance(l, SLNTerm) and isinstance(r, SLNTerm)
            if l.base is not None or r.base is not None:
                raise AssertionError(f"non-ground equality survived elimination: {a!r}")
            return l.offset == r.offset
        case Not(b):
            return not _eval_ground(b)
        case And(l, r):
            return _eval_ground(l) and _eval_ground(r)
        case Or(l, r):
            return _eval_ground(l) or _eval_ground(r)
    raise AssertionError(f"unexpected residual node: {a!r}")


def decide_sentence(a: Formula) -> bool:
    """Truth over the naturals of a closed formula built from equalities,
    connectives and (guarded) quantifiers."""
    for sub in subformulas(a):
        if isinstance(sub, PointsTo):
            raise ValueError("points-to atom in successor-arithmetic input")
    if free_vars(a):
        raise ValueError(f"free variables in sentence: {sorted(free_vars(a))}")
    return _eval_ground(_eliminate_all(a))
