"""Decision procedure for closed formulas of successor arithmetic with
guarded quantifiers, by innermost-first quantifier elimination.

A literal is a tuple (positive, u, d, v) that reads s^d(u) = v, or its
negation when positive is false; u and v are variable names, or None for 0.
`_lit` keeps literals canonical: it cancels the common offset, so d >= 0,
and it folds every ground or same-base equation to True or False.  What is
left is either x = numeral, as (positive, None, k, x), or s^d(x) = y between
two distinct variables, with the smaller name first when d = 0.

`_dnf` walks the formula once, carrying the polarity down to the atoms as
NNF does, and eliminates each quantifier on the way up: forall x. b is
!exists x. !b, and a guard x >= m adds the disequalities x != 0, ..., m-1.
Within a cube an existential variable is either pinned by an equation
(substitute it) or occurs only in disequalities, which a witness over the
infinite domain always avoids.

Intermediate results are lists of cubes, each a tuple of literals, rather
than Formula trees: they are flat, so no walk over them recurses with their
length, and no pass re-normalizes them.  [()] is true and [] is false; a
cube list that contains () collapses to [()], a conjunction stops at a
false left side and a disjunction at a true one."""

from __future__ import annotations

from .ast import (
    And, Eq, Exists, Forall, Formula, GExists, GForall, Not, Or, PointsTo,
    SLNTerm, TruthConst, free_vars, subformulas,
)

TRUE: list[tuple] = [()]


def _lit(positive: bool, a: str | None, i: int, b: str | None, j: int) -> tuple | bool:
    """s^i(a) = s^j(b), or its negation, as a canonical literal or a truth
    value.  Offsets may be negative while a solution is substituted."""
    if i < j or (i == j and (b or "") < (a or "")):
        a, i, b, j = b, j, a, i
    if a == b:
        return positive == (i == j)
    if b is None:  # s^d(a) = 0 with d > 0
        return not positive
    return (positive, a, i - j, b)


def _cube(lits) -> list[tuple]:
    """The conjunction of lits, repeats dropped, as a cube list."""
    out: list = []
    for lit in lits:
        if lit is False:
            return []
        if lit is not True and lit not in out:
            out.append(lit)
    return [tuple(out)]


def _or(*parts: list[tuple]) -> list[tuple]:
    cubes = [cube for part in parts for cube in part]
    return TRUE if () in cubes else cubes


def _and(xs: list[tuple], ys: list[tuple]) -> list[tuple]:
    return _or([x + tuple(lit for lit in y if lit not in x) for x in xs for y in ys])


def _negate(cubes: list[tuple]) -> list[tuple]:
    out = TRUE
    for cube in cubes:
        out = _and(out, [((not p, u, d, v),) for p, u, d, v in cube])
        if not out:
            break
    return out


def _solve(x: str, guard: int, cube: tuple) -> list[tuple]:
    """exists x >= guard. cube, as a cube list."""
    eq = next((lit for lit in cube if lit[0] and x in (lit[1], lit[3])), None)
    if eq is None:
        return [tuple(lit for lit in cube if x not in (lit[1], lit[3]))]
    # x = s^delta(w); a negative delta needs w >= -delta.
    _, u, d, v = eq
    w, delta = (v, -d) if u == x else (u, d)
    lits = [_lit(False, None, k, w, 0) for k in range(-delta)]
    lits += [_lit(False, w, delta, None, k) for k in range(guard)]
    for lit in cube:
        if lit is not eq:
            p, u, d, v = lit
            i, j = (d + delta, 0) if u == x else (d, delta if v == x else 0)
            lits.append(_lit(p, w if u == x else u, i, w if v == x else v, j))
    return _cube(lits)


def _dnf(a: Formula, positive: bool) -> list[tuple]:
    """Cubes of a, or of its negation when positive is false, with every
    quantifier eliminated."""
    match a:
        case TruthConst(value):
            return TRUE if value == positive else []
        case Eq(SLNTerm(l, i), SLNTerm(r, j)):
            return _cube([_lit(positive, l, i, r, j)])
        case Not(b):
            return _dnf(b, not positive)
        case And(l, r) | Or(l, r):
            left = _dnf(l, positive)
            if isinstance(a, And) == positive:
                return _and(left, _dnf(r, positive)) if left else left
            return left if left == TRUE else _or(left, _dnf(r, positive))
        case Exists() | Forall() | GExists() | GForall():
            exists = isinstance(a, (Exists, GExists))
            guard = getattr(a, "guard", 0)
            out = _or(*(_solve(a.var, guard, cube) for cube in _dnf(a.body, exists)))
            return out if exists == positive else _negate(out)
    raise ValueError(f"not a successor-arithmetic formula: {a!r}")


def decide_sentence(a: Formula) -> bool:
    """Truth over the naturals of a closed formula built from equalities,
    connectives and (guarded) quantifiers."""
    if any(isinstance(sub, PointsTo) for sub in subformulas(a)):
        raise ValueError("points-to atom in successor-arithmetic input")
    if free_vars(a):
        raise ValueError(f"free variables in sentence: {sorted(free_vars(a))}")
    return _dnf(a, True) == TRUE
