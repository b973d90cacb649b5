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
infinite domain always avoids.  The same walk checks that the input is a
sentence: `_closed` walks the operands a short circuit skips, so an input
is rejected whichever operand settles it, and on any raise the whole
input, for its message: a rejection may cost up to a budget.

Intermediate results are lists of cubes, each a tuple of literals, rather
than Formula trees: they are flat, so no walk over them recurses with their
length, and no pass re-normalizes them.  [()] is true and [] is false; a
cube list that contains () collapses to [()], a conjunction stops at a
false operand and a disjunction at a true one.

Two pruning rules keep dead cubes from multiplying.  No cube holds a
literal and its negation: `_cube`, which builds what `_solve` returns,
gives [] for one, and `_and` and `_negate` skip such merges.  `_negate`
absorbs after each clause it multiplies in, dropping every cube that
contains another; `_or` does not, as on the small lists of most sentences
that costs more than it saves.  A step past MAX_CUBES cubes, or an
absorption past MAX_TESTS subset tests, raises BudgetExceeded: the first
bounds memory, the second time."""

from __future__ import annotations

from .ast import (
    QUANTIFIERS, And, Eq, Exists, Forall, Formula, GExists, GForall, Leq, Not,
    Or, PointsTo, SLNTerm, TruthConst, binder_vars, term_vars,
)

TRUE: list[tuple] = [()]

MAX_CUBES = 200_000  # about 200 times the most the ladder to k = 10 needs
# Subset tests in one absorption: about 200 times the most the ladder to
# k = 12 makes, 523,776 on a list of 1,024 cubes.
MAX_TESTS = 100_000_000


class BudgetExceeded(RuntimeError):
    """A step of the elimination would handle more than MAX_CUBES cubes, or
    an absorption would make more than MAX_TESTS subset tests."""


def _budget(n: int, tests: int = 0) -> None:
    if n > MAX_CUBES:
        raise BudgetExceeded(f"budget exceeded: {n} cubes pass MAX_CUBES = {MAX_CUBES}")
    if tests > MAX_TESTS:
        raise BudgetExceeded(f"budget exceeded: {tests} subset tests pass MAX_TESTS = {MAX_TESTS}")


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
    """The conjunction of lits, repeats dropped, as a cube list: [] when it
    holds a literal and its negation.  On a short cube, the usual one,
    membership in a list is fastest; past eight literals, as a large guard
    gives, a dict keeps the cost linear."""
    if len(lits) > 8:
        keys = dict.fromkeys(lits)
        keys.pop(True, None)
        if False in keys or any((not p, u, d, v) in keys for p, u, d, v in keys):
            return []
        return [tuple(keys)]
    out: list = []
    for lit in lits:
        if lit is False:
            return []
        if lit is not True and lit not in out:
            if (not lit[0], lit[1], lit[2], lit[3]) in out:
                return []
            out.append(lit)
    return [tuple(out)]


def _or(*parts: list[tuple]) -> list[tuple]:
    cubes = [cube for part in parts for cube in part]
    return TRUE if () in cubes else cubes


def _and(xs: list[tuple], ys: list[tuple]) -> list[tuple]:
    """Merged cubes of xs and ys, without those that hold a literal and its
    negation; neither side holds such a pair, so y is checked against x."""
    _budget(len(xs) * len(ys))
    return _or([x + tuple(lit for lit in y if lit not in x) for x in xs for y in ys
                if not any((not p, u, d, v) in x for p, u, d, v in y)])


def _absorb(cubes: list[tuple]) -> list[tuple]:
    """cubes, in order, without each one that contains another or repeats an
    earlier one.  Smallest first, each is tested only against those kept,
    and the budget is charged those tests, one per cube kept so far."""
    if len(cubes) < 2:
        return cubes
    kept: dict[int, frozenset] = {}
    tests = 0
    for i in sorted(range(len(cubes)), key=lambda i: len(cubes[i])):
        tests += len(kept)
        _budget(len(cubes), tests)
        s = frozenset(cubes[i])
        if not any(map(s.issuperset, kept.values())):
            kept[i] = s
    return [cubes[i] for i in sorted(kept)]


def _negate(cubes: list[tuple]) -> list[tuple]:
    """!cubes, multiplied in one clause at a time and absorbed after each.  A
    cube of out that holds a literal of the clause is its own product: its
    other merges contain it."""
    out = TRUE
    for cube in cubes:
        step = []
        for x in out:
            merges = []
            for lit in cube:
                neg = (not lit[0], lit[1], lit[2], lit[3])
                if neg in x:
                    step.append(x)
                    break
                if lit not in x:
                    merges.append(x + (neg,))
            else:
                step += merges
        out = _absorb(step)
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


_READ = (Not, And, Or, Exists, Forall, GExists, GForall, TruthConst)  # what `_dnf` reads besides Eq


def _closed(todo: list) -> None:
    """Raise ValueError on a points-to atom, else on the free variables,
    else on the first formula, left to right, that `_dnf` rejects, of the
    formulas in todo, each paired with the names bound around it."""
    free: set[str] = set()
    other = None
    while todo:
        b, bound = todo.pop()
        if other is None and type(b) not in _READ and not (
                type(b) is Eq and type(b.left) is SLNTerm and type(b.right) is SLNTerm):
            other = b
        if isinstance(b, PointsTo):
            raise ValueError("points-to atom in successor-arithmetic input")
        if isinstance(b, (Eq, Leq)):
            free |= (term_vars(b.left) | term_vars(b.right)) - bound
        elif isinstance(b, (And, Or)):
            todo += ((b.right, bound), (b.left, bound))
        elif isinstance(b, Not):
            todo.append((b.body, bound))
        elif isinstance(b, QUANTIFIERS):
            free |= binder_vars(b) - bound
            todo.append((b.body, bound | {b.var}))
    if free:
        raise ValueError(f"free variables in sentence: {sorted(free)}")
    if other is not None:
        raise ValueError(f"not a successor-arithmetic formula: {other!r}")


def _dnf(a: Formula, positive: bool, bound: frozenset) -> list[tuple]:
    """Cubes of a, or of its negation when positive is false, with every
    quantifier eliminated; bound holds the names bound around a, and None for
    0.  A run of ! and the right spine of a chain of one connective are read
    in a loop.  An atom other than an equation of successor terms over bound
    names raises ValueError."""
    while type(a) is Not:
        a, positive = a.body, not positive
    cls = type(a)
    if cls is Eq:
        l, r = a.left, a.right
        if type(l) is SLNTerm and type(r) is SLNTerm and l.base in bound and r.base in bound:
            lit = _lit(positive, l.base, l.offset, r.base, r.offset)
            return TRUE if lit is True else [] if lit is False else [(lit,)]
    elif cls is And or cls is Or:
        # Operands left to right, up to the first false one of a
        # conjunction or the first true one of a disjunction, or the last.
        conjunctive, parts = (cls is And) == positive, []
        while type(a) is cls:
            parts.append(_dnf(a.left, positive, bound))
            if parts[-1] == ([] if conjunctive else TRUE):
                _closed([(a.right, bound)])
                break
            a = a.right
        else:
            parts.append(_dnf(a, positive, bound))
        if not conjunctive:
            return parts[0] if len(parts) == 1 else _or(*parts)
        out = parts.pop()
        for part in reversed(parts):
            out = _and(part, out)
        return out
    elif cls is Exists or cls is Forall or cls is GExists or cls is GForall:
        exists, x = cls is Exists or cls is GExists, a.var
        guard = 0 if cls is Exists or cls is Forall else a.guard
        out = [c for cube in _dnf(a.body, exists, bound | {x}) for c in _solve(x, guard, cube)]
        out = TRUE if () in out else out
        return out if exists == positive else _negate(out)
    elif cls is TruthConst:
        return TRUE if a.value == positive else []
    raise ValueError(f"not a successor-arithmetic formula: {a!r}")


def decide_sentence(a: Formula) -> bool:
    """Truth over the naturals of a closed formula of equalities, connectives
    and (guarded) quantifiers.  On any raise, BudgetExceeded too, `_closed`
    walks the whole input, so a non-sentence is rejected as such first."""
    try:
        return _dnf(a, True, frozenset((None,))) == TRUE
    except (ValueError, BudgetExceeded):
        _closed([(a, frozenset())])
        raise
