"""Syntax-level transformations shared by the translation pipelines.

Fresh names use a counter suffix scheme ("x#17").  Every public operation
creates its own counter, so results are deterministic across runs and calls
are safe to issue concurrently.
"""

from __future__ import annotations

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PointsTo, SLNTerm, Plus, Times, TruthConst, Var,
    all_names, binder_term, free_vars, imp, is_quantifier_free,
    map_children, map_term, map_vars, neg, or_all, and_all, has_arith,
    quantifier, sln_num, subformulas, term_vars,
)


class FreshNames:
    """Deterministic fresh-name supply, confined to one transformation."""

    def __init__(self, avoid: frozenset[str] = frozenset()) -> None:
        self._counter = 0
        self._avoid = set(avoid)

    def reserve(self, names) -> None:
        self._avoid.update(names)

    def fresh(self, base: str = "x") -> str:
        stem = base.split("#", 1)[0] or "x"
        while True:
            self._counter += 1
            name = f"{stem}#{self._counter}"
            if name not in self._avoid:
                self._avoid.add(name)
                return name


# ---------------------------------------------------------------------------
# Substitution


def substitute(a: Formula, x: str, t, fresh: FreshNames | None = None) -> Formula:
    """Capture-free substitution a[x := t].

    A binder is renamed only when it would capture a variable of t, to a
    deterministic fresh name that no name of a or t takes.  The term must
    belong to the same logic as `a`.
    """
    t_vars = term_vars(t)
    if fresh is None:
        fresh = FreshNames(t_vars | {x})
    fresh.reserve(all_names(a))

    def bind(q: Formula, env: dict) -> str:
        # Only where x still stands for t and occurs in q, in its body or
        # in its bound or definition.
        if q.var in t_vars and x in env and x in free_vars(q):
            return fresh.fresh(q.var)
        return q.var

    return map_vars(a, {x: t}, bind)


# ---------------------------------------------------------------------------
# Unfoldings of the derived binders


def unfold_bounded(a: Formula) -> Formula:
    """Expand bounded and defining quantifiers to their plain readings."""
    match a:
        case BForall(x, t, b):
            return Forall(x, imp(Leq(Var(x), t), unfold_bounded(b)))
        case BExists(x, t, b):
            return Exists(x, And(Leq(Var(x), t), unfold_bounded(b)))
        case ExistsEq(x, t, b):
            return Exists(x, And(Eq(Var(x), t), unfold_bounded(b)))
        case GForall() | GExists():
            raise TypeError(f"cannot unfold {a!r}")
    return map_children(a, unfold_bounded)


def expand_guards(a: Formula) -> Formula:
    """Expand guarded quantifiers into the plain-quantifier abbreviations."""
    match a:
        case GForall(x, m, b):
            body = expand_guards(b)
            if m == 0:
                return Forall(x, body)
            cases: list[Formula] = [Eq(SLNTerm(x, 0), sln_num(i)) for i in range(m)]
            return Forall(x, or_all(cases + [body]))
        case GExists(x, m, b):
            body = expand_guards(b)
            if m == 0:
                return Exists(x, body)
            cuts: list[Formula] = [Not(Eq(SLNTerm(x, 0), sln_num(i))) for i in range(m)]
            return Exists(x, and_all(cuts + [body]))
        case BForall() | BExists() | ExistsEq():
            raise TypeError(f"cannot expand guards in {a!r}")
    return map_children(a, expand_guards)


# ---------------------------------------------------------------------------
# Negation normal form and disjunctive normal form


def nnf(a: Formula) -> Formula:
    """Push negations down to atoms of a quantifier-free formula.  A negated
    inequality !(t <= u) becomes u <= t /\\ !(u = t), so no literal of the
    result is one."""

    def go(a: Formula, positive: bool) -> Formula:
        match a:
            case Not(b):
                return go(b, not positive)
            case And(l, r):
                return (And if positive else Or)(go(l, positive), go(r, positive))
            case Or(l, r):
                return (Or if positive else And)(go(l, positive), go(r, positive))
            case Leq(t, u) if not positive:
                return And(Leq(u, t), Not(Eq(u, t)))
            case Eq() | Leq() | PointsTo() | TruthConst():
                return a if positive else neg(a)
        raise ValueError(f"nnf expects a quantifier-free formula, got {a!r}")

    return go(a, True)


def dnf_cubes(a: Formula) -> list[list[Formula]]:
    """Cubes of an NNF formula; each cube is a list of literals."""
    match a:
        case Or(l, r):
            return dnf_cubes(l) + dnf_cubes(r)
        case And(l, r):
            return [cl + cr for cl in dnf_cubes(l) for cr in dnf_cubes(r)]
        case _:
            return [[a]]


def to_dnf(c: Formula) -> Formula:
    """Disjunctive normal form of a quantifier-free PA formula, with no
    negated inequality (see `nnf`).  Naive distribution; the exponential
    blowup is accepted at desk scale.
    """
    if not is_quantifier_free(c):
        raise ValueError("to_dnf expects a quantifier-free formula")
    return or_all([and_all(cube) for cube in dnf_cubes(nnf(c))])


# ---------------------------------------------------------------------------
# Prenex normal form for PA formulas


# The dual of each PA quantifier class under negation.  A defining
# existential is its own dual, since its witness is unique.
_DUAL = {Forall: Exists, Exists: Forall, BForall: BExists, BExists: BForall,
         ExistsEq: ExistsEq}


def wrap_prefix(prefix: list[tuple], matrix: Formula) -> Formula:
    """matrix under the prefix, a list of (class, var, term) triples with
    the outermost first."""
    for cls, var, term in reversed(prefix):
        matrix = quantifier(cls, var, term, matrix)
    return matrix


def prenex_parts(a: Formula, fresh: FreshNames | None = None) -> tuple[list[tuple], Formula]:
    """Quantifier prefix, as (class, var, term) triples with the outermost
    first, and matrix of an equivalent prenex formula.

    Bounded quantifiers stay bounded (negation flips the bounded pair), and
    defining existentials are self-dual under negation since their witness
    is unique.  The one walk also standardizes apart: a binder whose name
    is free in a, or bound by a binder met before it in preorder, gets a
    fresh name, disjoint from every name in a, and its occurrences in atoms,
    bounds and definitions are renamed with it.
    """
    if fresh is None:
        fresh = FreshNames()
    fresh.reserve(all_names(a))
    seen = set(free_vars(a))
    prefix: list[tuple] = []

    def go(a: Formula, positive: bool, env: dict[str, str]) -> Formula:
        match a:
            case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
                return type(a)(map_term(l, env), map_term(r, env)) if env else a
            case TruthConst():
                return a
            case Not(b):
                return Not(go(b, not positive, env))
            case And(l, r) | Or(l, r):
                return type(a)(go(l, positive, env), go(r, positive, env))
        if type(a) not in _DUAL:
            raise TypeError(f"prenex does not handle {a!r}")
        x, t = a.var, binder_term(a)
        if env and t is not None:
            t = map_term(t, env)
        if x in seen:
            x = fresh.fresh(x)
            env = {**env, a.var: x}
        seen.add(x)
        prefix.append((type(a) if positive else _DUAL[type(a)], x, t))
        return go(a.body, positive, env)

    return prefix, go(a, True, {})


def to_prenex(a: Formula) -> Formula:
    return wrap_prefix(*prenex_parts(a))


# ---------------------------------------------------------------------------
# Class predicates


def is_bounded(a: Formula) -> bool:
    """True when every quantifier is a bounded one (strict reading: a
    defining existential does not count as bounded)."""
    return all(isinstance(b, (Eq, Leq, TruthConst, Not, And, Or, BForall, BExists))
               for b in subformulas(a))


def is_pi01(a: Formula) -> bool:
    return isinstance(a, Forall) and is_bounded(a.body)


def _operands(a: Formula, cls) -> list[Formula]:
    """The operands of the chain of cls nodes at the top of a, left to
    right; [a] when a is not a cls node."""
    out, todo = [], [a]
    while todo:
        b = todo.pop()
        if isinstance(b, cls):
            todo += (b.right, b.left)
        else:
            out.append(b)
    return out


def is_dnf_matrix(a: Formula) -> bool:
    """True when every literal of every cube of a is an equation or an
    inequality, possibly negated."""
    return all(isinstance(lit.body if isinstance(lit, Not) else lit, (Eq, Leq))
               for cube in _operands(a, Or) for lit in _operands(cube, And))


def is_normal(a: Formula) -> bool:
    """Membership in the normal-form grammar: a possibly empty prefix of
    bounded and defining quantifiers over an arithmetic-free DNF matrix,
    with flat bounds and definitions of shape a+b or a*b with flat sides."""
    match a:
        case BForall(_, t, b) | BExists(_, t, b):
            return not has_arith(t) and is_normal(b)
        case ExistsEq(_, Plus(l, r) | Times(l, r), b):
            return not (has_arith(l) or has_arith(r)) and is_normal(b)
        case ExistsEq():
            return False
    # Every literal of every cube is t = u, t <= u or !(t = u), with flat
    # sides.
    for cube in _operands(a, Or):
        for lit in _operands(cube, And):
            match lit:
                case Eq(l, r) | Leq(l, r) | Not(Eq(l, r)):
                    if has_arith(l) or has_arith(r):
                        return False
                case _:
                    return False
    return True
