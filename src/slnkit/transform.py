"""Syntax-level transformations shared by the translation pipelines.

Fresh names use a counter suffix scheme ("x#17").  Every public operation
creates its own counter, so results are deterministic across runs and calls
are safe to issue concurrently.
"""

from __future__ import annotations

from operator import add

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PointsTo, SLNTerm, Plus, Times, TruthConst, Var,
    all_names, binder_term, free_vars, imp, is_quantifier_free, map_term,
    map_vars, neg, or_all, and_all, has_arith, quantifier, rebuild, sln_num,
    subformulas, term_vars,
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

    def visit(b: Formula, _):
        match b:
            case BForall(x, t, body):
                return (lambda c: Forall(x, imp(Leq(Var(x), t), c))), [(body, None)]
            case BExists(x, t, body):
                return (lambda c: Exists(x, And(Leq(Var(x), t), c))), [(body, None)]
            case ExistsEq(x, t, body):
                return (lambda c: Exists(x, And(Eq(Var(x), t), c))), [(body, None)]
            case GForall() | GExists():
                raise TypeError(f"cannot unfold {b!r}")
        return None

    return rebuild(a, visit)


def expand_guards(a: Formula) -> Formula:
    """Expand guarded quantifiers into the plain-quantifier abbreviations."""

    def visit(b: Formula, _):
        match b:
            case GForall(x, m, body):
                cases: list[Formula] = [Eq(SLNTerm(x, 0), sln_num(i)) for i in range(m)]
                return (lambda c: Forall(x, or_all(cases + [c]))), [(body, None)]
            case GExists(x, m, body):
                cuts: list[Formula] = [Not(Eq(SLNTerm(x, 0), sln_num(i))) for i in range(m)]
                return (lambda c: Exists(x, and_all(cuts + [c]))), [(body, None)]
            case BForall() | BExists() | ExistsEq():
                raise TypeError(f"cannot expand guards in {b!r}")
        return None

    return rebuild(a, visit)


# ---------------------------------------------------------------------------
# Disjunctive normal form


def _product(left: list, right: list) -> list:
    """The cubes of the conjunction of two cube lists."""
    return [cl + cr for cl in left for cr in right]


def to_dnf(c: Formula) -> Formula:
    """Disjunctive normal form of a quantifier-free PA formula, with no
    negated inequality.  Naive distribution; the exponential blowup is
    accepted at desk scale.

    One walk, with the polarity as its ctx, gives the cubes as lists of
    literals: a run of ! flips the polarity, a conjunction (a disjunction
    under negation) multiplies its operands' cubes out and the dual joins
    their lists, and !(t <= u) becomes the cube u <= t, !(u = t).
    """
    if not is_quantifier_free(c):
        raise ValueError("to_dnf expects a quantifier-free formula")

    def visit(b: Formula, positive: bool):
        while type(b) is Not:
            b, positive = b.body, not positive
        if isinstance(b, (And, Or)):
            join = _product if isinstance(b, And) == positive else add
            return join, [(b.left, positive), (b.right, positive)]
        if isinstance(b, Leq) and not positive:
            return None, [[Leq(b.right, b.left), Not(Eq(b.right, b.left))]]
        return None, [[b if positive else neg(b)]]

    return or_all([and_all(cube) for cube in rebuild(c, visit, True)])


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
    bounds and definitions are renamed with it.  One rebuild of the matrix,
    whose ctx is the polarity and the renaming in scope.
    """
    if fresh is None:
        fresh = FreshNames()
    fresh.reserve(all_names(a))
    seen = set(free_vars(a))
    prefix: list[tuple] = []

    def visit(b: Formula, ctx: tuple[bool, dict[str, str]]):
        positive, env = ctx
        while type(b) in _DUAL:  # a run of quantifiers joins the prefix
            x, t = b.var, binder_term(b)
            if env and t is not None:
                t = map_term(t, env)
            if x in seen:
                x = fresh.fresh(x)
                env = {**env, b.var: x}
            seen.add(x)
            prefix.append((type(b) if positive else _DUAL[type(b)], x, t))
            b = b.body
        match b:
            case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
                return None, type(b)(map_term(l, env), map_term(r, env)) if env else b
            case TruthConst():
                return None, b
            case Not(body):
                return Not, [(body, (not positive, env))]
            case And(l, r) | Or(l, r):
                return type(b), [(l, (positive, env)), (r, (positive, env))]
        raise TypeError(f"prenex does not handle {b!r}")

    return prefix, rebuild(a, visit, (True, {}))


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
    while True:
        match a:
            case BForall(_, t, b) | BExists(_, t, b) if not has_arith(t):
                a = b
            case ExistsEq(_, Plus(l, r) | Times(l, r), b) if not (has_arith(l) or has_arith(r)):
                a = b
            case BForall() | BExists() | ExistsEq():
                return False
            case _:
                break
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
