"""Syntax-level transformations shared by the translation pipelines.

Fresh names use a counter suffix scheme ("x#17").  Every public operation
creates its own counter, so results are deterministic across runs and calls
are safe to issue concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    QUANTIFIERS, And, BExists, BForall, Eq, Exists, ExistsEq, Forall,
    Formula, GExists, GForall, Leq, Not, Or, PATerm, PointsTo, SLNTerm, Succ,
    Plus, Times, TruthConst, Var, Zero, binder_term, binder_vars, free_vars,
    imp, is_quantifier_free, map_children, neg, or_all, and_all, has_arith,
    quantifier, rebind, shift, sln_num, subformulas, svar, term_vars,
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


def subst_pa_term(t: PATerm, x: str, replacement: PATerm) -> PATerm:
    match t:
        case Var(name):
            return replacement if name == x else t
        case Zero():
            return t
        case Succ(arg):
            return Succ(subst_pa_term(arg, x, replacement))
        case Plus(l, r):
            return Plus(subst_pa_term(l, x, replacement), subst_pa_term(r, x, replacement))
        case Times(l, r):
            return Times(subst_pa_term(l, x, replacement), subst_pa_term(r, x, replacement))
    raise TypeError(f"not a PA term: {t!r}")


def subst_sln_term(t: SLNTerm, x: str, replacement: SLNTerm) -> SLNTerm:
    if t.base == x:
        return shift(replacement, t.offset)
    return t


def _subst_term(t, x: str, replacement):
    if isinstance(t, SLNTerm):
        if not isinstance(replacement, SLNTerm):
            raise TypeError("cannot substitute a PA term into an SLN formula")
        return subst_sln_term(t, x, replacement)
    return subst_pa_term(t, x, replacement)


def substitute(a: Formula, x: str, t, fresh: FreshNames | None = None) -> Formula:
    """Capture-free substitution a[x := t].

    Bound variables are renamed with a deterministic counter whenever a
    capture would occur.  The term must belong to the same logic as `a`.
    """
    if fresh is None:
        fresh = FreshNames(free_vars(a) | term_vars(t) | {x})
    t_vars = term_vars(t)

    def go(a: Formula) -> Formula:
        match a:
            case Eq(l, r):
                return Eq(_subst_term(l, x, t), _subst_term(r, x, t))
            case Leq(l, r):
                return Leq(subst_pa_term(l, x, t), subst_pa_term(r, x, t))
            case PointsTo(l, r):
                return PointsTo(subst_sln_term(l, x, t), subst_sln_term(r, x, t))
            case TruthConst() | Not() | And() | Or():
                return map_children(a, go)
        if not isinstance(a, QUANTIFIERS):
            raise TypeError(f"not a formula: {a!r}")
        y, u = a.var, binder_term(a)
        if isinstance(a, (BForall, BExists, ExistsEq)):
            # the bound or definition lies outside the binder's scope
            u = subst_pa_term(u, x, t)
        if y == x:
            return quantifier(type(a), y, u, a.body)
        y2, b2 = rename_binder(y, a.body)
        return quantifier(type(a), y2, u, go(b2))

    def rename_binder(y: str, body: Formula) -> tuple[str, Formula]:
        # Rename only when the binder would capture a variable of t.
        if y in t_vars and x in free_vars(body):
            y2 = fresh.fresh(y)
            var_t = SLNTerm(y2, 0) if isinstance(t, SLNTerm) else Var(y2)
            return y2, substitute(body, y, var_t, fresh)
        return y, body

    return go(a)


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
    """Push negations down to atoms of a quantifier-free formula."""

    def go(a: Formula, positive: bool) -> Formula:
        match a:
            case Not(b):
                return go(b, not positive)
            case And(l, r):
                return (And if positive else Or)(go(l, positive), go(r, positive))
            case Or(l, r):
                return (Or if positive else And)(go(l, positive), go(r, positive))
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
    """Disjunctive normal form of a quantifier-free PA formula.

    Literals !(t <= u) are first rewritten to u <= t /\\ !(u = t), so the
    result contains no negated inequality.  Naive distribution; the
    exponential blowup is accepted at desk scale.
    """
    if not is_quantifier_free(c):
        raise ValueError("to_dnf expects a quantifier-free formula")

    def drop_neg_leq(a: Formula) -> Formula:
        match a:
            case Not(Leq(t, u)):
                return And(Leq(u, t), Not(Eq(u, t)))
            case And() | Or():
                return map_children(a, drop_neg_leq)
            case _:
                return a

    cubes = dnf_cubes(drop_neg_leq(nnf(c)))
    return or_all([and_all(cube) for cube in cubes])


# ---------------------------------------------------------------------------
# Prenex normal form for PA formulas


# The dual of each PA quantifier class under negation.  A defining
# existential is its own dual, since its witness is unique.
_DUAL = {Forall: Exists, Exists: Forall, BForall: BExists, BExists: BForall,
         ExistsEq: ExistsEq}


@dataclass(frozen=True)
class Binder:
    """One prefix entry: a PA quantifier class, its variable, and its bound
    or definition (None for Forall and Exists)."""

    quant: type
    var: str
    term: PATerm | None = None

    def flipped(self) -> "Binder":
        return Binder(_DUAL[self.quant], self.var, self.term)

    def wrap(self, body: Formula) -> Formula:
        return quantifier(self.quant, self.var, self.term, body)


def wrap_prefix(prefix: list[Binder], matrix: Formula) -> Formula:
    out = matrix
    for b in reversed(prefix):
        out = b.wrap(out)
    return out


def standardize_apart(a: Formula, fresh: FreshNames) -> Formula:
    """Rename bound variables so they are pairwise distinct and disjoint
    from every name occurring anywhere in the input."""
    fresh.reserve(_all_names(a))
    seen: set[str] = set(free_vars(a))

    def go(a: Formula) -> Formula:
        if not isinstance(a, QUANTIFIERS):
            return map_children(a, go)
        x2, b2 = reb(a.var, a.body)
        return rebind(a, x2, go(b2))

    def reb(x: str, body: Formula) -> tuple[str, Formula]:
        if x in seen:
            x2 = fresh.fresh(x)
            seen.add(x2)
            return x2, substitute(body, x, _var_term(body)(x2), fresh)
        seen.add(x)
        return x, body

    return go(a)


def _var_term(body: Formula):
    """The variable constructor of body's logic, read off its first atom:
    svar for SLN, Var for PA."""
    for sub in subformulas(body):
        match sub:
            case Eq(l, _) | PointsTo(l, _) | Leq(l, _):
                return svar if isinstance(l, SLNTerm) else Var
    return Var


def _all_names(a: Formula) -> set[str]:
    names: set[str] = set()
    for sub in subformulas(a):
        match sub:
            case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
                names |= term_vars(l) | term_vars(r)
        if isinstance(sub, QUANTIFIERS):
            names.add(sub.var)
            names |= binder_vars(sub)
    return names


def prenex_parts(a: Formula, fresh: FreshNames | None = None) -> tuple[list[Binder], Formula]:
    """Quantifier prefix and matrix of an equivalent prenex formula.

    Bounded quantifiers stay bounded (negation flips the bounded pair), and
    defining existentials are self-dual under negation since their witness
    is unique.  The input is standardized apart first.
    """
    if fresh is None:
        fresh = FreshNames()
    a = standardize_apart(a, fresh)

    def go(a: Formula) -> tuple[list[Binder], Formula]:
        match a:
            case Eq() | Leq() | PointsTo() | TruthConst():
                return [], a
            case Not(b):
                p, m = go(b)
                return [bi.flipped() for bi in p], Not(m)
            case And(l, r):
                pl, ml = go(l)
                pr, mr = go(r)
                return pl + pr, And(ml, mr)
            case Or(l, r):
                pl, ml = go(l)
                pr, mr = go(r)
                return pl + pr, Or(ml, mr)
        if type(a) not in _DUAL:
            raise TypeError(f"prenex does not handle {a!r}")
        p, m = go(a.body)
        return [Binder(type(a), a.var, binder_term(a))] + p, m

    return go(a)


def to_prenex(a: Formula) -> Formula:
    prefix, matrix = prenex_parts(a)
    return wrap_prefix(prefix, matrix)


# ---------------------------------------------------------------------------
# Class predicates


def is_bounded(a: Formula) -> bool:
    """True when every quantifier is a bounded one (strict reading: a
    defining existential does not count as bounded)."""
    return all(isinstance(b, (Eq, Leq, TruthConst, Not, And, Or, BForall, BExists))
               for b in subformulas(a))


def is_pi01(a: Formula) -> bool:
    match a:
        case Forall(_, b):
            return is_bounded(b)
        case _:
            return False


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
