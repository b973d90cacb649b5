"""Abstract syntax for the two logics handled by this toolkit.

PA terms are structural trees over 0, s, + and *.  SLN terms are kept in a
canonical base-plus-offset form, so s(s(x)) and "x shifted by 2" are the
same value.  Propositional connectives and the plain quantifiers are shared
between the two logics; each logic adds its own atoms and special binders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ---------------------------------------------------------------------------
# PA terms


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be nonempty")


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    arg: "PATerm"


@dataclass(frozen=True)
class Plus:
    left: "PATerm"
    right: "PATerm"


@dataclass(frozen=True)
class Times:
    left: "PATerm"
    right: "PATerm"


PATerm = Union[Var, Zero, Succ, Plus, Times]


def pa_num(n: int) -> PATerm:
    """The numeral s^n(0)."""
    if n < 0:
        raise ValueError("numerals are naturals")
    t: PATerm = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def pa_term_vars(t: PATerm) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Zero():
            return frozenset()
        case Succ(arg):
            return pa_term_vars(arg)
        case Plus(left, right) | Times(left, right):
            return pa_term_vars(left) | pa_term_vars(right)
    raise TypeError(f"not a PA term: {t!r}")


def has_arith(t: PATerm) -> bool:
    """True when t contains + or *."""
    match t:
        case Plus() | Times():
            return True
        case Succ(arg):
            return has_arith(arg)
        case _:
            return False


# ---------------------------------------------------------------------------
# SLN terms: s^offset(base), with base a variable or 0.


@dataclass(frozen=True)
class SLNTerm:
    base: str | None
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("offset must be a natural")
        if self.base is not None and not self.base:
            raise ValueError("variable name must be nonempty")


def svar(name: str) -> SLNTerm:
    return SLNTerm(name, 0)


def sln_num(n: int) -> SLNTerm:
    return SLNTerm(None, n)


def shift(t: SLNTerm, k: int) -> SLNTerm:
    """Apply the successor k more times."""
    return SLNTerm(t.base, t.offset + k)


Term = Union[PATerm, SLNTerm]


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, SLNTerm):
        return frozenset() if t.base is None else frozenset((t.base,))
    return pa_term_vars(t)


# ---------------------------------------------------------------------------
# Formulas.  Connectives and plain quantifiers are shared; atoms and the
# remaining binders belong to one logic each.


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Leq:
    left: PATerm
    right: PATerm


@dataclass(frozen=True)
class PointsTo:
    addr: SLNTerm
    val: SLNTerm


@dataclass(frozen=True)
class TruthConst:
    """Internal rewriting artifact; rendered as 0 = 0 or its negation."""

    value: bool


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class BForall:
    """forall var <= bound. body, with var not occurring in bound."""

    var: str
    bound: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.bound):
            raise ValueError(f"bound of forall {self.var} <= ... mentions {self.var}")


@dataclass(frozen=True)
class BExists:
    var: str
    bound: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.bound):
            raise ValueError(f"bound of exists {self.var} <= ... mentions {self.var}")


@dataclass(frozen=True)
class ExistsEq:
    """exists (var = defn) body, with var not occurring in defn."""

    var: str
    defn: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.defn):
            raise ValueError(f"definition of exists ({self.var} = ...) mentions {self.var}")


@dataclass(frozen=True)
class GForall:
    """forall var >= guard. body (SLN abbreviation)."""

    var: str
    guard: int
    body: "Formula"

    def __post_init__(self) -> None:
        if self.guard < 0:
            raise ValueError("guard must be a natural")


@dataclass(frozen=True)
class GExists:
    var: str
    guard: int
    body: "Formula"

    def __post_init__(self) -> None:
        if self.guard < 0:
            raise ValueError("guard must be a natural")


Formula = Union[
    Eq, Leq, PointsTo, TruthConst, Not, And, Or,
    Exists, Forall, BForall, BExists, ExistsEq, GForall, GExists,
]

ATOMS = (Eq, Leq, PointsTo, TruthConst)
QUANTIFIERS = (Exists, Forall, BForall, BExists, ExistsEq, GForall, GExists)


def imp(a: Formula, b: Formula) -> Formula:
    """A -> B, which abbreviates !A \\/ B."""
    return Or(Not(a), b)


def nest(parts: list, node) -> Formula:
    """The nonempty list parts joined by the binary constructor node, nested
    to the right."""
    if not parts:
        raise ValueError("empty chain")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = node(p, out)
    return out


def and_all(parts: list[Formula]) -> Formula:
    return nest(parts, And)


def or_all(parts: list[Formula]) -> Formula:
    return nest(parts, Or)


# Folding constructors: truth constants are folded away, and what is left
# of a conjunction or disjunction is nested to the right.


def neg(a: Formula) -> Formula:
    return TruthConst(not a.value) if isinstance(a, TruthConst) else Not(a)


def _fold(parts: tuple, cls, unit: bool) -> Formula:
    out = None
    for p in reversed(parts):
        if isinstance(p, TruthConst):
            if p.value != unit:
                return p
        else:
            out = p if out is None else cls(p, out)
    return TruthConst(unit) if out is None else out


def conj(*parts: Formula) -> Formula:
    """The conjunction of parts: false if one is false, true parts dropped,
    and true when none is left."""
    return _fold(parts, And, True)


def disj(*parts: Formula) -> Formula:
    """The disjunction of parts: true if one is true, false parts dropped,
    and false when none is left."""
    return _fold(parts, Or, False)


# Binder-generic access.  Every quantifier has a var and a body; five of the
# seven classes also carry a term between them.


def binder_term(a: Formula) -> PATerm | int | None:
    """The bound (BForall, BExists), definition (ExistsEq) or guard
    (GForall, GExists) of a quantifier; None for Exists and Forall."""
    match a:
        case Exists() | Forall():
            return None
        case BForall(_, t, _) | BExists(_, t, _) | ExistsEq(_, t, _):
            return t
        case GForall(_, m, _) | GExists(_, m, _):
            return m
    raise TypeError(f"not a quantifier: {a!r}")


def binder_vars(a: Formula) -> frozenset[str]:
    """Variables of a quantifier's bound or definition; a guard has none."""
    t = binder_term(a)
    return frozenset() if t is None or isinstance(t, int) else pa_term_vars(t)


def quantifier(cls, var: str, term: PATerm | int | None, body: Formula) -> Formula:
    """The quantifier of class cls binding var in body, with term as its
    bound, definition or guard (None for Exists and Forall)."""
    return cls(var, body) if term is None else cls(var, term, body)


def rebind(a: Formula, var: str, body: Formula) -> Formula:
    """Quantifier a, of the same class and term, binding var in body."""
    return quantifier(type(a), var, binder_term(a), body)


def map_children(a: Formula, f) -> Formula:
    """a with f applied to each immediate subformula; atoms are returned
    as they are."""
    match a:
        case Eq() | Leq() | PointsTo() | TruthConst():
            return a
        case Not(b):
            return Not(f(b))
        case And(l, r):
            return And(f(l), f(r))
        case Or(l, r):
            return Or(f(l), f(r))
    if isinstance(a, QUANTIFIERS):
        return rebind(a, a.var, f(a.body))
    raise TypeError(f"not a formula: {a!r}")


def free_vars(a: Formula) -> frozenset[str]:
    """The free variables of a, kept on each node outside its fields as the
    checker keeps its compiled node, so a shared subformula such as H is
    walked once.  An explicit stack, so a deep formula cannot exhaust the
    recursion limit: a node stays on it until its children are settled.
    Dispatch is on the exact class, which is cheaper than a match here."""
    todo = [a]
    while todo:
        b = todo[-1]
        memo = vars(b)
        if "_free" in memo:
            todo.pop()
            continue
        cls = type(b)
        if cls is And or cls is Or:
            fl, fr = vars(b.left).get("_free"), vars(b.right).get("_free")
            if fl is None or fr is None:
                if fr is None:
                    todo.append(b.right)
                if fl is None:
                    todo.append(b.left)
                continue
            out = fl | fr
        elif cls is Not or cls in QUANTIFIERS:
            out = vars(b.body).get("_free")
            if out is None:
                todo.append(b.body)
                continue
            if cls is not Not:
                out = (out - {b.var}) | binder_vars(b)
        elif cls is Eq or cls is Leq:
            out = term_vars(b.left) | term_vars(b.right)
        elif cls is PointsTo:
            out = term_vars(b.addr) | term_vars(b.val)
        elif cls is TruthConst:
            out = frozenset()
        else:
            raise TypeError(f"not a formula: {b!r}")
        memo["_free"] = out
        todo.pop()
    return vars(a)["_free"]


def subformulas(a: Formula):
    """Preorder stream of all subformulas, a included.  An explicit stack,
    so a deep formula cannot exhaust the recursion limit."""
    todo = [a]
    while todo:
        a = todo.pop()
        yield a
        if isinstance(a, (And, Or)):
            todo += (a.right, a.left)
        elif isinstance(a, (Not, *QUANTIFIERS)):
            todo.append(a.body)


def is_quantifier_free(a: Formula) -> bool:
    return all(isinstance(b, (*ATOMS, Not, And, Or)) for b in subformulas(a))


# ---------------------------------------------------------------------------
# Alpha equivalence, used wherever results are compared modulo the choice of
# fresh bound names (goldens, normalization output).


def _term_alpha(t: Term, u: Term, lr: dict[str, str], rl: dict[str, str]) -> bool:
    def names_match(x: str, y: str) -> bool:
        if x in lr or y in rl:
            return lr.get(x) == y and rl.get(y) == x
        return x == y

    if isinstance(t, SLNTerm) or isinstance(u, SLNTerm):
        if not (isinstance(t, SLNTerm) and isinstance(u, SLNTerm)):
            return False
        if t.offset != u.offset:
            return False
        if (t.base is None) != (u.base is None):
            return False
        return t.base is None or names_match(t.base, u.base)
    match t, u:
        case Var(x), Var(y):
            return names_match(x, y)
        case Zero(), Zero():
            return True
        case Succ(a), Succ(b):
            return _term_alpha(a, b, lr, rl)
        case (Plus(a, b), Plus(c, d)) | (Times(a, b), Times(c, d)):
            return _term_alpha(a, c, lr, rl) and _term_alpha(b, d, lr, rl)
        case _:
            return False


def alpha_eq(a: Formula, b: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(a: Formula, b: Formula, lr: dict[str, str], rl: dict[str, str]) -> bool:
        def under(x: str, y: str, ba: Formula, bb: Formula) -> bool:
            lr2, rl2 = dict(lr), dict(rl)
            lr2[x], rl2[y] = y, x
            return go(ba, bb, lr2, rl2)

        match a, b:
            case Eq(l1, r1), Eq(l2, r2):
                return _term_alpha(l1, l2, lr, rl) and _term_alpha(r1, r2, lr, rl)
            case Leq(l1, r1), Leq(l2, r2):
                return _term_alpha(l1, l2, lr, rl) and _term_alpha(r1, r2, lr, rl)
            case PointsTo(l1, r1), PointsTo(l2, r2):
                return _term_alpha(l1, l2, lr, rl) and _term_alpha(r1, r2, lr, rl)
            case TruthConst(v1), TruthConst(v2):
                return v1 == v2
            case Not(x), Not(y):
                return go(x, y, lr, rl)
            case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
                return go(l1, l2, lr, rl) and go(r1, r2, lr, rl)
        if type(a) is not type(b) or not isinstance(a, QUANTIFIERS):
            return False
        t, u = binder_term(a), binder_term(b)
        if t is None or isinstance(t, int):
            same_term = t == u
        else:
            same_term = _term_alpha(t, u, lr, rl)
        return same_term and under(a.var, b.var, a.body, b.body)

    return go(a, b, {}, {})
