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


def and_all(parts: list[Formula]) -> Formula:
    """Right-nested conjunction of a nonempty list."""
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def or_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def free_vars(a: Formula) -> frozenset[str]:
    match a:
        case Eq(l, r):
            return term_vars(l) | term_vars(r)
        case Leq(l, r):
            return pa_term_vars(l) | pa_term_vars(r)
        case PointsTo(l, r):
            return term_vars(l) | term_vars(r)
        case TruthConst():
            return frozenset()
        case Not(b):
            return free_vars(b)
        case And(l, r) | Or(l, r):
            return free_vars(l) | free_vars(r)
        case Exists(x, b) | Forall(x, b):
            return free_vars(b) - {x}
        case BForall(x, t, b) | BExists(x, t, b):
            return (free_vars(b) - {x}) | pa_term_vars(t)
        case ExistsEq(x, t, b):
            return (free_vars(b) - {x}) | pa_term_vars(t)
        case GForall(x, _, b) | GExists(x, _, b):
            return free_vars(b) - {x}
    raise TypeError(f"not a formula: {a!r}")


def is_quantifier_free(a: Formula) -> bool:
    match a:
        case Eq() | Leq() | PointsTo() | TruthConst():
            return True
        case Not(b):
            return is_quantifier_free(b)
        case And(l, r) | Or(l, r):
            return is_quantifier_free(l) and is_quantifier_free(r)
        case _:
            return False


def subformulas(a: Formula):
    """Preorder stream of all subformulas, a included."""
    yield a
    match a:
        case Not(b):
            yield from subformulas(b)
        case And(l, r) | Or(l, r):
            yield from subformulas(l)
            yield from subformulas(r)
        case Exists(_, b) | Forall(_, b) | GForall(_, _, b) | GExists(_, _, b):
            yield from subformulas(b)
        case BForall(_, _, b) | BExists(_, _, b) | ExistsEq(_, _, b):
            yield from subformulas(b)


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
            case (Exists(x, ba), Exists(y, bb)) | (Forall(x, ba), Forall(y, bb)):
                return under(x, y, ba, bb)
            case (BForall(x, t, ba), BForall(y, u, bb)) | (BExists(x, t, ba), BExists(y, u, bb)):
                return _term_alpha(t, u, lr, rl) and under(x, y, ba, bb)
            case ExistsEq(x, t, ba), ExistsEq(y, u, bb):
                return _term_alpha(t, u, lr, rl) and under(x, y, ba, bb)
            case (GForall(x, m, ba), GForall(y, k, bb)) | (GExists(x, m, ba), GExists(y, k, bb)):
                return m == k and under(x, y, ba, bb)
            case _:
                return False

    return go(a, b, {}, {})
