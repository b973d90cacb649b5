"""Abstract syntax for the logics handled by this toolkit.

PA terms are structural trees over 0, s, + and *.  SLN terms are kept in a
canonical base-plus-offset form, so s(s(x)) and "x shifted by 2" are the
same value.  Propositional connectives and the plain quantifiers are shared
between the logics; each logic adds its own atoms and special binders.  The
language L of `finite` adds only its two atoms, and builds on !, /\\ and
exists.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from itertools import count
from types import FunctionType
from typing import Union

# ---------------------------------------------------------------------------
# The node base.  Each term and formula class annotates its fields and gets
# what a frozen dataclass would give it, without generating source code:
# positional or keyword construction followed by __post_init__, no
# assignment, and equality, hash and repr by class and fields.  Equality,
# hash and repr walk explicit stacks, so a deep node cannot exhaust the
# recursion limit.  The hash is kept on each node outside its fields, under
# "_hash", as free_vars keeps "_free" and the checker "_node".

_set = object.__setattr__


def _init_for(cls, names: tuple[str, ...], post):
    """cls.__init__: one argument stored per field name, then post (the
    class's __post_init__, or None) run on the node.  One closure per arity;
    its parameters are renamed to the field names, so keyword calls work.
    Fields are stored with object.__setattr__ rather than into __dict__, so
    CPython keeps them as inline values, which read faster."""
    match names:
        case ():
            def init(self):
                if post is not None:
                    post(self)
        case (a,):
            def init(self, x):
                _set(self, a, x)
                if post is not None:
                    post(self)
        case (a, b):
            def init(self, x, y):
                _set(self, a, x)
                _set(self, b, y)
                if post is not None:
                    post(self)
        case (a, b, c):
            def init(self, x, y, z):
                _set(self, a, x)
                _set(self, b, y)
                _set(self, c, z)
                if post is not None:
                    post(self)
        case _:
            raise TypeError(f"{cls.__name__} has more than three fields")
    code = init.__code__
    code = code.replace(co_varnames=("self", *names) + code.co_varnames[len(names) + 1:])
    out = FunctionType(code, init.__globals__, "__init__", None, init.__closure__)
    out.__qualname__ = f"{cls.__qualname__}.__init__"
    return out


def _hash_tree(root: "Node") -> int:
    """hash(root), the hash of the tuple of its fields as on a frozen
    dataclass, cached on root and on every node below it.  A node stays on
    the stack until its children are hashed."""
    todo = [root]
    while todo:
        a = todo[-1]
        memo = a.__dict__
        if "_hash" in memo:
            todo.pop()
            continue
        values = tuple([memo[n] for n in a.__match_args__])
        pending = [v for v in values if isinstance(v, Node) and "_hash" not in v.__dict__]
        if pending:
            todo += pending
            continue
        memo["_hash"] = hash(values)
        todo.pop()
    return root.__dict__["_hash"]


class Node:
    """Base of every term and formula class; see the comment above."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = names
        cls.__init__ = _init_for(cls, names, getattr(cls, "__post_init__", None))
        # Registers the fields for dataclasses.fields; generates nothing.
        dataclass(cls, init=False, repr=False, eq=False, match_args=False)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt from the fields, without caches.
        return type(self), tuple([getattr(self, n) for n in self.__match_args__])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            for n in a.__match_args__:
                x, y = getattr(a, n), getattr(b, n)
                if x is y:
                    continue
                if isinstance(x, Node):
                    if type(x) is not type(y):
                        return False
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        return _hash_tree(self) if h is None else h

    def __repr__(self) -> str:
        out, todo = [], [self]
        while todo:
            a = todo.pop()
            if not isinstance(a, Node):
                out.append(a)
                continue
            out.append(f"{type(a).__qualname__}(")
            parts = []
            for i, n in enumerate(a.__match_args__):
                v = getattr(a, n)
                parts += (f", {n}=" if i else f"{n}=", v if isinstance(v, Node) else repr(v))
            parts.append(")")
            todo += reversed(parts)
        return "".join(out)


# ---------------------------------------------------------------------------
# PA terms


class Var(Node):
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be nonempty")


class Zero(Node):
    pass


class Succ(Node):
    arg: "PATerm"


class Plus(Node):
    left: "PATerm"
    right: "PATerm"


class Times(Node):
    left: "PATerm"
    right: "PATerm"


PATerm = Union[Var, Zero, Succ, Plus, Times]


def pa_num(n: int) -> PATerm:
    """The numeral s^n(0)."""
    if n < 0:
        raise ValueError("numerals are naturals")
    return succs(Zero(), n)


def succs(t: PATerm, n: int) -> PATerm:
    """s^n(t)."""
    for _ in range(n):
        t = Succ(t)
    return t


def succ_run(t: PATerm) -> tuple[PATerm, int]:
    """(u, n) with t = s^n(u), u no successor.  The term walks read a run
    of s in this loop, so a long numeral cannot exhaust the stack."""
    n = 0
    while type(t) is Succ:
        t, n = t.arg, n + 1
    return t, n


def fold_term(t: PATerm, leaf, op, succ):
    """t folded bottom-up on an explicit stack: leaf(v) for a subterm v with
    no sum or product in it, op(u, l, r) for a sum or product u whose
    operands folded to l and r, the left one first, and succ(w, n) for s^n(u),
    n > 0, u a sum or product that folded to w."""
    done, todo = [], [t]
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # a sum or product whose operands are folded
            u, n = t
            r = done.pop()
            w = op(u, done.pop(), r)
            done.append(succ(w, n) if n else w)
            continue
        u, n = succ_run(t)
        if isinstance(u, (Plus, Times)):
            todo += (u, n), u.right, u.left
        else:
            done.append(leaf(t))
    return done.pop()


def pa_term_vars(t: PATerm) -> frozenset[str]:
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        u = succ_run(t)[0]
        if isinstance(u, Var):
            out.add(u.name)
        elif isinstance(u, (Plus, Times)):
            todo += (u.left, u.right)
        elif not isinstance(u, Zero):
            raise TypeError(f"not a PA term: {t!r}")
    return frozenset(out)


def has_arith(t: PATerm) -> bool:
    """True when t contains + or *."""
    return isinstance(succ_run(t)[0], (Plus, Times))


# ---------------------------------------------------------------------------
# SLN terms: s^offset(base), with base a variable or 0.


class SLNTerm(Node):
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


class Eq(Node):
    left: Term
    right: Term


class Leq(Node):
    left: PATerm
    right: PATerm


class PointsTo(Node):
    addr: SLNTerm
    val: SLNTerm


class TruthConst(Node):
    """Internal rewriting artifact; rendered as 0 = 0 or its negation."""

    value: bool


class Not(Node):
    body: "Formula"


class And(Node):
    left: "Formula"
    right: "Formula"


class Or(Node):
    left: "Formula"
    right: "Formula"


class Exists(Node):
    var: str
    body: "Formula"


class Forall(Node):
    var: str
    body: "Formula"


class BForall(Node):
    """forall var <= bound. body, with var not occurring in bound."""

    var: str
    bound: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.bound):
            raise ValueError(f"bound of forall {self.var} <= ... mentions {self.var}")


class BExists(Node):
    var: str
    bound: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.bound):
            raise ValueError(f"bound of exists {self.var} <= ... mentions {self.var}")


class ExistsEq(Node):
    """exists (var = defn) body, with var not occurring in defn."""

    var: str
    defn: PATerm
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in pa_term_vars(self.defn):
            raise ValueError(f"definition of exists ({self.var} = ...) mentions {self.var}")


def _natural_guard(self) -> None:
    if self.guard < 0:
        raise ValueError("guard must be a natural")


class GForall(Node):
    """forall var >= guard. body (SLN abbreviation)."""

    var: str
    guard: int
    body: "Formula"
    __post_init__ = _natural_guard


class GExists(Node):
    var: str
    guard: int
    body: "Formula"
    __post_init__ = _natural_guard


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
    if not isinstance(a, QUANTIFIERS):
        raise TypeError(f"not a quantifier: {a!r}")
    fields = a.__match_args__
    return getattr(a, fields[1]) if len(fields) == 3 else None


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


def rebuild(a: Formula, visit, ctx=None):
    """The result of a, built bottom-up: the one walk behind every formula
    transform.  visit(b, ctx) is asked for each subformula b in preorder
    and returns (None, result), or (make, [(child, child_ctx), ...]), whose
    result is make applied to the children's results, built left to right.
    When visit returns None, an atom is its own result, and a connective or
    quantifier is rebuilt from its children's results under the same ctx.
    An explicit stack, so a deep formula cannot exhaust the recursion limit:
    a make waits on it, after the number of its children, until they are
    built."""
    done: list = []
    todo: list = [(a, ctx)]
    while todo:
        b, ctx = todo.pop()
        if type(b) is int:  # ctx is a make, waiting on the last b results
            k = len(done) - b
            done[k:] = [ctx(*done[k:])]
            continue
        step = visit(b, ctx)
        if step is not None:
            make, parts = step
            if make is None:
                done.append(parts)
            else:
                todo.append((len(parts), make))
                todo += reversed(parts)
            continue
        cls = type(b)
        if cls is And or cls is Or:
            todo += ((2, cls), (b.right, ctx), (b.left, ctx))
        elif cls is Not:
            todo += ((1, Not), (b.body, ctx))
        elif cls in QUANTIFIERS:
            todo += ((1, partial(rebind, b, b.var)), (b.body, ctx))
        elif cls in ATOMS:
            done.append(b)
        else:
            raise TypeError(f"not a formula: {b!r}")
    return done[0]


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
# The renaming walk: one rebuild under a map from variable names to names or
# terms, shared by substitution and alpha equivalence; prenexing renames
# with its term mapper.


def map_term(t: Term, env: dict) -> Term:
    """t with each variable x of env replaced: by the variable env[x] when
    that is a name, else by the term env[x], of t's logic, shifted by the
    offset of an SLN term."""
    if isinstance(t, SLNTerm):
        r = env.get(t.base)
        if r is None:
            return t
        if isinstance(r, str):
            return SLNTerm(r, t.offset)
        if not isinstance(r, SLNTerm):
            raise TypeError("cannot substitute a PA term into an SLN formula")
        return shift(r, t.offset)
    u, n = succ_run(t)
    if isinstance(u, Var):
        r = env.get(u.name, u)
        r = Var(r) if isinstance(r, str) else r
    elif isinstance(u, Zero):
        r = u
    elif isinstance(u, (Plus, Times)):
        return fold_term(t, lambda v: map_term(v, env), lambda u, l, r: type(u)(l, r), succs)
    else:
        raise TypeError(f"not a PA term: {t!r}")
    return t if r is u else succs(r, n)


def map_vars(a: Formula, env: dict, bind) -> Formula:
    """a with its atoms, bounds and definitions rewritten by map_term under
    env, within the scope of the binders above them.  bind(q, env) is the
    name that quantifier q binds in the result; it is asked in preorder,
    with env as it stands outside q.  Inside q, env maps q's variable to
    that name, or drops it when the name is q's own.  One rebuild, with
    env as its ctx."""

    def visit(b: Formula, env: dict):
        cls = type(b)
        if cls is Eq or cls is Leq:
            return None, cls(map_term(b.left, env), map_term(b.right, env))
        if cls is PointsTo:
            return None, PointsTo(map_term(b.addr, env), map_term(b.val, env))
        if cls not in QUANTIFIERS:
            return None
        x, y, t = b.var, bind(b, env), binder_term(b)
        if isinstance(t, Node):  # a bound or definition, outside the scope
            t = map_term(t, env)
        if y != x:
            inner = {**env, x: y}
        elif x in env:
            inner = {k: v for k, v in env.items() if k != x}
        else:
            inner = env
        return partial(quantifier, cls, y, t), [(b.body, inner)]

    return rebuild(a, visit, env)


def all_names(a: Formula) -> set[str]:
    """Every variable name in a, free or bound."""
    names: set[str] = set()
    for sub in subformulas(a):
        match sub:
            case Eq(l, r) | Leq(l, r) | PointsTo(l, r):
                names |= term_vars(l) | term_vars(r)
        if isinstance(sub, QUANTIFIERS):
            names.add(sub.var)
            names |= binder_vars(sub)
    return names


def alpha_eq(a: Formula, b: Formula) -> bool:
    """Structural equality up to renaming of bound variables: the binders
    of each side are renamed, in preorder, to the same canonical names,
    which neither side uses, and the results are compared."""
    used = all_names(a) | all_names(b)
    stem = "#"
    while any(n.startswith(stem) for n in used):
        stem += "#"

    def canonical(c: Formula) -> Formula:
        order = count()
        return map_vars(c, {}, lambda q, env: f"{stem}{next(order)}")

    return canonical(a) == canonical(b)
