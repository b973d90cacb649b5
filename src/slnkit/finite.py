"""Finite structures for the one-binary-predicate language, their heap
encodings, and the translation of that language into SLN.

A structure is a pair (U, R) with U a finite set of naturals.  Its heap
image stores one two-cell row (0, p+2) per universe element and one
three-cell row (1, n+2, m+2) per relation pair, elements offset by 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import or_
from typing import Union

from .ast import (
    And, Eq, Exists, Formula, Node, Not, and_all, imp, rebuild, shift, sln_num,
    svar,
)
from .heap import Heap
from .parser import _Parser
from .semantics import VarAssignment
from .translate import row


# ---------------------------------------------------------------------------
# Language L: one binary predicate, variables as the only terms.


class LEq(Node):
    left: str
    right: str


class LPred(Node):
    left: str
    right: str


LFormula = Union[LEq, LPred, Not, And, Exists]


def l_forall(var: str, body: LFormula) -> LFormula:
    return Not(Exists(var, Not(body)))


def l_or(a: LFormula, b: LFormula) -> LFormula:
    return Not(And(Not(a), Not(b)))


def l_imp(a: LFormula, b: LFormula) -> LFormula:
    return Not(And(a, Not(b)))


def l_free_vars(a: LFormula) -> frozenset[str]:
    def visit(b: LFormula, _):
        while type(b) is Not:
            b = b.body
        match b:
            case LEq(l, r) | LPred(l, r):
                return None, frozenset((l, r))
            case And(l, r):
                return or_, [(l, None), (r, None)]
            case Exists(x, body):
                return (lambda free: free - {x}), [(body, None)]
        raise TypeError(f"not an L formula: {b!r}")

    return rebuild(a, visit)


# ---------------------------------------------------------------------------
# Finite structures


@dataclass(frozen=True)
class FiniteStructure:
    universe: frozenset[int]
    relation: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.universe):
            raise ValueError("universe elements are naturals")
        if any(n < 0 or m < 0 for n, m in self.relation):
            raise ValueError("relation elements are naturals")

    @property
    def well_formed(self) -> bool:
        """Relation contained in universe^2 (decoded heaps may break this;
        the translation re-checks membership at every predicate atom)."""
        return all(n in self.universe and m in self.universe
                   for n, m in self.relation)


def structure(universe, relation) -> FiniteStructure:
    return FiniteStructure(frozenset(universe),
                           frozenset((n, m) for n, m in relation))


def eval_fol(m: FiniteStructure, sigma: VarAssignment, a: LFormula) -> bool:
    """Satisfaction in a finite structure; quantifiers range over the
    universe, and sigma must send the free variables into it."""
    for v in sorted(l_free_vars(a)):
        if sigma(v) not in m.universe:
            raise ValueError(f"assignment sends {v} to {sigma(v)}, "
                             f"outside the universe")

    def go(sigma: VarAssignment, a: LFormula) -> bool:
        """Truth of a under sigma.  One loop strips each run of ! and
        follows the right operand of each conjunction, so a run of ! or a
        chain of /\\, \\/ or => costs no frame; a quantifier does."""
        positive = True  # an even number of ! above a
        while True:
            match a:
                case Not(b):
                    a, positive = b, not positive
                case And(l, r):
                    if not go(sigma, l):
                        return not positive
                    a = r
                case LEq(l, r):
                    return (sigma(l) == sigma(r)) == positive
                case LPred(l, r):
                    return ((sigma(l), sigma(r)) in m.relation) == positive
                case Exists(x, b):
                    # a run of exists is one loop over tuples of the universe;
                    # a name bound again is shadowed, so it is bound once
                    names = [x]
                    while type(b) is Exists:
                        names.append(b.var)
                        b = b.body
                    names, support = list(dict.fromkeys(names)), sigma.support
                    return any(go(VarAssignment({**support, **dict(zip(names, values))}), b)
                               for values in product(m.universe, repeat=len(names))) == positive
                case _:
                    raise TypeError(f"not an L formula: {a!r}")

    return go(sigma, a)


# ---------------------------------------------------------------------------
# Heap encoding and decoding


def encode_structure(m: FiniteStructure) -> Heap:
    """Universe rows at stride 2 then relation rows at stride 3, elements
    in ascending order for determinism."""
    cells: dict[int, int] = {}
    elems = sorted(m.universe)
    pairs = sorted(m.relation)
    k = len(elems)
    for i, p in enumerate(elems):
        cells[2 * i] = 0
        cells[2 * i + 1] = p + 2
    for i, (n, mm) in enumerate(pairs):
        cells[2 * k + 3 * i] = 1
        cells[2 * k + 3 * i + 1] = n + 2
        cells[2 * k + 3 * i + 2] = mm + 2
    return Heap(cells)


def decode_heap(h: Heap) -> FiniteStructure:
    """Structure represented by a heap: tag-0 rows list the universe,
    tag-1 rows the relation.  Requires at least one universe row."""
    universe = set()
    relation = set()
    for a, v in h.cells.items():
        if v == 0:
            nxt = h.get(a + 1)
            if nxt is not None and nxt >= 2:
                universe.add(nxt - 2)
        elif v == 1:
            n, m = h.get(a + 1), h.get(a + 2)
            if n is not None and m is not None and n >= 2 and m >= 2:
                relation.add((n - 2, m - 2))
    if not universe:
        raise ValueError("heap encodes no universe row")
    return FiniteStructure(frozenset(universe), frozenset(relation))


# ---------------------------------------------------------------------------
# Translation into SLN


# Membership and relation formulas are built once and shared, as translate's
# lookups are, so the checker compiles a recurring one once.  A small bound
# keeps the reuse within a formula and the ones translated next to it.
_ROWS = 32


@lru_cache(maxsize=_ROWS)
def _member(x: str, helper: str) -> Formula:
    return Exists(helper, row(svar(helper), [sln_num(0), shift(svar(x), 2)]))


@lru_cache(maxsize=_ROWS)
def _related(l: str, r: str, helper: str) -> Formula:
    return Exists(helper, row(svar(helper), [sln_num(1), shift(svar(l), 2), shift(svar(r), 2)]))


def triangle_translate(a: LFormula) -> Formula:
    """The five-clause translation; equality and predicate atoms carry
    universe-membership witnesses, existentials are relativized."""

    def visit(b: LFormula, _):
        match b:
            case LEq(l, r):
                return None, And(Eq(svar(l), svar(r)), _member(l, _fresh_helper((l, r))))
            case LPred(l, r):
                return None, and_all([_related(l, r, _fresh_helper((l, r))),
                                      _member(l, _fresh_helper((l, r), 1)),
                                      _member(r, _fresh_helper((l, r), 2))])
            case Exists(x, body):
                member = _member(x, _fresh_helper((x,)))
                return (lambda c: Exists(x, And(member, c))), [(body, None)]
            case Not() | And():
                return None  # rebuilt from the translated operands
        raise TypeError(f"not an L formula: {b!r}")

    return rebuild(a, visit)


def _fresh_helper(taken: tuple[str, ...], index: int = 0) -> str:
    stems = ("$a", "$b", "$c")
    name = stems[index % 3] if index < 3 else f"$a{index}"
    while name in taken:
        name = "$" + name
    return name


def finite_validity_premise(a: LFormula) -> Formula:
    """The exact implication whose SLN validity matches truth of `a` in all
    finite structures: a nonempty-universe guard, then membership of every
    free variable, then the translation."""
    guard = Exists("$a", Exists("$x", row(svar("$a"), [sln_num(0), shift(svar("$x"), 2)])))
    body: Formula = triangle_translate(a)
    names = sorted(l_free_vars(a))
    if names:
        members = and_all([_member(x, _fresh_helper((x,))) for x in names])
        body = imp(members, body)
    return imp(guard, body)


# ---------------------------------------------------------------------------
# Text formats


def parse_structure(text: str) -> FiniteStructure:
    """Lines "U: n1 n2 ..." and "R: a b"; '#' comments allowed."""
    universe: set[int] = set()
    relation: set[tuple[int, int]] = set()
    saw_u = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("U:"):
            saw_u = True
            for tok in line[2:].split():
                if not tok.isdecimal():
                    raise ValueError(f"line {lineno}: bad universe element {tok!r}")
                universe.add(int(tok))
        elif line.startswith("R:"):
            parts = line[2:].split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"line {lineno}: relation line needs two naturals")
            relation.add((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"line {lineno}: expected 'U:' or 'R:' line")
    if not saw_u:
        raise ValueError("structure text needs a 'U:' line")
    return FiniteStructure(frozenset(universe), frozenset(relation))


def render_structure(m: FiniteStructure) -> str:
    lines = ["U: " + " ".join(str(p) for p in sorted(m.universe))]
    lines.extend(f"R: {n} {mm}" for n, mm in sorted(m.relation))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# L formulas (CLI input): the connective grammar of the PA and SLN parsers
# over L atoms


class _LParser(_Parser):
    FORALL = staticmethod(l_forall)
    JOINS = {"=>": l_imp, "\\/": l_or, "/\\": And}
    RESERVED = ()  # s and P are variables too

    def _atom(self) -> LFormula:
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "ident":
            raise self.fail(f"expected a formula, found {word or 'end of input'!r}")
        self.pos += 1
        if word == "P":
            self.expect("(")
            left = self._ident()
            self.expect(",")
            right = self._ident()
            self.expect(")")
            return LPred(left, right)
        self.expect("=")
        return LEq(word, self._ident())


def parse_l(text: str) -> LFormula:
    """Parse an L formula: P(x,y), x = y, !, /\\, \\/, =>, exists/forall."""
    return _LParser(text, "l").parse()
