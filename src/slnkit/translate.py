"""Construction of the table-heap condition, the table-lookup reference
formulas, and the translation of normal PA formulas into SLN.

Heap rows carry a tag cell (0 addition, 1 multiplication, 2 inequality)
followed by operand and result cells stored with offset 3; [t] abbreviates
the three-fold successor of t.  Quantified helper variables live in a
reserved "$" namespace so user variables never collide.  The lookup
formulas are shared: equal lookups, within one translation or across
recent ones, are one object.
"""

from __future__ import annotations

import functools
import itertools

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, Leq, Not,
    Or, PATerm, Plus, PointsTo, SLNTerm, Times, Var, Zero, and_all,
    imp, rebuild, shift, sln_num, succ_run, svar, term_vars,
)
from .transform import is_normal


def bracket(t: SLNTerm) -> SLNTerm:
    """[t], the operand/result encoding s^3(t)."""
    return shift(t, 3)


def row(addr: SLNTerm, values: list[SLNTerm]) -> Formula:
    """(t |-> v1, ..., vn): consecutive cells starting at addr."""
    return and_all([PointsTo(shift(addr, i), v) for i, v in enumerate(values)])


def pa_term_to_sln(t: PATerm) -> SLNTerm:
    """Embed a +,*-free PA term."""
    u, n = succ_run(t)
    match u:
        case Var(name):
            return SLNTerm(name, n)
        case Zero():
            return sln_num(n)
    raise ValueError(f"term contains + or *: {t!r}")


def _helper(taken: frozenset[str]) -> str:
    """The first of $a, $b, $c, $a1, $b1, ... that is not taken."""
    names = (f"{stem}{i or ''}" for i in itertools.count() for stem in ("$a", "$b", "$c"))
    return next(name for name in names if name not in taken)


# Lookups are built once and shared, so the checker compiles and memoizes
# a recurring lookup as one node.  A lookup recurs mostly within a formula
# and the ones translated next to it, so a small bound keeps most of the
# reuse, while each entry holds its formula and compiled nodes alive: an
# unbounded cache would grow with every lookup a long-lived process builds.
_LOOKUPS = 32


@functools.lru_cache(maxsize=_LOOKUPS)
def _lookup(tag: int, x: SLNTerm, y: SLNTerm, z: SLNTerm) -> Formula:
    """Every row tagged `tag` for (x, y) must carry result z.  Vacuously
    true when the table has no such row."""
    a = svar(_helper(term_vars(x) | term_vars(y) | term_vars(z)))
    return Forall(a.base, imp(row(a, [sln_num(tag), bracket(x), bracket(y)]),
                              PointsTo(shift(a, 3), bracket(z))))


def add_formula(x: SLNTerm, y: SLNTerm, z: SLNTerm) -> Formula:
    """Table lookup for x + y = z."""
    return _lookup(0, x, y, z)


def mult_formula(x: SLNTerm, y: SLNTerm, z: SLNTerm) -> Formula:
    """Table lookup for x * y = z."""
    return _lookup(1, x, y, z)


@functools.lru_cache(maxsize=_LOOKUPS)
def ineq_formula(x: SLNTerm, y: SLNTerm) -> Formula:
    """Table lookup for x <= y: some inequality row carries (x, y)."""
    a = svar(_helper(term_vars(x) | term_vars(y)))
    return Exists(a.base, row(a, [sln_num(2), bracket(x), bracket(y)]))


@functools.cache
def table_heap_condition() -> Formula:
    """The formula forcing a heap to carry only arithmetically correct
    operation rows.  Built once; callers share the instance."""
    a, b, c = svar("$a"), svar("$b"), svar("$c")
    x, y, z, w = svar("$x"), svar("$y"), svar("$z"), svar("$w")
    zero, one, two = sln_num(0), sln_num(1), sln_num(2)

    add1 = Forall("$a", Forall("$y", imp(
        row(a, [zero, bracket(zero), bracket(y)]),
        PointsTo(shift(a, 3), bracket(y)))))
    add2 = Forall("$a", Forall("$x", Forall("$y", imp(
        row(a, [zero, bracket(shift(x, 1)), bracket(y)]),
        Exists("$b", Exists("$z", And(
            row(b, [zero, bracket(x), bracket(y), bracket(z)]),
            PointsTo(shift(a, 3), bracket(shift(z, 1))))))))))
    mult1 = Forall("$a", Forall("$y", imp(
        row(a, [one, bracket(zero), bracket(y)]),
        PointsTo(shift(a, 3), bracket(zero)))))
    mult2 = Forall("$a", Forall("$x", Forall("$y", imp(
        row(a, [one, bracket(shift(x, 1)), bracket(y)]),
        Exists("$b", Exists("$z", And(
            row(b, [one, bracket(x), bracket(y), bracket(z)]),
            Exists("$c", Exists("$w", And(
                row(c, [zero, bracket(z), bracket(y), bracket(w)]),
                PointsTo(shift(a, 3), bracket(w))))))))))))
    ineq1 = Forall("$a", Forall("$x", Forall("$y", imp(
        row(a, [two, bracket(shift(x, 1)), bracket(y)]),
        Exists("$z", Exists("$b", And(
            Eq(y, shift(z, 1)),
            row(b, [two, bracket(x), bracket(z)]))))))))
    ineq2 = Forall("$a", Forall("$x", Forall("$y", imp(
        row(a, [two, bracket(shift(x, 1)), bracket(y)]),
        Exists("$b", row(b, [two, bracket(x), bracket(y)]))))))

    return and_all([add1, add2, mult1, mult2, ineq1, ineq2])


def circle_translate(a: Formula) -> Formula:
    """Translate forall x1 ... xk B, with B normal, into SLN.

    Each bounded quantifier, defining existential and inequality atom turns
    into a table lookup guarded by the table-heap condition; outer plain
    universals are kept as universals.
    """
    outer = []
    while isinstance(a, Forall):
        outer.append(a.var)
        a = a.body
    if not is_normal(a):
        raise ValueError("circle translation expects a normal formula "
                         "(optionally under outer universals)")
    h = table_heap_condition()

    def visit(b: Formula, _):
        match b:
            case BExists(x, t, body):
                ts = pa_term_to_sln(t)
                empty, within = Not(ineq_formula(ts, ts)), ineq_formula(svar(x), ts)
                return (lambda c: imp(h, Or(empty, Exists(x, And(within, c))))), [(body, None)]
            case BForall(x, t, body):
                outside = Not(ineq_formula(svar(x), pa_term_to_sln(t)))
                return (lambda c: imp(h, Forall(x, Or(outside, c)))), [(body, None)]
            case ExistsEq(x, Plus(l, r) | Times(l, r) as defn, body):
                table = add_formula if isinstance(defn, Plus) else mult_formula
                lookup = table(pa_term_to_sln(l), pa_term_to_sln(r), svar(x))
                return (lambda c: imp(h, Exists(x, And(lookup, c)))), [(body, None)]
            case Eq(l, r):
                return None, Eq(pa_term_to_sln(l), pa_term_to_sln(r))
            case Leq(l, r):
                t, u = pa_term_to_sln(l), pa_term_to_sln(r)
                return None, imp(h, Or(Not(ineq_formula(u, t)), Eq(t, u)))
        return None  # the connectives of the matrix

    out = rebuild(a, visit)
    for x in reversed(outer):
        out = Forall(x, out)
    return out
