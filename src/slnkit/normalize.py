"""Constructive normalization of bounded PA formulas.

The procedure: prenex the input, rewrite negated inequalities away and put
the matrix in DNF, then repeatedly pull the leftmost innermost + or *
occurrence out into a defining existential, inserted after the longest
prefix whose binder terms do not mention the fresh variable.
"""

from __future__ import annotations

from .ast import (
    And, BExists, BForall, Eq, ExistsEq, Forall, Formula, Leq, Not, Or,
    PATerm, Plus, Succ, Times, Var, has_arith,
)
from .transform import (
    Binder, FreshNames, is_bounded, is_normal, is_pi01, prenex_parts,
    to_dnf, wrap_prefix,
)


def _arith_nodes(t: PATerm) -> int:
    match t:
        case Plus(l, r) | Times(l, r):
            return 1 + _arith_nodes(l) + _arith_nodes(r)
        case Succ(arg):
            return _arith_nodes(arg)
        case _:
            return 0


def _innermost(t: PATerm) -> PATerm | None:
    """Leftmost occurrence of u+v or u*v with +,*-free sides, in textual
    order, or None."""
    match t:
        case Plus(l, r) | Times(l, r):
            if has_arith(l):
                return _innermost(l)
            if has_arith(r):
                return _innermost(r)
            return t
        case Succ(arg):
            return _innermost(arg)
        case _:
            return None


def _replace_once(t: PATerm, occ: PATerm, z: str) -> tuple[PATerm, bool]:
    """Replace the leftmost-innermost occurrence (which equals occ) by z."""
    match t:
        case Plus(l, r) | Times(l, r):
            if has_arith(l):
                l2, done = _replace_once(l, occ, z)
                rebuilt = Plus(l2, r) if isinstance(t, Plus) else Times(l2, r)
                return rebuilt, done
            if has_arith(r):
                r2, done = _replace_once(r, occ, z)
                rebuilt = Plus(l, r2) if isinstance(t, Plus) else Times(l, r2)
                return rebuilt, done
            if t == occ:
                return Var(z), True
            return t, False
        case Succ(arg):
            a2, done = _replace_once(arg, occ, z)
            return Succ(a2), done
        case _:
            return t, False


def _matrix_terms(m: Formula):
    """Atom terms of a quantifier-free matrix, in textual order."""
    match m:
        case And(l, r) | Or(l, r):
            yield from _matrix_terms(l)
            yield from _matrix_terms(r)
        case Not(b):
            yield from _matrix_terms(b)
        case Eq(l, r) | Leq(l, r):
            yield l
            yield r
        case _:
            return


def _rewrite_matrix_term(m: Formula, occ: PATerm, z: str) -> tuple[Formula, bool]:
    match m:
        case And(l, r):
            l2, done = _rewrite_matrix_term(l, occ, z)
            if done:
                return And(l2, r), True
            r2, done = _rewrite_matrix_term(r, occ, z)
            return And(l, r2), done
        case Or(l, r):
            l2, done = _rewrite_matrix_term(l, occ, z)
            if done:
                return Or(l2, r), True
            r2, done = _rewrite_matrix_term(r, occ, z)
            return Or(l, r2), done
        case Not(b):
            b2, done = _rewrite_matrix_term(b, occ, z)
            return Not(b2), done
        case Eq(l, r):
            if has_arith(l):
                l2, done = _replace_once(l, occ, z)
                return Eq(l2, r), done
            if has_arith(r):
                r2, done = _replace_once(r, occ, z)
                return Eq(l, r2), done
            return m, False
        case Leq(l, r):
            if has_arith(l):
                l2, done = _replace_once(l, occ, z)
                return Leq(l2, r), done
            if has_arith(r):
                r2, done = _replace_once(r, occ, z)
                return Leq(l, r2), done
            return m, False
        case _:
            return m, False


def normalize_bounded(a: Formula) -> Formula:
    """Equivalent normal formula for a bounded PA formula."""
    if not is_bounded(a):
        raise ValueError("normalize_bounded expects a bounded formula "
                         "(bounded quantifiers only)")
    fresh = FreshNames()
    prefix, matrix = prenex_parts(a, fresh)
    matrix = to_dnf(matrix)

    def measure() -> int:
        total = sum(_arith_nodes(t) for t in _matrix_terms(matrix))
        for b in prefix:
            if b.quant in (BForall, BExists):
                assert b.term is not None
                total += _arith_nodes(b.term)
        return total

    while True:
        before = measure()
        occ: PATerm | None = None
        where = -1  # binder index, or len(prefix) for the matrix
        for i, b in enumerate(prefix):
            if b.quant in (BForall, BExists):
                assert b.term is not None
                occ = _innermost(b.term)
                if occ is not None:
                    where = i
                    break
        if occ is None:
            for t in _matrix_terms(matrix):
                occ = _innermost(t)
                if occ is not None:
                    where = len(prefix)
                    break
        if occ is None:
            break

        z = fresh.fresh("x")
        if where < len(prefix):
            b = prefix[where]
            assert b.term is not None
            new_term, done = _replace_once(b.term, occ, z)
            assert done
            prefix[where] = Binder(b.quant, b.var, new_term)
        else:
            matrix, done = _rewrite_matrix_term(matrix, occ, z)
            assert done
        prefix.insert(where, Binder(ExistsEq, z, occ))
        if measure() >= before:
            raise AssertionError("extraction step failed to decrease the "
                                 "arithmetic-node measure")

    out = wrap_prefix(prefix, matrix)
    if not is_normal(out):
        raise AssertionError("normalization produced a non-normal result")
    return out


def box_translate(a: Formula) -> Formula:
    """Translation of a closed-prefix universal formula: normalize the body
    and keep the outer universal quantifier unbounded."""
    if not is_pi01(a):
        raise ValueError("box translation expects forall x B with B bounded")
    assert isinstance(a, Forall)
    return Forall(a.var, normalize_bounded(a.body))
