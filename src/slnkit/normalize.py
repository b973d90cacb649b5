"""Constructive normalization of bounded PA formulas.

The procedure: prenex the input, rewrite negated inequalities away and put
the matrix in DNF, then flatten every term in one post-order pass.  Each
u+v or u*v, once its operands are flat, becomes a fresh variable z bound
by a defining existential `exists (z = u + v)`.  The bound of a prefix
binder is flattened first, and its definitions are placed just before that
binder.  The matrix atoms come last, and their definitions are placed at
the end of the prefix.  Equal subterms each get their own variable.
"""

from __future__ import annotations

from .ast import (
    Eq, ExistsEq, Forall, Formula, Leq, PATerm, Plus, Times, Var, rebuild,
    succ_run, succs,
)
from .transform import (
    FreshNames, is_bounded, is_normal, is_pi01, prenex_parts, to_dnf,
    wrap_prefix,
)


def normalize_bounded(a: Formula) -> Formula:
    """Equivalent normal formula for a bounded PA formula."""
    if not is_bounded(a):
        raise ValueError("normalize_bounded expects a bounded formula "
                         "(bounded quantifiers only)")
    fresh = FreshNames()
    prefix, matrix = prenex_parts(a, fresh)
    out: list[tuple] = []

    def flat(t: PATerm) -> PATerm:
        u, n = succ_run(t)
        if isinstance(u, (Plus, Times)):
            occ = type(u)(flat(u.left), flat(u.right))
            z = fresh.fresh("x")
            out.append((ExistsEq, z, occ))
            return succs(Var(z), n)
        return t

    def flat_atom(m: Formula, _):
        if isinstance(m, (Eq, Leq)):
            return None, type(m)(flat(m.left), flat(m.right))
        return None

    for cls, x, t in prefix:
        out.append((cls, x, flat(t)))
    matrix = rebuild(to_dnf(matrix), flat_atom)

    result = wrap_prefix(out, matrix)
    if not is_normal(result):
        raise AssertionError("normalization produced a non-normal result")
    return result


def box_translate(a: Formula) -> Formula:
    """Translation of a closed-prefix universal formula: normalize the body
    and keep the outer universal quantifier unbounded."""
    if not is_pi01(a):
        raise ValueError("box translation expects forall x B with B bounded")
    assert isinstance(a, Forall)
    return Forall(a.var, normalize_bounded(a.body))
