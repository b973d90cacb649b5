"""Seeded random generators for formulas, heaps and structures.

Streams are deterministic under a fixed seed.  Bounded PA output is
bounded-class by construction; normal-form output is rejection-sampled
against a table-size cap so the verification harnesses stay at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm, Succ, Times,
    Var, and_all, or_all, pa_num, sln_num,
)
from .finite import FiniteStructure, LEq, LFormula, LPred, l_forall
from .heap import Heap
from .semantics import VarAssignment, max_bound
from .transform import is_normal


@dataclass(frozen=True)
class GenProfile:
    max_depth: int = 3
    max_numeral: int = 3
    var_pool: tuple[str, ...] = ("x", "y")
    max_guard: int = 3
    heap_cells: int = 6
    heap_max_addr: int = 12
    heap_max_val: int = 8
    universe_size: int = 4
    universe_max: int = 6
    normal_prefix: int = 3
    normal_def_numeral: int = 2
    table_cap: int | None = 4
    assign_max: int = 2


SMALL = GenProfile()


class Generators:
    """One rng, many sample kinds; every method advances the stream."""

    def __init__(self, seed: int, profile: GenProfile = SMALL) -> None:
        self.rng = random.Random(seed)
        self.profile = profile

    # -- terms

    def flat_term(self, scope: list[str], max_numeral: int | None = None) -> PATerm:
        p = self.profile
        cap = p.max_numeral if max_numeral is None else max_numeral
        kind = self.rng.random()
        if scope and kind < 0.5:
            base: PATerm = Var(self.rng.choice(scope))
            if self.rng.random() < 0.3:
                base = Succ(base)
            return base
        return pa_num(self.rng.randint(0, cap))

    def pa_term(self, scope: list[str], depth: int) -> PATerm:
        if depth <= 0 or self.rng.random() < 0.4:
            return self.flat_term(scope)
        l = self.pa_term(scope, depth - 1)
        r = self.pa_term(scope, depth - 1)
        return Plus(l, r) if self.rng.random() < 0.6 else Times(l, r)

    def sln_term(self, scope: list[str]) -> SLNTerm:
        p = self.profile
        offset = self.rng.randint(0, 2)
        if scope and self.rng.random() < 0.6:
            return SLNTerm(self.rng.choice(scope), offset)
        return sln_num(self.rng.randint(0, p.max_numeral) + offset)

    # -- PA formulas

    def pa_atom(self, scope: list[str], depth: int) -> Formula:
        l = self.pa_term(scope, depth)
        r = self.pa_term(scope, depth)
        return Leq(l, r) if self.rng.random() < 0.6 else Eq(l, r)

    def pa_bounded(self, depth: int | None = None, scope: list[str] | None = None) -> Formula:
        """Random bounded-class formula (every quantifier bounded)."""
        p = self.profile
        depth = p.max_depth if depth is None else depth
        scope = list(p.var_pool) if scope is None else scope
        if depth <= 0:
            return self.pa_atom(scope, 1)
        roll = self.rng.random()
        if roll < 0.25:
            return Not(self.pa_bounded(depth - 1, scope))
        if roll < 0.45:
            return And(self.pa_bounded(depth - 1, scope), self.pa_bounded(depth - 1, scope))
        if roll < 0.65:
            return Or(self.pa_bounded(depth - 1, scope), self.pa_bounded(depth - 1, scope))
        var = f"b{len(scope)}"
        bound = self.pa_term(scope, 1)
        body = self.pa_bounded(depth - 1, scope + [var])
        if roll < 0.82:
            return BForall(var, bound, body)
        return BExists(var, bound, body)

    def normal_matrix(self, scope: list[str]) -> Formula:
        cubes = []
        for _ in range(self.rng.randint(1, 2)):
            lits: list[Formula] = []
            for _ in range(self.rng.randint(1, 2)):
                l = self.flat_term(scope)
                r = self.flat_term(scope)
                roll = self.rng.random()
                if roll < 0.5:
                    lits.append(Leq(l, r))
                elif roll < 0.8:
                    lits.append(Eq(l, r))
                else:
                    lits.append(Not(Eq(l, r)))
            cubes.append(and_all(lits))
        return or_all(cubes)

    def pa_normal(self) -> Formula:
        """Random normal formula under the table-size cap."""
        p = self.profile
        cap_sigma = VarAssignment({v: p.assign_max for v in p.var_pool})
        for _ in range(200):
            scope = list(p.var_pool)
            binders = []
            for i in range(self.rng.randint(0, p.normal_prefix)):
                var = f"z{i}"
                roll = self.rng.random()
                if roll < 0.45:
                    l = self.flat_term(scope, p.normal_def_numeral)
                    r = self.flat_term(scope, p.normal_def_numeral)
                    defn = Plus(l, r) if self.rng.random() < 0.6 else Times(l, r)
                    binders.append(("eq", var, defn))
                else:
                    bound = self.flat_term(scope)
                    kind = "all" if self.rng.random() < 0.5 else "ex"
                    binders.append((kind, var, bound))
                scope.append(var)
            out = self.normal_matrix(scope)
            for kind, var, term in reversed(binders):
                if kind == "eq":
                    out = ExistsEq(var, term, out)
                elif kind == "all":
                    out = BForall(var, term, out)
                else:
                    out = BExists(var, term, out)
            assert is_normal(out)
            if p.table_cap is None or max_bound(cap_sigma, out) <= p.table_cap:
                return out
        raise RuntimeError("rejection sampling failed to meet the table cap")

    # -- SLN formulas

    def sln_formula(self, depth: int | None = None, scope: list[str] | None = None) -> Formula:
        p = self.profile
        depth = p.max_depth if depth is None else depth
        scope = list(p.var_pool) if scope is None else scope
        if depth <= 0:
            l, r = self.sln_term(scope), self.sln_term(scope)
            return PointsTo(l, r) if self.rng.random() < 0.5 else Eq(l, r)
        roll = self.rng.random()
        if roll < 0.2:
            return Not(self.sln_formula(depth - 1, scope))
        if roll < 0.4:
            return And(self.sln_formula(depth - 1, scope), self.sln_formula(depth - 1, scope))
        if roll < 0.6:
            return Or(self.sln_formula(depth - 1, scope), self.sln_formula(depth - 1, scope))
        var = f"q{len(scope)}"
        body = self.sln_formula(depth - 1, scope + [var])
        roll = self.rng.random()
        if roll < 0.35:
            return Exists(var, body)
        if roll < 0.7:
            return Forall(var, body)
        guard = self.rng.randint(0, p.max_guard)
        return GExists(var, guard, body) if roll < 0.85 else GForall(var, guard, body)

    def succ_sentence(self, depth: int | None = None) -> Formula:
        """Closed successor-arithmetic formula: equalities only."""
        p = self.profile
        depth = p.max_depth if depth is None else depth

        def go(depth: int, scope: list[str]) -> Formula:
            if depth <= 0:
                def term() -> SLNTerm:
                    off = self.rng.randint(0, p.max_numeral)
                    if scope and self.rng.random() < 0.7:
                        return SLNTerm(self.rng.choice(scope), off)
                    return sln_num(self.rng.randint(0, p.max_numeral) + off)
                atom: Formula = Eq(term(), term())
                return atom if self.rng.random() < 0.7 else Not(atom)
            roll = self.rng.random()
            quant_bias = 0.55 if not scope else 0.3
            if roll < quant_bias:
                var = f"v{len(scope)}"
                body = go(depth - 1, scope + [var])
                kind = self.rng.random()
                if kind < 0.3:
                    return Exists(var, body)
                if kind < 0.6:
                    return Forall(var, body)
                guard = self.rng.randint(1, p.max_guard)
                return GExists(var, guard, body) if kind < 0.8 else GForall(var, guard, body)
            if roll < quant_bias + 0.15:
                return Not(go(depth - 1, scope))
            if roll < quant_bias + 0.3:
                return And(go(depth - 1, scope), go(depth - 1, scope))
            return Or(go(depth - 1, scope), go(depth - 1, scope))

        # atoms only draw variables from the enclosing binders, so the
        # result is closed by construction
        return go(depth, [])

    # -- heaps

    def sparse_heap(self) -> Heap:
        p = self.profile
        cells = {}
        for _ in range(self.rng.randint(0, p.heap_cells)):
            cells[self.rng.randint(0, p.heap_max_addr)] = self.rng.randint(0, p.heap_max_val)
        return Heap(cells)

    def heap_sample(self, tables: list[Heap] | None = None) -> Heap:
        """Mix of sparse heaps, single-cell corruptions of the given tables,
        and their prefixes."""
        tables = tables or []
        if not tables:
            return self.sparse_heap()
        roll = self.rng.random()
        if roll < 0.4:
            return self.sparse_heap()
        table = self.rng.choice(tables)
        if len(table) == 0:
            return self.sparse_heap()
        if roll < 0.75:
            addr = self.rng.choice(sorted(table.cells))
            return table.mutated(addr, self.rng.randint(0, table.max_val + 2))
        return table.restricted(self.rng.randint(0, table.max_addr + 1))

    def assignment(self, names, max_val: int | None = None) -> VarAssignment:
        cap = self.profile.assign_max if max_val is None else max_val
        return VarAssignment({n: self.rng.randint(0, cap) for n in names})

    # -- finite structures and L formulas

    def finite_structure(self) -> FiniteStructure:
        p = self.profile
        size = self.rng.randint(1, p.universe_size)
        universe = frozenset(self.rng.sample(range(p.universe_max + 1), size))
        pairs = [(n, m) for n in universe for m in universe]
        relation = frozenset(pr for pr in pairs if self.rng.random() < 0.35)
        return FiniteStructure(universe, relation)

    def l_formula(self, depth: int = 2, scope: list[str] | None = None) -> LFormula:
        scope = ["x", "y"] if scope is None else scope
        if depth <= 0:
            l = self.rng.choice(scope)
            r = self.rng.choice(scope)
            return LPred(l, r) if self.rng.random() < 0.6 else LEq(l, r)
        roll = self.rng.random()
        if roll < 0.25:
            return Not(self.l_formula(depth - 1, scope))
        if roll < 0.5:
            return And(self.l_formula(depth - 1, scope), self.l_formula(depth - 1, scope))
        var = f"u{len(scope)}"
        body = self.l_formula(depth - 1, scope + [var])
        return Exists(var, body) if roll < 0.8 else l_forall(var, body)
