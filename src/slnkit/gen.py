"""Seeded random generators for formulas, heaps and structures.

Every generator draws at one fixed desk scale, the constants below, and its
stream is deterministic under a fixed seed.  Bounded PA output is
bounded-class by construction; normal-form output is rejection-sampled
against a table-size cap so the verification harnesses stay at desk scale.
"""

from __future__ import annotations

import random

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm, Succ, Times,
    Var, and_all, or_all, pa_num, sln_num,
)
from .finite import FiniteStructure, LEq, LFormula, LPred, l_forall
from .heap import Heap
from .semantics import VarAssignment, max_bound
from .transform import is_normal, wrap_prefix

VAR_POOL = ("x", "y")
MAX_NUMERAL = 3          # numerals of PA terms and SLN terms
SUCC_NUMERAL = 5         # numerals and offsets of succ_sentence atoms
MAX_GUARD = 3
HEAP_CELLS, HEAP_MAX_ADDR, HEAP_MAX_VAL = 6, 12, 8
UNIVERSE_SIZE, UNIVERSE_MAX = 4, 6
NORMAL_PREFIX = 3
NORMAL_DEF_NUMERAL = 2   # numerals of a defining existential's operands
TABLE_CAP = 4            # max_bound of a pa_normal formula at ASSIGN_MAX
ASSIGN_MAX = 2
_CAP_SIGMA = VarAssignment({v: ASSIGN_MAX for v in VAR_POOL})


class Generators:
    """One rng, many sample kinds; every method advances the stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    # -- terms

    def flat_term(self, scope: list[str], max_numeral: int = MAX_NUMERAL) -> PATerm:
        kind = self.rng.random()
        if scope and kind < 0.5:
            base: PATerm = Var(self.rng.choice(scope))
            if self.rng.random() < 0.3:
                base = Succ(base)
            return base
        return pa_num(self.rng.randint(0, max_numeral))

    def pa_term(self, scope: list[str], depth: int) -> PATerm:
        if depth <= 0 or self.rng.random() < 0.4:
            return self.flat_term(scope)
        l = self.pa_term(scope, depth - 1)
        r = self.pa_term(scope, depth - 1)
        return Plus(l, r) if self.rng.random() < 0.6 else Times(l, r)

    def sln_term(self, scope: list[str]) -> SLNTerm:
        offset = self.rng.randint(0, 2)
        if scope and self.rng.random() < 0.6:
            return SLNTerm(self.rng.choice(scope), offset)
        return sln_num(self.rng.randint(0, MAX_NUMERAL) + offset)

    # -- PA formulas

    def pa_atom(self, scope: list[str], depth: int) -> Formula:
        l = self.pa_term(scope, depth)
        r = self.pa_term(scope, depth)
        return Leq(l, r) if self.rng.random() < 0.6 else Eq(l, r)

    def pa_bounded(self, depth: int = 3, scope: list[str] | None = None) -> Formula:
        """Random bounded-class formula (every quantifier bounded)."""
        scope = list(VAR_POOL) if scope is None else scope
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
        for _ in range(200):
            scope = list(VAR_POOL)
            prefix = []
            for i in range(self.rng.randint(0, NORMAL_PREFIX)):
                var = f"z{i}"
                if self.rng.random() < 0.45:
                    l = self.flat_term(scope, NORMAL_DEF_NUMERAL)
                    r = self.flat_term(scope, NORMAL_DEF_NUMERAL)
                    defn = Plus(l, r) if self.rng.random() < 0.6 else Times(l, r)
                    prefix.append((ExistsEq, var, defn))
                else:
                    bound = self.flat_term(scope)
                    prefix.append((BForall if self.rng.random() < 0.5 else BExists, var, bound))
                scope.append(var)
            out = wrap_prefix(prefix, self.normal_matrix(scope))
            assert is_normal(out)
            if max_bound(_CAP_SIGMA, out) <= TABLE_CAP:
                return out
        raise RuntimeError("rejection sampling failed to meet the table cap")

    # -- SLN formulas

    def sln_formula(self, depth: int = 3, scope: list[str] | None = None) -> Formula:
        scope = list(VAR_POOL) if scope is None else scope
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
        guard = self.rng.randint(0, MAX_GUARD)
        return GExists(var, guard, body) if roll < 0.85 else GForall(var, guard, body)

    def succ_sentence(self, depth: int = 3) -> Formula:
        """Closed successor-arithmetic formula: equalities only."""
        def go(depth: int, scope: list[str]) -> Formula:
            if depth <= 0:
                def term() -> SLNTerm:
                    off = self.rng.randint(0, SUCC_NUMERAL)
                    if scope and self.rng.random() < 0.7:
                        return SLNTerm(self.rng.choice(scope), off)
                    return sln_num(self.rng.randint(0, SUCC_NUMERAL) + off)
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
                guard = self.rng.randint(1, MAX_GUARD)
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
        cells = {}
        for _ in range(self.rng.randint(0, HEAP_CELLS)):
            cells[self.rng.randint(0, HEAP_MAX_ADDR)] = self.rng.randint(0, HEAP_MAX_VAL)
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

    def assignment(self, names, max_val: int = ASSIGN_MAX) -> VarAssignment:
        return VarAssignment({n: self.rng.randint(0, max_val) for n in names})

    # -- finite structures and L formulas

    def finite_structure(self) -> FiniteStructure:
        size = self.rng.randint(1, UNIVERSE_SIZE)
        universe = frozenset(self.rng.sample(range(UNIVERSE_MAX + 1), size))
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
