"""Terminating decision procedure for truth of an SLN formula under a given
assignment and heap.

The method bounds the search space of each quantified variable: values used
as an address beyond the largest heap address, or as a stored value beyond
the largest heap value, satisfy no points-to atom, so the quantifier splits
into an enumerated block plus a guarded tail whose offending atoms are
replaced by false.  What remains mentions quantified variables only in
equalities and is handed to the successor-arithmetic decider.  The
syntactic single-step rewrites are exposed as address_free_rewrite and
value_free_rewrite; the checker evaluates the same splits without building
them.

Environment evaluation.  A formula is compiled once into nodes, a chain of
one connective, nested either way, into one junction node read in loops,
and decided under an environment that maps variables to values; enumerating
a quantifier rebinds its variable and never builds a substituted formula.
One method, _Quant.ev, splits every quantifier: the body at a pin, else at
each anchored or joined candidate, else, once the body with the variable
unbound is not constant, at each value of the block, up to the first value
that gives the quantifier's verdict; after a block, the tail, split the
same way by its own node (see Anchored enumeration).  A variable in no
points-to atom has no block: its quantifier is a residual whole.  A closed
quantifier, one whose free variables the environment binds, is decided on a
boolean path, and only such a residual, or one left by its tail, goes to
the decider.  An open one is folded to the body with the variable unbound,
or, for res, split into one right-nested chain of the bodies left undecided
and any tail.

Structural memo.  Nodes are interned, so structurally equal subformulas,
within one formula or across formulas, are one node, kept for the whole
process up to a bound, so a recurring shape is analyzed once.  A formula
keeps its compiled node, outside its fields, so a subformula shared by many
formulas, such as H inside every translation, compiles once.  Each
enumerated quantifier's verdict is memoized on its heap, keyed on the node
and the values of its free variables; a lookup hashes no tree.  A pinned
closed quantifier is not memoized: it costs one heap read and one
evaluation of its core, about what a memo entry would save.

Pins.  When the body of an exists needs a conjunct t |-> x+i or x+i = t,
with t bound outside, or the body of a forall holds unless that conjunct
does, the conjunct is false at every value of x but one, k: the value
stored at t less i, or t less i.  So every other value, in the block and
in the tail alike, leaves the body false (exists) or true (forall), and
the quantifier is its body at k, or its neutral verdict when k is below
the guard.  The body's atoms read the heap directly, so a k past the block
is evaluated exactly: a pinned quantifier, closed or open, takes one heap
read and one evaluation of its body (of its core, when closed: see Known
atoms), with no block, tail or decider.

Anchored enumeration.  When the body of an exists needs a conjunct
x+i |-> t, with t bound outside, or the body of a forall holds unless that
conjunct does, only the values of x at which the conjunct holds can change
the verdict: the addresses that store t (from the heap's value index),
shifted by i.  Every other value, in the block and in the tail alike,
falsifies the conjunct, and so leaves the body false (exists) or true
(forall).  This is the paper's argument for the tail, applied to one atom.
The heap answers the known anchors at once, by its two-anchor lookup: the
values k with h(k+j) = t' for every known anchor x+j |-> t'.  The checker
reads a heap only through its public members (heap.py's docstring lists
them).  Pins and anchors are searched through nested quantifiers that do
not bind t.  Without a bound pin or anchor, x is joined through a
quantifier q on y that the body needs and whose body ties y to x by
y+i |-> x+j.  A needed witness of q (an exists true, a forall false) is
q's pin or among its candidates and stores x+j at y+i.  A needed forall q
with body rest \\/ y+i |-> x+j, x not in rest, has the first candidate y
where rest is false store x+j at y+i: the row of a table lookup; without
such a y the lookup is vacuous and the block is enumerated.  Every other
value of x falsifies the witness or the row: the tail argument, one
quantifier down.  The join values are kept from the guard on, past the
largest address too.  So the anchored and joined candidates, like a pin,
are exact over the whole domain: a quantifier that runs through them
without its verdict has the neutral one, or, open, the join of the bodies
it left undecided.  Only a block enumeration builds a tail.

Known atoms.  The atoms that chose a value of x hold at it, so a closed
quantifier evaluates its body there with them replaced by true: its core,
built once per shape by the walk that builds the tail, which replaces the
side's atoms by false.  Closed, every pin's t and every anchor's is bound,
so the pin read is the first pin's and each anchored candidate satisfies
every anchor; the core folds the first pin's atom, or, without a pin, each
anchor's.  The fold enters nested quantifiers, where most of H's anchors
are, and stops at one that binds x or a base of a folded atom, where the
same atom means another thing.  Joins, the block, the tail, open
quantifiers and residuals keep the plain body.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import itemgetter

from .ast import (
    And, Eq, Exists, Forall, Formula, GExists, GForall, Not, Or, PointsTo,
    SLNTerm, TruthConst, and_all, conj, disj, neg, or_all, rebuild, sln_num,
)
from .heap import Heap
from .semantics import VarAssignment
from .succ import decide_sentence
from .transform import substitute

TRUE = TruthConst(True)
FALSE = TruthConst(False)


# ---------------------------------------------------------------------------
# Quantifier plumbing


_EXISTS = {Exists: True, GExists: True, Forall: False, GForall: False}


def _split_quant(a: Formula) -> tuple[bool, str, int, Formula]:
    """(exists, var, guard, body) of a quantifier-rooted formula."""
    if type(a) not in _EXISTS:
        raise ValueError(f"expected a quantified formula, got {a!r}")
    return _EXISTS[type(a)], a.var, getattr(a, "guard", 0), a.body


def _guarded(exists: bool, x: str, guard: int, body: Formula) -> Formula:
    if isinstance(body, TruthConst):
        return body
    if exists:
        return GExists(x, guard, body) if guard > 0 else Exists(x, body)
    return GForall(x, guard, body) if guard > 0 else Forall(x, body)


# ---------------------------------------------------------------------------
# Folding rebuild


def _fold_atoms(a: Formula, atom, shadow: str | None = None) -> Formula:
    """a with each atom p replaced by atom(p), folding constants on the way
    up; a quantifier that binds `shadow` is kept as it is."""

    def visit(b: Formula, _):
        match b:
            case PointsTo() | Eq() | TruthConst():
                return None, atom(b)
            case Not(body):
                return neg, [(body, None)]
            case And(l, r) | Or(l, r):
                return (conj if type(b) is And else disj), [(l, None), (r, None)]
            case Exists() | Forall() | GExists() | GForall() if b.var == shadow:
                return None, b
            case Exists() | Forall() | GExists() | GForall():
                return partial(_guarded, *_split_quant(b)[:3]), [(b.body, None)]
        raise TypeError(f"not an SLN formula: {b!r}")

    return rebuild(a, visit)


def _replace_atoms(a: Formula, x: str, side: str) -> Formula:
    """Replace points-to atoms whose `side` term iterates x by false,
    folding constants on the way up."""

    def atom(p: Formula) -> Formula:
        if isinstance(p, PointsTo) and (p.addr if side == "addr" else p.val).base == x:
            return FALSE
        return p

    return _fold_atoms(a, atom, shadow=x)


# ---------------------------------------------------------------------------
# The syntactic single-quantifier rewrites


def _free_rewrite(a: Formula, bound: int, side: str) -> Formula:
    exists, x, guard, body = _split_quant(a)
    copies = [substitute(body, x, sln_num(k)) for k in range(guard, bound + 1)]
    tail = _guarded(exists, x, max(guard, bound + 1), _replace_atoms(body, x, side))
    return (or_all if exists else and_all)(copies + [tail])


def address_free_rewrite(a: Formula, max_addr: int) -> Formula:
    """Split a quantified formula at the largest heap address.

    Values of the bound variable up to max_addr are enumerated as numeral
    instances; beyond they satisfy no points-to atom addressed by the
    variable, so the guarded tail replaces those atoms by false.  Pass
    max_addr = -1 for the empty heap.
    """
    return _free_rewrite(a, max_addr, "addr")


def value_free_rewrite(a: Formula, max_val: int) -> Formula:
    """Mirror image of address_free_rewrite for stored values."""
    return _free_rewrite(a, max_val, "val")


def ground_points_to_eval(h: Heap, a: Formula) -> Formula:
    """Replace every closed points-to atom by its truth value against h.

    A points-to atom still mentioning a variable signals a pipeline bug and
    is rejected.
    """

    def atom(p: Formula) -> Formula:
        if not isinstance(p, PointsTo):
            return p
        if p.addr.base is not None or p.val.base is not None:
            raise ValueError(f"non-closed points-to atom: {p!r}")
        return TruthConst(h.get(p.addr.offset) == p.val.offset)

    return _fold_atoms(a, atom)


# ---------------------------------------------------------------------------
# Compiled nodes, interned as the module docstring's structural memo says.
# The table is cleared at _NODES_MAX entries, about 600 bytes each: that
# costs only sharing, as formulas keep their nodes, and memo keys and
# junctions go by object.

_NODES_MAX = 1 << 14
_NODES: dict[tuple, _Node] = {}
_UNSET = object()


def _intern(key: tuple):
    """The node of key, a node class followed by its arguments: the one
    made before, if the table still holds it, else a new one."""
    node = _NODES.get(key)
    if node is None:
        if len(_NODES) >= _NODES_MAX:
            _NODES.clear()
        node = _NODES[key] = key[0](*key[1:])
    return node


class _Node:
    """Every node evaluates two ways under an environment `env` (a dict
    from variable names to values) against a heap:

    ev    three-valued: a variable missing from env is unknown, and the
          result is None unless the node's truth does not depend on it.
          A quantifier whose free variables env binds is decided; one
          that mentions an unknown variable is only folded.
    res   the node with bound variables replaced by numerals and every
          points-to atom decided, as a successor-arithmetic formula over
          the variables missing from env; points-to atoms never mention
          those variables.
    """

    __slots__ = ("free", "addr_vars", "val_vars")

    def _facts(self, free, addr_vars, val_vars) -> None:
        self.free = free
        self.addr_vars = addr_vars  # variables some points-to atom addresses by
        self.val_vars = val_vars  # variables some points-to atom stores


class _Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value
        self._facts(frozenset(), frozenset(), frozenset())

    def ev(self, env, h) -> bool:
        return self.value

    def res(self, env, h) -> Formula:
        return TRUE if self.value else FALSE


_TRUE_NODE, _FALSE_NODE = _Const(True), _Const(False)


def _term_vars(*bases) -> frozenset[str]:
    return frozenset(b for b in bases if b is not None)


class _Atom(_Node):
    """An atom between s^lo(lb) and s^ro(rb), a base None meaning 0."""

    __slots__ = ("lb", "lo", "rb", "ro")

    def __init__(self, lb, lo, rb, ro) -> None:
        self.lb, self.lo, self.rb, self.ro = lb, lo, rb, ro
        self._facts(_term_vars(lb, rb), frozenset(), frozenset())


class _Eq(_Atom):
    """The bases differ."""

    __slots__ = ()

    def ev(self, env, h) -> bool | None:
        l = 0 if self.lb is None else env.get(self.lb)
        r = 0 if self.rb is None else env.get(self.rb)
        if l is None:
            # s^lo(v) = s^ro(r) has no solution when r + ro < lo
            return False if r is not None and r + self.ro < self.lo else None
        if r is None:
            return False if l + self.lo < self.ro else None
        return l + self.lo == r + self.ro

    def res(self, env, h) -> Formula:
        verdict = self.ev(env, h)
        if verdict is not None:
            return TRUE if verdict else FALSE

        def term(base, offset):
            value = None if base is None else env.get(base)
            return SLNTerm(base, offset) if value is None else sln_num(value + offset)

        return Eq(term(self.lb, self.lo), term(self.rb, self.ro))


class _PointsTo(_Atom):
    __slots__ = ()

    def __init__(self, lb, lo, rb, ro) -> None:
        super().__init__(lb, lo, rb, ro)
        self.addr_vars, self.val_vars = _term_vars(lb), _term_vars(rb)

    def ev(self, env, h) -> bool | None:
        l = 0 if self.lb is None else env.get(self.lb)
        r = 0 if self.rb is None else env.get(self.rb)
        if l is not None:
            stored = h.get(l + self.lo)
            if stored is None:
                return False
            if r is not None:
                return stored == r + self.ro
            return False if stored < self.ro else None
        if r is not None and not h.addresses_holding(r + self.ro):
            return False
        return None

    def res(self, env, h) -> Formula:
        verdict = self.ev(env, h)
        if verdict is None:
            raise AssertionError(f"points-to atom escaped its rewrites: "
                                 f"{self.lb}+{self.lo} |-> {self.rb}+{self.ro}")
        return TRUE if verdict else FALSE


class _Not(_Node):
    __slots__ = ("body",)

    def __init__(self, body: _Node) -> None:
        self.body = body
        self._facts(body.free, body.addr_vars, body.val_vars)

    def ev(self, env, h) -> bool | None:
        verdict = self.body.ev(env, h)
        return None if verdict is None else not verdict

    def res(self, env, h) -> Formula:
        return neg(self.body.res(env, h))


class _Junction(_Node):
    """A conjunction (_And) or disjunction (_Or) of two or more operands, none
    a constant, a repeat or a junction of its kind.  The kinds differ only in
    unit, the verdict that drops out; zero, the absorbing residual; the ast fold."""

    __slots__ = ("parts",)

    def __init__(self, *parts: _Node) -> None:
        self.parts = parts
        free, addr_vars, val_vars = set(), set(), set()
        for p in parts:
            free |= p.free
            addr_vars |= p.addr_vars
            val_vars |= p.val_vars
        self._facts(frozenset(free), frozenset(addr_vars), frozenset(val_vars))

    def ev(self, env, h) -> bool | None:
        unit = verdict = self.unit
        for p in self.parts:
            v = p.ev(env, h)
            if v is None:
                verdict = None
            elif v is not unit:
                return v
        return verdict

    def res(self, env, h) -> Formula:
        parts = []
        for p in self.parts:
            parts.append(p.res(env, h))
            if parts[-1] == self.zero:
                break
        return self.fold(*parts)


class _And(_Junction):
    __slots__, unit, zero, fold = (), True, FALSE, staticmethod(conj)


class _Or(_Junction):
    __slots__, unit, zero, fold = (), False, TRUE, staticmethod(disj)


def _needs(node: _Node, x: str, positive: bool) -> frozenset | set:
    """Atoms mentioning x, points-to atoms and equations, that hold whenever
    node is true (positive) or false; and joins (rest, q, i, j) where node
    needs, via connectives only, a witness of q on y whose body needs
    y+i |-> x+j (rest None) or the forall q, its body rest \\/ y+i |-> x+j,
    x not in rest.

    The domain is never empty, so an atom needed by the body of any
    quantifier is needed by the quantifier too, unless it mentions the
    bound variable."""
    if x not in node.free:
        return frozenset()
    if isinstance(node, _Atom):
        return frozenset((node,)) if positive else frozenset()
    if isinstance(node, _Not):
        return _needs(node.body, x, not positive)
    if isinstance(node, _Junction):
        if isinstance(node, _And) == positive:
            needs = set()
            for p in node.parts:
                needs |= _needs(p, x, positive)
            return needs
        needs = _needs(node.parts[0], x, positive)
        for p in node.parts[1:]:
            needs = needs and needs & _needs(p, x, positive)
        return needs
    if isinstance(node, _Quant):
        y, body = node.shape.var, node.shape.body
        inner = [p for p in _needs(body, x, positive) if type(p) is not tuple]
        ties = ([(p, None) for p in inner] if positive == node.shape.exists
                else [(p, _junction_node(_Or, [q for q in body.parts if q is not p]))
                      for p in body.parts if type(p) is _PointsTo]
                if positive and type(body) is _Or else [])
        return frozenset([(rest, node, p.lo, p.ro) for p, rest in ties
                          if type(p) is _PointsTo and p.lb == y and p.rb == x
                          and (rest is None or x not in rest.free)]
                         + [p for p in inner if p.lb != y and p.rb != y])
    return frozenset()


def _replace(node: _Node, x: str, swap, facts: str = "free", stop=()) -> _Node:
    """node with each atom p it reaches replaced by swap(p), constants
    folded on the way up.  The walk enters only nodes whose `facts` (free,
    addr_vars or val_vars) hold x, so it stops at a quantifier that binds
    x, and at one that binds a name in stop.  The tail swaps the points-to
    atoms whose side term iterates x for false, as _replace_atoms does on
    formulas; the core swaps the atoms known to hold for true."""
    if x not in getattr(node, facts):
        return node
    if isinstance(node, _Atom):
        return swap(node)
    if isinstance(node, _Not):
        return _not_node(_replace(node.body, x, swap, facts, stop))
    if isinstance(node, _Junction):
        return _junction_node(type(node), map(_replace, node.parts, repeat(x), repeat(swap),
                                              repeat(facts), repeat(stop)))
    shape = node.shape  # binds a variable other than x, which is free in it
    if shape.var in stop:
        return node
    return _quant_node(shape.exists, shape.var, node.guard,
                       _replace(shape.body, x, swap, facts, stop))


class _Shape:
    """A quantifier without its guard, with the facts the enumeration
    needs: the side the variable is enumerated on, its pins, address
    anchors and joins, exact over the whole domain, and, each made once on
    first use, the node of the block's tail and the core body."""

    __slots__ = ("exists", "var", "body", "side", "_pins", "_anchors", "_joins", "_tail", "_core")

    def __init__(self, exists: bool, var: str, body: _Node) -> None:
        self.exists, self.var, self.body = exists, var, body
        self.side = ("addr" if var in body.addr_vars else
                     "val" if var in body.val_vars else None)
        # For exists, the atoms the body needs; for forall, the atoms whose
        # failure makes the body true.  A pin or an address anchor is (its
        # atom, base and offset of t, offset of x).
        pins, addr, joins = [], [], []
        for p in _needs(body, var, exists):
            if type(p) is tuple:
                joins.append(p)
            elif type(p) is _Eq:  # the bases differ, so x is on one side only
                pins.append((p, p.rb, p.ro, p.lo) if p.lb == var else (p, p.lb, p.lo, p.ro))
            elif p.lb == var and p.rb != var:
                addr.append((p, p.rb, p.ro, p.lo))
            elif p.rb == var and p.lb != var:
                pins.append((p, p.lb, p.lo, p.ro))
        joins.sort(key=lambda join: join[0] is None)  # lookups first: one value each
        self._pins, self._anchors, self._joins = tuple(pins), tuple(addr), tuple(joins)
        self._tail = self._core = None

    def bound(self, h: Heap) -> int:
        """The last value of the enumerated block; the tail takes the rest."""
        return h.max_addr if self.side == "addr" else h.max_val

    def pin(self, env, h) -> int | None:
        """The one value of x at which the body can differ from its neutral
        verdict, over the whole domain, read off the first pin whose t env
        binds: t - i for x+i = t, the value stored at t less i for
        t |-> x+i (-1 for an empty cell); None when no pin's t is bound."""
        for p, base, offset, i in self._pins:
            t = 0 if base is None else env.get(base)
            if t is not None:  # an empty cell gives i - 1, less i
                return t + offset - i if type(p) is _Eq else h.get(t + offset, i - 1) - i
        return None

    def candidates(self, env, h, guard: int):
        """The values from guard on at which the body can differ from its
        neutral verdict, over the whole domain, or None when no address
        anchor or join applies.  An anchor x+i |-> t is false at every other
        value, and so is the body of an exists (for a forall, its body is
        true).  The heap's two-anchor lookup answers the anchors whose t env
        binds."""
        pairs = []
        for _, base, offset, i in self._anchors:
            t = 0 if base is None else env.get(base)
            if t is not None:
                pairs.append((i, t + offset))
        if not pairs:
            return self._joined(env, h, guard) if self._joins else None
        return h.matching(pairs, guard)

    def _joined(self, env, h, guard: int):
        """The values from guard on, past the largest address too, that the
        first join that applies reads off q's pin or candidates, or None."""
        for rest, q, i, j in self._joins:
            y = q.shape.var
            inner = {v: k for v, k in env.items() if v != y}
            k = q.shape.pin(inner, h)
            if k is not None:
                ys = (k,) if k >= q.guard else ()
            else:
                ys = q.shape.candidates(inner, h, q.guard)
                if ys is None:
                    ys = range(q.guard, q.shape.bound(h) + 1)
            if rest is not None:
                ys = next(([k] for k in ys if rest.ev({**inner, y: k}, h) is False), None)
                if ys is None:
                    continue  # a vacuous lookup: no row
            xs = (h.get(a + i, -1) - j for a in ys)
            return sorted({k for k in xs if k >= guard})
        return None

    def tail(self, guard: int) -> _Node:
        """This quantifier from guard on, with the atoms on its side
        replaced by false: its body past the side's bound, after a block.
        The last tail made is kept."""
        tail = self._tail
        if tail is None:
            body = _replace(self.body, self.var, lambda p: _FALSE_NODE, self.side + "_vars")
            tail = self._tail = _quant_node(self.exists, self.var, guard, body)
        elif type(tail) is _Quant and tail.guard != guard:
            tail = self._tail = _intern((_Quant, tail.shape, guard))
        return tail

    def core(self) -> _Node:
        """The body at the value a closed quantifier reads off its first pin,
        or, without a pin, at each of its anchored candidates, with the atoms
        that chose the value replaced by true: the first pin's, or every
        anchor's, all of which hold there.  The walk stops at a quantifier
        that rebinds x or a base of those atoms.  Made once."""
        core = self._core
        if core is None:
            known = {p for p, _, _, _ in self._pins[:1] or self._anchors}
            stop = {b for p in known for b in (p.lb, p.rb)}
            core = self._core = _replace(self.body, self.var,
                                         lambda p: _TRUE_NODE if p in known else p, stop=stop)
        return core


class _Quant(_Node):
    __slots__ = ("shape", "guard", "_values")

    def __init__(self, shape: _Shape, guard: int) -> None:
        self.shape, self.guard = shape, guard
        body, x = shape.body, {shape.var}
        self._facts(body.free - x, body.addr_vars - x, body.val_vars - x)
        names = sorted(self.free)
        self._values = itemgetter(*names) if names else None

    def ev(self, env, h, fold=True):
        """The one split of the module docstring.  A closed quantifier reads
        its pin or its anchored candidates on its shape's core, hands a
        residual to the decider, and memoizes the verdict of an enumeration
        per heap on (node, free values).  An open one is only folded, unless
        fold is off: then it gives its verdict or its residual over the
        variables env leaves unbound.  Only a block has a tail.  env is
        left as it came."""
        closed = env.keys() >= self.free
        shape, guard = self.shape, self.guard
        x, body, want = shape.var, shape.body, shape.exists
        k = shape.pin(env, h) if closed or not fold else None  # no pin's t is x
        if k is not None and k < guard:
            return not want
        if closed and k is None:
            key = self if self._values is None else (self, self._values(env))
            verdict = h.memo.get(key)
            if verdict is not None:
                return verdict
        saved = env.pop(x, _UNSET)
        try:
            if k is not None:
                env[x] = k
                if closed:
                    return shape.core().ev(env, h)
                verdict = body.ev(env, h)
                # only an open body is undecided
                return body.res(env, h) if verdict is None else verdict
            values = shape.candidates(env, h, guard) if closed or not fold else None
            block = values is None
            if block:
                verdict = body.ev(env, h)
                if verdict is not None or fold and not closed:
                    return verdict
                if shape.side is None:
                    verdict = _guarded(want, x, guard, body.res(env, h))
                    if closed:
                        verdict = h.memo[key] = decide_sentence(verdict)
                    return verdict
                values = range(guard, shape.bound(h) + 1)
            elif closed and shape._anchors and values:
                body = shape.core()  # every anchor is bound, and holds at every candidate
            parts = []
            for k in values:
                env[x] = k
                verdict = body.ev(env, h)
                if verdict is want:
                    break
                if verdict is None:
                    parts.append(body.res(env, h))
            else:  # past a block the tail decides; past the candidates the body is neutral
                env.pop(x, None)
                tail = (shape.tail(max(guard, shape.bound(h) + 1)) if block
                        else _FALSE_NODE if want else _TRUE_NODE)
                verdict = (tail.ev(env, h) if closed
                           else (disj if want else conj)(*parts, tail.res(env, h)))
            if closed:
                h.memo[key] = verdict
            return verdict
        finally:
            env.pop(x, None)
            if saved is not _UNSET:
                env[x] = saved

    def res(self, env, h) -> Formula:
        verdict = self.ev(env, h, False)
        return verdict if type(verdict) is not bool else TRUE if verdict else FALSE


# Node constructors: they fold constants and intern what is left.


def _atom_node(cls, l: SLNTerm, r: SLNTerm) -> _Node:
    return _intern((cls, l.base, l.offset, r.base, r.offset))


def _not_node(body: _Node) -> _Node:
    if isinstance(body, _Const):
        return _FALSE_NODE if body.value else _TRUE_NODE
    if type(body) is _Not:  # !!A is A
        return body.body
    return _intern((_Not, body))


def _junction_node(cls, parts) -> _Node:
    """The junction of parts: cls's own spliced in, constants folded, repeats dropped."""
    flat = {}
    for p in parts:
        if type(p) is cls:
            flat.update(dict.fromkeys(p.parts))
        elif type(p) is not _Const:
            flat[p] = None
        elif p.value is not cls.unit:
            return p
    if len(flat) > 1:
        return _intern((cls, *flat))
    return next(iter(flat), _TRUE_NODE if cls.unit else _FALSE_NODE)


def _quant_node(exists: bool, x: str, guard: int, body: _Node) -> _Node:
    if isinstance(body, _Const):
        return body
    return _intern((_Quant, _intern((_Shape, exists, x, body)), guard))


def _compile(a: Formula) -> _Node:
    """The interned node of a.  It is kept on a, outside its fields, so a
    subformula shared by many formulas, such as H, compiles once.  A run of
    ! (folded by its parity) and a chain of one connective are read in loops."""
    node = vars(a).get("_node")
    if node is not None:
        return node
    cls = type(a)
    if cls is And or cls is Or:
        parts, todo = [], [a.right, a.left]
        while todo:
            b = todo.pop()
            if type(b) is cls:
                todo += b.right, b.left
            else:
                parts.append(_compile(b))
        node = _junction_node(_And if cls is And else _Or, parts)
    elif cls is PointsTo:
        node = _atom_node(_PointsTo, a.addr, a.val)
    elif cls is Eq:
        l, r = a.left, a.right
        if type(l) is not SLNTerm or type(r) is not SLNTerm:
            raise TypeError("check operates on SLN formulas")
        if l.base == r.base:
            node = _TRUE_NODE if l.offset == r.offset else _FALSE_NODE
        else:
            node = _atom_node(_Eq, l, r)
    elif cls in _EXISTS:
        node = _quant_node(*_split_quant(a)[:3], _compile(a.body))
    elif cls is Not:
        body, negations = a.body, 1
        while type(body) is Not:
            body, negations = body.body, negations + 1
        node = _compile(body)
        if negations % 2:
            node = _not_node(node)
    elif cls is TruthConst:
        node = _TRUE_NODE if a.value else _FALSE_NODE
    else:
        raise TypeError(f"not an SLN formula: {a!r}")
    vars(a)["_node"] = node
    return node


# ---------------------------------------------------------------------------
# Entry point


def check(sigma: VarAssignment, h: Heap, a: Formula) -> bool:
    """Truth of sigma, h |= a, on every SLN formula, or succ.BudgetExceeded
    when a residual sentence handed to the decider passes its budget: for
    example forall w. (!(w = 3) /\\ !(w = 4)) \\/ exists x. (L(x) /\\ s(w) = s(x)),
    L(x) a table lookup, on {0: 7, 2: 3, 4: 3, 5: 0}: w has no pin and is in
    no points-to atom, and x's residual, its pin unbound, joins one disjunct
    per value of x's block."""
    root = _compile(a)
    return root.ev({v: sigma(v) for v in root.free}, h)
