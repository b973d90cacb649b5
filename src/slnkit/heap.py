"""Finite heaps and the simple table heap.

A heap is a finite partial map from naturals to naturals; a lookup outside
the domain is a distinguishable absence, None, unless the caller passes a
default.  Heaps are immutable after construction, so they can be shared
freely and carry a model-checking memo and a lazily built index from values
to addresses.

The checker reads a heap through these members only: get, addresses_holding,
the two-anchor lookup matching, max_addr, max_val and memo."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

DEFAULT_CELL_BUDGET = 10_000_000


class Heap:
    __slots__ = ("_cells", "get", "max_addr", "max_val", "_index", "memo")

    def __init__(self, cells: Mapping[int, int] | None = None) -> None:
        data = dict(cells or {})
        for addr, val in data.items():
            if addr < 0 or val < 0:
                raise ValueError(f"heap cells are naturals, got {addr} -> {val}")
        self._cells = data
        self.get = data.get  # get(addr, default=None): the dict's own, no wrapper call
        self.max_addr = max(data) if data else -1  # the largest address; -1 for the empty heap
        self.max_val = max(data.values()) if data else -1  # the largest stored value; -1 if empty
        self._index: dict[int, tuple[int, ...]] | None = None
        self.memo: dict = {}  # checker verdict cache

    def addresses_holding(self, value: int) -> tuple[int, ...]:
        """The addresses whose cell stores value, ascending.  The index
        from values to addresses is built on first use."""
        if self._index is None:
            index: dict[int, list[int]] = {}
            for addr in sorted(self._cells):
                index.setdefault(self._cells[addr], []).append(addr)
            self._index = {v: tuple(addrs) for v, addrs in index.items()}
        return self._index.get(value, ())

    def matching(self, pairs: Iterable[tuple[int, int]], guard: int = 0) -> Sequence[int]:
        """The two-anchor lookup: the values k >= guard, ascending, such
        that cell k + i stores v for every (i, v) of pairs, one pair or
        more.  The shortest list of addresses storing a v is scanned, and
        every other pair filters it."""
        known = []
        for i, v in pairs:
            addrs = self.addresses_holding(v)
            if not addrs:
                return []
            known.append((len(addrs), i, v, addrs))
        known.sort()
        _, i, _, addrs = known[0]
        get = self.get
        for _, j, v, _ in known[1:]:
            d = j - i  # from an address of the scanned pair to this one's
            addrs = [a for a in addrs if get(a + d) == v]
        if i == 0 and (not addrs or addrs[0] >= guard):
            return addrs  # the guard cuts nothing, as it often does
        return [a - i for a in addrs if a - i >= guard]

    def __contains__(self, addr: int) -> bool:
        return addr in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> Mapping[int, int]:
        return MappingProxyType(self._cells)

    def mutated(self, addr: int, value: int) -> "Heap":
        out = dict(self._cells)
        out[addr] = value
        return Heap(out)

    def restricted(self, below: int) -> "Heap":
        return Heap({a: v for a, v in self._cells.items() if a < below})

    def __reduce__(self):
        # a copy is rebuilt from the cells: an empty memo, a get on its own dict
        return Heap, (self._cells,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and self._cells == other._cells

    def __repr__(self) -> str:
        return f"Heap({len(self._cells)} cells, max_addr={self.max_addr})"


def table_cell_count(n: int) -> int:
    return 4 * (n * n + 1) ** 2 + 4 * (n + 1) ** 2 + 3 * (n + 1) ** 2


@lru_cache(maxsize=32)
def simple_table_heap(n: int, max_cells: int = DEFAULT_CELL_BUDGET) -> Heap:
    """The heap carrying every addition row for arguments up to n^2 and
    every multiplication and inequality row for arguments up to n.

    The addition, multiplication and inequality blocks follow each other
    from address 0, each row (tag, x, y, result) right after the last, x
    running fastest.  Inequality rows are three cells wide; a pair that
    would encode a false inequality stores n as its second argument
    instead.  All operands and results are stored with offset 3.
    """
    if n < 0:
        raise ValueError("table size must be a natural")
    if table_cell_count(n) > max_cells:
        raise ValueError(f"table for n={n} needs {table_cell_count(n)} cells, "
                         f"over the budget of {max_cells}")
    m, k = n * n + 1, n + 1  # the arguments up to n^2, up to n
    rows = chain(((0, x + 3, y + 3, x + y + 3) for y in range(m) for x in range(m)),
                 ((1, x + 3, y + 3, x * y + 3) for y in range(k) for x in range(k)),
                 ((2, x + 3, y + 3 if x <= y else n + 3) for y in range(k) for x in range(k)))
    return Heap(dict(enumerate(chain.from_iterable(rows))))


def load_heap(text: str) -> Heap:
    """Parse the one "ADDR VALUE" pair per line format; '#' starts a
    comment, blank lines are ignored."""
    cells: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'ADDR VALUE', got {raw!r}")
        addr_s, val_s = parts
        if not addr_s.isdecimal() or not val_s.isdecimal():
            raise ValueError(f"line {lineno}: non-numeric or negative token in {raw!r}")
        addr, val = int(addr_s), int(val_s)
        if addr in cells:
            raise ValueError(f"line {lineno}: duplicate address {addr}")
        cells[addr] = val
    return Heap(cells)


def save_heap(h: Heap) -> str:
    return "\n".join(f"{a} {v}" for a, v in sorted(h.cells.items()))
