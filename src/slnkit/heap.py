"""Finite heaps and the simple table heap.

A heap is a finite partial map from naturals to naturals; lookups outside
the domain are a distinguishable absence, never a default.  Heaps are
immutable after construction, so they can be shared freely and carry a
model-checking memo and a lazily built index from values to addresses."""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

DEFAULT_CELL_BUDGET = 10_000_000


class Heap:
    __slots__ = ("_cells", "_max_addr", "_max_val", "_index", "_memo")

    def __init__(self, cells: Mapping[int, int] | None = None) -> None:
        data = dict(cells or {})
        for addr, val in data.items():
            if addr < 0 or val < 0:
                raise ValueError(f"heap cells are naturals, got {addr} -> {val}")
        self._cells = data
        self._max_addr = max(data) if data else -1
        self._max_val = max(data.values()) if data else -1
        self._index: dict[int, tuple[int, ...]] | None = None
        self._memo: dict = {}  # checker verdict cache

    def get(self, addr: int) -> int | None:
        return self._cells.get(addr)

    def addresses_holding(self, value: int) -> tuple[int, ...]:
        """The addresses whose cell stores value, ascending.  The index
        from values to addresses is built on first use."""
        if self._index is None:
            index: dict[int, list[int]] = {}
            for addr in sorted(self._cells):
                index.setdefault(self._cells[addr], []).append(addr)
            self._index = {v: tuple(addrs) for v, addrs in index.items()}
        return self._index.get(value, ())

    def __contains__(self, addr: int) -> bool:
        return addr in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> Mapping[int, int]:
        return MappingProxyType(self._cells)

    @property
    def max_addr(self) -> int:
        """Largest address in the domain; -1 for the empty heap."""
        return self._max_addr

    @property
    def max_val(self) -> int:
        """Largest stored value; -1 for the empty heap."""
        return self._max_val

    def mutated(self, addr: int, value: int) -> "Heap":
        out = dict(self._cells)
        out[addr] = value
        return Heap(out)

    def restricted(self, below: int) -> "Heap":
        return Heap({a: v for a, v in self._cells.items() if a < below})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and self._cells == other._cells

    def __repr__(self) -> str:
        return f"Heap({len(self._cells)} cells, max_addr={self._max_addr})"


def table_cell_count(n: int) -> int:
    return 4 * (n * n + 1) ** 2 + 4 * (n + 1) ** 2 + 3 * (n + 1) ** 2


@lru_cache(maxsize=32)
def simple_table_heap(n: int, max_cells: int = DEFAULT_CELL_BUDGET) -> Heap:
    """The heap carrying every addition row for arguments up to n^2 and
    every multiplication and inequality row for arguments up to n.

    Inequality rows are three cells wide; a pair that would encode a false
    inequality stores n as its second argument instead.  All operands and
    results are stored with offset 3.
    """
    if n < 0:
        raise ValueError("table size must be a natural")
    if table_cell_count(n) > max_cells:
        raise ValueError(f"table for n={n} needs {table_cell_count(n)} cells, "
                         f"over the budget of {max_cells}")
    cells: dict[int, int] = {}
    add_rows = (n * n + 1) ** 2
    for i in range(add_rows):
        x, y = i % (n * n + 1), i // (n * n + 1)
        cells[4 * i] = 0
        cells[4 * i + 1] = x + 3
        cells[4 * i + 2] = y + 3
        cells[4 * i + 3] = x + y + 3
    c1 = 4 * add_rows
    small_rows = (n + 1) ** 2
    for i in range(small_rows):
        x, y = i % (n + 1), i // (n + 1)
        cells[c1 + 4 * i] = 1
        cells[c1 + 4 * i + 1] = x + 3
        cells[c1 + 4 * i + 2] = y + 3
        cells[c1 + 4 * i + 3] = x * y + 3
    c2 = c1 + 4 * small_rows
    for i in range(small_rows):
        x, y = i % (n + 1), i // (n + 1)
        cells[c2 + 3 * i] = 2
        cells[c2 + 3 * i + 1] = x + 3
        cells[c2 + 3 * i + 2] = (y + 3) if x <= y else (n + 3)
    return Heap(cells)


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
