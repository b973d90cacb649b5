import copy
import pickle

import pytest

from slnkit.checker import check
from slnkit.gen import Generators
from slnkit.heap import (
    Heap, load_heap, save_heap, simple_table_heap, table_cell_count,
)
from slnkit.parser import parse_sln
from slnkit.semantics import VarAssignment


def test_lookup_absence_is_distinguishable():
    h = Heap({0: 0, 1: 3})
    assert h.get(0) == 0
    assert h.get(7) is None
    assert 1 in h and 7 not in h
    # a default applies only to an absent address: a stored 0 is a value
    assert h.get(0, 9) == 0 and h.get(1, -1) == 3
    assert h.get(7, 9) == 9 and h.get(7, -1) == -1


def test_rejects_negative_cells():
    with pytest.raises(ValueError):
        Heap({-1: 0})
    with pytest.raises(ValueError):
        Heap({0: -2})


def test_mutation_copies():
    h = Heap({0: 1})
    g = h.mutated(0, 5)
    assert h.get(0) == 1 and g.get(0) == 5


def test_table_heap_n1_rows():
    h = simple_table_heap(1)
    # addition row i = 1 encodes 1 + 0 = 1
    assert (h.get(4), h.get(5), h.get(6), h.get(7)) == (0, 4, 3, 4)
    # inequality row i = 2 encodes 0 <= 1 (c2 = 32)
    assert (h.get(38), h.get(39), h.get(40)) == (2, 3, 4)


def test_table_heap_domain_and_contents():
    for n in range(5):
        h = simple_table_heap(n)
        count = table_cell_count(n)
        assert len(h) == count
        assert set(h.cells) == set(range(count))
        add_rows = (n * n + 1) ** 2
        c1 = 4 * add_rows
        c2 = c1 + 4 * (n + 1) ** 2
        for i in range(add_rows):
            x, y = i % (n * n + 1), i // (n * n + 1)
            assert h.get(4 * i) == 0
            assert h.get(4 * i + 3) == x + y + 3
        for i in range((n + 1) ** 2):
            x, y = i % (n + 1), i // (n + 1)
            assert h.get(c1 + 4 * i) == 1
            assert h.get(c1 + 4 * i + 3) == x * y + 3
        for i in range((n + 1) ** 2):
            assert h.get(c2 + 3 * i) == 2
            # never encodes a false inequality
            assert h.get(c2 + 3 * i + 1) <= h.get(c2 + 3 * i + 2)


def test_table_budget():
    with pytest.raises(ValueError):
        simple_table_heap(300, max_cells=1000)


def test_load_save_round_trip():
    text = "0 0\n1 3\n2 3\n3 3"
    h = load_heap(text)
    assert dict(h.cells) == {0: 0, 1: 3, 2: 3, 3: 3}
    assert load_heap(save_heap(h)) == h
    assert load_heap("") == Heap()
    assert load_heap("# comment\n\n5 2  # trailing\n") == Heap({5: 2})


def test_load_heap_errors():
    with pytest.raises(ValueError):
        load_heap("5 2\n5 3")
    with pytest.raises(ValueError):
        load_heap("a 3")
    with pytest.raises(ValueError):
        load_heap("3 -1")
    with pytest.raises(ValueError):
        load_heap("1 2 3")
    # a superscript is a digit to str.isdigit, but not to int
    with pytest.raises(ValueError, match="line 1: non-numeric or negative token in '0 ²'"):
        load_heap("0 ²")


def test_addresses_holding():
    h = Heap({5: 1, 0: 1, 3: 2})
    assert h.addresses_holding(1) == (0, 5)
    assert h.addresses_holding(2) == (3,)
    assert h.addresses_holding(7) == ()
    assert h.mutated(3, 1).addresses_holding(1) == (0, 3, 5)


def _scan(h: Heap, pairs, guard: int) -> list[int]:
    """The two-anchor lookup by brute force: every k from guard up to the
    last one whose cells k + i lie in the domain."""
    last = h.max_addr - min(i for i, _ in pairs)
    return [k for k in range(guard, last + 1) if all(h.cells.get(k + i) == v for i, v in pairs)]


def test_matching_against_a_scan():
    """The lookup agrees with a scan of the cells on sampled heaps and on
    h_0..h_3, for one to three pairs whose offsets differ either way and
    reach below address 0, values stored and not, and guards that cut the
    list and that cut nothing."""
    tables = [simple_table_heap(n) for n in range(4)]
    gens = Generators(61)
    heaps = tables + [gens.heap_sample(tables) for _ in range(60)]
    rng = gens.rng
    seen = dict.fromkeys(["found", "cut", "uncut", "absent", "up", "down", "below 0"], 0)
    for h in heaps:
        values = sorted(set(h.cells.values())) or [0]
        for _ in range(40):
            pairs = [(rng.randint(0, 3), rng.choice(values)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                pairs[rng.randrange(len(pairs))] = (rng.randint(0, 3), h.max_val + 1)
                seen["absent"] += 1
            whole = _scan(h, pairs, 0)
            for guard in [0, rng.randint(0, h.max_addr + 2)] + whole[len(whole) // 2:][:1]:
                expected = _scan(h, pairs, guard)
                assert list(h.matching(pairs, guard)) == expected, (h, pairs, guard)
                seen["found"] += bool(expected)
                seen["cut" if len(expected) < len(whole) else "uncut"] += bool(whole)
            for i, v in pairs:
                for j, _ in pairs:
                    seen["up" if j > i else "down"] += j != i
                    # an address holding v, less i, plus j
                    seen["below 0"] += any(a - i + j < 0 for a in h.addresses_holding(v))
    assert all(seen.values()), seen


def test_matching_examples():
    h = Heap({0: 5, 1: 7, 3: 5, 4: 7, 6: 5, 7: 8})
    assert list(h.matching([(0, 5)])) == [0, 3, 6]
    assert list(h.matching([(1, 5)])) == [2, 5]  # 5 at address 0 gives k = -1
    assert list(h.matching([(0, 5), (1, 7)])) == [0, 3]
    # 7 has the shorter list, so 5 is read one address below each
    assert list(h.matching([(1, 7), (0, 5)])) == [0, 3]
    assert list(h.matching([(1, 7), (0, 5)], 1)) == [3]
    assert list(h.matching([(0, 5)], 7)) == []
    assert list(h.matching([(0, 5), (2, 9)])) == []  # no cell stores 9
    # 9 has the shorter list; at address 0 the other pair reads address -1
    h = Heap({0: 9, 3: 9, 2: 4, 5: 4, 8: 4})
    assert list(h.matching([(1, 9), (0, 4)])) == [2]


def test_copies_are_rebuilt_from_the_cells():
    h = Heap({0: 1, 2: 1, 3: 0})
    assert check(VarAssignment(), h, parse_sln("exists x (x |-> s(0) /\\ s(x) |-> 0)"))
    assert h.memo and h.addresses_holding(1) == (0, 2)
    for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert c == h and c.memo == {}
        assert c.get.__self__ is c._cells and c.get(3) == 0
        assert (c.max_addr, c.max_val, c.addresses_holding(1)) == (3, 1, (0, 2))
