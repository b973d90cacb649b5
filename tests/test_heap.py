import pytest

from slnkit.heap import (
    Heap, load_heap, save_heap, simple_table_heap, table_cell_count,
)


def test_lookup_absence_is_distinguishable():
    h = Heap({0: 0, 1: 3})
    assert h.get(0) == 0
    assert h.get(7) is None
    assert 1 in h and 7 not in h


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
