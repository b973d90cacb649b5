"""Generator contracts: determinism, class membership, caps, and the
streams the verify suites and the benchmark's heap pools draw from."""

import hashlib

import pytest

from slnkit.ast import free_vars
from slnkit.finite import render_structure
from slnkit.gen import (
    ASSIGN_MAX, HEAP_CELLS, HEAP_MAX_ADDR, HEAP_MAX_VAL, TABLE_CAP,
    UNIVERSE_MAX, UNIVERSE_SIZE, VAR_POOL, Generators,
)
from slnkit.heap import simple_table_heap
from slnkit.render import render
from slnkit.semantics import VarAssignment, max_bound, render_assignment
from slnkit.transform import is_bounded, is_normal


def test_streams_are_deterministic_under_seed():
    first = [Generators(7).pa_bounded() for _ in range(10)]
    second = [Generators(7).pa_bounded() for _ in range(10)]
    assert first == second
    assert [Generators(7).succ_sentence() for _ in range(5)] == \
           [Generators(7).succ_sentence() for _ in range(5)]


def test_bounded_profile_is_bounded():
    gens = Generators(8)
    for _ in range(100):
        assert is_bounded(gens.pa_bounded())


def test_normal_profile_is_normal_and_capped():
    gens = Generators(9)
    cap_sigma = VarAssignment({v: ASSIGN_MAX for v in VAR_POOL})
    for _ in range(100):
        a = gens.pa_normal()
        assert is_normal(a)
        assert max_bound(cap_sigma, a) <= TABLE_CAP


def test_heap_profile_caps():
    gens = Generators(10)
    for _ in range(100):
        h = gens.sparse_heap()
        assert len(h) <= HEAP_CELLS
        assert all(a <= HEAP_MAX_ADDR and v <= HEAP_MAX_VAL for a, v in h.cells.items())


def test_succ_sentences_are_closed():
    gens = Generators(11)
    for _ in range(50):
        assert not free_vars(gens.succ_sentence())


def test_structures_fit_profile():
    gens = Generators(12)
    for _ in range(50):
        m = gens.finite_structure()
        assert 1 <= len(m.universe) <= UNIVERSE_SIZE
        assert all(0 <= p <= UNIVERSE_MAX for p in m.universe)
        assert m.well_formed


TABLES = [simple_table_heap(n) for n in range(5)]

# Each stream's text, one line per draw.  The verify suites check what
# these streams draw, and verify_representation's heap pools, which the
# benchmark's search workload times, are heap_sample draws over tables.
DRAWS = {
    "pa_normal": lambda g: render(g.pa_normal()),
    "assignment": lambda g: render_assignment(g.assignment(["x", "y", "z"])),
    "finite_structure": lambda g: render_structure(g.finite_structure()),
    "l_formula": lambda g: repr(g.l_formula()),
    "heap_sample": lambda g: repr(sorted(g.heap_sample(TABLES).cells.items())),
}

STREAM_SHA256 = {
    "assignment": "e31ee13e726448a238405b316714ac0935eb648381db259c5b9e8b35f3b17e7c",
    "finite_structure": "5a43926cda85fc68256d3b3dcafd87deb4d9f88d10148b10890fb58cb0bfc95d",
    "heap_sample": "d1e29dfd79910bec2b6a89c476b633d575983a20defb34c712870c70c233053a",
    "l_formula": "e722ef51458560920946a49cea15cf43510fd2b4d415ca804b6972009b8eb920",
    "pa_normal": "8a6f97c4f4798ac59b66bb861f7d2d267060a3744f3fbc1be234bfe9fd3bd9b2",
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_stream_is_pinned(method):
    """SHA-256 over 40 draws for each of seeds 0-4: a change to a stream
    changes the inputs of the verify suites and of the search workload."""
    digest = hashlib.sha256()
    for seed in range(5):
        gens = Generators(seed)
        for _ in range(40):
            digest.update(DRAWS[method](gens).encode() + b"\n")
    assert digest.hexdigest() == STREAM_SHA256[method]
