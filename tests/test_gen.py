"""Generator contracts: determinism, class membership, and caps."""

from slnkit.ast import free_vars
from slnkit.gen import GenProfile, Generators
from slnkit.semantics import VarAssignment, max_bound
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
    profile = GenProfile(table_cap=4)
    gens = Generators(9, profile)
    cap_sigma = VarAssignment({v: profile.assign_max for v in profile.var_pool})
    for _ in range(100):
        a = gens.pa_normal()
        assert is_normal(a)
        assert max_bound(cap_sigma, a) <= 4


def test_heap_profile_caps():
    profile = GenProfile(heap_cells=6, heap_max_addr=12, heap_max_val=8)
    gens = Generators(10, profile)
    for _ in range(100):
        h = gens.sparse_heap()
        assert len(h) <= 6
        assert all(a <= 12 and v <= 8 for a, v in h.cells.items())


def test_succ_sentences_are_closed():
    gens = Generators(11)
    for _ in range(50):
        assert not free_vars(gens.succ_sentence())


def test_structures_fit_profile():
    profile = GenProfile(universe_size=4, universe_max=6)
    gens = Generators(12, profile)
    for _ in range(50):
        m = gens.finite_structure()
        assert 1 <= len(m.universe) <= 4
        assert all(0 <= p <= 6 for p in m.universe)
        assert m.well_formed
