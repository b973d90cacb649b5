"""Successor-arithmetic decider vs the bounded oracle."""

import pytest

from slnkit.ast import Eq, GForall, sln_num, svar
from slnkit.gen import Generators, GenProfile
from slnkit.heap import Heap
from slnkit.parser import parse_sln
from slnkit.semantics import VarAssignment
from slnkit.succ import decide_sentence

from oracles import stable_brute_force

EMPTY = Heap()
SIGMA = VarAssignment()


def test_basic_sentences():
    assert decide_sentence(parse_sln("forall x. !(x = s(x))"))
    assert not decide_sentence(parse_sln("exists x. s(x) = 0"))
    # forall x >= m (x = numeral) is false for every m and numeral
    for m in range(4):
        for z in range(4):
            f = GForall("x", m, Eq(svar("x"), sln_num(z)))
            assert not decide_sentence(f)


def test_equality_reasoning():
    assert decide_sentence(parse_sln("forall x. exists y. y = s(s(x))"))
    assert not decide_sentence(parse_sln("forall x. exists y. x = s(y)"))
    assert decide_sentence(parse_sln("forall x >= 1. exists y. x = s(y)"))
    assert decide_sentence(parse_sln("exists x. exists y. !(x = y)"))
    assert not decide_sentence(parse_sln("forall x. forall y. x = y"))
    assert decide_sentence(parse_sln("forall x. forall y. !(x = s(y)) \\/ !(y = s(x))"))


def test_rejects_points_to_and_free_variables():
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("forall x. x |-> 0"))
    # also where constant folding never reaches the atom
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("0 = s(0) /\\ 0 |-> 0"))
    with pytest.raises(ValueError):
        decide_sentence(parse_sln("x = 0"))


def test_against_oracle():
    # Depth 4 reaches six quantifiers, four of them nested, and solves
    # equations with a negative offset, x = s^-k(w), one under a guard.
    for seed, depth, count in ((61, 3, 250), (62, 4, 100)):
        gens = Generators(seed, GenProfile(max_numeral=5))
        for _ in range(count):
            a = gens.succ_sentence(depth=depth)
            assert decide_sentence(a) == stable_brute_force(SIGMA, EMPTY, a), a


def test_long_cube_list_against_oracle():
    """Eliminating this alternation passes through a list of over a hundred
    cubes; deciding it must not recurse along that list."""
    a = parse_sln("forall x0. exists x1. forall x2. exists x3. "
                  "((x0 = s(x1) \\/ x0 = x2) /\\ (x1 = s(x2) \\/ x1 = x3) "
                  "/\\ (x0 = s(x1) \\/ x0 = x2))")
    assert decide_sentence(a) == stable_brute_force(SIGMA, EMPTY, a)
