import itertools

import pytest

from slnkit.ast import alpha_eq, free_vars
from slnkit.gen import Generators
from slnkit.normalize import box_translate, normalize_bounded
from slnkit.parser import parse_pa
from slnkit.render import render
from slnkit.semantics import VarAssignment, eval_bounded
from slnkit.transform import is_normal, to_prenex


def all_sigmas(names, top):
    for values in itertools.product(range(top + 1), repeat=len(names)):
        yield VarAssignment(dict(zip(sorted(names), values)))


WORKED_INPUT = "forall y <= x + (x + s(x)). 0 <= x + (y * (x + y))"
WORKED_NORMAL = ("exists (x1 = x + s(x)) exists (x2 = x + x1) forall y <= x2. "
                 "exists (x3 = x + y) exists (x4 = y * x3) exists (x5 = x + x4) "
                 "0 <= x5")


def test_worked_example():
    out = normalize_bounded(parse_pa(WORKED_INPUT))
    assert alpha_eq(out, parse_pa(WORKED_NORMAL))


@pytest.mark.parametrize("text, normal", [
    (WORKED_INPUT,
     "exists (x#1 = x + s(x)) exists (x#2 = x + x#1) forall y <= x#2. "
     "exists (x#3 = x + y) exists (x#4 = y * x#3) exists (x#5 = x + x#4) "
     "0 <= x#5"),
    ("forall y <= s(x + x). exists z <= y * y. (x + y = z \\/ x + y <= z)",
     "exists (x#1 = x + x) forall y <= s(x#1). exists (x#2 = y * y) "
     "exists z <= x#2. exists (x#3 = x + y) exists (x#4 = x + y) "
     "x#3 = z \\/ x#4 <= z"),
    ("!(x + x = x + x)",
     "exists (x#1 = x + x) exists (x#2 = x + x) !(x#1 = x#2)"),
])
def test_fresh_names_are_numbered_in_post_order(text, normal):
    # bounds before the matrix, each left to right; equal subterms are
    # not shared
    assert render(normalize_bounded(parse_pa(text))) == normal


def test_no_arith_input_is_prenex_dnf():
    a = parse_pa("!(exists y <= x. !(y <= x))")
    out = normalize_bounded(a)
    assert is_normal(out)
    assert alpha_eq(out, to_prenex(parse_pa("forall y <= x. y <= x")))


def test_negated_addition_equation():
    out = normalize_bounded(parse_pa("!(x + 0 = x)"))
    assert alpha_eq(out, parse_pa("exists (z = x + 0) !(z = x)"))


def test_rejects_unbounded_and_defining_input():
    with pytest.raises(ValueError):
        normalize_bounded(parse_pa("forall x. x <= y"))
    with pytest.raises(ValueError):
        normalize_bounded(parse_pa("exists (z = x + 0) z = x"))


def test_generated_normalization_property():
    gens = Generators(31)
    for _ in range(200):
        a = gens.pa_bounded(depth=3)
        out = normalize_bounded(a)
        assert is_normal(out)
        names = free_vars(a)
        assert free_vars(out) == names
        for sigma in all_sigmas(names, 3):
            assert eval_bounded(sigma, a) == eval_bounded(sigma, out)


def test_normalized_output_round_trips_through_syntax():
    from slnkit.parser import parse_pa as reparse
    from slnkit.render import render

    gens = Generators(32)
    for _ in range(50):
        out = normalize_bounded(gens.pa_bounded(depth=3))
        assert reparse(render(out)) == out


def test_box_translate():
    a = parse_pa("forall x. " + WORKED_INPUT)
    out = box_translate(a)
    assert alpha_eq(out, parse_pa("forall x. " + WORKED_NORMAL))
    simple = parse_pa("forall x. x <= x")
    assert alpha_eq(box_translate(simple), simple)
    with pytest.raises(ValueError):
        box_translate(parse_pa("exists x. x = 0"))
