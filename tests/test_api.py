"""The public surface: `slnkit.__all__` and the submodule names that the
command line and the benchmark scripts import or trace by name."""

import importlib

import pytest

import slnkit

PUBLIC = [
    "And", "BExists", "BForall", "Eq", "Exists", "ExistsEq", "FiniteStructure",
    "Forall", "Formula", "GExists", "GForall", "Heap", "Leq", "Not", "Or",
    "PATerm", "ParseError", "Plus", "PointsTo", "SLNTerm", "Succ", "Term",
    "Times", "TruthConst", "Var", "VarAssignment", "Zero", "add_formula",
    "address_free_rewrite", "alpha_eq", "box_translate", "check",
    "circle_translate", "decide_sentence", "decode_heap", "encode_structure",
    "eval_bounded", "eval_fol", "eval_term", "expand_guards",
    "finite_validity_premise", "free_vars", "ground_points_to_eval", "imp",
    "ineq_formula", "is_bounded", "is_normal", "is_pi01", "load_heap",
    "max_bound", "mult_formula", "normalize_bounded", "pa_num",
    "parse_assignment", "parse_pa", "parse_sln", "render", "render_term",
    "save_heap", "shift", "simple_table_heap", "sln_num", "substitute", "svar",
    "table_heap_condition", "to_dnf", "to_prenex", "triangle_translate",
    "unfold_bounded", "value_free_rewrite",
]


def test_all_is_pinned():
    assert sorted(slnkit.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(slnkit, name), name


@pytest.mark.parametrize("module, name", [
    ("finite", "parse_l"),
    ("finite", "parse_structure"),
    ("verify", "SearchLimits"),
    ("verify", "bounded_counterexample_search"),
    ("verify", "verify_representation"),
    ("verify", "verify_pa2hn"),
])
def test_submodule_names(module, name):
    assert callable(getattr(importlib.import_module(f"slnkit.{module}"), name))
