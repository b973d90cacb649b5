"""slnkit: arithmetic-in-heap toolkit.

Normal forms for bounded PA formulas, their translation into the minimal
separation-logic fragment with 0 and successor, explicit operation-table
heaps, a terminating model checker, the finite-structure reduction, and
desk-scale verification harnesses for the underlying lemmas.
"""

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm, Succ, Term,
    Times, TruthConst, Var, Zero, alpha_eq, free_vars, imp, pa_num, shift,
    sln_num, svar,
)
from .parser import ParseError, parse_pa, parse_sln
from .render import render, render_term
from .transform import (
    expand_guards, is_bounded, is_normal, is_pi01, substitute, to_dnf,
    to_prenex, unfold_bounded,
)
from .semantics import (
    VarAssignment, eval_bounded, eval_term, max_bound, parse_assignment,
)
from .normalize import box_translate, normalize_bounded
from .translate import (
    add_formula, circle_translate, ineq_formula, mult_formula,
    table_heap_condition,
)
from .heap import Heap, load_heap, save_heap, simple_table_heap
from .checker import (
    address_free_rewrite, check, ground_points_to_eval, value_free_rewrite,
)
from .succ import decide_sentence
from .finite import (
    FiniteStructure, decode_heap, encode_structure, eval_fol,
    finite_validity_premise, triangle_translate,
)

__version__ = "0.1.0"

__all__ = [
    "And", "BExists", "BForall", "Eq", "Exists", "ExistsEq", "Forall",
    "Formula", "GExists", "GForall", "Leq", "Not", "Or", "PATerm", "Plus",
    "PointsTo", "SLNTerm", "Succ", "Term", "Times", "TruthConst", "Var",
    "Zero", "alpha_eq", "free_vars", "imp", "pa_num", "shift", "sln_num",
    "svar",
    "ParseError", "parse_pa", "parse_sln", "render", "render_term",
    "expand_guards", "is_bounded", "is_normal", "is_pi01", "substitute",
    "to_dnf", "to_prenex", "unfold_bounded",
    "VarAssignment", "eval_bounded", "eval_term", "max_bound",
    "parse_assignment",
    "box_translate", "normalize_bounded",
    "add_formula", "circle_translate", "ineq_formula", "mult_formula",
    "table_heap_condition",
    "Heap", "load_heap", "save_heap", "simple_table_heap",
    "address_free_rewrite", "check", "ground_points_to_eval",
    "value_free_rewrite",
    "decide_sentence",
    "FiniteStructure", "decode_heap", "encode_structure", "eval_fol",
    "finite_validity_premise", "triangle_translate",
]
