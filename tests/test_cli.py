import json

import pytest

from slnkit.cli import build_parser, main
from slnkit.heap import DEFAULT_CELL_BUDGET, save_heap, simple_table_heap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pa_round_trip(capsys):
    code, out, _ = run(capsys, "parse-pa", "forall x. x <= x + s(0)")
    assert code == 0
    assert out.strip() == "forall x. x <= x + s(0)"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse-pa", "forall x. x <=")
    assert code == 2
    assert "error:" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "!(x + 0 = x)")
    assert code == 0
    assert out.strip() == "exists (x#1 = x + 0) !(x#1 = x)"


def test_translate_box_circle(capsys):
    code, out, _ = run(capsys, "translate", "--box-circle",
                       "forall x. forall y <= x. y <= x")
    assert code == 0
    assert out.startswith("forall x.")


def test_translate_triangle(capsys):
    code, out, _ = run(capsys, "translate", "--triangle", "exists x. P(x,x)")
    assert code == 0
    assert "|->" in out


def test_check_table_heap_condition_via_cli(tmp_path, capsys):
    """The rendered table-heap condition round-trips through the CLI and
    holds on an emitted table file."""
    from slnkit.render import render
    from slnkit.translate import table_heap_condition

    heap_file = tmp_path / "table1.heap"
    heap_file.write_text(save_heap(simple_table_heap(1)) + "\n")
    code, out, _ = run(capsys, "check", "--heap", str(heap_file),
                       "--sigma", "x=0", render(table_heap_condition()))
    assert code == 0 and out.strip() == "true"


def test_check_true_false_exit_codes(tmp_path, capsys):
    heap_file = tmp_path / "table1.heap"
    heap_file.write_text(save_heap(simple_table_heap(1)) + "\n")
    code, out, _ = run(capsys, "check", "--heap", str(heap_file),
                       "--sigma", "x=0", "exists a (a |-> 0)")
    assert code == 0 and out.strip() == "true"

    empty = tmp_path / "empty.heap"
    empty.write_text("")
    code, out, _ = run(capsys, "check", "--heap", str(empty), "0 |-> 0")
    assert code == 1 and out.strip() == "false"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json", "0 = 0")
    assert code == 0
    assert json.loads(out) == {"verdict": True}


def test_decide_succ(capsys):
    code, out, _ = run(capsys, "decide-succ", "forall x. !(x = s(x))")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "decide-succ", "exists x. s(x) = 0")
    assert code == 1 and out.strip() == "false"


def test_heap_table(tmp_path, capsys):
    out_file = tmp_path / "t0.heap"
    code, _, _ = run(capsys, "heap", "table", "--n", "0", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().strip() == save_heap(simple_table_heap(0))


def test_heap_table_budget_defaults_to_the_library_budget():
    args = build_parser().parse_args(["heap", "table", "--n", "1"])
    assert args.budget == DEFAULT_CELL_BUDGET


def test_heap_encode_structure(tmp_path, capsys):
    struct = tmp_path / "m.structure"
    struct.write_text("U: 0 1\nR: 0 1\n")
    code, out, _ = run(capsys, "heap", "encode-structure", str(struct))
    assert code == 0
    assert out.splitlines()[0] == "0 0"


def test_search_exit_codes(capsys):
    code, out, _ = run(capsys, "search", "0 = 0", "--heaps", "3", "--tables", "0")
    assert code == 0 and "no counterexample" in out
    code, out, _ = run(capsys, "search", "exists a (a |-> 0)",
                       "--heaps", "3", "--tables", "0")
    assert code == 1 and "counterexample found" in out


@pytest.mark.parametrize("argv", [
    ("search", "x |-> 0", "--max-assign", "-1"),
    ("search", "x |-> 0", "--heaps", "-1"),
    ("verify", "fol", "--samples", "-3"),
])
def test_negative_limits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must not be negative" in err


def test_formula_from_file(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text("forall x. x <= x")
    code, out, _ = run(capsys, "parse-pa", f"@{f}")
    assert code == 0 and out.strip() == "forall x. x <= x"


def test_verify_subcommand_small(capsys):
    code, out, _ = run(capsys, "verify", "fol", "--seed", "4", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["lemma"] == "fol"
    assert report["agreements"] == report["instances"] == 10
    assert report["seed"] == 4


@pytest.mark.parametrize("lemma", ["pa2hn", "hn2forallh", "sigma01", "fol", "representation"])
def test_verify_every_suite(capsys, lemma):
    code, out, _ = run(capsys, "verify", lemma, "--samples", "5")
    assert code == 0
    report = json.loads(out)
    assert report["lemma"] == lemma
    assert list(report) == ["lemma", "instances", "agreements", "failures", "seed", "runtime"]


def test_deep_nesting_exits_2(capsys):
    """The parser reads parentheses on an explicit stack, so 600 of them
    parse and print back.  The checker still recurses once per nested
    quantifier, so 3000 of them exhaust the recursion limit: a typed exit,
    not a traceback."""
    code, out, _ = run(capsys, "parse-sln", "(" * 600 + "0 = 0" + ")" * 600)
    assert code == 0 and out.strip() == "0 = 0"
    code, out, err = run(capsys, "check", "exists x. " * 3000 + "x = x")
    assert code == 2 and out == ""
    assert err.startswith("error: recursion limit exceeded")


def test_deep_sum_prints_back(capsys):
    """parse-pa reads a 3000-deep sum on the parser's stack and prints it
    back on render's."""
    text = "x <= " + "x + (" * 3000 + "x + y" + ")" * 3000
    code, out, _ = run(capsys, "parse-pa", text)
    assert code == 0 and out.strip() == text


def test_normalize_deep_sum(capsys):
    """normalize_bounded flattens a 3000-deep sum on an explicit stack: one
    defining existential per +, innermost first."""
    code, out, _ = run(capsys, "normalize", "x <= " + "x + (" * 3000 + "x + y" + ")" * 3000)
    assert code == 0
    assert out.startswith("exists (x#1 = x + y) exists (x#2 = x + x#1) ")
    assert out.strip().endswith("exists (x#3001 = x + x#3000) x <= x#3001")


def test_deep_negation_chain_prints_back(capsys):
    """A run of `!` parses in a loop and prints back without recursing."""
    code, out, _ = run(capsys, "parse-sln", "!" * 3000 + "(0 = 0)")
    assert code == 0
    assert out.strip() == "!(" * 3000 + "0 = 0" + ")" * 3000


def test_deep_negation_chain_json(capsys):
    """--json prints the node's repr, which walks the chain without
    recursing."""
    code, out, _ = run(capsys, "parse-sln", "--json", "!" * 3000 + "0 = 0")
    assert code == 0
    atom = "Eq(left=SLNTerm(base=None, offset=0), right=SLNTerm(base=None, offset=0))"
    assert json.loads(out)["ast"] == "Not(body=" * 3000 + atom + ")" * 3000


def test_normalize_deep_negation_chain(capsys):
    """normalize prenexes and puts the matrix in DNF on explicit stacks, so
    3000 `!` cancel out instead of exhausting the recursion limit."""
    code, out, _ = run(capsys, "normalize", "!" * 3000 + "x <= y")
    assert code == 0 and out.strip() == "x <= y"


def test_translate_triangle_deep_negation_chain(capsys):
    """The triangle translation rebuilds on an explicit stack."""
    code, out, _ = run(capsys, "translate", "--triangle", "!" * 3000 + "x = y")
    assert code == 0
    assert out.startswith("!(" * 3000 + "x = y /\\ exists $a.")


def test_decider_deep_alternation_exits_1(capsys):
    """An alternation whose elimination passes through a long list of cubes
    is decided, not an error: the sentence is false."""
    sentence = ("forall x0. exists x1. forall x2. exists x3. "
                "((x0 = s(x1) \\/ x0 = x2) /\\ (x1 = s(x2) \\/ x1 = x3) "
                "/\\ (x0 = s(x1) \\/ x0 = x2))")
    code, out, _ = run(capsys, "decide-succ", sentence)
    assert code == 1 and out.strip() == "false"
