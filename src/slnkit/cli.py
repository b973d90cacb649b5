"""Command-line entry point.

Every subcommand is a thin adapter over the library: parse the arguments,
call one function, format the result.  Formulas are taken inline or from a
file via @path.  Exit codes: 0 success or true, 1 false or counterexample
found, 2 usage or input error, or an input that exhausts the recursion
depth, memory or the decider's cube budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checker import check
from .finite import (
    encode_structure, parse_l, parse_structure, triangle_translate,
)
from .heap import DEFAULT_CELL_BUDGET, Heap, load_heap, save_heap, simple_table_heap
from .normalize import box_translate, normalize_bounded
from .parser import ParseError, parse_pa, parse_sln
from .render import render
from .semantics import parse_assignment, render_assignment
from .succ import BudgetExceeded, decide_sentence
from .translate import circle_translate
from .verify import SUITES, SearchLimits, bounded_counterexample_search, run_suite


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        return Path(text[1:]).read_text()
    return text


def _emit(payload: dict, as_json: bool, text: str | None = None) -> None:
    print(json.dumps(payload, indent=2, default=str) if as_json or text is None else text)


def _cmd_parse(args: argparse.Namespace) -> int:
    parser = parse_pa if args.logic == "pa" else parse_sln
    formula = parser(_read_arg(args.formula))
    text = render(formula)
    if args.json:
        _emit({"formula": text, "ast": repr(formula)}, True)
    else:
        print(text)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    out = normalize_bounded(parse_pa(_read_arg(args.formula)))
    _emit({"formula": render(out)}, args.json, render(out))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    text = _read_arg(args.formula)
    if args.triangle:
        out = render(triangle_translate(parse_l(text)))
    elif args.box_circle:
        out = render(circle_translate(box_translate(parse_pa(text))))
    else:
        out = render(circle_translate(parse_pa(text)))
    _emit({"formula": out}, args.json, out)
    return 0


def _cmd_heap_table(args: argparse.Namespace) -> int:
    h = simple_table_heap(args.n, max_cells=args.budget)
    text = save_heap(h)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {len(h)} cells to {args.output}")
    else:
        print(text)
    return 0


def _cmd_heap_encode(args: argparse.Namespace) -> int:
    m = parse_structure(Path(args.file).read_text())
    text = save_heap(encode_structure(m))
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    sigma = parse_assignment(args.sigma or "")
    heap = load_heap(Path(args.heap).read_text()) if args.heap else Heap()
    formula = parse_sln(_read_arg(args.formula))
    verdict = check(sigma, heap, formula)
    _emit({"verdict": verdict}, args.json, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_decide_succ(args: argparse.Namespace) -> int:
    verdict = decide_sentence(parse_sln(_read_arg(args.formula)))
    _emit({"verdict": verdict}, args.json, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_search(args: argparse.Namespace) -> int:
    formula = parse_sln(_read_arg(args.formula))
    limits = SearchLimits(
        max_assign_val=args.max_assign,
        heap_samples=args.heaps,
        table_sizes=tuple(int(n) for n in args.tables.split(",") if n != ""),
        seed=args.seed,
    )
    found = bounded_counterexample_search(formula, limits)
    if found is None:
        _emit({"counterexample": None, "seed": args.seed}, args.json,
              f"no counterexample within limits (seed {args.seed})")
        return 0
    sigma, heap = render_assignment(found.assignment), save_heap(found.heap)
    _emit({"counterexample": {"sigma": sigma, "heap": heap}, "seed": args.seed}, args.json,
          f"counterexample found (seed {args.seed}):\n"
          f"  sigma: {sigma or '(all zero)'}\n"
          f"  heap:\n" + "\n".join("    " + l for l in (heap.splitlines() or ["(empty)"])))
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.lemma, args.seed, args.samples)
    _emit(report, True)
    return 0 if not report["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="slnkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-pa", help="parse a PA formula and print it back")
    p.add_argument("formula", help="formula text, or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parse, logic="pa")

    p = sub.add_parser("parse-sln", help="parse an SLN formula and print it back")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parse, logic="sln")

    p = sub.add_parser("normalize", help="normal form of a bounded PA formula")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("translate", help="translate into SLN")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--circle", action="store_true",
                       help="input is a normal PA formula (default)")
    group.add_argument("--box-circle", dest="box_circle", action="store_true",
                       help="input is a closed universal PA formula")
    group.add_argument("--triangle", action="store_true",
                       help="input is a one-binary-predicate formula")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("heap", help="heap constructions")
    heap_sub = p.add_subparsers(dest="heap_command", required=True)
    t = heap_sub.add_parser("table", help="emit the simple table heap")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET)
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_heap_table)
    e = heap_sub.add_parser("encode-structure", help="encode a finite structure file")
    e.add_argument("file")
    e.add_argument("-o", "--output")
    e.set_defaults(func=_cmd_heap_encode)

    p = sub.add_parser("check", help="model-check sigma, heap |= formula")
    p.add_argument("formula")
    p.add_argument("--heap", help="heap file (omit for the empty heap)")
    p.add_argument("--sigma", help='assignment like "x=1,y=0"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decide-succ", help="decide a closed successor-arithmetic sentence")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decide_succ)

    p = sub.add_parser("search", help="bounded counterexample search for an SLN formula")
    p.add_argument("formula")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-assign", type=int, default=4)
    p.add_argument("--heaps", type=int, default=100)
    p.add_argument("--tables", default="0,1,2,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run a lemma verification suite")
    p.add_argument("lemma", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, BudgetExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: recursion limit exceeded: input too deeply nested or too large",
              file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
