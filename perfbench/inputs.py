"""Seeded input generators owned by the benchmark.

Nothing here imports slnkit, so an edit to the package's own generators
cannot change what the benchmark measures.  Formulas are built as small
tuple trees and rendered to the package's concrete syntax; the program
under test receives the text.

Tuple trees:
  PA terms      ("var", name) ("num", k) ("s", t) ("+", l, r) ("*", l, r)
  PA formulas   ("<=", l, r) ("=", l, r) ("!", a) ("and", l, r) ("or", l, r)
                ("forall", v, bound, body) ("exists", v, bound, body)
  L formulas    ("P", x, y) ("=", x, y) ("!", a) ("and", l, r) ("or", l, r)
                ("exists", v, body) ("forall", v, body)
"""

from __future__ import annotations

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# Rendering


def _numeral(k: int) -> str:
    return "s(" * k + "0" + ")" * k


def render_pa_term(t) -> str:
    match t:
        case ("var", name):
            return name
        case ("num", k):
            return _numeral(k)
        case ("s", a):
            return f"s({render_pa_term(a)})"
        case ("+", l, r):
            return f"({render_pa_term(l)} + {render_pa_term(r)})"
        case ("*", l, r):
            return f"({render_pa_term(l)} * {render_pa_term(r)})"
    raise TypeError(t)


def render_pa(a) -> str:
    """Fully parenthesized PA text."""
    match a:
        case ("<=", l, r) | ("=", l, r):
            return f"{render_pa_term(l)} {a[0]} {render_pa_term(r)}"
        case ("!", b):
            return f"!({render_pa(b)})"
        case ("and", l, r):
            return f"({render_pa(l)}) /\\ ({render_pa(r)})"
        case ("or", l, r):
            return f"({render_pa(l)}) \\/ ({render_pa(r)})"
        case ("forall", v, t, b) | ("exists", v, t, b):
            return f"{a[0]} {v} <= {render_pa_term(t)}. ({render_pa(b)})"
    raise TypeError(a)


def render_l(a) -> str:
    match a:
        case ("P", x, y):
            return f"P({x},{y})"
        case ("=", x, y):
            return f"{x} = {y}"
        case ("!", b):
            return f"!({render_l(b)})"
        case ("and", l, r):
            return f"({render_l(l)}) /\\ ({render_l(r)})"
        case ("or", l, r):
            return f"({render_l(l)}) \\/ ({render_l(r)})"
        case ("forall", v, b) | ("exists", v, b):
            return f"{a[0]} {v}. ({render_l(b)})"
    raise TypeError(a)


def l_free(a) -> set[str]:
    match a:
        case ("P", x, y) | ("=", x, y):
            return {x, y}
        case ("!", b):
            return l_free(b)
        case ("and", l, r) | ("or", l, r):
            return l_free(l) | l_free(r)
        case ("forall", v, b) | ("exists", v, b):
            return l_free(b) - {v}
    raise TypeError(a)


def render_structure(universe, relation) -> str:
    lines = ["U: " + " ".join(str(p) for p in sorted(universe))]
    lines += [f"R: {n} {m}" for n, m in sorted(relation)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# search: the labelled representation cases and the search limits

SEARCH_LIMITS = {"max_assign_val": 2, "heap_samples": 1, "table_sizes": (0, 1, 2)}


def representation_cases() -> list[tuple[str, str, int | None]]:
    """(formula text, "valid" or "invalid", witness) rows of
    representation_cases.tsv."""
    cases = []
    with open(os.path.join(HERE, "representation_cases.tsv")) as src:
        for line in src:
            if line.strip() and not line.startswith("#"):
                text, label, witness = line.rstrip("\n").split("\t")
                cases.append((text, label, None if witness == "-" else int(witness)))
    return cases


# ---------------------------------------------------------------------------
# decide: closed prenex sentences of successor arithmetic


def decide_sentence_text(rng: random.Random, nvars: int, nclauses: int) -> str:
    """Alternating prefix over x0..x{nvars-1}, innermost-first elimination
    therefore meets nvars-1 alternations; the matrix is a conjunction of
    nclauses two-literal clauses x_i = s^a(x_j) or x_i = numeral."""
    names = [f"x{i}" for i in range(nvars)]

    def literal(left: str) -> str:
        if rng.random() < 0.2:
            right = _numeral(rng.randint(0, 1))
        else:
            right = rng.choice(names)
            if rng.random() < 0.5:
                right = f"s({right})"
        return f"{left} = {right}"

    clauses = []
    for _ in range(nclauses):
        left = rng.choice(names)
        clauses.append(f"({literal(left)} \\/ {literal(left)})")
    text = " /\\ ".join(clauses)
    first_forall = rng.random() < 0.5
    prefix = " ".join(
        f"{'forall' if (i % 2 == 0) == first_forall else 'exists'} {v}."
        for i, v in enumerate(names))
    return f"{prefix} ({text})"


# ---------------------------------------------------------------------------
# pipeline: bounded PA formulas with free variables, and L formulas

PA_FREE = ("x", "y")
PA_TABLE_CAP = 2  # every term value stays <= 2, so tables up to h_2


def _flat(rng: random.Random, scope: list[str]):
    if scope and rng.random() < 0.6:
        t = ("var", rng.choice(scope))
        return ("s", t) if rng.random() < 0.25 else t
    return ("num", rng.randint(0, 2))


def _pa_term(rng: random.Random, scope: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return _flat(rng, scope)
    l, r = _pa_term(rng, scope, depth - 1), _pa_term(rng, scope, depth - 1)
    if rng.random() < 0.6:
        return ("+", l, r)
    # Product operands are successors, so no product is 0: a zero product
    # is the known-defect input (d) and is probed on its own.
    return ("*", ("s", l), ("s", r))


def _pa_formula(rng: random.Random, scope: list[str], depth: int):
    if depth <= 0:
        l, r = _pa_term(rng, scope, 1), _pa_term(rng, scope, 1)
        return ("<=", l, r) if rng.random() < 0.6 else ("=", l, r)
    roll = rng.random()
    if roll < 0.15:
        return ("!", _pa_formula(rng, scope, depth - 1))
    if roll < 0.35:
        return ("and", _pa_formula(rng, scope, depth - 1), _pa_formula(rng, scope, depth - 1))
    if roll < 0.5:
        return ("or", _pa_formula(rng, scope, depth - 1), _pa_formula(rng, scope, depth - 1))
    var = f"b{len(scope)}"
    bound = _flat(rng, scope)
    body = _pa_formula(rng, scope + [var], depth - 1)
    return ("forall" if roll < 0.75 else "exists", var, bound, body)


def _term_peak(t, env) -> tuple[int, int]:
    """(value, largest value of any subterm)."""
    match t:
        case ("var", name):
            return env[name], env[name]
        case ("num", k):
            return k, k
        case ("s", a):
            v, m = _term_peak(a, env)
            return v + 1, max(m, v + 1)
        case ("+", l, r) | ("*", l, r):
            a, ma = _term_peak(l, env)
            b, mb = _term_peak(r, env)
            v = a + b if t[0] == "+" else a * b
            return v, max(ma, mb, v)
    raise TypeError(t)


def pa_peak(a, env: dict[str, int]) -> int:
    """Largest value any term takes over the full expansion of the bounded
    quantifiers: an upper bound on the table size the pipeline needs."""
    match a:
        case ("<=", l, r) | ("=", l, r):
            return max(_term_peak(l, env)[1], _term_peak(r, env)[1])
        case ("!", b):
            return pa_peak(b, env)
        case ("and", l, r) | ("or", l, r):
            return max(pa_peak(l, env), pa_peak(r, env))
        case ("forall", v, t, b) | ("exists", v, t, b):
            k, m = _term_peak(t, env)
            return max([m] + [pa_peak(b, {**env, v: i}) for i in range(k + 1)])
    raise TypeError(a)


def pa_instance(rng: random.Random) -> tuple[str, str]:
    """(formula text, assignment text) whose tables stay within the cap."""
    while True:
        a = _pa_formula(rng, list(PA_FREE), 3)
        env = {v: rng.randint(0, 2) for v in PA_FREE}
        if pa_peak(a, env) <= PA_TABLE_CAP:
            return render_pa(a), ",".join(f"{v}={env[v]}" for v in PA_FREE)


def _l_formula(rng: random.Random, scope: list[str], depth: int):
    if depth <= 0:
        x, y = rng.choice(scope), rng.choice(scope)
        return ("P", x, y) if rng.random() < 0.6 else ("=", x, y)
    roll = rng.random()
    if roll < 0.2:
        return ("!", _l_formula(rng, scope, depth - 1))
    if roll < 0.4:
        return ("and", _l_formula(rng, scope, depth - 1), _l_formula(rng, scope, depth - 1))
    if roll < 0.5:
        return ("or", _l_formula(rng, scope, depth - 1), _l_formula(rng, scope, depth - 1))
    var = f"u{len(scope)}"
    body = _l_formula(rng, scope + [var], depth - 1)
    return ("exists" if roll < 0.8 else "forall", var, body)


def fol_instance(rng: random.Random) -> tuple[str, str, list[str]]:
    """(structure text, L formula text, sorted free variables)."""
    size = rng.randint(1, 4)
    universe = rng.sample(range(7), size)
    relation = [(n, m) for n in universe for m in universe if rng.random() < 0.35]
    a = _l_formula(rng, ["x", "y"], 2)
    return render_structure(universe, relation), render_l(a), sorted(l_free(a))
