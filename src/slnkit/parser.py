"""Parsers for the PA and SLN surface grammars, and the connective grammar
that the L parser in `finite` shares.

The grammars share tokens and structure; PA owns +, * and <= (atoms and
bounded quantifiers, plus the defining existential), SLN owns |-> and the
guarded quantifiers.  A -> B desugars to !A \\/ B at parse time.  The dot
after a quantifier binder may be omitted when the body is self-delimiting.

Terms and formulas are each read in one operator-precedence loop on an
explicit stack, so no level of parentheses, quantifiers or s( costs a
frame.
"""

from __future__ import annotations

import re
from functools import partial

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, Plus, PointsTo, Succ, Times, Var, Zero, imp, shift,
    sln_num, svar,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_SYMBOLS = ("|->", "<=", ">=", "=>", "/\\", "\\/", "(", ")", ".", "=", "+", "*", "!", ",")
_KEYWORDS = ("forall", "exists")
RESERVED = ("s", *_KEYWORDS)  # names that are not variables; render rejects them
_TERM_SYMBOLS = ("(", ")", "+", "*")  # the symbols a term can hold
_TERM_FOLLOW = ("=", "<=", "|->", "+", "*")  # those that continue a term or make it an atom
# After skipping whitespace: a symbol, the longest first; a run of word
# characters (letters, digits, _, $ and #); any other character.  Only
# trailing whitespace matches nothing, so no character is skipped.
_TOKEN = re.compile(r"[ \t\r\n]*(?:(%s)|([\w$#]+)|([^ \t\r\n]))"
                    % "|".join(map(re.escape, _SYMBOLS)))


def _line_col(text: str, start: int) -> tuple[int, int]:
    """The line and column of offset start, both from 1; every character
    but a newline is one column."""
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _tokenize(text: str) -> tuple[list[str], list[str], list[int], dict[int, int]]:
    """The kinds, texts and start offsets of the tokens of text, ending in
    an "eof" token, and its term groups: each "(" whose parenthesis holds
    only tokens a term can hold, mapped to the index of its matching ")".

    A kind is "sym", "kw", "num", "ident" or "eof".  A run of word
    characters splits into a numeral, its leading digits, and a name, which
    must start with a letter, _ or $."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    groups: dict[int, int] = {}
    opens: list[int] = []  # the indices of the "(" not yet matched
    last_formula = -1  # the index of the last token no term can hold
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        word, start = m[group], m.start(group)
        if group == 1:
            if word == "(":
                opens.append(len(texts))
            elif word == ")":
                if opens:
                    p = opens.pop()
                    if last_formula < p:
                        groups[p] = len(texts)
            elif word not in _TERM_SYMBOLS:
                last_formula = len(texts)
            kinds.append("sym")
        else:  # a word run, or a character that starts no token
            digits = 0
            while digits < len(word) and word[digits].isdigit():
                digits += 1
            if digits:
                kinds.append("num")
                texts.append(word[:digits])
                starts.append(start)
                word, start = word[digits:], start + digits
                if not word:
                    continue
            if not (word[0].isalpha() or word[0] in "_$"):
                raise ParseError(f"unexpected character {word[0]!r}", *_line_col(text, start))
            if word in _KEYWORDS:
                last_formula = len(texts)
                kinds.append("kw")
            else:
                kinds.append("ident")
        texts.append(word)
        starts.append(start)
    kinds.append("eof")
    texts.append("")
    starts.append(len(text))
    return kinds, texts, starts, groups


# The precedence of each operator: a higher one binds tighter.  The
# connectives nest to the right, + and * to the left.  A quantifier head
# binds loosest, so its body reaches as far right as it can; "(" and "s("
# are markers, which only their ")" takes off the stack.  `render` reads
# the table too, to parenthesize what it prints.
PRECEDENCE = {"=>": 1, "\\/": 2, "/\\": 3, "!": 4, "+": 1, "*": 2}
_HEAD, _MARKER = 0, -1


def _reduce(stack: list, out, floor: int):
    """out under the operators on top of stack whose precedence is above
    floor, the innermost applied first.  An entry is (precedence, node,
    the operands to the left of out)."""
    while stack and stack[-1][0] > floor:
        _, node, left = stack.pop()
        out = node(*left, out)
    return out


class _Parser:
    """The grammar of `mode`, "pa" or "sln".  The L parser in `finite`
    (mode "l") keeps ! and exists, and replaces the universal quantifier,
    the binary connectives, the atoms and the reserved names."""

    FORALL = Forall
    JOINS = {"=>": imp, "\\/": Or, "/\\": And}  # the node of each connective
    RESERVED = RESERVED

    def __init__(self, text: str, mode: str) -> None:
        self.source = text
        self.kinds, self.texts, self.starts, self.groups = _tokenize(text)
        self.pos = 0
        self.mode = mode

    # -- token plumbing.  A symbol or keyword is known by its text alone: no
    # name or numeral has the text of one.

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.eat(text):
            raise self.fail(f"expected {text!r}, found {self.texts[self.pos] or 'end of input'!r}")

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        """The error at the token at pos, by default the next one."""
        start = self.starts[self.pos if pos is None else pos]
        return ParseError(message, *_line_col(self.source, start))

    def _ident(self) -> str:
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or word in self.RESERVED:
            raise self.fail("expected a variable name")
        self.pos += 1
        return word

    # -- terms

    def term(self):
        """A term: each operand in turn, with the operators and open groups
        before it on a stack."""
        pa = self.mode == "pa"
        stack: list = []
        while True:
            pos = self.pos
            kind, word = self.kinds[pos], self.texts[pos]
            self.pos += 1
            if word == "(":
                stack.append((_MARKER, None, ()))
                continue
            if kind == "ident" and word == "s":
                self.expect("(")
                stack.append((_MARKER, Succ if pa else partial(shift, k=1), ()))
                continue
            if kind == "num":
                if word != "0":
                    raise self.fail("numerals other than 0 must be written with s(...)", pos)
                out = Zero() if pa else sln_num(0)
            elif kind == "ident":
                out = Var(word) if pa else svar(word)
            else:
                raise self.fail(f"expected a term, found {word or 'end of input'!r}", pos)
            while True:  # after an operand: an operator, or the end of a group
                word = self.texts[self.pos]
                if word == "+" or word == "*":
                    if not pa:
                        raise self.fail(f"{word!r} is not SLN syntax")
                    self.pos += 1
                    prec = PRECEDENCE[word]
                    out = _reduce(stack, out, prec - 1)  # an equal one too: nest to the left
                    stack.append((prec, Plus if word == "+" else Times, (out,)))
                    break
                out = _reduce(stack, out, _MARKER)
                if not stack:
                    return out
                self.expect(")")
                _, node, _ = stack.pop()
                if node:
                    out = node(out)

    # -- formulas

    def _head(self):
        """Read a quantifier head; return the node constructor that takes
        its body."""
        kind = self.texts[self.pos]
        self.pos += 1
        if kind == "exists" and self.at("(") and self.mode == "pa":
            self.pos += 1
            name = self._ident()
            self.expect("=")
            defn = self.term()
            self.expect(")")
            return partial(ExistsEq, name, defn)
        name = self._ident()
        if self.at("<="):
            if self.mode != "pa":
                raise self.fail("bounded quantifiers are PA-only syntax")
            self.pos += 1
            node = partial(BForall if kind == "forall" else BExists, name, self.term())
        elif self.at(">="):
            if self.mode != "sln":
                raise self.fail("guarded quantifiers are SLN-only syntax")
            self.pos += 1
            digits = self.texts[self.pos]
            if self.kinds[self.pos] != "num" or not digits.isdecimal():
                raise self.fail("guard must be a decimal natural")
            self.pos += 1
            node = partial(GForall if kind == "forall" else GExists, name, int(digits))
        else:
            node = partial(self.FORALL if kind == "forall" else Exists, name)
        self.eat(".")
        return node

    def _atom(self) -> Formula:
        left = self.term()
        if self.eat("="):
            return Eq(left, self.term())
        if self.at("<="):
            if self.mode != "pa":
                raise self.fail("<= is not SLN syntax")
            self.pos += 1
            return Leq(left, self.term())
        if self.at("|->"):
            if self.mode != "sln":
                raise self.fail("|-> is not PA syntax")
            self.pos += 1
            return PointsTo(left, self.term())
        raise self.fail("expected '=', '<=' or '|->' after a term")

    def parse(self) -> Formula:
        """The formula that is the whole text: each atom in turn, with the
        negations, quantifier heads, connectives and open parentheses
        before it on a stack."""
        stack: list = []
        while True:
            start = self.pos
            word = self.texts[start]
            if word == "!":
                self.pos += 1
                stack.append((PRECEDENCE["!"], Not, ()))
                continue
            if word == "forall" or word == "exists":
                stack.append((_HEAD, self._head(), ()))
                continue
            if word == "(":
                # A "(" opens a term only if its parenthesis holds nothing
                # but term tokens and the token after it continues a term or
                # makes it an atom; otherwise it opens a formula.
                close = self.groups.get(start)
                if close is None or self.texts[close + 1] not in _TERM_FOLLOW:
                    self.pos += 1
                    stack.append((_MARKER, None, ()))
                    continue
            try:
                out = self._atom()
            except ParseError as err:
                if word != "(":
                    raise
                # A formula in this parenthesis fails as well, as no atom
                # fits in a group of term tokens: through the leading
                # parentheses, the first atom inside fails, and its error is
                # reported.
                self.pos = start
                while self.eat("("):
                    pass
                self._atom()
                raise err
            while True:  # after an operand: a connective, or the end of a group
                word = self.texts[self.pos]
                node = self.JOINS.get(word)
                if node:
                    self.pos += 1
                    prec = PRECEDENCE[word]
                    stack.append((prec, node, (_reduce(stack, out, prec),)))
                    break
                out = _reduce(stack, out, _MARKER)
                if not stack:
                    if self.kinds[self.pos] != "eof":
                        raise self.fail(f"unexpected trailing input {word!r}")
                    return out
                self.expect(")")
                stack.pop()


def parse_pa(text: str) -> Formula:
    """Parse a PA formula from the concrete surface syntax."""
    return _Parser(text, "pa").parse()


def parse_sln(text: str) -> Formula:
    """Parse an SLN formula from the concrete surface syntax."""
    return _Parser(text, "sln").parse()
