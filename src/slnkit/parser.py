"""Recursive-descent parsers for the PA and SLN surface grammars, and the
connective grammar that the L parser in `finite` shares.

The grammars share tokens and structure; PA owns +, * and <= (atoms and
bounded quantifiers, plus the defining existential), SLN owns |-> and the
guarded quantifiers.  A -> B desugars to !A \\/ B at parse time.  The dot
after a quantifier binder may be omitted when the body is self-delimiting.
"""

from __future__ import annotations

import re

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm, Succ, Times,
    Var, Zero, imp, nest, shift, sln_num, svar,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_SYMBOLS = ("|->", "<=", ">=", "=>", "/\\", "\\/", "(", ")", ".", "=", "+", "*", "!", ",")
_KEYWORDS = ("forall", "exists")
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


class _Parser:
    """The grammar of `mode`, "pa" or "sln".  The L parser in `finite`
    (mode "l") replaces the node constructors, the atoms and the reserved
    names."""

    NOT, AND, OR, EXISTS, FORALL = Not, And, Or, Exists, Forall
    IMP = staticmethod(imp)
    RESERVED = ("s",)  # names that are not variables

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

    # -- terms

    def term(self):
        if self.mode == "pa":
            return self._pa_add()
        return self._sln_prim()

    def _pa_add(self) -> PATerm:
        t = self._pa_mul()
        while self.eat("+"):
            t = Plus(t, self._pa_mul())
        return t

    def _pa_mul(self) -> PATerm:
        t = self._prim()
        while self.eat("*"):
            t = Times(t, self._prim())
        return t

    def _prim(self):
        pos = self.pos
        kind, word = self.kinds[pos], self.texts[pos]
        if kind == "num":
            self.pos += 1
            if word != "0":
                raise self.fail("numerals other than 0 must be written with s(...)", pos)
            return Zero() if self.mode == "pa" else sln_num(0)
        if kind == "ident":
            self.pos += 1
            if word == "s":
                self.expect("(")
                inner = self.term()
                self.expect(")")
                return Succ(inner) if self.mode == "pa" else shift(inner, 1)
            return Var(word) if self.mode == "pa" else svar(word)
        if self.eat("("):
            inner = self.term()
            self.expect(")")
            return inner
        raise self.fail(f"expected a term, found {word or 'end of input'!r}")

    def _sln_prim(self) -> SLNTerm:
        t = self._prim()
        word = self.texts[self.pos]
        if word == "+" or word == "*":
            raise self.fail(f"{word!r} is not SLN syntax")
        return t

    # -- formulas
    # Each connective's chain is read in a loop in its own method, not by
    # recursion or through a shared helper: a long chain cannot exhaust the
    # stack, and a level of parentheses or quantifiers costs no extra frame.

    def formula(self) -> Formula:
        parts = [self._or()]
        while self.eat("=>"):
            parts.append(self._or())
        return nest(parts, self.IMP)

    def _or(self) -> Formula:
        parts = [self._and()]
        while self.eat("\\/"):
            parts.append(self._and())
        return nest(parts, self.OR)

    def _and(self) -> Formula:
        parts = [self._unary()]
        while self.eat("/\\"):
            parts.append(self._unary())
        return nest(parts, self.AND)

    def _unary(self) -> Formula:
        # a loop, not a recursion, so a long run of ! cannot exhaust the stack
        negations = 0
        while self.eat("!"):
            negations += 1
        if self.at("forall") or self.at("exists"):
            out = self._quantified()
        else:
            out = self._atom_or_paren()
        for _ in range(negations):
            out = self.NOT(out)
        return out

    def _quantified(self) -> Formula:
        kind = self.texts[self.pos]
        self.pos += 1
        if kind == "exists" and self.at("(") and self.mode == "pa":
            self.pos += 1
            name = self._ident()
            self.expect("=")
            defn = self.term()
            self.expect(")")
            body = self.formula()
            return ExistsEq(name, defn, body)
        name = self._ident()
        if self.at("<="):
            if self.mode != "pa":
                raise self.fail("bounded quantifiers are PA-only syntax")
            self.pos += 1
            bound = self.term()
            self.eat(".")
            body = self.formula()
            return BForall(name, bound, body) if kind == "forall" else BExists(name, bound, body)
        if self.at(">="):
            if self.mode != "sln":
                raise self.fail("guarded quantifiers are SLN-only syntax")
            self.pos += 1
            digits = self.texts[self.pos]
            if self.kinds[self.pos] != "num" or not digits.isdecimal():
                raise self.fail("guard must be a decimal natural")
            self.pos += 1
            guard = int(digits)
            self.eat(".")
            body = self.formula()
            return GForall(name, guard, body) if kind == "forall" else GExists(name, guard, body)
        self.eat(".")
        body = self.formula()
        return self.FORALL(name, body) if kind == "forall" else self.EXISTS(name, body)

    def _ident(self) -> str:
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or word in self.RESERVED:
            raise self.fail("expected a variable name")
        self.pos += 1
        return word

    def _atom_or_paren(self) -> Formula:
        """An atom, or a formula in parentheses.  A "(" opens a term only if
        its parenthesis holds nothing but term tokens and the token after
        it continues a term or makes it an atom; otherwise it opens a
        formula, and no term is tried."""
        start = self.pos
        if not self.at("("):
            return self._atom()
        close = self.groups.get(start)
        if close is None or self.texts[close + 1] not in _TERM_FOLLOW:
            self.pos += 1
            inner = self.formula()
            self.expect(")")
            return inner
        try:
            return self._atom()
        except ParseError as err:
            term_err = err
        # A formula in this parenthesis fails as well, as no atom fits in a
        # group of term tokens: through the leading parentheses, the first
        # atom inside fails, and its error is reported.
        self.pos = start
        while self.eat("("):
            pass
        self._atom()
        raise term_err

    def _atom(self) -> Formula:
        left = self.term()
        if self.at("=") or self.at("<=") or self.at("|->"):
            return self._atom_rest(left)
        raise self.fail("expected '=', '<=' or '|->' after a term")

    def _atom_rest(self, left) -> Formula:
        if self.eat("="):
            return Eq(left, self.term())
        if self.at("<="):
            if self.mode != "pa":
                raise self.fail("<= is not SLN syntax")
            self.pos += 1
            return Leq(left, self.term())
        if self.mode != "sln":
            raise self.fail("|-> is not PA syntax")
        self.expect("|->")
        return PointsTo(left, self.term())

    def parse(self) -> Formula:
        out = self.formula()
        if self.kinds[self.pos] != "eof":
            raise self.fail(f"unexpected trailing input {self.texts[self.pos]!r}")
        return out


def parse_pa(text: str) -> Formula:
    """Parse a PA formula from the concrete surface syntax."""
    return _Parser(text, "pa").parse()


def parse_sln(text: str) -> Formula:
    """Parse an SLN formula from the concrete surface syntax."""
    return _Parser(text, "sln").parse()
