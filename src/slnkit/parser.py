"""Recursive-descent parsers for the PA and SLN surface grammars, and the
connective grammar that the L parser in `finite` shares.

The grammars share tokens and structure; PA owns +, * and <= (atoms and
bounded quantifiers, plus the defining existential), SLN owns |-> and the
guarded quantifiers.  A -> B desugars to !A \\/ B at parse time.  The dot
after a quantifier binder may be omitted when the body is self-delimiting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    And, BExists, BForall, Eq, Exists, ExistsEq, Forall, Formula, GExists,
    GForall, Leq, Not, Or, PATerm, Plus, PointsTo, SLNTerm, Succ, Times,
    Var, Zero, imp, shift, sln_num, svar,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = ("|->", "<=", ">=", "=>", "/\\", "\\/", "(", ")", ".", "=", "+", "*", "!", ",")
_KEYWORDS = ("forall", "exists")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("num", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch in "_$":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_$#"):
                    j += 1
                word = text[i:j]
                kind = "kw" if word in _KEYWORDS else "ident"
                tokens.append(Token(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _nest(parts: list, node) -> Formula:
    """The parts joined by the binary constructor node, nested to the right."""
    out = parts.pop()
    while parts:
        out = node(parts.pop(), out)
    return out


class _Parser:
    """The grammar of `mode`, "pa" or "sln".  The L parser in `finite`
    (mode "l") replaces the node constructors, the atoms and the reserved
    names."""

    NOT, AND, OR, EXISTS, FORALL = Not, And, Or, Exists, Forall
    IMP = staticmethod(imp)
    RESERVED = ("s",)  # names that are not variables

    def __init__(self, text: str, mode: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("sym", "kw")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- terms

    def term(self):
        if self.mode == "pa":
            return self._pa_add()
        return self._sln_prim()

    def _pa_add(self) -> PATerm:
        t = self._pa_mul()
        while self.at("+"):
            self.next()
            t = Plus(t, self._pa_mul())
        return t

    def _pa_mul(self) -> PATerm:
        t = self._prim()
        while self.at("*"):
            self.next()
            t = Times(t, self._prim())
        return t

    def _prim(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            if tok.text != "0":
                raise ParseError("numerals other than 0 must be written with s(...)",
                                 tok.line, tok.col)
            return Zero() if self.mode == "pa" else sln_num(0)
        if tok.kind == "ident":
            self.next()
            if tok.text == "s":
                self.expect("(")
                inner = self.term()
                self.expect(")")
                return Succ(inner) if self.mode == "pa" else shift(inner, 1)
            return Var(tok.text) if self.mode == "pa" else svar(tok.text)
        if self.at("("):
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def _sln_prim(self) -> SLNTerm:
        t = self._prim()
        if self.at("+") or self.at("*"):
            tok = self.peek()
            raise ParseError(f"{tok.text!r} is not SLN syntax", tok.line, tok.col)
        return t

    # -- formulas
    # Each connective's chain is read in a loop in its own method, not by
    # recursion or through a shared helper: a long chain cannot exhaust the
    # stack, and a level of parentheses or quantifiers costs no extra frame.

    def formula(self) -> Formula:
        parts = [self._or()]
        while self.eat("=>"):
            parts.append(self._or())
        return _nest(parts, self.IMP)

    def _or(self) -> Formula:
        parts = [self._and()]
        while self.eat("\\/"):
            parts.append(self._and())
        return _nest(parts, self.OR)

    def _and(self) -> Formula:
        parts = [self._unary()]
        while self.eat("/\\"):
            parts.append(self._unary())
        return _nest(parts, self.AND)

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
        tok = self.next()
        kind = tok.text
        if kind == "exists" and self.at("(") and self.mode == "pa":
            self.next()
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
            self.next()
            bound = self.term()
            self.eat(".")
            body = self.formula()
            return BForall(name, bound, body) if kind == "forall" else BExists(name, bound, body)
        if self.at(">="):
            if self.mode != "sln":
                raise self.fail("guarded quantifiers are SLN-only syntax")
            self.next()
            guard_tok = self.peek()
            if guard_tok.kind != "num":
                raise self.fail("guard must be a decimal natural")
            self.next()
            guard = int(guard_tok.text)
            self.eat(".")
            body = self.formula()
            return GForall(name, guard, body) if kind == "forall" else GExists(name, guard, body)
        self.eat(".")
        body = self.formula()
        return self.FORALL(name, body) if kind == "forall" else self.EXISTS(name, body)

    def _ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in self.RESERVED:
            raise self.fail("expected a variable name")
        self.next()
        return tok.text

    def _atom_or_paren(self) -> Formula:
        start = self.pos
        term_err: ParseError
        try:
            left = self.term()
            if self.at("=") or self.at("<=") or self.at("|->"):
                return self._atom_rest(left)
            term_err = self.fail("expected '=', '<=' or '|->' after a term")
        except ParseError as err:
            term_err = err
        self.pos = start
        if self.eat("("):
            inner = self.formula()
            self.expect(")")
            return inner
        # Neither an atom nor a parenthesized formula; the term-side failure
        # is the more informative one.
        raise term_err

    def _atom_rest(self, left) -> Formula:
        if self.eat("="):
            return Eq(left, self.term())
        if self.at("<="):
            if self.mode != "pa":
                raise self.fail("<= is not SLN syntax")
            self.next()
            return Leq(left, self.term())
        if self.mode != "sln":
            raise self.fail("|-> is not PA syntax")
        self.expect("|->")
        return PointsTo(left, self.term())

    def parse(self) -> Formula:
        out = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return out


def parse_pa(text: str) -> Formula:
    """Parse a PA formula from the concrete surface syntax."""
    return _Parser(text, "pa").parse()


def parse_sln(text: str) -> Formula:
    """Parse an SLN formula from the concrete surface syntax."""
    return _Parser(text, "sln").parse()
