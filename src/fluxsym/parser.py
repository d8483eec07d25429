"""Expression parser for the documented infix grammar.

    expression := term (("+" | "-") term)*
    term       := unary (("*" | "/") unary)*
    unary      := ("+" | "-")* power
    power      := atom ("^" unary)?            # right associative
    atom       := NUMBER | NAME | NAME "(" expression ("," expression)* ")"
                | "(" expression ")"
    NUMBER     := [0-9]+ ("." [0-9]*)? | "." [0-9]+   # exact rational
    NAME       := [A-Za-z_][A-Za-z0-9_]* "'"*   # jet symbols D_r, primes G'

Whitespace separates tokens; any other character is unexpected.  There is
no implicit multiplication.  Every NAME must already be declared in the
symbol table.  Errors carry the byte offset.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .kernel import (
    Add, ArityError, Call, Expr, Mul, MINUS_ONE, Pow, Rat, Sym, SymbolTable,
    UndeclaredSymbolError, normalize,
)


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


# skipped whitespace (\s is what str.isspace takes), NUMBER, NAME, operators
_TOKEN = re.compile(r"\s+|(?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)|(?P<op>[-+*/^(),])")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    offset = 0          # in UTF-8 bytes: skipped whitespace may be non-ASCII
    while i < n:
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", offset)
        kind, word = m.lastgroup, m.group()
        if kind:
            tokens.append(_Token(word if kind == "op" else kind, word, offset))
        offset += len(word.encode("utf-8"))
        i = m.end()
    tokens.append(_Token("end", "", offset))
    return tokens


class _Parser:
    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.offset)
        return self.advance()

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            if op == "-":
                rhs = Mul((MINUS_ONE, rhs))
            node = Add((node, rhs))
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            if op == "/":
                rhs = Pow(rhs, MINUS_ONE)
            node = Mul((node, rhs))
        return node

    def unary(self) -> Expr:
        negate = False
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                negate = not negate
        node = self.power()
        return Mul((MINUS_ONE, node)) if negate else node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return Rat(Fraction(tok.text))
            except ValueError:  # sys.get_int_max_str_digits(), 4300 by default
                raise ParseError("number past the interpreter's limit on the "
                                 "digits of an int", tok.offset) from None
        if tok.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.expression()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")")
                return self._call(tok, tuple(args))
            return self._symbol(tok)
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.offset)

    def _symbol(self, tok: _Token) -> Expr:
        name = tok.text
        if not self.table.is_declared(name):
            raise UndeclaredSymbolError(
                f"undeclared symbol {name!r} (byte {tok.offset})")
        info = self.table.info(name)
        if info.kind == "arbitrary-function" and (info.arity or 0) >= 1:
            raise ArityError(
                f"function symbol {name!r} used without arguments (byte {tok.offset})")
        return Sym(name)

    def _call(self, tok: _Token, args: tuple) -> Expr:
        name = tok.text
        if name == "exp":
            if len(args) != 1:
                raise ArityError(f"exp takes one argument (byte {tok.offset})")
            return Call("exp", args)
        if not self.table.is_declared(name):
            raise UndeclaredSymbolError(
                f"undeclared function {name!r} (byte {tok.offset})")
        info = self.table.info(name)
        if info.kind != "arbitrary-function" or not (info.arity or 0):
            raise ArityError(
                f"{name!r} is not an applicable function (byte {tok.offset})")
        if info.arity != len(args):
            raise ArityError(
                f"{name!r} takes {info.arity} argument(s), got {len(args)} "
                f"(byte {tok.offset})")
        return Call(name, args)


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse `text` and return the canonicalized expression."""
    parser = _Parser(_tokenize(text), table)
    node = parser.expression()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.offset)
    return normalize(node)
