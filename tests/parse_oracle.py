"""Polynomial-arithmetic parser, kept as an independent oracle.

This is the evaluation the library's parser used before it built each term
directly: every atom becomes a whole ``PhasePolynomial`` through the public
constructors, and ``+``, ``-``, ``*`` and ``**`` combine them, so every
product and power goes through the multiplication kernel.  It shares the
grammar with ``phasestar.expressions``, and must give the same polynomial,
or the same ParseError message and offset, for every input.

``oracle_tokenize`` is the library's tokenizer as it was before it scanned
in one pass: one ``finditer`` match and one ``Token`` per token, whitespace
skipped as matches of its own.  ``tokenize`` must give the same tokens, or
the same ParseError message and offset, for every string.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional

from phasestar.algebra import ComplexFraction, PhasePolynomial
from phasestar.expressions import (MAX_NESTING, ParseError, Token, _VARIABLE_PATTERN,
                                   _number_value, validate_bindings)

# One alternative per token kind, tried in order; the group name is the kind.
# Only ASCII digits, letters and whitespace count: anything else, unicode digit
# lookalikes included, is an invalid character.
_TOKEN_PATTERN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<bad_point>[0-9]+\.)(?![0-9])
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<plus>\+) | (?P<minus>-) | (?P<times>\*) | (?P<caret>\^)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<invalid>.)
""", re.VERBOSE | re.DOTALL)


def oracle_tokenize(source: str) -> list:
    """Split source text into tokens, or raise ParseError at the first bad byte
    or at a decimal literal whose double overflows to inf or underflows to 0."""
    if not isinstance(source, str):
        raise ValueError(f"source must be a string, got {source!r}")
    tokens = []
    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "bad_point":
            raise ParseError("digit expected after decimal point", match.end() - 1)
        if kind == "invalid":
            raise ParseError(f"invalid character {match.group()!r}", match.start())
        text = match.group()
        if (kind == "number" and not text.isdigit() and float(text) in (0, math.inf)
                and text.lower().partition("e")[0].strip("0.")):
            raise ParseError(f"number {text} is outside the double range", match.start())
        tokens.append(Token(kind, text, match.start()))
    return tokens


class _Parser:
    def __init__(self, source: str, dimension: int, bindings: dict):
        self.source = source
        self.tokens = oracle_tokenize(source)
        self.pos = 0
        self.dimension = dimension
        self.bindings = bindings
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", len(self.source))
        self.pos += 1
        return token

    def nested(self, opener: Token, parse) -> PhasePolynomial:
        """Run one nested parse step below ``opener``, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.position)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> PhasePolynomial:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        result = self.expr()
        leftover = self.peek()
        if leftover is not None:
            raise ParseError(f"unexpected token {leftover.text!r}", leftover.position)
        return result

    def expr(self) -> PhasePolynomial:
        result = self.term()
        while (token := self.peek()) is not None and token.kind in ("plus", "minus"):
            self.advance()
            right = self.term()
            result = result + right if token.kind == "plus" else result - right
        return result

    def term(self) -> PhasePolynomial:
        result = self.factor()
        while (token := self.peek()) is not None and token.kind == "times":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> PhasePolynomial:
        token = self.peek()
        if token is not None and token.kind == "minus":
            self.advance()
            return -self.nested(token, self.factor)
        base = self.atom()
        token = self.peek()
        if token is not None and token.kind == "caret":
            self.advance()
            return base ** self.exponent()
        return base

    def exponent(self) -> int:
        token = self.peek()
        if token is not None and token.kind == "minus":
            raise ParseError("negative exponent not allowed", token.position)
        token = self.advance()
        if token.kind != "number":
            raise ParseError("integer exponent expected after '^'", token.position)
        if any(c in token.text for c in ".eE"):
            raise ParseError("exponent must be a non-negative integer literal",
                             token.position)
        return int(token.text)

    def atom(self) -> PhasePolynomial:
        token = self.advance()
        if token.kind == "number":
            return PhasePolynomial.constant(self.dimension, _number_value(token.text))
        if token.kind == "identifier":
            return self.identifier(token)
        if token.kind == "lparen":
            inner = self.nested(token, self.expr)
            closing = self.peek()
            if closing is None or closing.kind != "rparen":
                position = len(self.source) if closing is None else closing.position
                raise ParseError("missing closing parenthesis", position)
            self.advance()
            return inner
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def identifier(self, token: Token) -> PhasePolynomial:
        name = token.text
        if name == "i":
            return PhasePolynomial.constant(self.dimension, ComplexFraction(0, 1))
        if name == "hbar":
            return PhasePolynomial.hbar(self.dimension)
        match = _VARIABLE_PATTERN.match(name)
        if match:
            index = int(match.group(2))
            if index < 1 or index > self.dimension:
                raise ParseError(
                    f"variable index {index} exceeds dimension {self.dimension}",
                    token.position)
            if match.group(1) == "q":
                return PhasePolynomial.variable_q(self.dimension, index - 1)
            return PhasePolynomial.variable_p(self.dimension, index - 1)
        if name in self.bindings:
            return PhasePolynomial.constant(self.dimension, self.bindings[name])
        raise ParseError(f"unknown identifier {name!r}", token.position)


def oracle_parse_expression(source: str, dimension: int,
                            bindings: Optional[Mapping] = None) -> PhasePolynomial:
    """Parse source text into a PhasePolynomial by polynomial arithmetic."""
    if not isinstance(dimension, int) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    return _Parser(source, dimension, validate_bindings(bindings)).parse()
