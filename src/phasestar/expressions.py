"""Tokenizer, parser and canonical renderer for phase-space expressions.

The expression language is the small front end used to build
:class:`~phasestar.algebra.PhasePolynomial` values from text::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' integer)?
    atom   := number | identifier | '(' expr ')'

Unary minus binds tighter than binary '+'/'-' but looser than '^', so
``-q1^2`` means ``-(q1^2)``.  Implicit multiplication is not allowed, and
neither division nor non-integer powers are in the grammar: every valid
expression denotes a polynomial.  Parentheses and unary minus together nest
at most ``MAX_NESTING`` deep; deeper input is a ParseError, not a recursion
failure.

Identifiers ``q1..qd`` and ``p1..pd`` are the phase-space variables, ``i``
is the imaginary unit and ``hbar`` is one unit of the formal grading; these
names are reserved.  Any other identifier must be supplied through a
bindings mapping of name to real value.

``format_canonical`` renders a polynomial deterministically (terms sorted by
hbar grade, then total degree, then descending exponent order) using the
shortest float representation that round-trips, at most 17 significant
digits.  ``parse_expression(format_canonical(f)) == f`` whenever every
coefficient of ``f`` is exactly representable as a float or an integer.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .algebra import ComplexFraction, PhasePolynomial, exact_fraction

GRAMMAR_VERSION = "1.0"

GRAMMAR_HELP = """\
expression grammar (version {version}):
  expr   := term (('+' | '-') term)*
  term   := factor ('*' factor)*
  factor := '-' factor | atom ('^' integer)?
  atom   := number | identifier | '(' expr ')'
Unary minus binds tighter than '+'/'-' and looser than '^'.
Implicit multiplication, division and non-integer powers are not allowed.
Reserved identifiers: q1..qd, p1..pd, i, hbar.  Other identifiers must be
bound to numbers with --param name=value.
""".format(version=GRAMMAR_VERSION)

# Deepest combined nesting of parentheses and unary minus the parser accepts.
MAX_NESTING = 100

_RESERVED_PATTERN = re.compile(r"^(?:[qp][0-9]+|i|hbar)$")
_VARIABLE_PATTERN = re.compile(r"^([qp])([0-9]+)$")


class ParseError(ValueError):
    """Rejection of an expression, carrying the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class Token(NamedTuple):
    kind: str          # number | identifier | plus | minus | times | caret | lparen | rparen
    text: str
    position: int


_SINGLE_CHAR_TOKENS = {
    "+": "plus",
    "-": "minus",
    "*": "times",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
}


def _is_digit(c: str) -> bool:
    # ASCII only; unicode digit lookalikes are invalid characters
    return "0" <= c <= "9"


def _is_name_start(c: str) -> bool:
    return ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_"


def tokenize(source: str) -> list:
    """Split source text into tokens, or raise ParseError at the first bad byte."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _SINGLE_CHAR_TOKENS:
            tokens.append(Token(_SINGLE_CHAR_TOKENS[c], c, i))
            i += 1
            continue
        if _is_digit(c):
            start = i
            while i < n and _is_digit(source[i]):
                i += 1
            if i < n and source[i] == ".":
                if i + 1 >= n or not _is_digit(source[i + 1]):
                    raise ParseError("digit expected after decimal point", i)
                i += 1
                while i < n and _is_digit(source[i]):
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and _is_digit(source[j]):
                    i = j
                    while i < n and _is_digit(source[i]):
                        i += 1
                # otherwise the 'e' starts a separate identifier token
            tokens.append(Token("number", source[start:i], start))
            continue
        if _is_name_start(c):
            start = i
            while i < n and (_is_name_start(source[i]) or _is_digit(source[i])):
                i += 1
            tokens.append(Token("identifier", source[start:i], start))
            continue
        raise ParseError(f"invalid character {c!r}", i)
    return tokens


def validate_bindings(bindings: Optional[Mapping]) -> dict:
    """Check a name-to-number mapping; reserved names may not be bound."""
    if bindings is None:
        return {}
    clean = {}
    for name, value in bindings.items():
        if _RESERVED_PATTERN.match(name):
            raise ValueError(f"cannot bind reserved identifier {name!r}")
        clean[name] = exact_fraction(value)
    return clean


class _Parser:
    def __init__(self, source: str, dimension: int, bindings: dict):
        self.source = source
        self.tokens = tokenize(source)
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


def _number_value(text: str) -> Fraction:
    if text.isdigit():
        return Fraction(int(text))
    return exact_fraction(float(text))


def parse_expression(source: str, dimension: int,
                     bindings: Optional[Mapping] = None) -> PhasePolynomial:
    """Parse source text into a PhasePolynomial over the given dimension."""
    if not isinstance(dimension, int) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    return _Parser(source, dimension, validate_bindings(bindings)).parse()


# ----------------------------------------------------------------------
# canonical rendering


def _value_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    try:
        return repr(float(value))
    except OverflowError:
        scientific = f"{Decimal(value.numerator) / value.denominator:.6e}"
        raise ValueError(f"coefficient {scientific} is outside the float range "
                         "and cannot be rendered") from None


def _monomial_text(index) -> str:
    parts = []
    for prefix, exponents in (("q", index.q_exponents), ("p", index.p_exponents)):
        for position, exponent in enumerate(exponents, start=1):
            if exponent == 1:
                parts.append(f"{prefix}{position}")
            elif exponent > 1:
                parts.append(f"{prefix}{position}^{exponent}")
    if index.hbar_power == 1:
        parts.append("hbar")
    elif index.hbar_power > 1:
        parts.append(f"hbar^{index.hbar_power}")
    return "*".join(parts)


def _term_text(coefficient: ComplexFraction, monomial: str):
    """Return (negative, body) for one term; sign handled by the joiner."""
    real, imag = coefficient.real, coefficient.imag
    if imag == 0:
        negative = real < 0
        magnitude = -real if negative else real
        if monomial and magnitude == 1:
            return negative, monomial
        body = _value_text(magnitude)
        return negative, f"{body}*{monomial}" if monomial else body
    if real == 0:
        negative = imag < 0
        magnitude = -imag if negative else imag
        body = "i" if magnitude == 1 else f"{_value_text(magnitude)}*i"
        return negative, f"{body}*{monomial}" if monomial else body
    joiner = "-" if imag < 0 else "+"
    body = f"({_value_text(real)} {joiner} {_value_text(abs(imag))}*i)"
    return False, f"{body}*{monomial}" if monomial else body


def format_canonical(poly: PhasePolynomial) -> str:
    """Deterministic text rendering; the inverse of parse_expression for
    polynomials with float- or integer-representable coefficients.

    Every non-integer coefficient renders through ``repr(float)``, so a
    non-dyadic one is rounded: 1/3 (from ``star q1 p1 --N 3``) prints as
    ``0.3333333333333333*i*hbar`` and parses back as the nearest double, a
    different rational.  Rendering that parse gives the same text again.
    A non-integer coefficient beyond the float range raises ValueError.
    """
    if poly.is_zero:
        return "0"
    pieces = []
    for index in sorted(poly.terms, key=lambda i: i.sort_key()):
        negative, body = _term_text(poly.terms[index], _monomial_text(index))
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
