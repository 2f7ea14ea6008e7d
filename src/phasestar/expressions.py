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

The parser builds each term directly, on the integer storage of
``algebra``.  A product of atoms (numbers, ``i``, ``hbar``, variables and
bound names, each with an optional power, under any unary minus) becomes one
term as it is parsed: exponents add, and the coefficient, a Gaussian integer
over a positive integer denominator, starts at 1 and takes each scalar
factor, powers by squaring.  Numbers and bound names enter as the triple
(x, y, D) that ``algebra._gaussian`` reads, as every scalar of the algebra
does.  The terms of an expression are summed by ``algebra._sum`` over the
lcm of their denominators and made canonical once, at the end.  Only a
parenthesised sum of more than one term goes through the multiplication
kernel, when it is multiplied or raised to a power; a parenthesised single
term folds in like an atom.  ``format_canonical`` reads the same pairs.

``format_canonical`` renders a polynomial deterministically (terms sorted by
hbar grade, then total degree, then descending exponent order) using the
shortest float representation that round-trips, at most 17 significant
digits.  ``parse_expression(format_canonical(f)) == f`` whenever every
coefficient of ``f`` is exactly representable as a float or an integer.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Union

from .algebra import (MultiIndex, PhasePolynomial, _checked_dimension, _gaussian, _reduced, _sum,
                      exact_fraction)
from .units import instance

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


def tokenize(source: str) -> list:
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


def validate_bindings(bindings: Optional[Mapping]) -> dict:
    """Check a name-to-number mapping; reserved names may not be bound."""
    if bindings is None:
        return {}
    if not isinstance(bindings, Mapping):
        raise ValueError(f"bindings must be a mapping of names to numbers, got {bindings!r}")
    clean = {}
    for name, value in bindings.items():
        if not isinstance(name, str):
            raise ValueError(f"bindings must map names to numbers, got the name {name!r}")
        if _RESERVED_PATTERN.match(name):
            raise ValueError(f"cannot bind reserved identifier {name!r}")
        try:
            clean[name] = exact_fraction(value)
        except TypeError:
            raise ValueError(
                f"bindings must map names to real numbers, got {value!r} for {name!r}") from None
        except ValueError:
            raise ValueError(f"bindings must map names to finite real numbers, "
                             f"got {value!r} for {name!r}") from None
    return clean


class _Product:
    """One term of an expression under construction: the product of its factors.

    Atoms fold in as they are parsed.  ``exponents`` holds the q exponents,
    the p exponents and last the hbar grade, and a power of an atom adds to
    them.  ``coefficient`` is the Gaussian-integer triple (x, y, D) standing
    for (x + i*y)/D, (1, 0, 1) before any factor.  Parenthesised sums of
    more than one term wait in ``sums``; only they go through the
    multiplication kernel, when the term is finished.
    """

    __slots__ = ("dimension", "coefficient", "exponents", "sums")

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.coefficient = (1, 0, 1)
        self.exponents = [0] * (2 * dimension + 1)
        self.sums = []

    def scale(self, x: int, y: int, den: int = 1) -> None:
        """Multiply the coefficient by (x + i*y)/den."""
        a, b, d = self.coefficient
        self.coefficient = (a * x - b * y, a * y + b * x, d * den)

    def include(self, base, power: int) -> None:
        """Multiply in base**power.  ``base`` is an exponent slot, a scalar
        (x, y, D), or the polynomial of a parenthesised expression."""
        if isinstance(base, int):
            self.exponents[base] += power
        elif not power:
            return
        elif isinstance(base, tuple):
            x, y, den = base
            self.scale(*_power(x, y, power), den ** power)
        elif len(base._terms) > 1:
            self.sums.append(base if power == 1 else base ** power)
        elif base._terms:
            ((q, p, hbar_power), (x, y)), = base._terms.items()
            exponents = self.exponents
            for slot, e in enumerate((*q, *p, hbar_power)):
                exponents[slot] += e * power
            self.scale(*_power(x, y, power), base._den ** power)
        else:
            self.scale(0, 0)

    def rows(self) -> tuple:
        """The finished product as (D, {key: (x, y)}), its pairs over D."""
        d = self.dimension
        e = self.exponents
        key = (tuple(e[:d]), tuple(e[d:-1]), e[-1])
        x, y, den = self.coefficient
        if not self.sums:
            return den, {key: (x, y)}
        result = _reduced(d, den, {key: (x, y)})
        for factor in self.sums:
            result = result * factor
        return result._den, result._terms


def _power(re, im, n: int) -> tuple:
    """(re + i*im)**n for n >= 1, by repeated squaring."""
    if n == 1:
        return re, im
    if not im:
        return re ** n, im
    result_re, result_im = 1, 0
    while True:
        if n & 1:
            result_re, result_im = (result_re * re - result_im * im,
                                    result_re * im + result_im * re)
        n >>= 1
        if not n:
            return result_re, result_im
        re, im = re * re - im * im, 2 * re * im


class _Parser:
    """Recursive descent; the end of input is one more token, ``end``."""

    def __init__(self, source: str, dimension: int, bindings: Optional[Mapping]):
        self.tokens = iter([*tokenize(source), Token("end", "", len(source))])
        self.token = next(self.tokens)
        self.dimension = _checked_dimension(dimension)
        self.bindings = validate_bindings(bindings)
        self.depth = 0

    def advance(self) -> Token:
        """Consume and return the next token, which must not be the end."""
        token = self.token
        if token.kind == "end":
            raise ParseError("unexpected end of expression", token.position)
        self.token = next(self.tokens)
        return token

    def nested(self, opener: Token, parse):
        """Run one nested parse step below ``opener``, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.position)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> PhasePolynomial:
        if self.token.kind == "end":
            raise ParseError("empty expression", 0)
        result = self.expr()
        if self.token.kind != "end":
            raise ParseError(f"unexpected token {self.token.text!r}", self.token.position)
        return result

    def expr(self) -> PhasePolynomial:
        """The sum of every summand, made canonical once."""
        parts = [self.term().rows()]
        while (kind := self.token.kind) in ("plus", "minus"):
            self.advance()
            product = self.term()
            if kind == "minus":
                product.scale(-1, 0)
            parts.append(product.rows())
        return _sum(self.dimension, parts)

    def term(self) -> _Product:
        product = _Product(self.dimension)
        self.factor(product)
        while self.token.kind == "times":
            self.advance()
            self.factor(product)
        return product

    def factor(self, product: _Product) -> None:
        token = self.token
        if token.kind == "minus":
            self.advance()
            self.nested(token, lambda: self.factor(product))
            product.scale(-1, 0)
            return
        base = self.atom()
        if self.token.kind == "caret":
            self.advance()
            product.include(base, self.exponent())
        else:
            product.include(base, 1)

    def exponent(self) -> int:
        token = self.advance()
        if token.kind == "minus":
            raise ParseError("negative exponent not allowed", token.position)
        if token.kind != "number":
            raise ParseError("integer exponent expected after '^'", token.position)
        if any(c in token.text for c in ".eE"):
            raise ParseError("exponent must be a non-negative integer literal",
                             token.position)
        return int(token.text)

    def atom(self):
        """An exponent slot, a scalar (x, y, D) or a parenthesised polynomial."""
        token = self.advance()
        if token.kind == "number":
            return _gaussian(_number_value(token.text))
        if token.kind == "identifier":
            return self.identifier(token)
        if token.kind == "lparen":
            inner = self.nested(token, self.expr)
            if self.token.kind != "rparen":
                raise ParseError("missing closing parenthesis", self.token.position)
            self.advance()
            return inner
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def identifier(self, token: Token):
        name = token.text
        if name == "i":
            return 0, 1, 1
        if name == "hbar":
            return 2 * self.dimension
        match = _VARIABLE_PATTERN.match(name)
        if match:
            index = int(match.group(2))
            if index < 1 or index > self.dimension:
                raise ParseError(
                    f"variable index {index} exceeds dimension {self.dimension}",
                    token.position)
            return index - 1 if match.group(1) == "q" else self.dimension + index - 1
        if name in self.bindings:
            return _gaussian(self.bindings[name])
        raise ParseError(f"unknown identifier {name!r}", token.position)


def _number_value(text: str) -> Union[int, Fraction]:
    return int(text) if text.isdigit() else exact_fraction(float(text))


def parse_expression(source: str, dimension: int,
                     bindings: Optional[Mapping] = None) -> PhasePolynomial:
    """Parse source text into a PhasePolynomial over the given dimension."""
    return _Parser(source, dimension, bindings).parse()


# ----------------------------------------------------------------------
# canonical rendering


def _value_text(x: int, den: int) -> str:
    """The rational x/den as an integer, or else as the shortest round-trip
    float."""
    if not x % den:
        return str(x // den)
    try:
        return repr(x / den)
    except OverflowError:
        scientific = f"{Decimal(x) / den:.6e}"
        raise ValueError(f"coefficient {scientific} is outside the float range "
                         "and cannot be rendered") from None


def _monomial_text(key) -> str:
    q, p, hbar_power = key
    parts = []
    for prefix, exponents in (("q", q), ("p", p)):
        for position, exponent in enumerate(exponents, start=1):
            if exponent == 1:
                parts.append(f"{prefix}{position}")
            elif exponent > 1:
                parts.append(f"{prefix}{position}^{exponent}")
    if hbar_power == 1:
        parts.append("hbar")
    elif hbar_power > 1:
        parts.append(f"hbar^{hbar_power}")
    return "*".join(parts)


def _term_text(x: int, y: int, den: int, monomial: str):
    """Return (negative, body) for the term (x + i*y)/den * monomial; the
    sign is handled by the joiner."""
    if x and y:
        joiner = "-" if y < 0 else "+"
        negative = False
        body = f"({_value_text(x, den)} {joiner} {_value_text(abs(y), den)}*i)"
    else:
        value = x or y
        negative = value < 0
        body = _value_text(abs(value), den)
        if y:
            body = "i" if body == "1" else f"{body}*i"
    if not monomial:
        return negative, body
    return negative, monomial if body == "1" else f"{body}*{monomial}"


def format_canonical(poly: PhasePolynomial) -> str:
    """Deterministic text rendering; the inverse of parse_expression for
    polynomials with float- or integer-representable coefficients.

    Every non-integer coefficient renders through ``repr(float)``, so a
    non-dyadic one is rounded: 1/3 (from ``star q1 p1 --N 3``) prints as
    ``0.3333333333333333*i*hbar`` and parses back as the nearest double, a
    different rational.  Rendering that parse gives the same text again.
    A non-integer coefficient beyond the float range raises ValueError.
    """
    instance("poly", poly, PhasePolynomial)
    if poly.is_zero:
        return "0"
    pieces = []
    rows, den = poly._terms, poly._den
    for key in sorted(rows, key=MultiIndex.sort_key):
        negative, body = _term_text(*rows[key], den, _monomial_text(key))
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
