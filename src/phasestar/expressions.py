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

One regex ``findall`` scans the source into the texts of its tokens, each
kind read from its first character; offsets come from a second scan, made
only for the tokens ``tokenize`` returns or for a ParseError.  The parser
reads the two lists by index and builds each term on the integer storage
of ``algebra``: exponents add, and the coefficient (x + i*y)/D, read as
``algebra._gaussian`` reads every scalar, starts at 1 and takes each scalar
factor, powers by squaring.  ``algebra._sum`` adds the terms over the lcm
of their denominators and makes them canonical once.  Only a parenthesised
sum of more than one term goes through the multiplication kernel; a
parenthesised single term folds in like an atom.

``format_canonical`` renders a polynomial deterministically (terms sorted by
hbar grade, then total degree, then descending exponent order) using the
shortest float representation that round-trips, at most 17 significant
digits.  Each monomial's text and flat sort key come from a memo bounded
at 1024 monomials.  ``parse_expression(format_canonical(f)) == f``
whenever every coefficient of ``f`` is exactly representable as a float or
an integer.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal
from fractions import Fraction
from operator import neg
from typing import Mapping, NamedTuple, Optional, Union

from .algebra import PhasePolynomial, _checked_dimension, _gaussian, _reduced, _sum, exact_fraction
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


# One scan finds every token: whitespace is skipped outside the group, which
# holds a number, an identifier or one other character.  Only ASCII counts, so
# a unicode digit lookalike, like a point outside a number, is a character
# that starts no token (no ``_KINDS`` entry) and that ``_check`` rejects.
_TOKEN_PATTERN = re.compile(
    r"[ \t\r\n]*([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|[^ \t\r\n])")
_KINDS = {**dict.fromkeys("0123456789", "number"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "identifier"),
          "+": "plus", "-": "minus", "*": "times", "^": "caret", "(": "lparen", ")": "rparen"}
# A literal beyond the double range has an exponent of three or more digits
# or, with at most two (at most 1e99), a run of over 200 digits before or
# after its point or exponent.  Where this finds none, every literal fits.
_FAR_LITERAL = re.compile(r"[.eE](?:(?<=[eE])[+-]?[0-9]{3}|(?<=\.)[0-9]{200}|(?<=[0-9]{200}.))")


def _offsets(source: str) -> list:
    """The offset of every token of ``source``."""
    return [match.start(1) for match in _TOKEN_PATTERN.finditer(source)]


def _check(source: str, texts: list) -> None:
    """Raise ParseError at the first text that is no token, or at the first
    decimal literal whose double overflows to inf or underflows to 0."""
    for at, text in enumerate(texts):
        kind = _KINDS.get(text[0])
        if kind is None:
            start = _offsets(source)[at]
            if text == "." and at and texts[at - 1].isdigit() and source[start - 1].isdigit():
                raise ParseError("digit expected after decimal point", start)
            raise ParseError(f"invalid character {text!r}", start)
        if (kind == "number" and not text.isdigit() and float(text) in (0, math.inf)
                and text.lower().partition("e")[0].strip("0.")):
            raise ParseError(f"number {text} is outside the double range", _offsets(source)[at])


def _scan(source: str) -> tuple:
    """The kinds and the texts of the tokens of ``source``, as two lists."""
    if not isinstance(source, str):
        raise ValueError(f"source must be a string, got {source!r}")
    texts = _TOKEN_PATTERN.findall(source)
    try:
        kinds = [_KINDS[text[0]] for text in texts]
    except KeyError:
        kinds = None
    if kinds is None or _FAR_LITERAL.search(source):
        _check(source, texts)
    return kinds, texts


def tokenize(source: str) -> list:
    """Split source text into tokens, or raise ParseError at the first bad byte
    or at a decimal literal whose double overflows to inf or underflows to 0.

    One regex scan finds the texts; offsets come from a second scan, made
    only for the tokens returned here or for a ParseError."""
    kinds, texts = _scan(source)
    return list(map(Token, kinds, texts, _offsets(source)))


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


@functools.lru_cache(maxsize=8)
def _reserved_names(dimension: int) -> dict:
    """What each reserved name stands for at ``dimension``, read-only as every parse
    shares it: q1..qd and p1..pd their exponent slots, hbar the grade slot, i its scalar."""
    names = {f"{letter}{k}": first + k - 1 for letter, first in (("q", 0), ("p", dimension))
             for k in range(1, dimension + 1)}
    return {**names, "hbar": 2 * dimension, "i": (0, 1, 1)}


class _Parser:
    """Recursive descent over the columns ``kinds`` and ``texts`` of the
    tokens, read by index ``at``; the end of input is one more kind, ``end``."""

    def __init__(self, source: str, dimension: int, bindings: Optional[Mapping]):
        kinds, texts = _scan(source)
        self.kinds, self.texts = [*kinds, "end"], [*texts, ""]
        self.source = source
        self.at = 0
        self.dimension = _checked_dimension(dimension)
        self.names = _reserved_names(self.dimension)
        self.bindings = validate_bindings(bindings)
        self.depth = 0

    def error(self, message: str, at: int) -> ParseError:
        """The ParseError ``message`` at the offset of token ``at``, or of the end."""
        return ParseError(message, [*_offsets(self.source), len(self.source)][at])

    def nested(self, opener: int, parse):
        """Run one nested parse step below token ``opener``, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", opener)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> PhasePolynomial:
        if self.kinds[0] == "end":
            raise ParseError("empty expression", 0)
        result = self.expr()
        if self.kinds[self.at] != "end":
            raise self.error(f"unexpected token {self.texts[self.at]!r}", self.at)
        return result

    def expr(self) -> PhasePolynomial:
        """The sum of every summand, made canonical once."""
        parts = [self.term().rows()]
        while (kind := self.kinds[self.at]) in ("plus", "minus"):
            self.at += 1
            product = self.term()
            if kind == "minus":
                product.scale(-1, 0)
            parts.append(product.rows())
        return _sum(self.dimension, parts)

    def term(self) -> _Product:
        product = _Product(self.dimension)
        self.factor(product)
        while self.kinds[self.at] == "times":
            self.at += 1
            self.factor(product)
        return product

    def factor(self, product: _Product) -> None:
        at = self.at
        if self.kinds[at] == "minus":
            self.at = at + 1
            self.nested(at, lambda: self.factor(product))
            product.scale(-1, 0)
            return
        base = self.atom()
        if self.kinds[self.at] == "caret":
            self.at += 1
            product.include(base, self.exponent())
        else:
            product.include(base, 1)

    def exponent(self) -> int:
        at = self.at
        kind, text = self.kinds[at], self.texts[at]
        self.at = at + 1
        if kind == "number" and text.isdigit():
            return int(text)
        message = {"end": "unexpected end of expression", "minus": "negative exponent not allowed",
                   "number": "exponent must be a non-negative integer literal"}
        raise self.error(message.get(kind, "integer exponent expected after '^'"), at)

    def atom(self):
        """An exponent slot, a scalar (x, y, D) or a parenthesised polynomial."""
        at = self.at
        kind = self.kinds[at]
        self.at = at + 1
        if kind == "identifier":
            base = self.names.get(self.texts[at])
            return self.identifier(at) if base is None else base
        if kind == "number":
            return _gaussian(_number_value(self.texts[at]))
        if kind == "lparen":
            inner = self.nested(at, self.expr)
            if self.kinds[self.at] != "rparen":
                raise self.error("missing closing parenthesis", self.at)
            self.at += 1
            return inner
        if kind == "end":
            raise self.error("unexpected end of expression", at)
        raise self.error(f"unexpected token {self.texts[at]!r}", at)

    def identifier(self, at: int):
        """A name the reserved table lacks: q01, q0, qN past d, or a bound name."""
        name = self.texts[at]
        match = _VARIABLE_PATTERN.match(name)
        if match:
            index = int(match.group(2))
            if index < 1 or index > self.dimension:
                raise self.error(f"variable index {index} exceeds dimension {self.dimension}", at)
            return index - 1 if match.group(1) == "q" else self.dimension + index - 1
        if name in self.bindings:
            return _gaussian(self.bindings[name])
        raise self.error(f"unknown identifier {name!r}", at)


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


@functools.lru_cache(maxsize=1024)
def _monomial(key) -> tuple:
    """(order, text) of the monomial with key (q, p, hbar power).  ``order``
    is the flat tuple (hbar power, degree, -e for each q then p exponent
    e), which sorts as ``MultiIndex.sort_key``; ``text`` is the monomial as
    rendered, empty for the constant.  Renders read both from this bounded
    memo, since successive polynomials share most of their monomials."""
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
    exponents = q + p
    return (hbar_power, sum(exponents), *map(neg, exponents)), "*".join(parts)


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
    den = poly._den
    # the orders are distinct, so the sort never compares texts or pairs
    for _, monomial, pair in sorted([(*_monomial(key), pair)
                                     for key, pair in poly._terms.items()]):
        negative, body = _term_text(*pair, den, monomial)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
