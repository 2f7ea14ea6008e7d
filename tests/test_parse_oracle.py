"""The parser against the polynomial-arithmetic oracle in ``parse_oracle``.

Seeded random expressions mix sums, products, unary minus, zero exponents,
powers of parenthesised sums, ``i``, ``hbar``, bound names and zero
coefficients at d = 1, 2 and 3.  Both parsers must return equal polynomials
under ``==``; on malformed mutations of the same texts they must raise the
same ParseError message at the same offset (or the same other ValueError).
Seeded strings over the mutation alphabet, other whitespace, non-ASCII
characters and literals at the edges of the grammar and the double range
compare ``tokenize`` with ``oracle_tokenize`` the same way.
"""

import random

import pytest
from parse_oracle import oracle_parse_expression, oracle_tokenize

from phasestar import algebra
from phasestar.expressions import ParseError, parse_expression, tokenize

BINDINGS = {"omega": 1.5, "c": 0.7071067811865476, "z": 0}
NUMBERS = ("0", "1", "2", "3", "7", "0.5", "2.25", "1e-3", "12.5e1")
EXPRESSIONS_PER_CASE = 40
MUTATION_CHARACTERS = "+-*^() 1q2p.ie"
TOKENIZER_PIECES = (*MUTATION_CHARACTERS, "\t", "\r", "\n", "\x0b", "\x0c", "\u0663", "\u00e9",
                    "9.", "1.e5", "8e1.", "1e999", "1e-400", "0.0e5")
TOKENIZER_STRINGS_PER_SEED = 5000


def _atom(rng, d, depth):
    if depth < 2 and rng.random() < 0.2:
        return "(" + _expr(rng, d, depth + 1) + ")"
    return rng.choice(NUMBERS + ("i", "hbar", "omega", "c", "z",
                                 f"q{rng.randint(1, d)}", f"p{rng.randint(1, d)}",
                                 f"q{rng.randint(1, d)}", f"p{rng.randint(1, d)}"))


def _factor(rng, d, depth):
    text = _atom(rng, d, depth)
    if rng.random() < 0.35:
        text += f"^{rng.randint(0, 3)}"
    if rng.random() < 0.15:
        text = "-" * rng.randint(1, 2) + text
    return text


def _expr(rng, d, depth=0):
    terms = ["*".join(_factor(rng, d, depth) for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _mutate(rng, text):
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice(MUTATION_CHARACTERS) + text[at:]
    if kind == 2:
        return text[:at] + rng.choice(MUTATION_CHARACTERS) + text[at + 1:]
    return text[:at]


def _outcome(parse, text, d):
    try:
        return "ok", parse(text, d, BINDINGS)
    except ParseError as error:
        return "ParseError", error.message, error.position
    except ValueError as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_generated_expressions_agree_with_oracle(d, seed):
    rng = random.Random(f"parse-oracle-{d}-{seed}")
    kinds = set()
    for _ in range(EXPRESSIONS_PER_CASE):
        text = _expr(rng, d)
        expected = _outcome(oracle_parse_expression, text, d)
        assert _outcome(parse_expression, text, d) == expected, text
        kinds.add("zero" if expected[1].is_zero else "nonzero")
        for _ in range(3):
            broken = _mutate(rng, text)
            expected = _outcome(oracle_parse_expression, broken, d)
            assert _outcome(parse_expression, broken, d) == expected, broken
            kinds.add(expected[0])
    # the generator reaches every outcome the comparison is about
    assert {"zero", "nonzero", "ok", "ParseError"} <= kinds


@pytest.mark.parametrize("text, kernel_calls", [
    ("-2*q1^3*p1^2*hbar^2 + 0.5*i*q1*p1*hbar - (1 + 2*i)*q1^7", 0),
    ("(2*i*q1*hbar)^5 - -q1^0*p1 + (q1 - q1)^3 + 0*p1", 0),
    ("(q1 + p1)*q1", 1),
    ("(q1 + p1)*(q1 - p1)", 2),
])
def test_kernel_runs_only_for_parenthesised_sums(monkeypatch, text, kernel_calls):
    expected = oracle_parse_expression(text, 1)
    kernel = algebra._moyal_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(algebra, "_moyal_product", counting)
    assert parse_expression(text, 1) == expected
    assert len(calls) == kernel_calls


def _tokens_or_error(tokenizer, text):
    try:
        return "ok", tokenizer(text)
    except ParseError as error:
        return "ParseError", error.message, error.position


@pytest.mark.parametrize("seed", range(4))
def test_tokenize_agrees_with_oracle(seed):
    rng = random.Random(f"tokenize-oracle-{seed}")
    texts = ["", " ", "\t", "\r\n", " \t\r\n  "]
    texts += ["".join(rng.choices(TOKENIZER_PIECES, k=rng.randint(0, 12)))
              for _ in range(TOKENIZER_STRINGS_PER_SEED)]
    messages = set()
    for text in texts:
        expected = _tokens_or_error(oracle_tokenize, text)
        assert _tokens_or_error(tokenize, text) == expected, repr(text)
        messages.add(expected[0] if expected[0] == "ok" else expected[1].split()[0])
    # every outcome of the tokenizer is reached: tokens, and the invalid
    # character, dangling point and double range rejections
    assert messages == {"ok", "invalid", "digit", "number"}
