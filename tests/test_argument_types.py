"""Arguments of the wrong type at the symbolic entry points.

A polynomial, source text or exponent vector of the wrong type raises a
ValueError that names the argument, not an AttributeError or TypeError from
deep inside the call.
"""

import re

import pytest

from phasestar.algebra import PhasePolynomial
from phasestar.expressions import format_canonical, parse_expression
from phasestar.star import (classical_limit_bracket, poisson_bracket, star_commutator,
                            star_first_order, star_product)

Q = PhasePolynomial.variable_q(1)


@pytest.mark.parametrize("call, message", [
    (lambda: star_product(Q, 3), "g must be a PhasePolynomial, got 3"),
    (lambda: star_product("q1", Q), "f must be a PhasePolynomial, got 'q1'"),
    (lambda: star_first_order(Q, None), "g must be a PhasePolynomial, got None"),
    (lambda: star_commutator(2.5, Q), "f must be a PhasePolynomial, got 2.5"),
    (lambda: classical_limit_bracket(Q, 1), "g must be a PhasePolynomial, got 1"),
    (lambda: poisson_bracket(Q, [Q]), "g must be a PhasePolynomial, got [PhasePolynomial"),
    (lambda: format_canonical(3), "poly must be a PhasePolynomial, got 3"),
    (lambda: parse_expression(5, 1), "source must be a string, got 5"),
    (lambda: parse_expression(b"q1", 1), "source must be a string, got b'q1'"),
    (lambda: PhasePolynomial.monomial(1, 5, (0,)),
     "q_exponents must be a sequence of integers, got 5"),
    (lambda: PhasePolynomial.monomial(1, (0,), 2.0),
     "p_exponents must be a sequence of integers, got 2.0"),
], ids=["star-g", "star-f", "first-order", "commutator", "classical-limit", "poisson",
        "format", "parse-int", "parse-bytes", "monomial-q", "monomial-p"])
def test_wrong_type_names_the_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_iterable_exponents_still_build_a_monomial():
    assert PhasePolynomial.monomial(2, iter((1, 0)), [0, 2]) == \
        PhasePolynomial.monomial(2, (1, 0), (0, 2))
