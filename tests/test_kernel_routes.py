"""The commutator and bracket routes of the product kernel against oracles.

``star_commutator``, ``poisson_bracket`` and ``classical_limit_bracket`` are
single passes of ``algebra._moyal_product`` over a selection of its layers.
Here they meet routes that never select layers: the derivative-split star
series of ``star_oracle`` (both orderings, subtracted) and the Poisson sum of
partial derivatives, written out below.  The module also checks that every
operation returns the canonical integer storage, and that the cached
``terms`` mapping can be built from many threads at once.
"""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from star_oracle import oracle_star_product

from phasestar.algebra import ComplexFraction, PhasePolynomial, exact_fraction
from phasestar.expressions import format_canonical, parse_expression
from phasestar.star import (DeformationParameter, classical_limit_bracket,
                            poisson_bracket, star_commutator, star_first_order,
                            star_product)

DIMENSIONS = (1, 2, 3)
DEFORMATIONS = (2, 3, math.inf)
# 0.1 is 3602879701896397 / 2**55, a step with a large power of two below
HBAR_VALUES = (None, 0.5, 0.1)
PAIRS_PER_CASE = 6


def _graded_polynomial(rng: random.Random, dimension: int) -> PhasePolynomial:
    """Complex coefficients over mixed denominators, on terms that already
    carry hbar grades."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        exponents = [0] * (2 * dimension)
        for _ in range(rng.randint(0, 5)):
            exponents[rng.randrange(2 * dimension)] += 1
        coefficient = ComplexFraction(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))),
                                      Fraction(rng.randint(-6, 6), rng.choice((1, 4, 5))))
        index = (tuple(exponents[:dimension]), tuple(exponents[dimension:]),
                 rng.choice((0, 0, 1, 2)))
        terms.append((index, coefficient))
    return PhasePolynomial(dimension, terms)


def _pairs(dimension: int, seed: int):
    rng = random.Random(seed)
    return [(_graded_polynomial(rng, dimension), _graded_polynomial(rng, dimension))
            for _ in range(PAIRS_PER_CASE)]


def _oracle_commutator(f, g, param):
    return oracle_star_product(f, g, param) - oracle_star_product(g, f, param)


@pytest.mark.parametrize("hbar_value", HBAR_VALUES)
@pytest.mark.parametrize("N", DEFORMATIONS)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_star_commutator_matches_oracle(dimension, N, hbar_value):
    param = DeformationParameter(N=N, hbar_value=hbar_value)
    for f, g in _pairs(dimension, seed=100 * dimension + 7):
        assert star_commutator(f, g, param) == _oracle_commutator(f, g, param)


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_poisson_bracket_matches_partial_derivative_sum(dimension):
    for f, g in _pairs(dimension, seed=200 * dimension + 3):
        expected = PhasePolynomial.zero(dimension)
        for i in range(dimension):
            expected = (expected + f.partial_q(i) * g.partial_p(i)
                        - f.partial_p(i) * g.partial_q(i))
        assert poisson_bracket(f, g) == expected


@pytest.mark.parametrize("N", (2, 3, 0.7))
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_classical_limit_bracket_matches_scaled_oracle_commutator(dimension, N):
    param = DeformationParameter(N=N)
    scale = ComplexFraction(0, -exact_fraction(N) / 2)  # 1 / (2i/N)
    for f, g in _pairs(dimension, seed=300 * dimension + 1):
        commutator = _oracle_commutator(f, g, param)
        assert all(index.hbar_power >= 1 for index in commutator.terms)
        expected = PhasePolynomial(dimension, [
            ((index.q_exponents, index.p_exponents, index.hbar_power - 1), c * scale)
            for index, c in commutator.terms.items()])
        assert classical_limit_bracket(f, g, param) == expected


# ----------------------------------------------------------------------
# canonical storage


def _assert_canonical(poly: PhasePolynomial) -> None:
    """D > 0, gcd(D, every x, every y) = 1 and no (0, 0) pair, and the
    public constructor rebuilds exactly the same storage from ``terms``."""
    den, rows = poly._den, poly._terms
    assert type(den) is int and den > 0
    assert all(type(x) is int and type(y) is int and (x or y) for x, y in rows.values())
    assert math.gcd(den, *(part for pair in rows.values() for part in pair)) == 1
    rebuilt = PhasePolynomial(poly.dimension, poly.terms)
    assert (rebuilt._den, rebuilt._terms) == (den, rows)


@st.composite
def _rational_polynomials(draw, dimension):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        exponents = [0] * (2 * dimension)
        for _ in range(draw(st.integers(0, 4))):
            exponents[draw(st.integers(0, 2 * dimension - 1))] += 1
        real = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 4, 6))))
        imag = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 5))))
        terms.append(((tuple(exponents[:dimension]), tuple(exponents[dimension:]),
                       draw(st.integers(0, 2))), ComplexFraction(real, imag)))
    return PhasePolynomial(dimension, terms)


@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
           _rational_polynomials(d), _rational_polynomials(d))),
       st.sampled_from((2, 3, math.inf)),
       st.sampled_from((Fraction(1, 2), Fraction(-3, 4), 6, 0, complex(0.5, -2),
                        ComplexFraction(Fraction(2, 3), Fraction(-1, 9)))))
@settings(max_examples=80, deadline=None)
def test_every_result_is_canonical(pair, N, scalar):
    f, g = pair
    param = DeformationParameter(N=N)
    results = [f + g, f - g, f * g, f * scalar, -f, f.hbar_component(1),
               star_product(f, g, param), star_first_order(f, g, param),
               star_commutator(f, g, param), poisson_bracket(f, g),
               parse_expression(format_canonical(f), f.dimension)]
    results += [f.partial_q(i) for i in range(f.dimension)]
    results += [f.partial_p(i) for i in range(f.dimension)]
    if N != math.inf:
        results.append(classical_limit_bracket(f, g, param))
    for result in results:
        _assert_canonical(result)


def test_parsed_sums_are_canonical():
    for text in ("0.5*q1 + 0.5*q1", "(1 + i)*(1 - i)*q1*0.25", "0.75*p1 - 0.25*p1",
                 "q1 - q1", "3*(0.5*q1 + 0.25*p1)^2", "0*p1 + 0.5"):
        _assert_canonical(parse_expression(text, 1))


# ----------------------------------------------------------------------
# the cached terms mapping under threads


def test_terms_of_a_fresh_product_read_from_eight_threads():
    rng = random.Random(99)
    param = DeformationParameter(N=3)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            f, g = _graded_polynomial(rng, 2), _graded_polynomial(rng, 2)
            product = star_product(f, g, param)
            expected = dict(star_product(f, g, param).terms)
            barrier = threading.Barrier(8, timeout=10)

            def read(_):
                barrier.wait()
                return dict(product.terms)

            with ThreadPoolExecutor(max_workers=8) as pool:
                views = list(pool.map(read, range(8), timeout=30))
            assert all(view == expected for view in views)
            assert product.terms is product.terms
    finally:
        sys.setswitchinterval(previous)
