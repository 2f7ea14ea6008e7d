"""The closed-form monomial kernel against the derivative-split oracle.

Every product is compared under ``==``: both routes are exact, so they must
agree term for term, including complex and non-dyadic coefficients and
inputs that already carry hbar grades.
"""

import math
import random
from fractions import Fraction

import pytest
from star_oracle import oracle_star_first_order, oracle_star_product

from phasestar.algebra import ComplexFraction, PhasePolynomial, _moyal_weights
from phasestar.star import DeformationParameter, star_first_order, star_product

DIMENSIONS = (1, 2, 3)
DEFORMATIONS = (2, 3, math.inf)
HBAR_VALUES = (None, 0, 0.5, 1.25)
PAIRS_PER_CASE = 8


def _random_polynomial(rng: random.Random, dimension: int) -> PhasePolynomial:
    terms = []
    for _ in range(rng.randint(1, 5)):
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
    return [(_random_polynomial(rng, dimension), _random_polynomial(rng, dimension))
            for _ in range(PAIRS_PER_CASE)]


@pytest.mark.parametrize("hbar_value", HBAR_VALUES)
@pytest.mark.parametrize("N", DEFORMATIONS)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_star_products_match_oracle(dimension, N, hbar_value):
    param = DeformationParameter(N=N, hbar_value=hbar_value)
    for f, g in _pairs(dimension, seed=1000 * dimension + 17):
        assert star_product(f, g, param) == oracle_star_product(f, g, param)
        assert star_first_order(f, g, param) == oracle_star_first_order(f, g, param)


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_pointwise_product_is_the_oracle_at_infinite_n(dimension):
    commutative = DeformationParameter(N=math.inf)
    for f, g in _pairs(dimension, seed=2000 + dimension):
        assert f * g == oracle_star_product(f, g, commutative)


def test_inputs_carry_complex_coefficients_and_hbar_grades():
    # guards the generator itself, so the comparisons above cover both
    polys = [poly for d in DIMENSIONS for pair in _pairs(d, seed=1000 * d + 17)
             for poly in pair]
    coefficients = [c for poly in polys for c in poly.terms.values()]
    assert any(c.real and c.imag for c in coefficients)
    assert any(c.real.denominator == 3 for c in coefficients)
    assert any(index.hbar_power for poly in polys for index in poly.terms)


@pytest.mark.parametrize("exponents, weights", [
    # q^2 (star) p^2: 1 + 4 (i hbar/N) q p + 2 (i hbar/N)^2
    ((2, 0, 0, 2), (1, 4, 2)),
    # q (star) p = q p + (i hbar/N)
    ((1, 0, 0, 1), (1, 1)),
    # p (star) q = q p - (i hbar/N)
    ((0, 1, 1, 0), (1, -1)),
    # q p (star) q p = q^2 p^2 + 0 * (i hbar/N) q p - (i hbar/N)^2
    ((1, 1, 1, 1), (1, 0, -1)),
    # identical single-variable factors feel nothing
    ((3, 0, 2, 0), (1,)),
])
def test_hand_computed_weights(exponents, weights):
    assert _moyal_weights(*exponents) == weights
