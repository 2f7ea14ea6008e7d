"""The closed-form monomial kernel against the derivative-split oracle.

Every product is compared under ``==``: both routes are exact, so they must
agree term for term, including complex and non-dyadic coefficients, coprime
denominators, a non-dyadic numeric hbar and inputs that already carry hbar
grades.  The kernel sums on integers over one common denominator, so these
cases exercise its conversion in and out.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from star_oracle import oracle_star_first_order, oracle_star_product

from phasestar.algebra import ComplexFraction, PhasePolynomial, _moyal_splits, _moyal_weights
from phasestar.star import (DeformationParameter, star_commutator, star_first_order,
                            star_product)

DIMENSIONS = (1, 2, 3)
DEFORMATIONS = (2, 3, math.inf)
# 0.1 is the dyadic rational 3602879701896397 / 2**55, so the step has a
# large power of two in its denominator
HBAR_VALUES = (None, 0, 0.5, 1.25, 0.1)
COPRIME = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(-4, 13))
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


def _coprime_polynomial(rng: random.Random, dimension: int) -> PhasePolynomial:
    # the exponents of a random polynomial, with coefficients whose
    # denominators are pairwise coprime and not powers of two; the real part
    # may be 0, the imaginary part never is
    terms = _random_polynomial(rng, dimension).terms
    return PhasePolynomial(dimension, [
        (index, ComplexFraction(rng.choice(COPRIME + (0,)), rng.choice(COPRIME)))
        for index in terms])


def _pairs(dimension: int, seed: int, make=_random_polynomial):
    rng = random.Random(seed)
    return [(make(rng, dimension), make(rng, dimension))
            for _ in range(PAIRS_PER_CASE)]


def _assert_clean(poly: PhasePolynomial):
    assert all(not c.is_zero() for c in poly.terms.values())


@pytest.mark.parametrize("hbar_value", HBAR_VALUES)
@pytest.mark.parametrize("N", DEFORMATIONS)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_star_products_match_oracle(dimension, N, hbar_value):
    param = DeformationParameter(N=N, hbar_value=hbar_value)
    for f, g in _pairs(dimension, seed=1000 * dimension + 17):
        product = star_product(f, g, param)
        assert product == oracle_star_product(f, g, param)
        assert star_first_order(f, g, param) == oracle_star_first_order(f, g, param)
        _assert_clean(product)


@pytest.mark.parametrize("hbar_value", (None, 0.1))
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_coprime_denominators_match_oracle(dimension, hbar_value):
    param = DeformationParameter(N=3, hbar_value=hbar_value)
    for f, g in _pairs(dimension, seed=3000 + dimension, make=_coprime_polynomial):
        product = star_product(f, g, param)
        assert product == oracle_star_product(f, g, param)
        assert star_first_order(f, g, param) == oracle_star_first_order(f, g, param)
        assert f * g == oracle_star_product(f, g, DeformationParameter(N=math.inf))
        _assert_clean(product)
        _assert_clean(f * g)


@pytest.mark.parametrize("hbar_value", (None, 0.5, 0.1))
def test_layer_that_cancels_to_the_zero_polynomial(hbar_value):
    # (q1 + p1) (star) (q1 + p1): the hbar/N layers of q1 (star) p1 and
    # p1 (star) q1 are +i and -i and cancel exactly, leaving the pointwise
    # square; a numeric hbar lands both on the constant monomial
    f = PhasePolynomial.variable_q(1) + PhasePolynomial.variable_p(1)
    param = DeformationParameter(N=2, hbar_value=hbar_value)
    product = star_product(f, f, param)
    assert product == oracle_star_product(f, f, param)
    assert product == f * f
    assert product.hbar_component(1).is_zero
    _assert_clean(product)


@pytest.mark.parametrize("N", DEFORMATIONS)
def test_zero_factor_gives_the_zero_polynomial(N):
    # the Weyl algebra has no zero divisors, so a product is the zero
    # polynomial exactly when a factor is
    f = _coprime_polynomial(random.Random(5), 2)
    zero = PhasePolynomial.zero(2)
    param = DeformationParameter(N=N)
    for left, right in ((f, zero), (zero, f), (zero, zero)):
        assert star_product(left, right, param).is_zero
        assert (left * right).is_zero


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
    coprime = [c for d in DIMENSIONS
               for pair in _pairs(d, seed=3000 + d, make=_coprime_polynomial)
               for poly in pair for c in poly.terms.values()]
    assert {c.imag.denominator for c in coprime} == {3, 7, 11, 13}
    assert any(c.real == 0 for c in coprime)
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


def test_split_tables_list_the_nonzero_weights():
    # the expected table is built in ascending j, so == also checks the order
    for a, b, c, d in itertools.product(range(7), repeat=4):
        assert _moyal_splits(a, b, c, d) == tuple(
            (j, (a + c - j,), (b + d - j,), w)
            for j, w in enumerate(_moyal_weights(a, b, c, d)) if w)


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("dimension", (4, 5))
def test_products_over_four_and_five_dimensions_match_oracle(dimension, N):
    # the tables of three or more dimensions are combined under truncation:
    # first order keeps layers 0 and 1, the commutator the odd ones
    param = DeformationParameter(N=N)
    for f, g in _pairs(dimension, seed=4000 + 10 * dimension + N):
        product = oracle_star_product(f, g, param)
        assert star_product(f, g, param) == product
        assert star_first_order(f, g, param) == oracle_star_first_order(f, g, param)
        assert star_commutator(f, g, param) == product - oracle_star_product(g, f, param)


def test_products_from_a_cleared_table_cache_equal_the_warm_ones():
    pairs = _pairs(2, seed=5000) + _pairs(3, seed=5001)
    param = DeformationParameter(N=3)
    warm = [star_product(f, g, param) for f, g in pairs]
    _moyal_splits.cache_clear()
    assert [star_product(f, g, param) for f, g in pairs] == warm
