"""Layers 0 and 1 of the kernel from their closed forms.

A pass whose top layer is at most 1 (``*``, ``**``, the star product at
N = inf, ``star_first_order``, ``poisson_bracket``) computes its layers from
the closed forms, with no split tables.  These tests hold that route to the
split tables it replaced, exponent by exponent in one dimension, and to the
derivative-split oracle on seeded polynomials in two and three.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from star_oracle import oracle_star_first_order, oracle_star_product

from phasestar.algebra import (ComplexFraction, PhasePolynomial, _low_layers, _moyal_splits,
                               _split_layers)
from phasestar.expressions import parse_expression
from phasestar.star import DeformationParameter, poisson_bracket, star_first_order, star_product

# (scale, hbar grade shift, odd) entries of the kernel's layer list: layer 0
# of a graded pass, layer 1 as the first-order pass weights it and as the
# Poisson bracket does
LAYER_0 = (1, 0, 0)
LAYER_1 = (1, 1, 1)
BRACKET_LAYER = (1, 0, 0)
SELECTIONS = ([LAYER_0], [LAYER_0, LAYER_1], [None, LAYER_1], [None, BRACKET_LAYER],
              [(3, 0, 0), (-2, 1, 1)])
PAIRS_PER_CASE = 6


def _rows(a, b, hbar_power=0, pair=(1, 0)):
    return {((a,), (b,), hbar_power): pair}


@pytest.mark.parametrize("layer", SELECTIONS)
def test_closed_forms_equal_the_split_tables_in_one_dimension(layer):
    # == on the item lists also checks that keys enter in the tables' order
    for a, b, c, d in itertools.product(range(7), repeat=4):
        left, right = _rows(a, b, 1, (2, -3)), _rows(c, d, 2, (-5, 7))
        assert (list(_low_layers(left, right, layer).items())
                == list(_split_layers(left, right, layer, len(layer) - 1).items())), (a, b, c, d)


@pytest.mark.parametrize("dimension", (2, 3))
def test_closed_forms_equal_the_split_tables_on_seeded_pairs(dimension):
    for seed in range(3):
        for f, g in _pairs(dimension, seed):
            for layer in SELECTIONS:
                assert (list(_low_layers(f._terms, g._terms, layer).items())
                        == list(_split_layers(f._terms, g._terms, layer, len(layer) - 1).items()))


def test_layer_one_weight_is_ad_minus_bc():
    # the first two split entries, where the table has them
    for a, b, c, d in itertools.product(range(7), repeat=4):
        expected = {j: w for j, _, _, w in _moyal_splits(a, b, c, d) if j <= 1}
        assert expected[0] == 1
        assert expected.get(1, 0) == a * d - b * c


def _random_polynomial(rng: random.Random, dimension: int) -> PhasePolynomial:
    terms = []
    for _ in range(rng.randint(1, 6)):
        exponents = [0] * (2 * dimension)
        for _ in range(rng.randint(0, 7)):
            exponents[rng.randrange(2 * dimension)] += 1
        coefficient = ComplexFraction(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                                      Fraction(rng.randint(-9, 9), rng.choice((1, 4, 5))))
        terms.append(((tuple(exponents[:dimension]), tuple(exponents[dimension:]),
                       rng.choice((0, 0, 1, 2))), coefficient))
    return PhasePolynomial(dimension, terms)


def _pairs(dimension: int, seed: int):
    rng = random.Random(f"low-layers-{dimension}-{seed}")
    return [(_random_polynomial(rng, dimension), _random_polynomial(rng, dimension))
            for _ in range(PAIRS_PER_CASE)]


def _oracle_poisson(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, each product the oracle's at N = inf."""
    commutative = DeformationParameter(N=math.inf)
    total = PhasePolynomial.zero(f.dimension)
    for i in range(f.dimension):
        total += oracle_star_product(f.partial_q(i), g.partial_p(i), commutative)
        total -= oracle_star_product(f.partial_p(i), g.partial_q(i), commutative)
    return total


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dimension", (2, 3))
def test_low_passes_match_the_oracle(dimension, seed):
    commutative = DeformationParameter(N=math.inf)
    for f, g in _pairs(dimension, seed):
        pointwise = oracle_star_product(f, g, commutative)
        assert f * g == pointwise
        assert star_product(f, g, commutative) == pointwise
        assert star_product(f, g, DeformationParameter(N=math.inf, hbar_value=0.5)) == pointwise
        for N, hbar_value in itertools.product((2, 3), (None, 0.1)):
            param = DeformationParameter(N=N, hbar_value=hbar_value)
            assert star_first_order(f, g, param) == oracle_star_first_order(f, g, param)
        assert poisson_bracket(f, g) == _oracle_poisson(f, g)


def test_pairs_reach_layer_one_in_every_dimension():
    # guards the generator: every dimension's layer-1 weight a d - b c is
    # nonzero for some term pair, so the oracle comparisons cover each
    for dimension in (2, 3):
        reached = set()
        for seed in range(3):
            for f, g in _pairs(dimension, seed):
                for (q1, p1, _), (q2, p2, _) in itertools.product(f._terms, g._terms):
                    reached.update(i for i in range(dimension)
                                   if q1[i] * p2[i] - p1[i] * q2[i])
        assert reached == set(range(dimension))


def test_power_of_a_sum_is_bounded_in_time():
    # 5.9-8.1 s when every layer-0 pass read its split tables
    start = time.perf_counter()
    power = parse_expression("(q1+p1)^200", 1)
    assert time.perf_counter() - start < 1.0
    assert power == PhasePolynomial(1, [(((k,), (200 - k,), 0), math.comb(200, k))
                                        for k in range(201)])
