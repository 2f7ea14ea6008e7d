"""Star product, commutator, Poisson bracket and classical-limit tests.

Expected polynomials are constructed independently, term by term, from hand
expansions of the series; every comparison is exact.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasestar.algebra import ComplexFraction, PhasePolynomial
from phasestar.checks import random_phase_polynomial
from phasestar.star import (DeformationParameter, classical_limit_bracket,
                            poisson_bracket, star_commutator, star_first_order,
                            star_product)


def q(d=1, i=0):
    return PhasePolynomial.variable_q(d, i)


def p(d=1, i=0):
    return PhasePolynomial.variable_p(d, i)


def hbar_const(value, d=1, power=1):
    return PhasePolynomial.hbar(d, power=power, coefficient=value)


def seeded_pair(seed, dimension):
    rng = random.Random(seed)
    return tuple(random_phase_polynomial(rng, dimension, complex_coefficients=True)
                 for _ in range(2))


# inputs on which the numeric-hbar and the substituted symbolic routes must agree
NUMERIC_HBAR_CASES = dict(
    seed=st.integers(0, 2 ** 32), dimension=st.sampled_from((1, 2)),
    N=st.sampled_from((2, 3, 0.7, Fraction(7, 3))),
    h=st.just(0.0) | st.floats(-300, 3).map(lambda e: 10.0 ** e))


I = ComplexFraction(0, 1)


class TestDeformationParameter:
    def test_default_is_physical(self):
        assert DeformationParameter().N == 2.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DeformationParameter(N=0)
        with pytest.raises(ValueError):
            DeformationParameter(N=-2)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, "2"))
    def test_rejects_non_finite_or_non_numeric_hbar_value(self, value):
        with pytest.raises(ValueError, match="hbar_value"):
            DeformationParameter(hbar_value=value)

    @pytest.mark.parametrize("value", (math.nan, "2", None, 2j, -math.inf, 0, -1))
    def test_rejects_non_numeric_n(self, value):
        with pytest.raises(ValueError, match="N must be"):
            DeformationParameter(N=value)

    def test_accepts_exact_and_zero_values(self):
        assert DeformationParameter(N=Fraction(7, 3), hbar_value=0).hbar_value == 0

    def test_commutative_limit_is_exact(self):
        assert DeformationParameter(N=math.inf).inverse_n == 0

    def test_inverse_n_is_exact_fraction(self):
        assert DeformationParameter(N=10).inverse_n == Fraction(1, 10)


class TestStarProduct:
    def test_q_star_p_single_correction(self):
        # k=1 term: (i hbar/2) * (dq/dq)(dp/dp) = i hbar / 2
        result = star_product(q(), p(), DeformationParameter(N=2))
        expected = q() * p() + hbar_const(I * Fraction(1, 2))
        assert result == expected

    def test_p_star_p_has_no_correction(self):
        assert star_product(p(), p()) == p() ** 2
        assert star_product(q(), q()) == q() ** 2

    def test_oscillator_factored_product(self):
        # (p - i w x) star (p + i w x) = p^2 + w^2 x^2 + 2 hbar w / N
        for omega, n_value in ((1, 2), (2, 1), (7.5, 10)):
            w = Fraction(omega)
            minus = p() - q() * (I * w)
            plus = p() + q() * (I * w)
            result = star_product(minus, plus, DeformationParameter(N=n_value))
            expected = p() ** 2 + q() ** 2 * w ** 2 + hbar_const(2 * w / n_value)
            assert result == expected

    def test_constant_acts_as_scalar(self):
        c = PhasePolynomial.constant(1, ComplexFraction(3, -1))
        g = q() ** 2 * p()
        assert star_product(c, g) == g * ComplexFraction(3, -1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            star_product(q(1), q(2))

    def test_commutative_limit_reduces_to_pointwise(self):
        f = (q() + p()) ** 3
        g = q() ** 2 - p()
        assert star_product(f, g, DeformationParameter(N=math.inf)) == f * g

    @given(**NUMERIC_HBAR_CASES)
    @settings(max_examples=150, deadline=None)
    def test_numeric_hbar_matches_substituted_symbolic(self, seed, dimension, N, h):
        f, g = seeded_pair(seed, dimension)
        numeric = star_product(f, g, DeformationParameter(N, h))
        assert numeric == star_product(f, g, DeformationParameter(N)).substitute_hbar(h)

    def test_grade_zero_component_is_pointwise_product(self):
        f = (q() + 2) * p()
        g = q() ** 3 - p() ** 2
        assert star_product(f, g).hbar_component(0) == f * g

    def test_inputs_carrying_hbar_grade_through(self):
        f = hbar_const(1) * q()
        result = star_product(f, p(), DeformationParameter(N=2))
        expected = hbar_const(1) * (q() * p()) + hbar_const(I * Fraction(1, 2), power=2)
        assert result == expected


class TestFirstOrderTruncation:
    def test_linear_arguments_match_full_product(self):
        result = star_first_order(q(), p(), DeformationParameter(N=3))
        expected = q() * p() + hbar_const(I * Fraction(1, 3))
        assert result == expected
        assert result == star_product(q(), p(), DeformationParameter(N=3))

    def test_quadratic_arguments_differ_at_second_order(self):
        param = DeformationParameter(N=1)
        truncated = star_first_order(q() ** 2, p() ** 2, param)
        expected = q() ** 2 * p() ** 2 + (q() * p()) * hbar_const(I * 4)
        assert truncated == expected

        full = star_product(q() ** 2, p() ** 2, param)
        difference = full - truncated
        assert not difference.is_zero
        assert difference.min_hbar_power() >= 2

    def test_constant_times_anything(self):
        c = PhasePolynomial.constant(1, 5)
        g = (q() + p()) ** 2
        assert star_first_order(c, g) == g * 5


class TestStarCommutator:
    def test_canonical_pair(self):
        result = star_commutator(q(), p(), DeformationParameter(N=2))
        assert result == hbar_const(I)

    def test_cross_dimension_pair_vanishes(self):
        result = star_commutator(q(2, 0), p(2, 1), DeformationParameter(N=2))
        assert result.is_zero

    def test_self_commutator_vanishes(self):
        f = (q() + p() * ComplexFraction(2, 1)) ** 3
        assert star_commutator(f, f).is_zero

    def test_general_n_scales_the_canonical_value(self):
        result = star_commutator(q(), p(), DeformationParameter(N=8))
        assert result == hbar_const(I * Fraction(1, 4))
        assert result != hbar_const(I)

    @given(**NUMERIC_HBAR_CASES)
    @settings(max_examples=150, deadline=None)
    def test_numeric_hbar_matches_substituted_symbolic(self, seed, dimension, N, h):
        f, g = seeded_pair(seed, dimension)
        numeric = star_commutator(f, g, DeformationParameter(N, h))
        assert numeric == star_commutator(f, g, DeformationParameter(N)).substitute_hbar(h)


class TestPoissonBracket:
    def test_canonical_pair(self):
        assert poisson_bracket(q(), p()) == PhasePolynomial.constant(1, 1)

    def test_quadratic(self):
        assert poisson_bracket(q() ** 2, p()) == q() * 2

    def test_antisymmetry_self(self):
        f = q() ** 2 * p() + p() ** 3
        assert poisson_bracket(f, f).is_zero

    def test_off_diagonal_vanishes(self):
        assert poisson_bracket(q(2, 0), p(2, 1)).is_zero


class TestClassicalLimit:
    def test_canonical_pair_gives_one(self):
        result = classical_limit_bracket(q(), p(), DeformationParameter(N=2))
        assert result == PhasePolynomial.constant(1, 1)

    def test_quadratic_pair(self):
        result = classical_limit_bracket(q() ** 2, p() ** 2,
                                         DeformationParameter(N=2))
        assert result.hbar_component(0) == q() * p() * 4
        assert result.hbar_component(0) == poisson_bracket(q() ** 2, p() ** 2)

    def test_constant_input_gives_zero(self):
        c = PhasePolynomial.constant(1, 9)
        assert classical_limit_bracket(c, (q() + p()) ** 4).is_zero

    def test_requires_symbolic_hbar(self):
        with pytest.raises(ValueError):
            classical_limit_bracket(q(), p(), DeformationParameter(N=2, hbar_value=1.0))

    def test_requires_finite_n(self):
        with pytest.raises(ValueError):
            classical_limit_bracket(q(), p(), DeformationParameter(N=math.inf))

    def test_independent_of_n(self):
        # the 2/N in the commutator cancels against the division
        for n_value in (1, 2, 5, 12.5):
            result = classical_limit_bracket(q() ** 2, p() ** 2,
                                             DeformationParameter(N=n_value))
            assert result.hbar_component(0) == q() * p() * 4


class TestKernelSymmetries:
    def test_self_star_has_even_corrections_only(self):
        f = (q() ** 2 + p()) * (q() + p() ** 2)
        difference = star_product(f, f) - f * f
        assert difference.min_hbar_power() >= 2
        for index in difference.terms:
            assert index.hbar_power % 2 == 0

    def test_single_variable_self_star_is_pointwise(self):
        assert star_product(q() ** 5, q() ** 3) == q() ** 8
