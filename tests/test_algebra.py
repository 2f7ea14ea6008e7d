"""Exactness and contract tests for the sparse phase-space polynomials."""

import math
import operator
import random
from fractions import Fraction

import pytest

from phasestar.algebra import ComplexFraction, MultiIndex, PhasePolynomial, exact_fraction
from phasestar.star import DeformationParameter, star_product


def q(d=1, i=0):
    return PhasePolynomial.variable_q(d, i)


def p(d=1, i=0):
    return PhasePolynomial.variable_p(d, i)


class TestComplexFraction:
    def test_floats_enter_exactly(self):
        c = ComplexFraction(0.5, 0.25)
        assert c.real == Fraction(1, 2)
        assert c.imag == Fraction(1, 4)

    def test_arithmetic_is_exact(self):
        third = ComplexFraction(Fraction(1, 3))
        assert third + third + third == ComplexFraction(1)
        assert ComplexFraction(0, 1) * ComplexFraction(0, 1) == ComplexFraction(-1)

    def test_division(self):
        i = ComplexFraction(0, 1)
        assert ComplexFraction(1) / i == ComplexFraction(0, -1)
        with pytest.raises(ZeroDivisionError):
            ComplexFraction(1) / ComplexFraction(0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ComplexFraction(float("nan"))
        with pytest.raises(ValueError):
            exact_fraction(float("inf"))

    def test_scalar_coercion_both_sides(self):
        c = ComplexFraction(2)
        assert 3 * c == ComplexFraction(6)
        assert c * 3 == ComplexFraction(6)
        assert 1 + c == ComplexFraction(3)

    def test_as_complex(self):
        assert ComplexFraction(1, -2).as_complex() == 1 - 2j

    def test_subtraction_and_negation(self):
        c = ComplexFraction(0.5, 3)
        assert c - 1 == ComplexFraction(-0.5, 3)
        assert c - ComplexFraction(0, 3) == ComplexFraction(0.5)
        assert 1 - c == ComplexFraction(0.5, -3)
        assert -c == ComplexFraction(-0.5, -3)

    def test_magnitude_and_repr(self):
        assert ComplexFraction(3, -4).magnitude() == 5.0
        assert repr(ComplexFraction(0.5, -2)) == \
            "ComplexFraction(Fraction(1, 2), Fraction(-2, 1))"

    @pytest.mark.parametrize("value", (
        0, 1, -1, -2, 7, 2 ** 70, 0.5, -0.25, 1e300, Fraction(1, 3), Fraction(-5, 7),
        complex(1, 2), complex(0, -1), complex(-0.5, 0.25), complex(1e300, -3),
        complex(-1000004, 1)))  # the last one sums to hash -1, which becomes -2
    def test_hash_agrees_with_equal_numbers(self, value):
        c = ComplexFraction.from_value(value)
        assert c == value
        assert hash(c) == hash(value)

    def test_equal_values_share_a_set_slot(self):
        assert len({ComplexFraction(1), 1}) == 1
        assert len({ComplexFraction(1, 2), complex(1, 2)}) == 1
        assert len({ComplexFraction(Fraction(1, 3)), Fraction(1, 3), ComplexFraction(0.5)}) == 2

    def test_operand_that_is_no_number_raises_type_error(self):
        with pytest.raises(TypeError):
            ComplexFraction(1) + "a"
        with pytest.raises(TypeError):
            "a" - ComplexFraction(1)
        with pytest.raises(TypeError):
            ComplexFraction(1) * None

    def test_non_finite_operand_still_raises_value_error(self):
        with pytest.raises(ValueError, match="value must be finite"):
            ComplexFraction(1) + math.inf
        with pytest.raises(ValueError, match="value must be finite"):
            ComplexFraction(1) / math.nan


@pytest.mark.parametrize("make", [lambda: ComplexFraction(1, 2), q],
                         ids=["complex-fraction", "polynomial"])
@pytest.mark.parametrize("name", ["real", "_den", "new_attribute"])
def test_attributes_cannot_be_assigned(make, name):
    value = make()
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, 3)


@pytest.mark.parametrize("value", [ComplexFraction(1), PhasePolynomial.constant(1, 1)],
                         ids=["complex-fraction", "polynomial"])
def test_equality_with_a_string_is_false(value):
    assert (value == "1") is False
    assert ("1" == value) is False
    assert value != "1"


class TestConstruction:
    def test_zero_polynomial_has_no_terms(self):
        assert PhasePolynomial.zero(2).is_zero
        assert dict(PhasePolynomial.zero(2).terms) == {}

    def test_duplicate_indices_accumulate(self):
        index = MultiIndex((1,), (0,), 0)
        poly = PhasePolynomial(1, [(index, 2), (index, -2)])
        assert poly.is_zero

    def test_mixed_scalars_sum_to_one_canonical_form_with_plain_keys(self):
        key, other = ((1,), (0,), 0), ((0,), (1,), 0)
        poly = PhasePolynomial(1, [(MultiIndex(*key), 0.25), (key, Fraction(1, 3)),
                                   (key, 1j), (other, True), (other, ComplexFraction(-1))])
        assert (poly._den, poly._terms) == (12, {key: (7, 12)})
        assert [type(k) for k in poly._terms] == [tuple]
        assert [type(k) for k in poly.terms] == [MultiIndex]

    def test_exponent_length_must_match_dimension(self):
        with pytest.raises(ValueError):
            PhasePolynomial(2, [(MultiIndex((1,), (0, 0), 0), 1)])

    @pytest.mark.parametrize("key", [
        ((1,), (0,)),        # no hbar grade
        ((1,), (0,), 0, 0),  # one entry too many
        (1, 0, 0),           # flat exponents instead of vectors
        5,
    ])
    def test_malformed_term_key_rejected(self, key):
        with pytest.raises(ValueError, match="term key"):
            PhasePolynomial(1, [(key, 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PhasePolynomial(1, [(MultiIndex((-1,), (0,), 0), 1)])

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            PhasePolynomial(0)

    def test_variable_index_range(self):
        with pytest.raises(ValueError):
            PhasePolynomial.variable_q(1, 1)
        with pytest.raises(ValueError):
            PhasePolynomial.variable_p(2, -1)


class TestAddition:
    def test_disjoint_terms_concatenate(self):
        total = q() + p()
        assert len(total.terms) == 2

    def test_additive_inverse_gives_empty_terms(self):
        assert (q() + (-q())).is_zero

    def test_coefficient_arithmetic(self):
        i = ComplexFraction(0, 1)
        left = q() * 2 + p() * i
        right = q() - p() * i
        assert left + right == q() * 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q(1) + q(2)

    def test_scalar_minus_polynomial(self):
        assert 1 - q() == PhasePolynomial.constant(1, 1) - q()
        assert 2j - p() == -(p() - ComplexFraction(0, 2))

    @pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul],
                             ids=["add", "sub", "mul"])
    def test_complex_fraction_on_the_left_reaches_the_polynomial(self, combine):
        assert combine(ComplexFraction(0, 2), p()) == combine(2j, p())

    def test_complex_fraction_over_a_polynomial_raises(self):
        with pytest.raises(TypeError):
            ComplexFraction(1) / p()


class TestMultiplication:
    def test_variables_multiply(self):
        qp = q() * p()
        assert qp == PhasePolynomial.monomial(1, (1,), (1,))

    def test_difference_of_squares(self):
        assert (q() + p()) * (q() - p()) == q() ** 2 - p() ** 2

    def test_hbar_grading_is_multiplicative(self):
        h = PhasePolynomial.hbar(1)
        product = (h * q()) * (h * p())
        assert product == PhasePolynomial.monomial(1, (1,), (1,), hbar_power=2)

    def test_scalar_multiplication(self):
        assert q() * Fraction(1, 2) + q() * Fraction(1, 2) == q()
        assert (q() * 0).is_zero

    def test_division_by_a_scalar(self):
        assert (q() * 4 + p()) / 2 == q() * 2 + p() * Fraction(1, 2)
        assert q() / ComplexFraction(0, 1) == q() * ComplexFraction(0, -1)

    def test_division_by_a_polynomial_or_zero_raises(self):
        with pytest.raises(TypeError, match="polynomial division is not defined"):
            q() / p()
        with pytest.raises(ZeroDivisionError):
            q() / 0

    def test_pow(self):
        assert q() ** 3 == q() * q() * q()
        assert (q() + 1) ** 0 == PhasePolynomial.constant(1, 1)
        with pytest.raises(ValueError):
            q() ** -1


class TestDerivatives:
    def test_q_derivative(self):
        poly = q() ** 2 * p()
        assert poly.partial_q(0) == q() * p() * 2

    def test_derivative_of_missing_variable_is_zero(self):
        assert (q() ** 2).partial_p(0).is_zero

    def test_power_rule(self):
        assert (q() ** 3).partial_q(0) == q() ** 2 * 3

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            q().partial_q(1)


class TestEvaluate:
    def test_direct_substitution(self):
        poly = q() * p() + PhasePolynomial.hbar(1, coefficient=ComplexFraction(0, Fraction(1, 2)))
        assert poly.evaluate([2, 3], hbar_value=1) == 6 + 0.5j

    def test_zero_polynomial(self):
        assert PhasePolynomial.zero(2).evaluate([1, 2, 3, 4]) == 0

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            q().evaluate([1.0])

    def test_negative_hbar_rejected(self):
        with pytest.raises(ValueError):
            q().evaluate([0, 0], hbar_value=-1)

    def test_exact_for_representable_inputs(self):
        poly = q() ** 2 * Fraction(1, 4)
        assert poly.evaluate([0.5, 0]) == 0.0625


# every public way to give hbar a number, called with the value v
HBAR_ROUTES = {
    "DeformationParameter": lambda v: star_product(q(), p(), DeformationParameter(hbar_value=v)),
    "evaluate": lambda v: (q() * p() + PhasePolynomial.hbar(1)).evaluate([2, 3], hbar_value=v),
    "substitute_hbar": lambda v: (q() * p() + PhasePolynomial.hbar(1)).substitute_hbar(v),
}


# None is also rejected, except by DeformationParameter, where it selects the symbolic hbar
BAD_HBAR_CASES = [(route, value) for route in HBAR_ROUTES
                  for value in ("a", 2j, math.nan, math.inf, -math.inf, -1, None)
                  if not (route == "DeformationParameter" and value is None)]


class TestHbarValueRule:
    @pytest.mark.parametrize("route, value", BAD_HBAR_CASES)
    def test_rejects_with_a_value_error_naming_hbar_value(self, route, value):
        with pytest.raises(ValueError, match="hbar_value"):
            HBAR_ROUTES[route](value)

    def test_zero_gives_the_hbar_free_part(self):
        assert HBAR_ROUTES["DeformationParameter"](0) == q() * p()
        assert HBAR_ROUTES["evaluate"](0) == 6
        assert HBAR_ROUTES["substitute_hbar"](0) == q() * p()


class TestHbarHandling:
    def test_component_extraction(self):
        poly = q() + PhasePolynomial.hbar(1, power=2, coefficient=3)
        assert poly.hbar_component(0) == q()
        assert poly.hbar_component(2) == PhasePolynomial.constant(1, 3)
        assert poly.hbar_component(1).is_zero

    def test_min_hbar_power(self):
        poly = PhasePolynomial.hbar(1, power=2) + PhasePolynomial.hbar(1, power=5)
        assert poly.min_hbar_power() == 2
        assert PhasePolynomial.zero(1).min_hbar_power() is None

    def test_substitute_hbar(self):
        poly = q() + PhasePolynomial.hbar(1, coefficient=Fraction(1, 2))
        collapsed = poly.substitute_hbar(2.0)
        assert collapsed == q() + 1

    def test_substitute_is_exact(self):
        tiny = PhasePolynomial.hbar(1, coefficient=1e-15 / 8)
        assert tiny.substitute_hbar(1.0) == PhasePolynomial.constant(1, 1e-15 / 8)

    def test_substitute_keeps_coefficients_beyond_the_double_range(self):
        huge = PhasePolynomial.constant(1, 10 ** 400) + PhasePolynomial.hbar(1)
        assert huge.substitute_hbar(1.0) == PhasePolynomial.constant(1, 10 ** 400 + 1)

    def test_symbolic_arithmetic_never_prunes(self):
        tiny = PhasePolynomial.constant(1, Fraction(1, 10 ** 40))
        assert not (tiny + tiny).is_zero


class TestAlgebraLaws:
    def test_add_and_mul_commute_and_associate(self):
        rng = random.Random(7)

        def sample(d):
            terms = []
            for _ in range(rng.randint(1, 5)):
                exps = [rng.randint(0, 3) for _ in range(2 * d)]
                terms.append(((tuple(exps[:d]), tuple(exps[d:]), rng.randint(0, 2)),
                              ComplexFraction(rng.randint(-5, 5), rng.randint(-5, 5))))
            return PhasePolynomial(d, terms)

        for _ in range(40):
            d = rng.choice((1, 2))
            f, g, h = sample(d), sample(d), sample(d)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_total_degree_excludes_hbar(self):
        poly = PhasePolynomial.hbar(1, power=4) + q() * p()
        assert poly.total_degree() == 2
