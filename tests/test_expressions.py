"""Tokenizer, parser and canonical-rendering tests."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasestar.algebra import ComplexFraction, PhasePolynomial
from phasestar.expressions import (MAX_NESTING, ParseError, format_canonical,
                                   parse_expression, tokenize,
                                   validate_bindings)
from phasestar.star import DeformationParameter, star_product


def q(d=1, i=0):
    return PhasePolynomial.variable_q(d, i)


def p(d=1, i=0):
    return PhasePolynomial.variable_p(d, i)


class TestTokenize:
    def test_identifiers_and_plus(self):
        kinds = [t.kind for t in tokenize("q1 + p1")]
        assert kinds == ["identifier", "plus", "identifier"]

    def test_caret(self):
        assert [t.kind for t in tokenize("2^3")] == ["number", "caret", "number"]

    def test_invalid_character_position(self):
        for source, position, character in [
            ("q1 $ p1", 3, "$"),
            ("1.5.3", 3, "."),
            ("8e1.", 3, "."),
            ("q1 +\x0b p1", 4, "\x0b"),   # whitespace other than space, tab, CR, LF
            ("q1*\u00e9", 3, "\u00e9"),
            ("2*\u0663", 2, "\u0663"),     # a unicode digit is not a digit here
        ]:
            with pytest.raises(ParseError) as info:
                tokenize(source)
            assert info.value.position == position
            assert info.value.message == f"invalid character {character!r}"

    def test_positions_strictly_increase(self):
        tokens = tokenize("(q1 + 2.5*p2)^3 - hbar")
        positions = [t.position for t in tokens]
        assert positions == sorted(set(positions))

    def test_float_literals(self):
        texts = [t.text for t in tokenize("0.5 1e-05 2.75e+10 3E2")]
        assert texts == ["0.5", "1e-05", "2.75e+10", "3E2"]

    def test_dangling_decimal_point_rejected(self):
        for source, position in [("1. + q1", 1), ("1.e5", 1), ("q1 + 12.", 7),
                                 ("3.5 * 40.q1", 8)]:
            with pytest.raises(ParseError) as info:
                tokenize(source)
            assert info.value.position == position
            assert info.value.message == "digit expected after decimal point"

    def test_e_without_digits_is_identifier(self):
        kinds = [t.kind for t in tokenize("2e")]
        assert kinds == ["number", "identifier"]
        tokens = tokenize("1.5e+q1 8E-")
        assert [(t.kind, t.text) for t in tokens] == [
            ("number", "1.5"), ("identifier", "e"), ("plus", "+"),
            ("identifier", "q1"), ("number", "8"), ("identifier", "E"), ("minus", "-")]


class TestParse:
    def test_sum_of_squares(self):
        assert parse_expression("q1^2 + p1^2", 1) == q() ** 2 + p() ** 2

    def test_binding_substitution(self):
        result = parse_expression("(p1 - i*omega*q1)", 1, {"omega": 3})
        assert result == p() - q() * ComplexFraction(0, 3)

    def test_variable_index_exceeds_dimension(self):
        with pytest.raises(ParseError) as info:
            parse_expression("q2", 1)
        assert "exceeds dimension" in str(info.value)
        assert info.value.position == 0

    def test_index_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("q0", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as info:
            parse_expression("q1 + beta", 1)
        assert info.value.position == 5

    def test_reserved_names_cannot_be_bound(self):
        for name in ("q1", "p7", "i", "hbar"):
            with pytest.raises(ValueError):
                validate_bindings({name: 1.0})

    def test_unary_minus_below_power(self):
        # -q1^2 is -(q1^2), not (-q1)^2
        assert parse_expression("-q1^2", 1) == -(q() ** 2)

    def test_unary_minus_above_addition(self):
        assert parse_expression("-q1 + p1", 1) == p() - q()

    def test_double_negation(self):
        assert parse_expression("--q1", 1) == q()

    def test_unary_minus_after_times(self):
        assert parse_expression("2*-3", 1) == PhasePolynomial.constant(1, -6)

    def test_number_power(self):
        assert parse_expression("2^10", 1) == PhasePolynomial.constant(1, 1024)

    def test_parenthesized_power(self):
        assert parse_expression("(q1 + p1)^2", 1) == (q() + p()) ** 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("q1^-2", 1)
        assert "negative exponent" in str(info.value)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("q1^2.5", 1)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("2 q1", 1)
        assert info.value.position == 2

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expression("", 1)
        with pytest.raises(ParseError):
            parse_expression("   ", 1)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expression("(q1 + p1", 1)
        with pytest.raises(ParseError):
            parse_expression("q1)", 1)

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_expression("q1 +", 1)

    def test_hbar_and_i(self):
        result = parse_expression("i*hbar", 1)
        assert result == PhasePolynomial.hbar(1, coefficient=ComplexFraction(0, 1))

    def test_higher_dimension(self):
        result = parse_expression("q2*p1", 2)
        assert result == PhasePolynomial.variable_q(2, 1) * PhasePolynomial.variable_p(2, 0)

    def test_precedence_of_times_over_plus(self):
        assert parse_expression("q1 + 2*p1", 1) == q() + p() * 2

    def test_error_offsets_inside_source(self):
        bad_sources = ["q1 + + p1", "q9", "((q1)", "q1^", "*q1", "2 ** 3"]
        for source in bad_sources:
            with pytest.raises(ParseError) as info:
                parse_expression(source, 1)
            assert 0 <= info.value.position <= len(source)

    @pytest.mark.parametrize("source, message, offset", [
        ("", "empty expression", 0),
        ("   ", "empty expression", 0),
        ("q1 +  ", "unexpected end of expression", 6),
        ("(q1  ", "missing closing parenthesis", 5),
        ("q1^ ", "unexpected end of expression", 4),
        ("-", "unexpected end of expression", 1),
    ])
    def test_end_of_input_errors_name_their_offset(self, source, message, offset):
        with pytest.raises(ParseError) as info:
            parse_expression(source, 1)
        assert (info.value.message, info.value.position) == (message, offset)

    @pytest.mark.parametrize("source, d, message, offset", [
        ("\t\r\n", 1, "empty expression", 0),
        ("q1 +\n\t)", 1, "unexpected token ')'", 6),
        ("q1\t\tp1", 1, "unexpected token 'p1'", 4),
        ("q1\t)\n", 1, "unexpected token ')'", 3),
        ("q1 +\n\t", 1, "unexpected end of expression", 6),
        ("q1^\t\t", 1, "unexpected end of expression", 5),
        ("(q1\r\n", 1, "missing closing parenthesis", 5),
        ("((q1)\t\n", 1, "missing closing parenthesis", 7),
        ("q1^\t-2", 1, "negative exponent not allowed", 4),
        ("q1^\r\n*", 1, "integer exponent expected after '^'", 5),
        ("q1^ 2.0", 1, "exponent must be a non-negative integer literal", 4),
        ("q1^\n1e2", 1, "exponent must be a non-negative integer literal", 4),
        ("q1 * zz", 1, "unknown identifier 'zz'", 5),
        ("\t\r\n zz", 1, "unknown identifier 'zz'", 4),
        ("q1 *  q9", 3, "variable index 9 exceeds dimension 3", 6),
        ("q1\t*\r\nq0", 1, "variable index 0 exceeds dimension 1", 6),
        ("q1 *\n\tp4", 3, "variable index 4 exceeds dimension 3", 6),
        ("\n" + "(\t" * MAX_NESTING + "(q1", 1, f"nesting deeper than {MAX_NESTING} levels",
         2 * MAX_NESTING + 1),
        ("\t" + "-\n" * (MAX_NESTING + 1) + "q1", 1, f"nesting deeper than {MAX_NESTING} levels",
         2 * MAX_NESTING + 1),
    ])
    def test_errors_after_tabs_and_line_breaks_name_their_offset(self, source, d, message,
                                                                 offset):
        with pytest.raises(ParseError) as info:
            parse_expression(source, d)
        assert (info.value.message, info.value.position) == (message, offset)

    def test_nesting_limit_is_inclusive(self):
        deepest = "(" * MAX_NESTING + "q1" + ")" * MAX_NESTING
        assert parse_expression(deepest, 1) == q()
        with pytest.raises(ParseError) as info:
            parse_expression("(" + deepest + ")", 1)
        assert info.value.position == MAX_NESTING

    def test_parentheses_and_unary_minus_share_the_limit(self):
        half = MAX_NESTING // 2
        assert parse_expression("-(" * half + "q1" + ")" * half, 1) == q() * (-1) ** half
        with pytest.raises(ParseError):
            parse_expression("-" + "-(" * half + "q1" + ")" * half, 1)


    @pytest.mark.parametrize("source, offset", [
        ("q1 + 1e-400", 5), ("1e999*q1", 0), ("q1 - 2.5E-330*p1", 5), ("(q1 + 7e+400)^2", 6),
        ("2.4e-324", 0), ("q1*1.8e308", 3),
    ])
    def test_literal_outside_the_double_range_is_rejected_at_its_offset(self, source, offset):
        with pytest.raises(ParseError, match="outside the double range") as info:
            parse_expression(source, 1)
        assert info.value.position == offset

    @pytest.mark.parametrize("source, value", [
        ("1e-320*q1", Fraction(1e-320)), ("0.0*q1", 0), ("0e5*q1", 0), ("0.000e-999*q1", 0),
        ("1.7e308*q1", Fraction(1.7e308)), ("1" + "0" * 400 + "*q1", 10 ** 400),
    ])
    def test_literal_within_the_double_range_keeps_its_double(self, source, value):
        assert parse_expression(source, 1) == q() * value


LITERALS = st.builds(
    "{}{}{}".format, st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,4}", fullmatch=True)),
    st.one_of(st.just(""), st.builds("e{}".format, st.integers(-420, 420))))


@settings(max_examples=300, deadline=None)
@given(LITERALS)
def test_every_number_literal_is_exact_or_rejected_at_its_offset(literal):
    source = "q1 + " + literal
    if literal.isdigit():
        assert parse_expression(source, 1) == q() + int(literal)
        return
    value = float(literal)
    if value in (0, float("inf")) and Decimal(literal) != 0:
        with pytest.raises(ParseError) as info:
            parse_expression(source, 1)
        assert info.value.position == len("q1 + ")
    else:
        assert parse_expression(source, 1) == q() + Fraction(value)


class TestFormatCanonical:
    def test_ordering_and_half_imaginary(self):
        poly = q() * p() + PhasePolynomial.hbar(
            1, coefficient=ComplexFraction(0, Fraction(1, 2)))
        assert format_canonical(poly) == "q1*p1 + 0.5*i*hbar"

    def test_zero(self):
        assert format_canonical(PhasePolynomial.zero(3)) == "0"

    def test_real_half_hbar(self):
        poly = PhasePolynomial.hbar(1, coefficient=Fraction(1, 2))
        assert format_canonical(poly) == "0.5*hbar"

    def test_unit_imaginary_coefficient(self):
        poly = PhasePolynomial.hbar(1, coefficient=ComplexFraction(0, 1))
        assert format_canonical(poly) == "i*hbar"

    def test_negative_terms(self):
        poly = -(q() ** 2) - PhasePolynomial.hbar(1, coefficient=Fraction(1, 2))
        assert format_canonical(poly) == "-q1^2 - 0.5*hbar"

    def test_constant_one(self):
        assert format_canonical(PhasePolynomial.constant(2, 1)) == "1"

    def test_mixed_complex_coefficient_parenthesized(self):
        poly = q() * ComplexFraction(1, 2)
        text = format_canonical(poly)
        assert text == "(1 + 2*i)*q1"
        assert parse_expression(text, 1) == poly

    def test_mixed_with_negative_imaginary(self):
        poly = q() * ComplexFraction(-1, -2)
        text = format_canonical(poly)
        assert text == "(-1 - 2*i)*q1"
        assert parse_expression(text, 1) == poly

    def test_grade_orders_before_degree(self):
        poly = PhasePolynomial.hbar(1) + q() ** 3
        assert format_canonical(poly) == "q1^3 + hbar"

    def test_q_prints_before_p(self):
        poly = q() ** 2 + q() * p() + p() ** 2
        assert format_canonical(poly) == "q1^2 + q1*p1 + p1^2"

    def test_hbar_power_rendering(self):
        poly = PhasePolynomial.hbar(1, power=3, coefficient=-2)
        assert format_canonical(poly) == "-2*hbar^3"

    def test_str_dunder_matches(self):
        poly = q() + p() * 2
        assert str(poly) == format_canonical(poly)


class TestRoundTrip:
    CASES = [
        "q1*p1 + 0.5*i*hbar",
        "0",
        "1",
        "-q1^2 - 0.5*hbar",
        "q1^2 + q1*p1 + p1^2",
        "(1 + 2*i)*q1 - 3*p1",
        "7",
        "i",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_format_is_fixed_point(self, text):
        poly = parse_expression(text, 1)
        assert format_canonical(poly) == text

    def test_float_coefficients_round_trip(self):
        inv_sqrt2 = 0.7071067811865476
        poly = parse_expression("c*p1", 1, {"c": inv_sqrt2})
        assert parse_expression(format_canonical(poly), 1) == poly

    @pytest.mark.parametrize("N, text, exact", [
        (2, "q1*p1 + 0.5*i*hbar", True),
        (3, "q1*p1 + 0.3333333333333333*i*hbar", False),
    ])
    def test_non_dyadic_coefficients_render_lossily(self, N, text, exact):
        # 1/2 renders exactly; 1/3 renders through repr(float) and parses
        # back as the nearest double, a different rational.  Either way the
        # rendering is stable from the first render on.
        product = star_product(q(), p(), DeformationParameter(N=N))
        assert format_canonical(product) == text
        again = parse_expression(text, 1)
        assert (again == product) is exact
        assert format_canonical(again) == text

    def test_large_integer_coefficients_round_trip(self):
        big = 3 ** 80
        poly = PhasePolynomial.constant(1, big) * q()
        assert parse_expression(format_canonical(poly), 1) == poly
