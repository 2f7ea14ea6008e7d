"""Arguments of the wrong type at every entry point.

A polynomial, source text, bindings mapping, evaluation point, exponent
vector, deformation parameter, unit system, oscillator or cavity spec, mode
list or amplitude table of the wrong type raises a ValueError that names the
argument, not an AttributeError or TypeError from deep inside the call.
Numpy integers and floats are numbers wherever the algebra reads one exactly:
``exact_fraction`` turns them into the Fraction they denote, and only a value
that is no real number keeps its TypeError.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from phasestar.algebra import PhasePolynomial, exact_fraction
from phasestar.blackbody import (SpectrumPoint, spectral_density, spectrum_sweep,
                                 stefan_boltzmann_integral, wien_peak, zero_point_cutoff_energy)
from phasestar.cavity import (CavitySpec, Mode, ModeAmplitude,
                              electromagnetic_standing_mode_count, enumerate_modes,
                              field_energy, mode_count_vs_asymptotic)
from phasestar.checks import random_phase_polynomial, run_all_checks
from phasestar.expressions import (format_canonical, parse_expression, tokenize,
                                   validate_bindings)
from phasestar.oscillator import (OscillatorSpec, energy_level, ladder,
                                  oscillator_square_form_energy, oscillator_star_energy)
from phasestar.star import (DeformationParameter, classical_limit_bracket, poisson_bracket,
                            star_commutator, star_first_order, star_product)

Q = PhasePolynomial.variable_q(1)
P = PhasePolynomial.variable_p(1)
MODE = Mode((1, 1, 1), 1.0)
PAIRS = [(0.5, 0.5), (0.5, 0.5)]
UNITS = "units must be a UnitSystem, got "
SPEC = "spec must be an OscillatorSpec, got "
PARAM = "param must be a DeformationParameter, got "
REAL_BINDINGS = "bindings must map names to real numbers, got "
FINITE_BINDINGS = "bindings must map names to finite real numbers, got "
ROWS = ("modes must be a sequence of Mode rows and amplitudes one sequence of (Q, P) "
        "pairs per mode: ")


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
    (lambda: tokenize(5), "source must be a string, got 5"),
    (lambda: validate_bindings(5), "bindings must be a mapping of names to numbers, got 5"),
    (lambda: parse_expression("q1", 1, 5),
     "bindings must be a mapping of names to numbers, got 5"),
    (lambda: validate_bindings({1: 2}), "bindings must map names to numbers, got the name 1"),
    (lambda: PhasePolynomial.monomial(1, 5, (0,)),
     "q_exponents must be a sequence of integers, got 5"),
    (lambda: PhasePolynomial.monomial(1, (0,), 2.0),
     "p_exponents must be a sequence of integers, got 2.0"),
    (lambda: (Q * P).evaluate(["a", 1]), "point must hold real numbers, got ('a', 1)"),
    (lambda: (Q * P).evaluate([1j, 1]), "point must hold real numbers, got (1j, 1)"),
    (lambda: (Q * P).evaluate(5), "point must be a sequence of 2 real numbers, got 5"),
    (lambda: enumerate_modes(None, 3.0), "spec must be a CavitySpec, got None"),
    (lambda: mode_count_vs_asymptotic("standing", 30.0),
     "spec must be a CavitySpec, got 'standing'"),
    (lambda: electromagnetic_standing_mode_count("standing", 30.0),
     "spec must be a CavitySpec, got 'standing'"),
    (lambda: field_energy(5, []), ROWS + "object of type 'int' has no len()"),
    (lambda: field_energy((mode for mode in [MODE]), [PAIRS]),
     ROWS + "object of type 'generator' has no len()"),
    (lambda: field_energy([MODE], 5), ROWS + "object of type 'int' has no len()"),
    (lambda: field_energy([MODE], [None]), ROWS + "object of type 'NoneType' has no len()"),
    (lambda: field_energy([MODE], [[None, (0.5, 0.5)]]),
     ROWS + "object of type 'NoneType' has no len()"),
    (lambda: field_energy([tuple(MODE)], [PAIRS]),
     ROWS + "'tuple' object has no attribute 'omega'"),
    (lambda: field_energy([Mode((1, 1, 1), "2.0", 1)], [[ModeAmplitude(1.0, 2.0)]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'str'"),
    (lambda: field_energy([Mode((1, 1, 1), 1.0, 1)], [[ModeAmplitude("1.5", "2")]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'str'"),
    (lambda: field_energy([Mode((1, 1, 1), 1.0, 1)], [[ModeAmplitude(0.5, b"2")]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'bytes'"),
    # unparseable text gets the same message as parseable text, not numpy's
    (lambda: field_energy([Mode((1, 1, 1), "x", 1)], [[(1.0, 2.0)]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'str'"),
    (lambda: field_energy([Mode((1, 1, 1), 1.0, 1)], [[("x", 2.0)]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'str'"),
    (lambda: field_energy([Mode((1, 1, 1), 1.0, 1)], [["ab"]]),
     ROWS + "unsupported operand type(s) for +: 'float' and 'str'"),
    (lambda: spectral_density(1.0, 1.0, "si"), UNITS + "'si'"),
    (lambda: spectrum_sweep(1.0, 1.0, 2.0, 5, units=None), UNITS + "None"),
    (lambda: wien_peak(1.0, None), UNITS + "None"),
    (lambda: stefan_boltzmann_integral(None), UNITS + "None"),
    (lambda: zero_point_cutoff_energy(1.0, None), UNITS + "None"),
    (lambda: zero_point_cutoff_energy(1.0, None, math.inf), UNITS + "None"),
    (lambda: enumerate_modes(CavitySpec(), 5.0, None), UNITS + "None"),
    (lambda: mode_count_vs_asymptotic(CavitySpec(), 50.0, None), UNITS + "None"),
    (lambda: field_energy([], [], 2.0, None), UNITS + "None"),
    (lambda: run_all_checks(0, None), UNITS + "None"),
    (lambda: random_phase_polynomial("seed", 1), "rng must be a Random, got 'seed'"),
    (lambda: OscillatorSpec(units=None), UNITS + "None"),
    (lambda: ladder(3, None), SPEC + "None"),
    (lambda: energy_level(1, "spec"), SPEC + "'spec'"),
    (lambda: oscillator_star_energy(None), SPEC + "None"),
    (lambda: oscillator_square_form_energy(1.0), SPEC + "1.0"),
    (lambda: star_product(Q, P, None), PARAM + "None"),
    (lambda: star_first_order(Q, P, 2.0), PARAM + "2.0"),
    (lambda: star_commutator(Q, P, 2), PARAM + "2"),
    (lambda: classical_limit_bracket(Q, P, None), PARAM + "None"),
    (lambda: validate_bindings({"a": 1j}), REAL_BINDINGS + "1j for 'a'"),
    (lambda: validate_bindings({"a": np.complex64(1)}), REAL_BINDINGS),
    (lambda: parse_expression("a*q1", 1, {"a": 2 + 1j}), REAL_BINDINGS + "(2+1j) for 'a'"),
    (lambda: validate_bindings({"a": math.inf}), FINITE_BINDINGS + "inf for 'a'"),
    (lambda: validate_bindings({"b": -math.inf}), FINITE_BINDINGS + "-inf for 'b'"),
    (lambda: validate_bindings({"a": math.nan}), FINITE_BINDINGS + "nan for 'a'"),
    (lambda: validate_bindings({"a": np.float32("inf")}),
     FINITE_BINDINGS + "np.float32(inf) for 'a'"),
    (lambda: parse_expression("a*q1", 1, {"a": math.nan}), FINITE_BINDINGS + "nan for 'a'"),
    (lambda: SpectrumPoint(1.0, 1.0, "a", 0.0, "a"),
     "thermal_density must be a real number, got 'a'"),
    (lambda: SpectrumPoint(1.0, 1.0, None, 0.0, None),
     "thermal_density must be a real number, got None"),
    (lambda: SpectrumPoint(1.0, 1.0, 1.0, "a", 1.0),
     "zero_point_density must be a real number, got 'a'"),
    (lambda: SpectrumPoint(1.0, 1.0, 1.0, 0.0, 1j), "total_density must be a real number, got 1j"),
    (lambda: SpectrumPoint("x", None, 1.0, 0.0, 1.0), "omega must be a real number, got 'x'"),
    (lambda: SpectrumPoint(1.0, None, 1.0, 0.0, 1.0),
     "temperature must be a real number, got None"),
], ids=["star-g", "star-f", "first-order", "commutator", "classical-limit", "poisson",
        "format", "parse-int", "parse-bytes", "tokenize-int", "bindings-int",
        "parse-bindings-int", "bindings-int-name", "monomial-q", "monomial-p", "evaluate-str",
        "evaluate-complex", "evaluate-int", "enumerate-spec", "count-spec", "budget-spec", "field-modes-int",
        "field-modes-generator", "field-amplitudes-int", "field-row-none",
        "field-amplitude-none", "field-plain-tuples", "field-omega-text",
        "field-amplitude-text", "field-amplitude-bytes", "field-omega-unparseable",
        "field-amplitude-unparseable", "field-amplitude-two-letters", "density-units",
        "sweep-units",
        "wien-units", "integral-units", "cutoff-units", "cutoff-free-limit-units",
        "enumerate-units", "count-units", "field-units", "checks-units",
        "random-polynomial-rng",
        "oscillator-spec-units", "ladder-spec", "level-spec", "star-energy-spec",
        "square-form-spec", "star-param", "first-order-param", "commutator-param",
        "classical-limit-param", "bindings-complex", "bindings-numpy-complex",
        "parse-bindings-complex", "bindings-inf", "bindings-minus-inf", "bindings-nan",
        "bindings-numpy-inf", "parse-bindings-nan", "point-thermal-str", "point-thermal-none",
        "point-zero-point-str", "point-total-complex", "point-omega-str", "point-temperature-none"])
def test_wrong_type_names_the_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


Q2 = PhasePolynomial.variable_q(2)


@pytest.mark.parametrize("call", [
    lambda: star_product(Q, Q2), lambda: star_first_order(Q, Q2),
    lambda: star_commutator(Q, Q2), lambda: classical_limit_bracket(Q, Q2),
    lambda: poisson_bracket(Q, Q2), lambda: Q + Q2, lambda: Q * Q2,
], ids=["star", "first-order", "commutator", "classical-limit", "poisson", "add", "mul"])
def test_dimension_mismatch_names_both_dimensions(call):
    with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
        call()


def test_iterable_exponents_still_build_a_monomial():
    assert PhasePolynomial.monomial(2, iter((1, 0)), [0, 2]) == \
        PhasePolynomial.monomial(2, (1, 0), (0, 2))


THIRD = np.longdouble(1) / 3


@pytest.mark.parametrize("value, expected", [
    (np.int64(-3), Fraction(-3)), (np.uint8(7), Fraction(7)),
    (np.int32(2 ** 31 - 1), Fraction(2 ** 31 - 1)),
    (np.float32(0.1), Fraction(13421773, 2 ** 27)), (np.float16(1.5), Fraction(3, 2)),
    (THIRD, Fraction(*THIRD.as_integer_ratio())), (np.float64(-2.5), Fraction(-5, 2)),
], ids=repr)
def test_exact_fraction_reads_numpy_numbers_exactly(value, expected):
    converted = exact_fraction(value)
    assert type(converted) is Fraction
    assert converted == expected


@pytest.mark.parametrize("value", [np.float32("inf"), np.float16("-inf"), np.float32("nan"),
                                   np.longdouble("nan")], ids=repr)
def test_exact_fraction_rejects_non_finite_numpy_floats(value):
    with pytest.raises(ValueError, match="value must be finite"):
        exact_fraction(value)


@pytest.mark.parametrize("value", ["1", None, 1j, [1], np.complex64(1)], ids=repr)
def test_exact_fraction_keeps_type_error_for_non_reals(value):
    with pytest.raises(TypeError, match="cannot interpret"):
        exact_fraction(value)


@pytest.mark.parametrize("numpy_call, plain_call", [
    (lambda: star_product(Q, P, DeformationParameter(N=np.int64(2))),
     lambda: star_product(Q, P, DeformationParameter(N=2))),
    (lambda: star_product(Q, P, DeformationParameter(hbar_value=np.int64(1))),
     lambda: star_product(Q, P, DeformationParameter(hbar_value=1))),
    (lambda: star_commutator(Q, P, DeformationParameter(N=np.float32(0.5))),
     lambda: star_commutator(Q, P, DeformationParameter(N=0.5))),
    (lambda: (Q * P).evaluate([np.float32(1.0), 1]), lambda: (Q * P).evaluate([1.0, 1])),
    (lambda: (Q * P + Q).evaluate([np.int64(2), np.float16(0.5)], np.float32(0.25)),
     lambda: (Q * P + Q).evaluate([2, 0.5], 0.25)),
    (lambda: star_product(Q, P).substitute_hbar(np.int64(1)),
     lambda: star_product(Q, P).substitute_hbar(1)),
    (lambda: PhasePolynomial.constant(1, np.int64(3)), lambda: PhasePolynomial.constant(1, 3)),
], ids=["N-int64", "hbar-int64", "N-float32", "evaluate-float32", "evaluate-mixed",
        "substitute-int64", "constant-int64"])
def test_numpy_numbers_give_the_plain_result(numpy_call, plain_call):
    assert numpy_call() == plain_call()
