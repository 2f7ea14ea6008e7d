"""Deformed-oscillator energy and ladder tests."""

import math
import re
from fractions import Fraction

import pytest

from phasestar.algebra import PhasePolynomial
from phasestar.expressions import format_canonical, parse_expression
from phasestar.oscillator import (MAX_LADDER_LEVEL, OscillatorSpec, energy_level,
                                  ground_energy, ladder, oscillator_square_form_energy,
                                  oscillator_star_energy)
from phasestar.star import DeformationParameter, star_product
from phasestar.units import UnitSystem


def expected_energy(omega, n_value, sign=+1):
    w = Fraction(omega)
    x = PhasePolynomial.variable_q(1, 0)
    p = PhasePolynomial.variable_p(1, 0)
    shift = PhasePolynomial.hbar(1, coefficient=sign * w / Fraction(n_value))
    return (p ** 2 + x ** 2 * w ** 2) * Fraction(1, 2) + shift


class TestSymbolicEnergy:
    @pytest.mark.parametrize("omega", [1, 2, 7.5])
    @pytest.mark.parametrize("n_value", [1, 2, 10])
    def test_factored_energy_identity(self, omega, n_value):
        spec = OscillatorSpec(omega=omega, N=n_value)
        assert oscillator_star_energy(spec) == expected_energy(omega, n_value)

    def test_canonical_form_at_default(self):
        spec = OscillatorSpec(omega=1, N=2)
        text = format_canonical(oscillator_star_energy(spec))
        assert text == "0.5*q1^2 + 0.5*p1^2 + 0.5*hbar"

    def test_reversed_order_flips_the_shift(self):
        spec = OscillatorSpec(omega=1, N=2)
        reversed_energy = oscillator_star_energy(spec, reverse_factors=True)
        assert reversed_energy == expected_energy(1, 2, sign=-1)

    def test_orderings_differ_by_twice_the_shift(self):
        spec = OscillatorSpec(omega=3, N=5)
        forward = oscillator_star_energy(spec)
        backward = oscillator_star_energy(spec, reverse_factors=True)
        assert forward - backward == PhasePolynomial.hbar(
            1, coefficient=2 * Fraction(3) / Fraction(5))
        classical = (forward + backward) * Fraction(1, 2)
        assert classical.min_hbar_power() is None or classical.min_hbar_power() == 0
        assert classical == expected_energy(3, 5) - PhasePolynomial.hbar(
            1, coefficient=Fraction(3) / Fraction(5))

    def test_free_limit_has_no_shift(self):
        spec = OscillatorSpec(omega=1, N=math.inf)
        energy = oscillator_star_energy(spec)
        assert energy.hbar_component(1).is_zero
        assert energy == expected_energy(1, 2) - PhasePolynomial.hbar(
            1, coefficient=Fraction(1, 2))

    def test_huge_numeric_n_suppresses_the_shift(self):
        spec = OscillatorSpec(omega=1, N=1e12)
        shift = oscillator_star_energy(spec).hbar_component(1)
        coefficient = shift.evaluate([0, 0]).real
        assert 0 < coefficient < 1e-11

    def test_square_form_carries_no_shift(self):
        spec = OscillatorSpec(omega=2, N=2)
        energy = oscillator_square_form_energy(spec)
        x = PhasePolynomial.variable_q(1, 0)
        p = PhasePolynomial.variable_p(1, 0)
        assert energy == (p ** 2 + x ** 2 * 4) * Fraction(1, 2)

    def test_float_normalized_factors_agree_to_rounding(self):
        # the literal 1/sqrt(2) float route reproduces the exact identity
        # only up to float representation error in (1/sqrt 2)**2
        inv_sqrt2 = 1 / math.sqrt(2)
        minus = parse_expression("c*(p1 - i*q1)", 1, {"c": inv_sqrt2})
        plus = parse_expression("c*(p1 + i*q1)", 1, {"c": inv_sqrt2})
        product = star_product(minus, plus, DeformationParameter(N=2))
        exact = expected_energy(1, 2)
        for index, coefficient in exact.terms.items():
            approx = product.terms[index]
            assert abs(complex(approx.as_complex() - coefficient.as_complex())) < 1e-15


class TestGroundEnergy:
    def test_half_quantum_at_default(self):
        for quantum in (1.0, 3.0, 1e-300, 5e-324, 1e308, math.inf):
            assert ground_energy(quantum) == 0.5 * quantum
        assert ground_energy(3.0, 3.0) == 1.0

    def test_free_limit_is_exactly_zero(self):
        for quantum in (1.0, 1e308, math.inf):
            assert ground_energy(quantum, math.inf) == 0.0

    def test_rejects_non_positive_n(self):
        for n_value in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                ground_energy(1.0, n_value)

    @pytest.mark.parametrize("quantum", ["a", None, 2j, -1.0, -math.inf, -5e-324], ids=repr)
    def test_rejects_a_quantum_that_is_no_non_negative_real(self, quantum):
        message = f"quantum must be a non-negative real number, got {quantum!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ground_energy(quantum)

    def test_infinite_and_nan_quanta_pass_through(self):
        # tests/field_energy_oracle.py sums the ground energy of inf and nan
        # quanta and relies on getting inf and nan back
        assert ground_energy(math.inf) == math.inf
        assert math.isnan(ground_energy(math.nan))
        assert math.isnan(ground_energy(math.nan, 3.0))
        assert ground_energy(math.nan, math.inf) == 0.0
        assert ground_energy(0.0) == 0.0


class TestEnergyLevels:
    def test_ground_state_at_physical_default(self):
        assert energy_level(0, OscillatorSpec(omega=1, N=2)) == 0.5

    def test_ladder_value(self):
        assert energy_level(3, OscillatorSpec(omega=1, N=2)) == 3.5

    def test_free_limit_is_exact(self):
        spec = OscillatorSpec(omega=1, N=math.inf)
        assert energy_level(3, spec) == 3.0
        assert energy_level(0, spec) == 0.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            energy_level(-1, OscillatorSpec())

    def test_matches_half_integer_rule_exactly(self):
        spec = OscillatorSpec(omega=1, N=2)
        for n in range(0, 2000, 37):
            assert energy_level(n, spec) == (n + 0.5) * 1.0 * 1.0

    def test_si_units_scale(self):
        units = UnitSystem.si()
        spec = OscillatorSpec(omega=1e15, N=2, units=units)
        assert energy_level(0, spec) == units.hbar * 1e15 / 2


class TestLevelOverflow:
    def test_overflowing_level_raises(self):
        spec = OscillatorSpec(omega=1e308)
        assert energy_level(1, spec) == 1.5e308
        assert ladder(1, spec) == [5e307, 1.5e308]
        message = re.escape("energy of level 2 at omega = 1e+308 overflows a double")
        with pytest.raises(ValueError, match=message):
            energy_level(2, spec)
        with pytest.raises(ValueError, match=message):
            ladder(2, spec)
        with pytest.raises(ValueError, match="overflows a double"):
            energy_level(10 ** 400, OscillatorSpec())

    def test_overflowing_quantum_raises_at_the_ground_level(self):
        spec = OscillatorSpec(omega=1e300, units=UnitSystem(hbar=1e10))
        with pytest.raises(ValueError, match=re.escape("level 0 at omega = 1e+300 overflows")):
            energy_level(0, spec)


class TestLadder:
    def test_values(self):
        assert ladder(2, OscillatorSpec(omega=2, N=2)) == [1.0, 3.0, 5.0]

    def test_constant_gap(self):
        spec = OscillatorSpec(omega=2, N=2)
        levels = ladder(40, spec)
        gaps = {b - a for a, b in zip(levels, levels[1:])}
        assert gaps == {2.0}

    def test_single_element(self):
        spec = OscillatorSpec(omega=1, N=4)
        assert ladder(0, spec) == [energy_level(0, spec)] == [0.25]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            ladder(-1, OscillatorSpec())

    def test_level_limit_is_inclusive(self):
        assert len(ladder(MAX_LADDER_LEVEL, OscillatorSpec())) == MAX_LADDER_LEVEL + 1
        for n_max in (MAX_LADDER_LEVEL + 1, 10 ** 13):
            with pytest.raises(ValueError, match=f"highest level {n_max} exceeds "
                                                 f"the limit of {MAX_LADDER_LEVEL}"):
                ladder(n_max, OscillatorSpec())


class TestSymbolicNumericAgreement:
    @pytest.mark.parametrize("omega", [1.0, 2.0, 7.5, 0.25])
    @pytest.mark.parametrize("n_value", [1.0, 2.0, 10.0])
    def test_evaluate_at_origin_equals_ground_level(self, omega, n_value):
        spec = OscillatorSpec(omega=omega, N=n_value)
        symbolic = oscillator_star_energy(spec)
        value = symbolic.evaluate([0.0, 0.0], hbar_value=1.0)
        assert value.imag == 0
        assert value.real == energy_level(0, spec)


class TestSpecValidation:
    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            OscillatorSpec(omega=0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            OscillatorSpec(omega=omega)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            OscillatorSpec(N=-1)
