"""Unit-system constants and validation."""

import math

import pytest

from phasestar.algebra import PhasePolynomial
from phasestar.blackbody import spectral_density
from phasestar.cavity import CavitySpec, enumerate_modes
from phasestar.oscillator import OscillatorSpec, ladder
from phasestar.star import DeformationParameter, star_product
from phasestar.units import NATURAL, UnitSystem, instance

Q = PhasePolynomial.variable_q(1)

# One entry point per object argument class, with the whole message it raises
# for a value of the wrong type.
OBJECT_MESSAGES = [
    (lambda: spectral_density(1.0, 1.0, None), "units", None, UnitSystem,
     "units must be a UnitSystem, got None"),
    (lambda: ladder(3, "spec"), "spec", "spec", OscillatorSpec,
     "spec must be an OscillatorSpec, got 'spec'"),
    (lambda: star_product(Q, Q, 2.0), "param", 2.0, DeformationParameter,
     "param must be a DeformationParameter, got 2.0"),
    (lambda: enumerate_modes(None, 3.0), "spec", None, CavitySpec,
     "spec must be a CavitySpec, got None"),
    (lambda: star_product(Q, 3), "g", 3, PhasePolynomial,
     "g must be a PhasePolynomial, got 3"),
]
OBJECT_IDS = ["UnitSystem", "OscillatorSpec", "DeformationParameter", "CavitySpec",
              "PhasePolynomial"]


def test_natural_units_are_all_one():
    assert (NATURAL.hbar, NATURAL.k_boltzmann, NATURAL.c_light) == (1.0, 1.0, 1.0)
    assert NATURAL.mode == "natural"


def test_si_constants_are_the_defined_values():
    si = UnitSystem.si()
    assert si.hbar == 1.054571817e-34
    assert si.k_boltzmann == 1.380649e-23
    assert si.c_light == 2.99792458e8
    assert si.mode == "si"


def test_constants_must_be_positive():
    with pytest.raises(ValueError):
        UnitSystem(hbar=0.0)
    with pytest.raises(ValueError):
        UnitSystem(k_boltzmann=-1.0)


def test_mode_names_validated():
    with pytest.raises(ValueError):
        UnitSystem(mode="imperial")


def test_no_overflow_up_to_700():
    # the stability edge: x = 700 must evaluate without a range error; the
    # value itself sits below the documented 1e-300 flush line, so exact 0
    # is the policy outcome there while x = 650 is still comfortably positive
    edge = spectral_density(700.0, 1.0)
    assert math.isfinite(edge.total_density)
    assert edge.thermal_density == 0.0
    inside = spectral_density(650.0, 1.0)
    assert math.isfinite(inside.thermal_density)
    assert inside.thermal_density > 0


@pytest.mark.parametrize("call, name, value, kind, message", OBJECT_MESSAGES, ids=OBJECT_IDS)
def test_object_argument_message_is_exact(call, name, value, kind, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("call, name, value, kind, message", OBJECT_MESSAGES, ids=OBJECT_IDS)
def test_instance_message_is_the_entry_points(call, name, value, kind, message):
    with pytest.raises(ValueError) as raised:
        instance(name, value, kind)
    assert str(raised.value) == message


@pytest.mark.parametrize("value, kind", [
    (NATURAL, UnitSystem), (OscillatorSpec(), OscillatorSpec),
    (DeformationParameter(), DeformationParameter), (CavitySpec(), CavitySpec),
    (Q, PhasePolynomial), (True, int),
], ids=OBJECT_IDS + ["subclass"])
def test_instance_returns_the_value_itself(value, kind):
    assert instance("x", value, kind) is value
