"""Every numeric entry point returns finite values or raises ValueError.

The grid is an explicit table: each float argument takes the seven
magnitudes of ``VALUES`` and the unit system takes the 27 forms of
``UNIT_SYSTEMS``, with each of hbar, k and c at 1e-200, 1 or 1e200.  Derived
scales such as k*T, hbar*w or the cavity scale pi*c/L then leave the double
range even though every input is valid, and each call must still end in
finite numbers or in a ValueError, never in an OverflowError, a
ZeroDivisionError or an inf or nan result.  Powers such as w**2 and
pi**2 c**3 leave it too, but they are no checked scale: where one does, the
rational factor is formed exactly and rounded once, and only a result that
leaves the double range raises.

The one exemption is ``dimensionless_x``, which may return inf: hbar*w and
k*T are both finite doubles there, only their ratio x = hbar*w/(k*T)
overflows.  Every formula treats that x as past ``X_OVERFLOW`` (the thermal
part is 0), which is how ``spectral_density(1e10, 1e-300)`` returns a point,
so the inf is a documented value, not an escape.
"""

import itertools
import math
import re
import warnings
from fractions import Fraction

import pytest

from phasestar.algebra import PhasePolynomial
from phasestar.blackbody import (SpectrumPoint, X_OVERFLOW, dimensionless_x,
                                 mean_oscillator_energy, rayleigh_jeans_density,
                                 spectral_density, spectral_density_ladder_sum,
                                 spectral_density_per_frequency, spectrum_sweep,
                                 stefan_boltzmann_integral, wien_peak,
                                 zero_point_cutoff_energy)
from phasestar.cavity import (CavitySpec, ModeCountResult,
                              electromagnetic_standing_mode_count,
                              mode_count_vs_asymptotic)
from phasestar.oscillator import OscillatorSpec, energy_level
from phasestar.units import UnitSystem

VALUES = (1e-320, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e308)
SCALES = (1e-200, 1.0, 1e200)
UNIT_SYSTEMS = [UnitSystem(hbar, k, c)
                for hbar, k, c in itertools.product(SCALES, SCALES, SCALES)]

# (name, call with the two grid floats a and b and the unit system)
ENTRY_POINTS = [
    ("spectral_density", lambda a, b, units: spectral_density(a, b, units)),
    ("spectral_density_per_frequency",
     lambda a, b, units: spectral_density_per_frequency(a, b, units)),
    ("spectral_density_ladder_sum",
     lambda a, b, units: spectral_density_ladder_sum(a, b, units)),
    ("spectral_density_ladder_sum(n_max=64)",
     lambda a, b, units: spectral_density_ladder_sum(a, b, units, n_max=64)),
    ("mean_oscillator_energy", lambda a, b, units: mean_oscillator_energy(a, b, units)),
    ("dimensionless_x", lambda a, b, units: dimensionless_x(a, b, units)),
    ("rayleigh_jeans_density", lambda a, b, units: rayleigh_jeans_density(a, b, units)),
    ("spectrum_sweep", lambda a, b, units: spectrum_sweep(b, a, 4 * a, 3, units=units)),
    ("wien_peak", lambda a, b, units: wien_peak(a, units)),
    ("zero_point_cutoff_energy",
     lambda a, b, units: zero_point_cutoff_energy(a, units, N=b)),
    ("stefan_boltzmann_integral", lambda a, b, units: stefan_boltzmann_integral(units)),
    ("mode_count_vs_asymptotic",
     lambda a, b, units: mode_count_vs_asymptotic(CavitySpec(side_length=a), b, units)),
    ("electromagnetic_standing_mode_count",
     lambda a, b, units: electromagnetic_standing_mode_count(CavitySpec(side_length=a),
                                                             b, units)),
]


def numbers_in(result):
    """Every float a result carries."""
    if isinstance(result, float):
        return [result]
    if isinstance(result, SpectrumPoint):
        return [result.thermal_density, result.zero_point_density, result.total_density]
    if isinstance(result, ModeCountResult):
        return [result.asymptotic_count, result.relative_error]
    if isinstance(result, (list, tuple)):
        return [number for item in result for number in numbers_in(item)]
    return []


def escape(name, call, a, b, units):
    """None if the call returns finite values or raises ValueError, else what escaped."""
    try:
        result = call(a, b, units)
    except ValueError:
        return None
    except Exception as error:  # noqa: BLE001 - an escape is what this test looks for
        return repr(error)
    if name == "dimensionless_x" and result == math.inf:
        return None
    bad = [number for number in numbers_in(result) if not math.isfinite(number)]
    return f"returned {bad!r}" if bad else None


@pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=[name for name, _ in ENTRY_POINTS])
def test_every_grid_call_is_finite_or_a_value_error(name, call):
    escapes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the few-modes advisory of the cavity count
        for units in UNIT_SYSTEMS:
            for a, b in itertools.product(VALUES, VALUES):
                what = escape(name, call, a, b, units)
                if what is not None:
                    escapes.append(f"{name}({a!r}, {b!r}, {units}): {what}")
    assert escapes == [], f"{len(escapes)} escapes, first: {escapes[:3]}"


def test_infinite_x_flushes_the_thermal_part_in_both_routes():
    # hbar*w = 1e10 and k*T = 1e-300 are finite; x overflows to inf
    assert dimensionless_x(1e10, 1e-300) == math.inf > X_OVERFLOW
    for include_zero_point in (True, False):
        closed = spectral_density(1e10, 1e-300, include_zero_point=include_zero_point)
        summed = spectral_density_ladder_sum(1e10, 1e-300,
                                             include_zero_point=include_zero_point)
        assert summed == closed
        assert closed.thermal_density == 0.0
    # just past X_OVERFLOW the ladder's exp(-x) is still a normal double
    assert spectral_density_ladder_sum(701.0, 1.0) == spectral_density(701.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda w, t, units: [spectral_density(w, t, units)],
    lambda w, t, units: [rayleigh_jeans_density(w, t, units)],
    lambda w, t, units: spectrum_sweep(t, w, 4 * w, 3, units=units),
    lambda w, t, units: [spectral_density_ladder_sum(w, t, units)],
], ids=["spectral_density", "rayleigh_jeans_density", "spectrum_sweep",
        "spectral_density_ladder_sum"])
@pytest.mark.parametrize("omega, temperature, c_light", [
    # c**3 is finite at c = 4e102 but pi**2 c**3 is inf: its reciprocal 0 would
    # make every density 0.0, where w**2/(pi**2 c**3) is 1.6e-109 at w = 1e100
    (1e100, 1.0, 4e102),
    # c**3 underflows to 0 at c = 1e-110, where w**2/(pi**2 c**3) is 1.0e129
    # and the density about 1.1e29
    (1e-100, 1e-100, 1e-110),
], ids=["c=4e102", "c=1e-110"])
def test_pi_squared_c_cubed_beyond_the_double_range_keeps_every_density(
        call, omega, temperature, c_light):
    def states(w):
        return Fraction(w) ** 2 / (Fraction(math.pi) ** 2 * Fraction(c_light) ** 3)

    for result in call(omega, temperature, UnitSystem(c_light=c_light)):
        if isinstance(result, float):  # the classical density w**2 k T/(pi**2 c**3)
            expected = states(omega) * Fraction(temperature)
        else:  # the zero-point density of each point, hbar*w/2 times the states
            result, expected = result.zero_point_density, states(result.omega) * Fraction(
                result.omega) / 2
        assert 0 < result == pytest.approx(float(expected), rel=1e-15, abs=0)


@pytest.mark.parametrize("call", [
    lambda: PhasePolynomial.hbar(1, 0, 10 ** 400).evaluate([1.0, 2.0], hbar_value=1.0),
], ids=["evaluate"])
def test_exact_values_beyond_the_double_range_raise(call):
    with pytest.raises(ValueError, match="overflows a double"):
        call()


# (name, call, its exact message): every finite() site whose message no other test pins in full
OVERFLOW_MESSAGES = [
    ("dimensionless_x-kT",
     lambda: dimensionless_x(1.0, 1e200, UnitSystem(k_boltzmann=1e200)),
     "k*T at temperature 1e+200 overflows a double"),
    ("dimensionless_x-quantum",
     lambda: dimensionless_x(1e200, 1.0, UnitSystem(hbar=1e200)),
     "hbar*omega at omega = 1e+200 overflows a double"),
    # w**2/(pi**2 c**3) is about 1e599
    ("spectral_density-reciprocal",
     lambda: spectral_density(1.0, 1.0, UnitSystem(c_light=1e-200)),
     "spectral density at omega = 1.0 overflows a double"),
    ("rayleigh_jeans_density",
     lambda: rayleigh_jeans_density(1e200, 1e200),
     "spectral density at omega = 1e+200 overflows a double"),
    ("stefan_boltzmann_integral-k",
     lambda: stefan_boltzmann_integral(UnitSystem(k_boltzmann=1e200)),
     "T**4 coefficient of units = UnitSystem(hbar=1.0, k_boltzmann=1e+200, c_light=1.0, "
     "mode='natural') overflows a double"),
    ("stefan_boltzmann_integral-hbar",
     lambda: stefan_boltzmann_integral(UnitSystem(hbar=1e-200)),
     "T**4 coefficient of units = UnitSystem(hbar=1e-200, k_boltzmann=1.0, c_light=1.0, "
     "mode='natural') overflows a double"),
    # the angular density overflows at 2*pi*nu = 6.3e100
    ("spectral_density_per_frequency-density",
     lambda: spectral_density_per_frequency(1e100, 1e200),
     "spectral density at nu = 1e+100 overflows a double"),
    # the angular density is a finite 5.07e307; only the 2*pi Jacobian overflows
    ("spectral_density_per_frequency-jacobian",
     lambda: spectral_density_per_frequency(1e100 / (2 * math.pi), 5e108),
     f"spectral density at nu = {1e100 / (2 * math.pi)!r} overflows a double"),
    ("zero_point_cutoff_energy-omega",
     lambda: zero_point_cutoff_energy(1e100),
     "zero-point energy below omega_cutoff = 1e+100 overflows a double"),
    ("zero_point_cutoff_energy-c",
     lambda: zero_point_cutoff_energy(1.0, UnitSystem(c_light=1e-200)),
     "zero-point energy below omega_cutoff = 1.0 overflows a double"),
    # an int too large for a double: the OverflowError branch of finite()
    ("energy_level-int",
     lambda: energy_level(10 ** 400, OscillatorSpec()),
     f"energy of level {10 ** 400} at omega = 1.0 overflows a double"),
    ("evaluate",
     lambda: PhasePolynomial.hbar(1, 0, 10 ** 400).evaluate([1.0, 2.0], hbar_value=1.0),
     "the value at (1.0, 2.0) with hbar_value = 1.0 overflows a double"),
]


@pytest.mark.parametrize("name, call, message", OVERFLOW_MESSAGES,
                         ids=[name for name, _, _ in OVERFLOW_MESSAGES])
def test_overflow_message_in_full(name, call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
