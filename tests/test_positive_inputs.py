"""One rule for physical inputs, at every public numeric entry point.

Each argument below must be a real number above 0, and below inf unless inf
has a meaning there (N = inf is the commutative limit; an inf omega_max is
rejected later by the check that handles large bounds).  Every other value
raises a ValueError that names the argument.  The N of DeformationParameter
is covered by ``tests/test_star.py``.
"""

import io
import math
import re
from fractions import Fraction

import pytest

from phasestar.blackbody import (dimensionless_x, ladder_terms_for_tolerance,
                                 mean_oscillator_energy, rayleigh_jeans_density,
                                 spectral_density, spectral_density_ladder_sum,
                                 spectral_density_per_frequency, spectrum_sweep,
                                 wien_peak, zero_point_cutoff_energy)
from phasestar.cavity import (CavitySpec, electromagnetic_standing_mode_count,
                              enumerate_modes, field_energy, mode_count_vs_asymptotic)
from phasestar.cli import main
from phasestar.oscillator import OscillatorSpec, ground_energy
from phasestar.units import UnitSystem, positive

BAD_VALUES = ("1", None, 2j, math.nan, -math.inf, 0, -1)

# (label, argument named in the error, call with the value, must be finite)
ENTRY_POINTS = [
    ("UnitSystem", "hbar", lambda v: UnitSystem(hbar=v), True),
    ("UnitSystem", "k_boltzmann", lambda v: UnitSystem(k_boltzmann=v), True),
    ("UnitSystem", "c_light", lambda v: UnitSystem(c_light=v), True),
    ("OscillatorSpec", "omega", lambda v: OscillatorSpec(omega=v), True),
    ("OscillatorSpec", "N", lambda v: OscillatorSpec(N=v), False),
    ("ground_energy", "N", lambda v: ground_energy(1.0, v), False),
    ("mean_oscillator_energy", "omega", lambda v: mean_oscillator_energy(v, 1.0), True),
    ("mean_oscillator_energy", "temperature",
     lambda v: mean_oscillator_energy(1.0, v), True),
    ("spectral_density", "omega", lambda v: spectral_density(v, 1.0), True),
    ("spectral_density", "temperature", lambda v: spectral_density(1.0, v), True),
    ("spectral_density_per_frequency", "nu",
     lambda v: spectral_density_per_frequency(v, 1.0), True),
    ("spectral_density_per_frequency", "temperature",
     lambda v: spectral_density_per_frequency(1.0, v), True),
    ("spectral_density_ladder_sum", "omega",
     lambda v: spectral_density_ladder_sum(v, 1.0), True),
    ("spectral_density_ladder_sum", "temperature",
     lambda v: spectral_density_ladder_sum(1.0, v), True),
    ("rayleigh_jeans_density", "omega", lambda v: rayleigh_jeans_density(v, 1.0), True),
    ("rayleigh_jeans_density", "temperature",
     lambda v: rayleigh_jeans_density(1.0, v), True),
    ("dimensionless_x", "omega", lambda v: dimensionless_x(v, 1.0), True),
    ("dimensionless_x", "temperature", lambda v: dimensionless_x(1.0, v), True),
    ("wien_peak", "temperature", wien_peak, True),
    ("ladder_terms_for_tolerance", "x", ladder_terms_for_tolerance, True),
    ("ladder_terms_for_tolerance", "rel_tol",
     lambda v: ladder_terms_for_tolerance(1.0, rel_tol=v), True),
    ("zero_point_cutoff_energy", "omega_cutoff", zero_point_cutoff_energy, True),
    ("zero_point_cutoff_energy", "N", lambda v: zero_point_cutoff_energy(1.0, N=v), False),
    ("spectrum_sweep", "temperature", lambda v: spectrum_sweep(v, 1.0, 2.0, 3), True),
    ("spectrum_sweep", "omega_min", lambda v: spectrum_sweep(1.0, v, 2.0, 3), True),
    ("spectrum_sweep", "omega_max", lambda v: spectrum_sweep(1.0, 1.0, v, 3), False),
    ("CavitySpec", "side_length", lambda v: CavitySpec(side_length=v), True),
    ("enumerate_modes", "omega_max", lambda v: enumerate_modes(CavitySpec(), v), False),
    ("mode_count_vs_asymptotic", "omega_max",
     lambda v: mode_count_vs_asymptotic(CavitySpec(), v), False),
    ("electromagnetic_standing_mode_count", "omega_max",
     lambda v: electromagnetic_standing_mode_count(CavitySpec(), v), False),
    ("field_energy", "N", lambda v: field_energy([], [], N=v), False),
]

CASES = [pytest.param(name, call, value, id=f"{label}.{name}={value!r}")
         for label, name, call, finite in ENTRY_POINTS
         for value in BAD_VALUES + ((math.inf,) if finite else ())]
# rel_tol is a fraction of the leading term: 1 and above are rejected too
CASES.append(pytest.param("rel_tol", lambda v: ladder_terms_for_tolerance(1.0, rel_tol=v), 1,
                          id="ladder_terms_for_tolerance.rel_tol=1"))


@pytest.mark.parametrize("name, call, value", CASES)
def test_bad_value_is_a_value_error_naming_the_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        call(value)


@pytest.mark.parametrize("value", (1, 2.5, Fraction(1, 3), 10 ** 400),
                         ids=("1", "2.5", "1/3", "10**400"))
def test_valid_value_is_returned_unchanged(value):
    assert positive("v", value) is value
    assert positive("v", value, finite=False) is value


def test_only_non_finite_may_accept_inf():
    assert positive("N", math.inf, finite=False) == math.inf
    with pytest.raises(ValueError, match=re.escape("N must be positive and finite, got inf")):
        positive("N", math.inf)


@pytest.mark.parametrize("text", ("nan", "-inf", "0", "-1", "two", ""))
def test_cli_deformation_constant_follows_the_rule(text):
    out, err = io.StringIO(), io.StringIO()
    code = main(["star", "q1", "p1", f"--N={text}"], out=out, err=err)
    assert code == 1
    assert out.getvalue() == ""
    assert "N must be a positive number or 'infinity'" in err.getvalue()
