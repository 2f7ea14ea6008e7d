"""phasestar: exact star products on phase-space polynomials, the deformed
oscillator ladder, cavity mode counting, and the radiation law with its
zero-point term."""

from .algebra import ComplexFraction, MultiIndex, PhasePolynomial, exact_fraction
from .blackbody import (LadderTermCapExceeded, QuadratureError, SPECTRUM_FIELDS,
                        SpectrumPoint, dimensionless_x, ladder_terms_for_tolerance,
                        mean_oscillator_energy, rayleigh_jeans_density,
                        spectral_density, spectral_density_ladder_sum,
                        spectral_density_per_frequency, spectrum_sweep,
                        stefan_boltzmann_integral, wien_peak, wien_x_constant,
                        zero_point_cutoff_energy)
from .cavity import (CavitySpec, FieldEnergy, MODE_FIELDS, Mode, ModeAmplitude,
                     ModeCapExceeded, ModeCountResult, PERIODIC, STANDING,
                     electromagnetic_standing_mode_count, enumerate_modes,
                     field_energy, mode_count_vs_asymptotic)
from .checks import CheckResult, random_phase_polynomial, run_all_checks
from .expressions import (GRAMMAR_VERSION, ParseError, Token, format_canonical,
                          parse_expression, tokenize, validate_bindings)
from .oscillator import (OscillatorSpec, energy_level, ground_energy, ladder,
                         oscillator_square_form_energy, oscillator_star_energy)
from .star import (DeformationParameter, classical_limit_bracket,
                   poisson_bracket, star_commutator, star_first_order,
                   star_product)
from .units import NATURAL, UnitSystem

__version__ = "0.1.0"

__all__ = [
    "ComplexFraction", "MultiIndex", "PhasePolynomial", "exact_fraction",
    "LadderTermCapExceeded", "QuadratureError", "SPECTRUM_FIELDS",
    "SpectrumPoint", "dimensionless_x", "ladder_terms_for_tolerance",
    "mean_oscillator_energy", "rayleigh_jeans_density", "spectral_density",
    "spectral_density_ladder_sum", "spectral_density_per_frequency",
    "spectrum_sweep", "stefan_boltzmann_integral", "wien_peak",
    "wien_x_constant", "zero_point_cutoff_energy",
    "CavitySpec", "FieldEnergy", "MODE_FIELDS", "Mode", "ModeAmplitude",
    "ModeCapExceeded", "ModeCountResult", "PERIODIC", "STANDING",
    "electromagnetic_standing_mode_count", "enumerate_modes", "field_energy",
    "mode_count_vs_asymptotic",
    "CheckResult", "random_phase_polynomial", "run_all_checks",
    "GRAMMAR_VERSION", "ParseError", "Token", "format_canonical",
    "parse_expression", "tokenize", "validate_bindings",
    "OscillatorSpec", "energy_level", "ground_energy", "ladder",
    "oscillator_square_form_energy", "oscillator_star_energy",
    "DeformationParameter", "classical_limit_bracket", "poisson_bracket",
    "star_commutator", "star_first_order", "star_product",
    "NATURAL", "UnitSystem",
]
