"""One rule for integer counts, at every public entry point that takes one.

Each count below (a dimension, an exponent, a variable index, a level, a
number of points, nodes, polarizations or modes) must be an integer of at
least its lower bound; numpy integers count, and a bool reads as 0 or 1.
Every other value raises a ValueError that names the argument, and the count
that is kept is a plain int.  Upper limits have their own checks and
messages, pinned where each module is tested; the dimension limit, which
every module that reads a dimension shares, is pinned here.
"""

import io
import math
import random
import re

import numpy as np
import pytest

from phasestar import algebra, units
from phasestar.algebra import PhasePolynomial
from phasestar.blackbody import (spectral_density_ladder_sum, spectrum_sweep,
                                 stefan_boltzmann_integral)
from phasestar.cavity import CavitySpec, enumerate_modes
from phasestar.checks import random_phase_polynomial
from phasestar.cli import main
from phasestar.expressions import parse_expression
from phasestar.oscillator import OscillatorSpec, energy_level, ladder

BAD_VALUES = (1.5, "3", None, 2j, math.nan)
SPEC = OscillatorSpec()
Q = PhasePolynomial.variable_q(2, 1)
GRADED = Q + PhasePolynomial.hbar(2, 1, 3)


def term(q, p=0, hbar_power=0):
    return PhasePolynomial(1, [(((q,), (p,), hbar_power), 3)])


def random_polynomial(dimension=2, **counts):
    return random_phase_polynomial(random.Random(5), dimension, **counts)


# (label, argument named in the error, its lower bound, call with the value,
#  a valid value)
ENTRY_POINTS = [
    ("PhasePolynomial", "dimension", 1, PhasePolynomial, 2),
    ("PhasePolynomial.q_exponents", "exponent", 0, term, 2),
    ("PhasePolynomial.p_exponents", "exponent", 0, lambda v: term(1, v), 2),
    ("PhasePolynomial.hbar_power", "hbar_power", 0, lambda v: term(1, 0, v), 2),
    ("PhasePolynomial.__pow__", "exponent", 0, lambda v: Q ** v, 3),
    ("variable_q", "index", 0, lambda v: PhasePolynomial.variable_q(2, v), 1),
    ("variable_p", "index", 0, lambda v: PhasePolynomial.variable_p(2, v), 1),
    ("variable_q", "dimension", 1, PhasePolynomial.variable_q, 2),
    ("constant", "dimension", 1, lambda v: PhasePolynomial.constant(v, 5), 2),
    ("partial_q", "index", 0, lambda v: (Q * Q).partial_q(v), 1),
    ("partial_p", "index", 0, lambda v: (Q * Q).partial_p(v), 1),
    ("hbar_component", "power", 0, GRADED.hbar_component, 1),
    ("parse_expression", "dimension", 1, lambda v: parse_expression("q1*p1", v), 2),
    ("energy_level", "n", 0, lambda v: energy_level(v, SPEC), 3),
    ("ladder", "n_max", 0, lambda v: ladder(v, SPEC), 3),
    ("spectral_density_ladder_sum", "n_max", 0,
     lambda v: spectral_density_ladder_sum(1.0, 1.0, n_max=v), 64),
    ("stefan_boltzmann_integral", "quadrature_points", 64,
     lambda v: stefan_boltzmann_integral(quadrature_points=v), 128),
    ("spectrum_sweep", "points", 2, lambda v: spectrum_sweep(1.0, 1.0, 2.0, v), 5),
    ("CavitySpec", "polarizations_per_mode", 1,
     lambda v: CavitySpec(polarizations_per_mode=v), 3),
    ("enumerate_modes", "cap", 0, lambda v: enumerate_modes(CavitySpec(), 10.0, cap=v),
     1000),
    ("random_phase_polynomial", "dimension", 1, lambda v: random_polynomial(dimension=v), 2),
    ("random_phase_polynomial", "max_degree", 0, lambda v: random_polynomial(max_degree=v), 3),
    ("random_phase_polynomial", "max_terms", 1, lambda v: random_polynomial(max_terms=v), 4),
    ("random_phase_polynomial", "coefficient_bound", 1,
     lambda v: random_polynomial(coefficient_bound=v), 5),
]

# n_max=None asks the ladder sum to choose n_max from its tail bound
CASES = [pytest.param(name, low, call, value, id=f"{label}.{name}={value!r}")
         for label, name, low, call, _ in ENTRY_POINTS
         for value in BAD_VALUES + (low - 1,)
         if not (value is None and label == "spectral_density_ladder_sum")]


@pytest.mark.parametrize("name, low, call, value", CASES)
def test_bad_count_is_a_value_error_naming_the_argument(name, low, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {low}, got")):
        call(value)


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=f"{label}.{name}")
                                         for label, name, _, call, value in ENTRY_POINTS])
def test_numpy_integer_gives_the_same_result(call, value):
    assert call(np.int64(value)) == call(value)


# (label, call with the dimension): every entry point that reads a dimension
DIMENSION_ENTRY_POINTS = [
    ("PhasePolynomial", PhasePolynomial),
    ("hbar", PhasePolynomial.hbar),
    ("variable_q", PhasePolynomial.variable_q),
    ("variable_p", PhasePolynomial.variable_p),
    ("constant", lambda v: PhasePolynomial.constant(v, 5)),
    ("parse_expression", lambda v: parse_expression("q1*p1", v)),
    ("random_phase_polynomial", lambda v: random_polynomial(dimension=v)),
]


@pytest.mark.parametrize("call", [call for _, call in DIMENSION_ENTRY_POINTS],
                         ids=[label for label, _ in DIMENSION_ENTRY_POINTS])
def test_dimension_limit_is_inclusive(call):
    limit = algebra.MAX_DIMENSION
    assert call(limit).dimension == limit
    with pytest.raises(ValueError, match=f"^dimension {limit + 1} exceeds the limit of {limit}$"):
        call(limit + 1)


def test_stored_counts_are_plain_ints():
    for count in (np.int64(2), np.uint8(2), True):
        assert type(PhasePolynomial(count).dimension) is int
        assert type(parse_expression("q1", count).dimension) is int
        polarizations = CavitySpec(polarizations_per_mode=count).polarizations_per_mode
        assert type(polarizations) is int and polarizations == count
    (q, p, hbar_power), = term(np.int64(2), True, np.int64(1)).terms
    assert [type(e) for e in q + p + (hbar_power,)] == [int, int, int]
    modes = enumerate_modes(CavitySpec(polarizations_per_mode=np.int64(3)), 10.0)
    assert modes and all(type(mode.polarization_count) is int for mode in modes)


def test_fractional_variable_index_is_not_read_as_a_constant():
    # 0 <= 0.5 < 2 held, and no unit exponent matched 0.5
    with pytest.raises(ValueError, match="^index must be an integer"):
        PhasePolynomial.variable_q(2, 0.5)


@pytest.mark.parametrize("value, expected", [(0, 0), (7, 7), (np.int64(7), 7), (True, 1),
                                             (10 ** 400, 10 ** 400)])
def test_valid_count_is_returned_as_int(value, expected):
    result = units.integer("v", value)
    assert type(result) is int and result == expected


@pytest.mark.parametrize("value", (np.float64(2.0), 2.0, np.bool_(True)))
def test_integer_valued_floats_and_numpy_bools_are_refused(value):
    with pytest.raises(ValueError, match="^v must be an integer >= 0"):
        units.integer("v", value)


def test_cli_levels_follow_the_rule():
    out, err = io.StringIO(), io.StringIO()
    assert main(["oscillator", "--levels", "-1"], out=out, err=err) == 1
    assert out.getvalue() == ""
    assert "--levels must be an integer >= 0, got -1" in err.getvalue()
