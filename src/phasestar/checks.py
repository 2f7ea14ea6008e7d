"""Self-contained invariant suite and the seeded random polynomial family.

The suite re-derives the library's central identities at runtime:
associativity of the star product on a random sample, the canonical
commutator values, agreement of the closed radiation law with the ladder-sum
route, the T**4 integral, and the lattice-count convergence trend.  It backs
the ``checks`` CLI subcommand and is deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algebra import ComplexFraction, PhasePolynomial, _checked_dimension
from .blackbody import (QuadratureError, spectral_density,
                        spectral_density_ladder_sum, stefan_boltzmann_integral)
from .cavity import CavitySpec, PERIODIC, STANDING, mode_count_vs_asymptotic
from .star import DeformationParameter, star_product
from .units import NATURAL, UnitSystem, instance, integer

ASSOCIATIVITY_SAMPLES = 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_phase_polynomial(rng: random.Random, dimension: int,
                            max_degree: int = 6, max_terms: int = 6,
                            coefficient_bound: int = 5,
                            complex_coefficients: bool = False) -> PhasePolynomial:
    """Sparse random polynomial with nonzero integer coefficients.

    Exponent vectors are drawn by scattering a random total degree over the
    2*dimension variables, so sparsity stays roughly constant as the
    dimension grows.  Every argument is checked before the first draw, so a
    rejected call draws nothing from ``rng``.
    """
    instance("rng", rng, random.Random)
    dimension = _checked_dimension(dimension)
    max_degree = integer("max_degree", max_degree)
    max_terms = integer("max_terms", max_terms, 1)
    coefficient_bound = integer("coefficient_bound", coefficient_bound, 1)
    nonzero = [c for c in range(-coefficient_bound, coefficient_bound + 1) if c]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exponents = [0] * (2 * dimension)
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(2 * dimension)] += 1
        coefficient = ComplexFraction(
            rng.choice(nonzero), rng.choice(nonzero) if complex_coefficients else 0)
        index = (tuple(exponents[:dimension]), tuple(exponents[dimension:]), 0)
        terms.append((index, coefficient))
    return PhasePolynomial(dimension, terms)


def _associativity_check(rng: random.Random) -> CheckResult:
    param = DeformationParameter(N=2)
    for trial in range(ASSOCIATIVITY_SAMPLES):
        dimension = rng.choice((1, 2))
        f, g, h = (random_phase_polynomial(rng, dimension) for _ in range(3))
        left = star_product(star_product(f, g, param), h, param)
        right = star_product(f, star_product(g, h, param), param)
        if left != right:
            return CheckResult("star-associativity", False,
                               f"triple {trial} violated associativity")
    return CheckResult("star-associativity", True,
                       f"{ASSOCIATIVITY_SAMPLES} random triples associate exactly")


def _commutator_check() -> CheckResult:
    param = DeformationParameter(N=2)
    for dimension in (1, 2, 3):
        for i in range(dimension):
            for j in range(dimension):
                q = PhasePolynomial.variable_q(dimension, i)
                p = PhasePolynomial.variable_p(dimension, j)
                commutator = (star_product(q, p, param)
                              - star_product(p, q, param))
                if i == j:
                    expected = PhasePolynomial.hbar(dimension,
                                                    coefficient=ComplexFraction(0, 1))
                else:
                    expected = PhasePolynomial.zero(dimension)
                if commutator != expected:
                    return CheckResult(
                        "commutator-canon", False,
                        f"q{i+1}, p{j+1} at d={dimension} gave {commutator}")
    return CheckResult("commutator-canon", True,
                       "q/p star commutators are i*hbar*delta at N=2 for d<=3")


def _oracle_check(units: UnitSystem) -> CheckResult:
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        omega = 1.0
        temperature = units.hbar * omega / (units.k_boltzmann * x)
        for include_zero_point in (True, False):
            closed = spectral_density(omega, temperature, units, include_zero_point)
            summed = spectral_density_ladder_sum(omega, temperature, units,
                                                 include_zero_point=include_zero_point)
            scale = closed.total_density or 1.0
            worst = max(worst, abs(summed.total_density - closed.total_density) / scale)
    passed = worst < 1e-10
    return CheckResult("radiation-law-oracle", passed,
                       f"max relative deviation {worst:.3e}")


def _integral_check(units: UnitSystem) -> CheckResult:
    target = math.pi ** 4 / 15
    try:
        integral, _ = stefan_boltzmann_integral(units)
    except QuadratureError as error:
        return CheckResult("thermal-integral", False, str(error))
    error = abs(integral - target) / target
    return CheckResult("thermal-integral", error < 1e-8,
                       f"relative error {error:.3e} against pi^4/15")


def _mode_count_check(units: UnitSystem) -> CheckResult:
    spec = CavitySpec(boundary_convention=STANDING)
    errors = []
    for ratio in (50.0, 100.0, 200.0, 400.0):
        omega_max = ratio * units.c_light / spec.side_length
        errors.append(mode_count_vs_asymptotic(spec, omega_max, units).relative_error)
    decreasing = all(late < early for early, late in zip(errors, errors[1:]))
    periodic = mode_count_vs_asymptotic(
        CavitySpec(boundary_convention=PERIODIC),
        200.0 * units.c_light, units).relative_error
    passed = decreasing and periodic < 0.01
    return CheckResult(
        "mode-count-trend", passed,
        f"octant errors {['%.4f' % e for e in errors]} decreasing={decreasing}, "
        f"full-lattice error at wL/c=200 is {periodic:.2e}")


def run_all_checks(seed: int = 0, units: UnitSystem = NATURAL) -> list:
    """Run the whole suite; deterministic for a given seed."""
    instance("units", units, UnitSystem)
    rng = random.Random(seed)
    return [
        _associativity_check(rng),
        _commutator_check(),
        _oracle_check(units),
        _integral_check(units),
        _mode_count_check(units),
    ]
