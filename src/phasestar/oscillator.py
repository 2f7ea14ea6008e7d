"""The harmonic oscillator under the deformed product.

With the star product in place of pointwise multiplication, the factored
oscillator energy picks up a constant shift::

    (p - i*w*x)/sqrt(2) (star) (p + i*w*x)/sqrt(2)
        = (p**2 + w**2 x**2)/2 + hbar*w/N

so the ground level is hbar*w/N: the zero-point energy appears as the
first-order deformation term rather than as a separate postulate.  N = 2 is
the physically calibrated default (it reproduces the canonical commutator
and the hbar*w/2 zero point); it is a calibration, not a derivation.
Mass is absorbed into the variables: the quadratic form is (p^2 + w^2 x^2)/2
throughout.

At N != 2 the star algebra gives the ground level hbar*w/N and the star
commutator [H, a+] = (2*hbar*w/N)*a+ for a+ = p + i*w*x, a gap of 2*hbar*w/N;
``ladder`` keeps Planck's gap hbar*w at every N, so the two agree only at N = 2.

The oscillator lives at dimension 1 with x aliased to q1 and p to p1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ComplexFraction, PhasePolynomial, exact_fraction
from .star import DeformationParameter, star_product
from .units import NATURAL, UnitSystem, finite, instance, integer, positive

# Highest level ladder() lists (about 0.05 s and 3 MB of floats).
MAX_LADDER_LEVEL = 100_000


@dataclass(frozen=True)
class OscillatorSpec:
    """Angular frequency, deformation constant and unit system.

    ``N=math.inf`` selects the exact commutative (free) limit in which the
    zero-point shift vanishes identically.
    """

    omega: float = 1.0
    N: float = 2.0
    units: UnitSystem = NATURAL

    def __post_init__(self):
        positive("omega", self.omega)
        positive("N", self.N, finite=False)
        instance("units", self.units, UnitSystem)


def _factors(spec: OscillatorSpec):
    instance("spec", spec, OscillatorSpec)
    x = PhasePolynomial.variable_q(1, 0)
    p = PhasePolynomial.variable_p(1, 0)
    i_omega = ComplexFraction(0, exact_fraction(spec.omega))
    return p - x * i_omega, p + x * i_omega


def oscillator_star_energy(spec: OscillatorSpec,
                           reverse_factors: bool = False) -> PhasePolynomial:
    """Symbolic oscillator energy from the factored star product.

    Computes (p - i*w*x) (star) (p + i*w*x) scaled by the exact 1/2 that the
    two 1/sqrt(2) normalizations contribute (the star product is bilinear,
    so applying the square of the normalization after the product keeps the
    identity exact instead of squaring a float sqrt).  The result equals
    (p**2 + w**2 x**2)/2 + hbar*w/N identically.

    With ``reverse_factors=True`` the factor order is swapped and the shift
    changes sign: the two orderings differ by exactly 2*hbar*w/N and average
    to the classical energy.
    """
    lowering, raising = _factors(spec)
    first, second = (raising, lowering) if reverse_factors else (lowering, raising)
    product = star_product(first, second, DeformationParameter(N=spec.N))
    return product * Fraction(1, 2)


def oscillator_square_form_energy(spec: OscillatorSpec) -> PhasePolynomial:
    """The symmetric ordering (p (star) p + w**2 x (star) x)/2.

    The antisymmetric kernel annihilates identical single-variable factors,
    so this ordering carries no hbar shift at all; it is exposed separately
    from the factored form precisely because the two orderings disagree
    about the zero point.
    """
    instance("spec", spec, OscillatorSpec)
    x = PhasePolynomial.variable_q(1, 0)
    p = PhasePolynomial.variable_p(1, 0)
    param = DeformationParameter(N=spec.N)
    omega_squared = exact_fraction(spec.omega) ** 2
    return (star_product(p, p, param) + star_product(x, x, param) * omega_squared) \
        * Fraction(1, 2)


def ground_energy(quantum: float, N: float = 2.0) -> float:
    """The zero-point energy hbar*w/N of an oscillator of quantum hbar*w.

    It is the shift of the factored star product above: hbar*w/2 at the
    calibrated N = 2 and exactly 0.0 in the free limit N = inf.  ``quantum``
    must be a real number of at least 0.  inf and nan are not rejected: at
    finite N they give inf and nan.
    """
    if not isinstance(quantum, numbers.Real) or quantum < 0:
        raise ValueError(f"quantum must be a non-negative real number, got {quantum!r}")
    return _ground_energy(quantum, N)


def _ground_energy(quantum, N: float = 2.0):
    """``ground_energy`` without its check of ``quantum``, for callers that
    have checked it already or pass a numpy column."""
    return 0.0 if positive("N", N, finite=False) == math.inf else quantum / N


def _level_energies(levels: range, spec: OscillatorSpec) -> list:
    """n*hbar*w + hbar*w/N for each n of a non-empty ascending range; the
    energies rise with n, so only the last one is checked for overflow."""
    instance("spec", spec, OscillatorSpec)
    quantum = spec.units.hbar * spec.omega
    ground = _ground_energy(quantum, spec.N)
    finite("energy of level {} at omega = {!r}", lambda n, omega: quantum * n + ground,
           levels[-1], spec.omega)
    return [quantum * n + ground for n in levels]


def energy_level(n: int, spec: OscillatorSpec) -> float:
    """Energy of level n: n*hbar*w plus the ground energy hbar*w/N.

    Equals (n + 1/2)*hbar*w at N = 2 and exactly n*hbar*w in the free limit
    N = inf, where the ground energy is exactly zero.
    """
    n = integer("n", n)
    return _level_energies(range(n, n + 1), spec)[0]


def ladder(n_max: int, spec: OscillatorSpec) -> list:
    """Energies of levels 0 .. n_max inclusive; arithmetic with gap hbar*w.

    n_max may be at most ``MAX_LADDER_LEVEL``.
    """
    n_max = integer("n_max", n_max)
    if n_max > MAX_LADDER_LEVEL:
        raise ValueError(f"highest level {n_max} exceeds the limit of {MAX_LADDER_LEVEL}")
    return _level_energies(range(n_max + 1), spec)
