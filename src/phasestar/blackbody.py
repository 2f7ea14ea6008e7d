"""Spectral energy density of cavity radiation, with a zero-point term.

The central quantity is

    rho(w, T) = w**2 / (pi**2 c**3) * ( hbar*w / (exp(hbar*w/(k*T)) - 1)
                                        + hbar*w / 2 )

split everywhere into its thermal and zero-point parts.  The zero-point
term is ``oscillator.ground_energy`` at the calibrated N = 2: the ground
level hbar*w/N that the star product adds to the oscillator energy.  The
closed form is checked against a direct Boltzmann-weighted average over the
oscillator ladder W_n = (n + 1/2) hbar w, evaluated as a ratio of truncated
sums with a documented geometric tail bound, whose least length comes from a
fixed-point estimate and a short walk.  Classical-limit,
peak-location and integral checks round out the module.

Numerical policy: x = hbar*w/(k*T) is handled with expm1 so the formulas
stay accurate down to x ~ 1e-8; below the smallest normal double (x has
underflowed, possibly to 0) the thermal energy is its x -> 0 limit k*T.
For x > 700 the thermal part is flushed to exactly zero (underflow
policy), as it is whenever it falls below 1e-300.
Omega and T follow ``units.positive``, k*T must not underflow to 0, and a
result or scale beyond the double range follows ``units.finite`` (a density
names omega, or nu per unit frequency); only x may be inf, and is then past
X_OVERFLOW.  A rational factor (the T**4 coefficient, the zero-point cutoff
energy, the Wien peak) is its exact value rounded once, so only a result
beyond the double range raises.  So is the density of states w**2/(pi**2 c**3),
except where w**2 and c**3 are normal doubles and pi**2 c**3 is finite: there
it keeps that float grouping.

``spectrum_sweep`` computes the grid as numpy columns (x, prefactor,
thermal and zero-point energy, with the policy above applied as masks).
One mask flags the rows ``spectral_density`` rejects, and the first of
them goes through ``spectral_density`` to raise its error, so the row rules
live only in ``_check_domain`` and ``SpectrumPoint.__post_init__``.  The
checked rows are then built from the columns by setting each slot, without
``__init__``.  Each row equals ``spectral_density`` at that point bit for
bit.  w**2 and c**3 are ``np.float_power``, the libm pow of ``**``, and a
row off the float grouping takes the scalar density of states.  Besides
those rows only expm1 stays per element, through ``math.expm1`` mapped into
its column by ``np.fromiter``: ``np.expm1`` can differ from it in the last
ulp (at x = 0.5231812103833013).
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import operator
import sys
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional

from .algebra import exact_fraction
from .oscillator import _ground_energy
from .units import NATURAL, UnitSystem, finite, instance, integer, positive

# x beyond which exp(x) - 1 would overflow a double; thermal part is 0 there.
X_OVERFLOW = 700.0
# Smallest normal double; below it x has lost bits (or is 0), and the thermal
# energy is its x -> 0 limit k*T, equal to hbar*w/(exp(x) - 1) to a double.
X_UNDERFLOW = sys.float_info.min
# Thermal occupations below this are flushed to exactly zero.
THERMAL_FLUSH = 1e-300
# Hard cap on ladder-sum terms; beyond it the required length is reported.
# The sum runs over blocks of _LADDER_BLOCK levels in two block buffers,
# about 1 MB allocated once per call, at any length (153 blocks at the cap);
# above one block the result can differ from a one-shot sum in its last bits.
LADDER_TERM_CAP = 10_000_000
# Levels per ladder-sum block, 2**16 like cavity._BLOCK_ENTRIES.
_LADDER_BLOCK = 1 << 16
# Most points one spectrum_sweep returns (about 0.3 s and 30 MB of rows).
MAX_SWEEP_POINTS = 100_000
# Most Gauss-Legendre nodes stefan_boltzmann_integral accepts; building the
# rule costs about O(n**3) (0.96 s at 2048 nodes).
MAX_QUADRATURE_POINTS = 1024

# Column order of spectrum sweeps (CSV header and JSON keys, token for token).
SPECTRUM_FIELDS = ("omega", "temperature", "thermal_density",
                   "zero_point_density", "total_density", "x")


class LadderTermCapExceeded(ValueError):
    """The tail bound demands more ladder terms than ``LADDER_TERM_CAP``.

    ``required_terms`` is a lower bound: the exact length when the tail
    bound closes, otherwise the point where the search for it stopped.
    """

    def __init__(self, required_terms: int, cap: int, x: float):
        super().__init__(
            f"ladder sum at x = {x!r} needs at least {required_terms} terms "
            f"for the requested tolerance, above the cap of {cap}")
        self.required_terms = required_terms
        self.cap = cap
        self.x = x


@dataclass(frozen=True, slots=True)
class SpectrumPoint:
    """One spectral sample: densities are per volume per angular frequency."""

    omega: float
    temperature: float
    thermal_density: float
    zero_point_density: float
    total_density: float

    def __post_init__(self):
        for index, value in enumerate((self.omega, self.temperature, self.thermal_density,
                                       self.zero_point_density, self.total_density)):
            # float and int first, as in units.positive; a bool reads as 0 or 1
            if not isinstance(value, (float, int, numbers.Real)):
                raise ValueError(f"{SPECTRUM_FIELDS[index]} must be a real number, got {value!r}")
        if not math.isfinite(self.total_density):
            raise ValueError(f"spectral density at omega = {self.omega!r} overflows a double")
        if self.thermal_density < 0 or self.zero_point_density < 0:
            raise ValueError("densities must be non-negative")
        if self.total_density != self.thermal_density + self.zero_point_density:
            raise ValueError("total density must equal thermal plus zero-point")


# The field descriptors of SpectrumPoint, which spectrum_sweep sets directly.
_SPECTRUM_SLOTS = tuple(getattr(SpectrumPoint, field.name) for field in fields(SpectrumPoint))


def _check_temperature(temperature: float, units: UnitSystem) -> float:
    instance("units", units, UnitSystem)
    kt = finite("k*T at temperature {1!r}", operator.mul, units.k_boltzmann,
                positive("temperature", temperature))
    if kt == 0:
        raise ValueError(f"temperature {temperature!r} is too small: k*T underflows to 0")
    return kt


def _check_domain(omega: float, temperature: float, units: UnitSystem) -> tuple:
    """The quantum hbar*w and k*T, each a finite double."""
    positive("omega", omega)
    kt = _check_temperature(temperature, units)
    return finite("hbar*omega at omega = {1!r}", operator.mul, units.hbar, omega), kt


def dimensionless_x(omega: float, temperature: float,
                    units: UnitSystem = NATURAL) -> float:
    """The ratio hbar*w/(k*T) that controls every formula below; it may
    overflow to inf, which every formula treats as past ``X_OVERFLOW``."""
    quantum, kt = _check_domain(omega, temperature, units)
    return quantum / kt


def mean_oscillator_energy(omega: float, temperature: float,
                           units: UnitSystem = NATURAL,
                           include_zero_point: bool = True) -> float:
    """Mean thermal energy of one oscillator, plus hbar*w/2 when asked.

    The thermal part is hbar*w/(exp(hbar*w/kT) - 1); in the strong
    suppression limit the total tends to the bare zero point hbar*w/2.
    """
    quantum, kt = _check_domain(omega, temperature, units)
    x = quantum / kt
    # hbar*w/(exp(x) - 1) under the underflow policy of the module docstring
    thermal = 0.0 if x > X_OVERFLOW else kt if x < X_UNDERFLOW else quantum / math.expm1(x)
    if thermal < THERMAL_FLUSH:
        thermal = 0.0
    return thermal + _ground_energy(quantum) if include_zero_point else thermal


def _rounded_once(formula, *args):
    """``formula`` of the exact Fractions of ``args``, rounded once to a double;
    inf beyond the double range, for the caller's check to report."""
    try:
        return float(formula(*map(exact_fraction, args)))
    except OverflowError:
        return math.inf


def _states(omega: float, c: float) -> float:
    """The density of states w**2/(pi**2 c**3): in that float grouping, as
    ``spectrum_sweep`` forms it per row, where w**2 and c**3 are normal doubles
    and pi**2 c**3 is finite; elsewhere rounded once by ``_rounded_once``."""
    if omega * omega < math.inf > c * c * c:  # so neither power raises OverflowError
        square, cube = omega ** 2, c ** 3
        if min(square, cube) >= X_UNDERFLOW and math.pi ** 2 * cube < math.inf:
            return square / (math.pi ** 2 * cube)
    return _rounded_once(lambda w, c, pi2: w ** 2 / (pi2 * c ** 3), omega, c, math.pi ** 2)


def _densities(omega: float, units: UnitSystem, energy: float,
               include_zero_point: bool = False) -> tuple:
    """The density of states ``_states`` times one mode's energy, and times
    its zero point hbar*w/2 when asked (else 0.0); the caller's check names
    a density that overflows."""
    prefactor = _states(omega, units.c_light)
    return (prefactor * energy,
            prefactor * _ground_energy(units.hbar * omega) if include_zero_point else 0.0)


def spectral_density(omega: float, temperature: float,
                     units: UnitSystem = NATURAL,
                     include_zero_point: bool = True) -> SpectrumPoint:
    """Closed-form spectral energy density, split thermal vs zero point.

    With ``include_zero_point=False`` this is the textbook radiation law;
    the default keeps the hbar*w/2 per-mode term in a separate field so the
    two contributions are never conflated.
    """
    thermal = mean_oscillator_energy(omega, temperature, units, include_zero_point=False)
    return _density_point(omega, temperature, units, thermal, include_zero_point)


def _density_point(omega: float, temperature: float, units: UnitSystem,
                   thermal_energy: float, include_zero_point: bool) -> SpectrumPoint:
    """One mode's thermal energy and zero point hbar*w/2 times the density of states."""
    thermal, zero_point = _densities(omega, units, thermal_energy, include_zero_point)
    return SpectrumPoint(omega, temperature, thermal, zero_point,
                         thermal + zero_point)


def spectral_density_per_frequency(nu: float, temperature: float,
                                   units: UnitSystem = NATURAL,
                                   include_zero_point: bool = True) -> SpectrumPoint:
    """Density per unit ordinary frequency nu = w/(2*pi).

    Derived view: the 2*pi Jacobian is applied to every density field of the
    angular-frequency form at w = 2*pi*nu.  A density that overflows, at w
    or only once scaled, names nu.
    """
    scale = 2 * math.pi
    omega = finite("2*pi*nu at nu = {1!r}", operator.mul, scale, positive("nu", nu))
    thermal_energy = mean_oscillator_energy(omega, temperature, units, include_zero_point=False)
    thermal, zero_point = _densities(omega, units, thermal_energy, include_zero_point)
    thermal, zero_point = scale * thermal, scale * zero_point
    total = finite("spectral density at nu = {!r}", lambda _: thermal + zero_point, nu)
    return SpectrumPoint(nu, temperature, thermal, zero_point, total)


# ----------------------------------------------------------------------
# ladder-sum route


def ladder_terms_for_tolerance(x: float, rel_tol: float = 1e-14) -> int:
    """Smallest n_max whose dropped ladder tail is below rel_tol.

    The remainder of sum(n * r**n) past n_max, with r = exp(-x), is bounded
    by (n_max + 2) * r**(n_max + 1) / (1 - r)**2; this is compared against
    rel_tol times the leading term r of the same sum, giving the criterion

        (n_max + 2) * exp(-n_max * x) <= rel_tol * (1 - exp(-x))**2

    which is monotone in n_max.  Its root is estimated by three fixed-point
    steps of n = (log(n + 2) - target)/x from -target/x, target being the
    log of the right side.  The steps rise toward the root from below and
    stay at least about 1e-13 under it (x near 700), far more than their
    rounding, so the ceiling of the estimate never passes the least n_max.
    Where the estimate is at most ``LADDER_TERM_CAP`` the criterion walks up
    from that ceiling to the least n_max, in at most 74 steps (74 at rel_tol
    just below 1 and an estimate at the cap; at most 7 at the default
    rel_tol).  Above about 2**53 the criterion in doubles is not monotone
    near its root, so past the cap the reported length comes from the
    doubling-and-bisect search it has always come from.  Raises
    LadderTermCapExceeded (reporting the required length) past
    ``LADDER_TERM_CAP``, and also when x is so small that no power of two up
    to 2**61 closes the bound.
    """
    positive("x", x)
    if positive("rel_tol", rel_tol) >= 1:
        raise ValueError(f"rel_tol must be positive and below 1, got {rel_tol!r}")
    target = math.log(rel_tol) + 2 * math.log(-math.expm1(-x))

    def satisfied(n: int) -> bool:
        return math.log(n + 2) - n * x <= target

    estimate = -target / x
    for _ in range(3):
        estimate = (math.log(estimate + 2) - target) / x
    if estimate <= LADDER_TERM_CAP:
        low = math.ceil(estimate)
        while not satisfied(low):
            low += 1
    else:
        high = 1
        while not satisfied(high):
            if high > 2 ** 60:
                raise LadderTermCapExceeded(high + 1, LADDER_TERM_CAP, x)
            high *= 2
        low = bisect.bisect_left(range(high), True, key=satisfied)
    if low > LADDER_TERM_CAP:
        raise LadderTermCapExceeded(low, LADDER_TERM_CAP, x)
    return low


def spectral_density_ladder_sum(omega: float, temperature: float,
                                units: UnitSystem = NATURAL,
                                n_max: Optional[int] = None,
                                include_zero_point: bool = True) -> SpectrumPoint:
    """Spectral density from Boltzmann-weighted sums over the ladder.

    Evaluates the mean energy as the ratio of truncated sums of
    (n + 1/2) hbar w weighted by exp(-(n + 1/2) hbar w / kT).  The common
    factor exp(-x/2) and any overall weight scale cancel in the ratio, and
    the half quantum separates algebraically:

        mean = hbar*w * sum(n e^(-n x)) / sum(e^(-n x))  +  hbar*w/2

    which is how it is computed here, keeping the thermal part free of
    cancellation.  When n_max is None it comes from the documented tail
    bound; an explicit n_max may be at most ``LADDER_TERM_CAP``.  Both sums
    run over consecutive blocks of at most 2**16 levels, adding each block's
    ``ndarray.sum`` (numpy's pairwise ``np.add.reduce``) in block order.
    Every block is computed in place in two block buffers, about 1 MB
    allocated once per call at any n_max: the levels, advanced by one block
    each step, and the terms.  Up to 2**16 levels that is one block, bit for
    bit the sum over all levels at once; above it the sums associate
    differently, which can change the last bits.
    The half-quantum the sums inherently contain goes to the zero-point field;
    ``include_zero_point=False`` drops it from the total.
    Past ``X_OVERFLOW`` the thermal part is flushed to 0, as in the closed form.
    """
    quantum, kt = _check_domain(omega, temperature, units)
    x = quantum / kt
    if n_max is not None:
        n_max = integer("n_max", n_max)
        if n_max > LADDER_TERM_CAP:
            raise ValueError(f"n_max {n_max} exceeds the limit of {LADDER_TERM_CAP}")
    if x > X_OVERFLOW:
        return _density_point(omega, temperature, units, 0.0, include_zero_point)
    if n_max is None:
        n_max = ladder_terms_for_tolerance(x)
    import numpy as np
    levels = np.arange(min(n_max + 1, _LADDER_BLOCK), dtype=np.float64)
    terms = np.empty_like(levels)
    numerator = denominator = 0.0
    for start in range(0, n_max + 1, _LADDER_BLOCK):
        if start:
            levels += _LADDER_BLOCK
        size = min(_LADDER_BLOCK, n_max + 1 - start)
        level, block = levels[:size], terms[:size]
        # e^(-n x), then n e^(-n x), each written over the last in one buffer
        denominator += float(np.exp(np.multiply(level, -x, out=block), out=block).sum())
        numerator += float(np.multiply(block, level, out=block).sum())
    thermal = quantum * numerator / denominator
    return _density_point(omega, temperature, units, thermal, include_zero_point)


# ----------------------------------------------------------------------
# classical limit, peak, integrals


def rayleigh_jeans_density(omega: float, temperature: float,
                           units: UnitSystem = NATURAL) -> float:
    """Classical spectral density w**2 k T / (pi**2 c**3).

    The hbar -> 0 limit of the thermal part; it exceeds the thermal density
    for every x > 0, which is the ultraviolet catastrophe the quantum form
    cures.
    """
    _check_domain(omega, temperature, units)
    return finite("spectral density at omega = {!r}",
                  lambda w: _densities(w, units, units.k_boltzmann)[0] * temperature,
                  omega)


def wien_peak(temperature: float, units: UnitSystem = NATURAL) -> float:
    """Angular frequency maximizing the thermal density at temperature T.

    Maximizing x**3/(exp(x) - 1) reduces to the root condition
    3*(1 - exp(-x)) = x on the bracket [2, 3]; the peak sits at
    w = x* k T / hbar and scales linearly with T.  The zero-point part is
    excluded: it grows without bound in w and has no peak.
    """
    _check_temperature(temperature, units)
    return finite("Wien peak at temperature {!r}", lambda temp: _rounded_once(
        lambda x, k, t, h: x * k * t / h, wien_x_constant(), units.k_boltzmann, temp, units.hbar),
        temperature)


@functools.cache
def wien_x_constant() -> float:
    """The dimensionless root x* of 3*(1 - exp(-x)) = x, about 2.821439.

    Located by bisection on [2, 3], where the condition changes sign exactly
    once (positive at 2, negative at 3).  The bracket shrinks until its ends
    are adjacent floats; the end with the smaller residual is returned.
    """
    def residual(x: float) -> float:
        return 3 * (1 - math.exp(-x)) - x

    low, high = 2.0, 3.0
    while (middle := (low + high) / 2) not in (low, high):
        if residual(middle) > 0:
            low = middle
        else:
            high = middle
    return min(low, high, key=lambda x: abs(residual(x)))


class QuadratureError(RuntimeError):
    """Quadrature self-check failed; carries the achieved error estimate."""

    def __init__(self, estimate: float):
        super().__init__(f"quadrature did not converge; error estimate {estimate:.3e}")
        self.estimate = estimate


def _bose_integrand(x):
    """x**3/(exp(x) - 1) at x > 0, the interior nodes ``_bose_quadrature`` maps.

    Evaluated as x**3 * exp(-x) / (1 - exp(-x)), which neither overflows at
    large x nor loses accuracy near 0 (where it behaves as x**2).
    """
    import numpy as np
    return x ** 3 * np.exp(-x) / -np.expm1(-x)


@functools.cache
def _bose_quadrature(points: int) -> float:
    # Map (0, inf) to (0, 1) by x = t/(1-t); integrand decays fast enough
    # that Gauss-Legendre on the mapped interval converges rapidly.
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(points)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    x = t / (1.0 - t)
    jacobian = 1.0 / (1.0 - t) ** 2
    return float(np.sum(w * _bose_integrand(x) * jacobian))


def stefan_boltzmann_integral(units: UnitSystem = NATURAL,
                              quadrature_points: int = 128):
    """Quadrature of the dimensionless integral behind the T**4 law.

    Returns ``(integral, coefficient)`` where integral approximates
    int_0^inf x**3/(exp(x)-1) dx (exactly pi**4/15) and coefficient is
    k**4/(hbar**3 c**3 pi**2) times the integral, so the total thermal
    energy density is coefficient * T**4.

    A self-convergence estimate against a 25% finer rule guards the result;
    failure raises QuadratureError with the achieved estimate.  Each rule's
    sum is memoised per node count (at most ``MAX_QUADRATURE_POINTS``, so
    the cache is bounded), which speeds up only a node count this process
    has asked for before; the check itself runs on every call.
    """
    instance("units", units, UnitSystem)
    quadrature_points = integer("quadrature_points", quadrature_points, 64)
    if quadrature_points > MAX_QUADRATURE_POINTS:
        raise ValueError(f"quadrature_points {quadrature_points} exceeds the "
                         f"limit of {MAX_QUADRATURE_POINTS}")
    integral = _bose_quadrature(quadrature_points)
    refined = _bose_quadrature(quadrature_points + quadrature_points // 4)
    estimate = abs(integral - refined) / abs(integral)
    if estimate > 1e-8:
        raise QuadratureError(estimate)
    return integral, finite("T**4 coefficient of units = {!r}", lambda u: _rounded_once(
        lambda i, k, h, c, pi2: i * k ** 4 / (h ** 3 * c ** 3 * pi2),
        integral, u.k_boltzmann, u.hbar, u.c_light, math.pi ** 2), units)


def zero_point_cutoff_energy(omega_cutoff: float, units: UnitSystem = NATURAL,
                             N: float = 2.0) -> float:
    """Zero-point energy density integrated up to a frequency cutoff.

    int_0^wc (w**2/pi**2 c**3) (hbar w / N) dw = hbar wc**4 / (4 N pi**2 c**3),
    the quartic growth that diverges as the cutoff is removed.  At N = 2 this
    is hbar wc**4/(8 pi**2 c**3); the commutative limit N = inf returns
    exactly zero, the one case with no divergence.
    """
    positive("omega_cutoff", omega_cutoff)
    instance("units", units, UnitSystem)
    if math.isinf(positive("N", N, finite=False)):
        return 0.0
    return finite("zero-point energy below omega_cutoff = {!r}", lambda wc: _rounded_once(
        lambda w, h, n, c, pi2: h * w ** 4 / (4 * n * pi2 * c ** 3),
        wc, units.hbar, N, units.c_light, math.pi ** 2), omega_cutoff)


# ----------------------------------------------------------------------
# sweeps


def spectrum_sweep(temperature: float, omega_min: float, omega_max: float,
                   points: int, spacing: str = "log",
                   units: UnitSystem = NATURAL,
                   include_zero_point: bool = True) -> list:
    """Closed-form SpectrumPoint rows over a log- or linear-spaced grid of
    at most ``MAX_SWEEP_POINTS`` points.

    Every row equals ``spectral_density(w, temperature, units,
    include_zero_point)`` bit for bit, and the first bad row in grid
    order raises the error that call would raise.
    """
    omegas, *densities, _ = _sweep_columns(
        temperature, omega_min, omega_max, points, spacing, units, include_zero_point)
    # Checked rows are filled slot by slot in C, without __init__.
    rows = list(map(object.__new__, repeat(SpectrumPoint, len(omegas))))
    for slot, column in zip(_SPECTRUM_SLOTS, (omegas, repeat(temperature), *densities)):
        deque(map(slot.__set__, rows, column), maxlen=0)
    return rows


def _sweep_columns(temperature: float, omega_min: float, omega_max: float, points: int,
                   spacing: str, units: UnitSystem, include_zero_point: bool) -> tuple:
    """``spectrum_sweep``'s checked float lists omega, thermal, zero point and
    total, and x as a float64 array (only the CLI writes it, as a list); the
    first row ``spectral_density`` rejects raises through it."""
    positive("omega_min", omega_min)
    if not omega_min < positive("omega_max", omega_max, finite=False):
        raise ValueError("need 0 < omega_min < omega_max")
    points = integer("points", points, 2)
    if points > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep of {points} points exceeds the limit of {MAX_SWEEP_POINTS}")
    import numpy as np
    with np.errstate(all="ignore"):
        if spacing == "log":
            grid = np.geomspace(omega_min, omega_max, points)
        elif spacing == "linear":
            grid = np.linspace(omega_min, omega_max, points)
        else:
            raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")
        omegas = grid.tolist()
        kt = _check_domain(omegas[0], temperature, units)[1]
        quantum = units.hbar * grid
        x = quantum / kt
        # math.expm1 per element: np.expm1 can differ from it in the last ulp.
        expm1 = np.fromiter(map(math.expm1, np.clip(x, X_UNDERFLOW, X_OVERFLOW).tolist()),
                            np.float64, points)
        thermal = np.where(x < X_UNDERFLOW, kt, quantum / expm1)
        thermal[(x > X_OVERFLOW) | (thermal < THERMAL_FLUSH)] = 0.0
        square, cube = np.float_power(grid, 2.0), np.float_power(units.c_light, 3.0)
        prefactor = square / (math.pi ** 2 * cube)
        # rows of finite omega off _states' float grouping take _states itself
        odd = ~((square >= X_UNDERFLOW) & (square < math.inf) & (cube >= X_UNDERFLOW)
                & (math.pi ** 2 * cube < math.inf)) & (grid < math.inf)
        if odd.any():
            prefactor[odd] = list(map(_states, grid[odd].tolist(), repeat(units.c_light)))
        thermal *= prefactor
        zero_point = (prefactor * _ground_energy(quantum) if include_zero_point
                      else np.zeros(points))
        total = thermal + zero_point
        # Rows spectral_density rejects: omega not above 0, hbar*w or total not
        # finite (the parts are built non-negative, and total is their sum).
        bad = ~((grid > 0) & np.isfinite(quantum) & np.isfinite(total))
    if bad.any():  # the first of them raises its own error
        spectral_density(omegas[int(bad.argmax())], temperature, units, include_zero_point)
    return omegas, thermal.tolist(), zero_point.tolist(), total.tolist(), x
