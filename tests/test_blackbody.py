"""Radiation-law tests: closed form vs ladder-sum route, classical limits,
peak location and integral checks.  Oracles are computed independently in
the tests (direct sums, bisection, closed-form constants)."""

import bisect
import math
import pickle
import random
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, astuple
from fractions import Fraction

import numpy as np
import pytest

from phasestar import blackbody
from phasestar.blackbody import (LADDER_TERM_CAP, MAX_QUADRATURE_POINTS, MAX_SWEEP_POINTS,
                                 LadderTermCapExceeded,
                                 SPECTRUM_FIELDS, SpectrumPoint, dimensionless_x,
                                 ladder_terms_for_tolerance,
                                 mean_oscillator_energy, rayleigh_jeans_density,
                                 spectral_density, spectral_density_ladder_sum,
                                 spectral_density_per_frequency, spectrum_sweep,
                                 stefan_boltzmann_integral, wien_peak,
                                 wien_x_constant, zero_point_cutoff_energy)
from phasestar.units import NATURAL, UnitSystem, positive

X_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def temperature_for_x(x, omega=1.0, units=NATURAL):
    return units.hbar * omega / (units.k_boltzmann * x)


def one_shot_ladder_energy(x, n_max):
    """sum(n e^(-n x)) / sum(e^(-n x)) over every level at once, one numpy
    call per step, as the ladder sum ran before it summed in blocks."""
    levels = np.arange(n_max + 1, dtype=np.float64)
    weights = np.exp(-x * levels)
    return float(np.sum(levels * weights)) / float(np.sum(weights))


def blockwise_ladder_energy(x, n_max):
    """The same ratio with fresh arrays for each block of 2**16 levels, each
    block's sums added in block order, as the ladder sum ran before it reused
    two buffers."""
    numerator = denominator = 0.0
    for start in range(0, n_max + 1, 1 << 16):
        levels = np.arange(start, min(start + (1 << 16), n_max + 1), dtype=np.float64)
        weights = np.exp(-x * levels)
        numerator += float(np.sum(levels * weights))
        denominator += float(np.sum(weights))
    return numerator / denominator


def ladder_energy(monkeypatch, temperature, n_max=None):
    """The thermal energy the ladder sum hands to the density at omega = 1,
    before the density of states scales it."""
    monkeypatch.setattr(blackbody, "_density_point", lambda *args: args[3])
    return spectral_density_ladder_sum(1.0, temperature, n_max=n_max)


class TestMeanOscillatorEnergy:
    def test_strong_suppression_leaves_only_zero_point(self):
        omega = 1.0
        value = mean_oscillator_energy(omega, temperature_for_x(800.0))
        assert value == 0.5  # thermal part flushed to exact zero

    def test_log_two_makes_thermal_part_one_quantum(self):
        omega = 1.0
        value = mean_oscillator_energy(omega, temperature_for_x(math.log(2)),
                                       include_zero_point=False)
        assert value == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_unit_x_value(self):
        # independent direct evaluation of the two summands
        expected = 1 / (math.e - 1) + 0.5
        value = mean_oscillator_energy(1.0, temperature_for_x(1.0))
        assert value == pytest.approx(expected, rel=1e-15, abs=0)

    def test_domain_validation(self):
        for omega, temperature in ((0.0, 1.0), (1.0, 0.0), (math.inf, 1.0),
                                   (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                mean_oscillator_energy(omega, temperature)
            with pytest.raises(ValueError, match="must be positive and finite"):
                spectral_density(omega, temperature)

    def test_underflowed_kt_is_a_domain_error(self):
        # k*T = 1.380649e-23 * 1e-310 underflows to 0 in SI units
        si = UnitSystem.si()
        message = re.escape("temperature 1e-310 is too small: k*T underflows to 0")
        for call in (mean_oscillator_energy, spectral_density,
                     spectral_density_ladder_sum, rayleigh_jeans_density):
            with pytest.raises(ValueError, match=message):
                call(1.0, 1e-310, si)
        with pytest.raises(ValueError, match=message):
            spectrum_sweep(1e-310, 1.0, 2.0, 3, units=si)
        with pytest.raises(ValueError, match=message):
            wien_peak(1e-310, si)

    def test_dimensionless_x_checks_the_domain(self):
        # a domain error, not a division by k*T = 0
        with pytest.raises(ValueError, match=re.escape("k*T underflows to 0")):
            dimensionless_x(1.0, 1e-310, UnitSystem.si())
        assert dimensionless_x(2.0, 4.0) == 0.5


class TestSpectralDensity:
    def test_unit_point_composition(self):
        point = spectral_density(1.0, temperature_for_x(1.0))
        expected_total = (1 / math.pi ** 2) * (1 / (math.e - 1) + 0.5)
        assert point.total_density == pytest.approx(expected_total, rel=1e-14, abs=0)

    def test_flag_off_reproduces_textbook_law(self):
        point = spectral_density(1.0, 1.0, include_zero_point=False)
        assert point.zero_point_density == 0.0
        assert point.total_density == point.thermal_density

    def test_split_is_consistent(self):
        point = spectral_density(2.0, 0.7)
        assert point.total_density == point.thermal_density + point.zero_point_density

    def test_invariant_rejects_negative_density(self):
        with pytest.raises(ValueError):
            SpectrumPoint(1.0, 1.0, -1.0, 0.0, -1.0)

    def test_invariant_rejects_inconsistent_total(self):
        with pytest.raises(ValueError):
            SpectrumPoint(1.0, 1.0, 1.0, 0.5, 2.0)

    def test_underflow_policy_above_700(self):
        point = spectral_density(701.0, 1.0)
        assert point.thermal_density == 0.0
        assert point.zero_point_density > 0

    @pytest.mark.parametrize("omega", [1e104, 1e200, 1e300])
    def test_overflowing_density_names_omega(self, omega):
        # omega**2 overflows at 1e300; the zero-point product already at 1e104
        with pytest.raises(ValueError, match=re.escape(f"omega = {omega!r} overflows")):
            spectral_density(omega, 1.0)
        with pytest.raises(ValueError, match="overflows a double"):
            spectral_density_ladder_sum(omega, 1.0, n_max=1)

    @pytest.mark.parametrize("omega, temperature, c_light", [
        (1e200, 1.0, 1e100),     # the zero point alone, w**3/(2 pi**2 c**3) = 5.07e298
        (1e200, 1e200, 1e100),   # x = 1
        (1e160, 1e-5, 1e60),
        (3e155, 2e154, 1e53),    # x = 15
    ])
    def test_density_where_only_omega_squared_overflows(self, omega, temperature, c_light):
        # w**2 overflows a double at each row, but the densities do not
        units = UnitSystem(c_light=c_light)
        x = omega / temperature
        # w**2/(pi**2 c**3), grouped so that no factor leaves the double range
        states = (omega / c_light) ** 2 / (math.pi ** 2 * c_light)
        point = spectral_density(omega, temperature, units)
        thermal = 0.0 if x > 700 else states * omega / math.expm1(x)
        assert point.thermal_density == pytest.approx(thermal, rel=1e-14, abs=0)
        assert point.zero_point_density == pytest.approx(states * omega / 2, rel=1e-14, abs=0)
        assert rayleigh_jeans_density(omega, temperature, units) == pytest.approx(
            states * temperature, rel=1e-14, abs=0)

    @pytest.mark.parametrize("units", [NATURAL, UnitSystem.si(), UnitSystem(c_light=0.7371)],
                             ids=["natural", "si", "c=0.7371"])
    def test_float_grouping_where_every_power_is_normal(self, units):
        # where w**2 and c**3 are normal doubles, each density is exactly
        # w**2/(pi**2 c**3), in that grouping, times the mode energy
        rng = random.Random(30)
        checked = 0
        for _ in range(3000):
            omega = 10 ** rng.uniform(-170, 170) * units.k_boltzmann / units.hbar
            temperature = 10 ** rng.uniform(-150, 150)
            try:
                square, cube = omega ** 2, units.c_light ** 3
            except OverflowError:
                continue
            if not (min(square, cube) >= sys.float_info.min
                    and math.pi ** 2 * cube < math.inf):
                continue
            states = square / (math.pi ** 2 * cube)
            try:
                point = spectral_density(omega, temperature, units)
                classical = rayleigh_jeans_density(omega, temperature, units)
            except ValueError:
                continue
            thermal = mean_oscillator_energy(omega, temperature, units, include_zero_point=False)
            assert point.thermal_density == states * thermal
            assert point.zero_point_density == states * (units.hbar * omega / 2)
            assert classical == states * units.k_boltzmann * temperature
            checked += 1
        assert checked > 1000

    def test_si_units_magnitude(self):
        units = UnitSystem.si()
        omega = 1e15
        temperature = 5000.0
        point = spectral_density(omega, temperature, units)
        x = dimensionless_x(omega, temperature, units)
        expected_thermal = (omega ** 2 / (math.pi ** 2 * units.c_light ** 3)) \
            * units.hbar * omega / math.expm1(x)
        assert point.thermal_density == pytest.approx(expected_thermal, rel=1e-12, abs=0)


class TestLadderSumRoute:
    def test_agreement_with_closed_form_both_flags(self):
        for x in X_GRID:
            temperature = temperature_for_x(x)
            for flag in (True, False):
                closed = spectral_density(1.0, temperature,
                                          include_zero_point=flag)
                summed = spectral_density_ladder_sum(1.0, temperature,
                                                     include_zero_point=flag)
                scale = closed.total_density or 1.0
                assert abs(summed.total_density - closed.total_density) / scale < 1e-10

    def test_direct_small_sum_oracle(self):
        # brute-force the weighted ladder average without any algebra
        x = 0.8
        quantum = 1.0
        n_max = ladder_terms_for_tolerance(x)
        weights = [math.exp(-(n + 0.5) * x) for n in range(n_max + 1)]
        energies = [(n + 0.5) * quantum for n in range(n_max + 1)]
        brute_mean = sum(e * w for e, w in zip(energies, weights)) / sum(weights)
        point = spectral_density_ladder_sum(1.0, temperature_for_x(x))
        mean_from_point = (point.total_density * math.pi ** 2)
        assert mean_from_point == pytest.approx(brute_mean, rel=1e-12, abs=0)

    def test_weight_scaling_cancels_in_the_ratio(self):
        # multiplying every Boltzmann weight by a constant leaves the
        # average untouched; the implementation must match both versions
        x = 1.3
        n_max = 200
        for scale in (1.0, 1 / 4.2, 977.0):
            weights = [scale * math.exp(-(n + 0.5) * x) for n in range(n_max + 1)]
            energies = [(n + 0.5) for n in range(n_max + 1)]
            brute_mean = sum(e * w for e, w in zip(energies, weights)) / sum(weights)
            point = spectral_density_ladder_sum(1.0, temperature_for_x(x), n_max=n_max)
            assert point.total_density * math.pi ** 2 == pytest.approx(
                brute_mean, rel=1e-12, abs=0)

    def test_ground_term_only(self):
        point = spectral_density_ladder_sum(1.0, temperature_for_x(1.0), n_max=0)
        assert point.thermal_density == 0.0
        assert point.total_density == 0.5 / math.pi ** 2

    def test_large_x_with_tiny_n_max(self):
        closed = spectral_density(1.0, temperature_for_x(20.0))
        summed = spectral_density_ladder_sum(1.0, temperature_for_x(20.0), n_max=5)
        assert abs(summed.total_density - closed.total_density) \
            / closed.total_density < 1e-10

    def test_term_budget_grows_as_x_shrinks(self):
        budgets = [ladder_terms_for_tolerance(x) for x in (10.0, 1.0, 0.1)]
        assert budgets == sorted(budgets)

    def test_tail_bound_is_honest(self):
        # dropping the bound's worth of terms must not move the result
        for x in (0.3, 1.0, 3.0):
            n_max = ladder_terms_for_tolerance(x)
            a = spectral_density_ladder_sum(1.0, temperature_for_x(x), n_max=n_max)
            b = spectral_density_ladder_sum(1.0, temperature_for_x(x),
                                            n_max=2 * n_max + 16)
            assert a.total_density == pytest.approx(b.total_density, rel=1e-13, abs=0)

    def test_cap_exceeded_reports_requirement(self):
        with pytest.raises(LadderTermCapExceeded) as info:
            spectral_density_ladder_sum(1.0, temperature_for_x(1e-6))
        assert info.value.required_terms > info.value.cap
        assert str(info.value.required_terms) in str(info.value)

    def test_unclosed_tail_bound_is_a_cap_error_naming_x(self):
        # no n_max up to 2**60 closes the bound at x = 5e-300
        with pytest.raises(LadderTermCapExceeded, match=re.escape("x = 5e-300")) as info:
            ladder_terms_for_tolerance(5e-300)
        assert info.value.required_terms > 2 ** 60
        assert info.value.x == 5e-300

    def test_terms_are_the_least_that_close_the_bound(self):
        def closes(n, x, rel_tol):  # the docstring's criterion in log form
            return math.log(n + 2) - n * x <= math.log(rel_tol) + 2 * math.log(-math.expm1(-x))

        rng = random.Random("least-ladder-length")
        for _ in range(400):
            x = 10 ** rng.uniform(-9, math.log10(50))
            rel_tol = rng.choice((1e-14, 10 ** rng.uniform(-300, -0.01)))
            try:
                n = ladder_terms_for_tolerance(x, rel_tol)
            except LadderTermCapExceeded as error:
                n = error.required_terms  # the exact length: the bound closes below 2**60
            assert closes(n, x, rel_tol)
            assert n == 0 or not closes(n - 1, x, rel_tol)

    def test_term_cap_is_inclusive_on_the_tail_bound_route(self, monkeypatch):
        x = 2.0 ** -6  # temperature_for_x(x) gives back exactly this x
        n = ladder_terms_for_tolerance(x)
        temperature = temperature_for_x(x)
        monkeypatch.setattr(blackbody, "LADDER_TERM_CAP", n)
        assert ladder_terms_for_tolerance(x) == n
        assert (spectral_density_ladder_sum(1.0, temperature)
                == spectral_density_ladder_sum(1.0, temperature, n_max=n))
        monkeypatch.setattr(blackbody, "LADDER_TERM_CAP", n - 1)
        for call in (lambda: ladder_terms_for_tolerance(x),
                     lambda: spectral_density_ladder_sum(1.0, temperature)):
            with pytest.raises(LadderTermCapExceeded) as info:
                call()
            assert (info.value.required_terms, info.value.cap) == (n, n - 1)

    def test_explicit_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            spectral_density_ladder_sum(1.0, 1.0, n_max=-1)

    def test_explicit_n_max_limit(self, monkeypatch):
        # checked before the levels are allocated: 10**12 of them would take 7.28 TiB
        cap = blackbody.LADDER_TERM_CAP
        for n_max in (cap + 1, 10 ** 12):
            with pytest.raises(ValueError) as info:
                spectral_density_ladder_sum(1.0, 1.0, n_max=n_max)
            assert str(info.value) == f"n_max {n_max} exceeds the limit of {cap}"
        monkeypatch.setattr(blackbody, "LADDER_TERM_CAP", 5)
        assert (spectral_density_ladder_sum(1.0, 1.0, n_max=5)
                == spectral_density_ladder_sum(1.0, 1.0, n_max=np.int64(5)))
        with pytest.raises(ValueError, match="^n_max 6 exceeds the limit of 5$"):
            spectral_density_ladder_sum(1.0, 1.0, n_max=6)


def doubling_and_bisect_terms(x: float, rel_tol: float = 1e-14) -> int:
    """``ladder_terms_for_tolerance`` as it searched before its fixed-point
    estimate: double to a bracket, then ``bisect`` the criterion in it."""
    positive("x", x)
    if positive("rel_tol", rel_tol) >= 1:
        raise ValueError(f"rel_tol must be positive and below 1, got {rel_tol!r}")
    target = math.log(rel_tol) + 2 * math.log(-math.expm1(-x))

    def satisfied(n: int) -> bool:
        return math.log(n + 2) - n * x <= target

    high = 1
    while not satisfied(high):
        if high > 2 ** 60:
            raise LadderTermCapExceeded(high + 1, LADDER_TERM_CAP, x)
        high *= 2
    low = bisect.bisect_left(range(high), True, key=satisfied)
    if low > LADDER_TERM_CAP:
        raise LadderTermCapExceeded(low, LADDER_TERM_CAP, x)
    return low


def ladder_length(search, x, rel_tol):
    """The length ``search`` returns, or the type, length and message it raises."""
    try:
        return search(x, rel_tol)
    except LadderTermCapExceeded as error:
        return type(error), error.required_terms, str(error)


def fixed_point_estimate(x, rel_tol):
    """The estimate the docstring of ``ladder_terms_for_tolerance`` describes."""
    target = math.log(rel_tol) + 2 * math.log(-math.expm1(-x))
    estimate = -target / x
    for _ in range(3):
        estimate = (math.log(estimate + 2) - target) / x
    return estimate


def x_where_estimate_crosses(level, rel_tol):
    """The least double x whose estimate is at most ``level`` (it falls as x grows)."""
    low, high = 1e-300, 700.0
    while (middle := math.sqrt(low) * math.sqrt(high)) not in (low, high):
        if fixed_point_estimate(middle, rel_tol) > level:
            low = middle
        else:
            high = middle
    while fixed_point_estimate(math.nextafter(high, 0), rel_tol) <= level:
        high = math.nextafter(high, 0)
    return high


# rel_tol just below 1 walks furthest; the default walks at most 7 levels
CROSSING_TOLERANCES = (1e-300, 1e-14, 0.5, 0.99, math.nextafter(1.0, 0.0))


class TestLeastLadderLength:
    """The estimate and walk give the doubling-and-bisect search's results."""

    @staticmethod
    def inputs():
        rng = random.Random("ladder-length-estimate")
        cases = [(5e-300, 1e-14)] + [(math.exp(rng.uniform(math.log(1e-300), math.log(700))),
                                      math.exp(rng.uniform(math.log(1e-300), math.log(0.99))))
                                     for _ in range(3000)]
        for rel_tol in CROSSING_TOLERANCES:
            for level in (2 ** 60, LADDER_TERM_CAP):
                x = x_where_estimate_crosses(level, rel_tol)
                cases += [(math.nextafter(x, 0), rel_tol), (x, rel_tol),
                          (math.nextafter(x, 1), rel_tol)]
        return cases

    def test_equals_the_doubling_and_bisect_search(self):
        for x, rel_tol in self.inputs():
            assert (ladder_length(ladder_terms_for_tolerance, x, rel_tol)
                    == ladder_length(doubling_and_bisect_terms, x, rel_tol)), (x, rel_tol)

    def test_walks_up_at_most_74_levels_below_the_cap(self):
        longest = {}
        for x, rel_tol in self.inputs():
            estimate = fixed_point_estimate(x, rel_tol)
            if estimate <= LADDER_TERM_CAP:
                length = ladder_length(doubling_and_bisect_terms, x, rel_tol)
                if isinstance(length, tuple):
                    length = length[1]
                walk = length - math.ceil(estimate)
                assert 0 <= walk <= (7 if rel_tol == 1e-14 else 74), (x, rel_tol)
                longest[rel_tol] = max(longest.get(rel_tol, 0), walk)
        assert longest[math.nextafter(1.0, 0.0)] == 74  # at the cap
        assert longest[1e-14] == 7

    def test_estimates_cross_the_cap_and_2_to_the_60(self):
        for rel_tol in CROSSING_TOLERANCES:
            for level in (2 ** 60, LADDER_TERM_CAP):
                x = x_where_estimate_crosses(level, rel_tol)
                assert (fixed_point_estimate(math.nextafter(x, 0), rel_tol)
                        > level >= fixed_point_estimate(x, rel_tol))


class TestBlockedLadderSum:
    """The ladder sum adds per-block sums of at most 2**16 levels."""

    @pytest.mark.parametrize("terms", [1, 65_535, 65_536])
    def test_one_block_is_the_one_shot_sum_bit_for_bit(self, monkeypatch, terms):
        # T = 1024 makes x = 2**-10 exactly
        energy = ladder_energy(monkeypatch, 1024.0, n_max=terms - 1)
        assert energy == one_shot_ladder_energy(2.0 ** -10, terms - 1)

    @pytest.mark.parametrize("temperature,n_max", [(1024.0, 65_536), (1e4, None)])
    def test_several_blocks_agree_with_the_one_shot_sum_and_the_closed_form(
            self, monkeypatch, temperature, n_max):
        # 65 537 levels is two blocks; x = 1e-4 takes 640 268 levels, 10 blocks
        closed = spectral_density(1.0, temperature).thermal_density
        summed = spectral_density_ladder_sum(1.0, temperature, n_max=n_max).thermal_density
        assert summed == pytest.approx(closed, rel=1e-14, abs=0)
        x = 1.0 / temperature
        energy = ladder_energy(monkeypatch, temperature, n_max=n_max)
        one_shot = one_shot_ladder_energy(x, ladder_terms_for_tolerance(x)
                                          if n_max is None else n_max)
        assert energy == pytest.approx(one_shot, rel=1e-14, abs=0)

    @pytest.mark.parametrize("temperature,n_max", [
        (1024.0, 65_536), (1024.0, 131_071), (1024.0, 131_072), (1e4, None)])
    def test_reused_buffers_keep_the_blockwise_sum_bit_for_bit(
            self, monkeypatch, temperature, n_max):
        # 65 537, 131 072 and 131 073 levels at x = 2**-10, and 10 blocks at x = 1e-4
        x = 1.0 / temperature
        blockwise = blockwise_ladder_energy(x, ladder_terms_for_tolerance(x)
                                            if n_max is None else n_max)
        assert ladder_energy(monkeypatch, temperature, n_max=n_max) == blockwise

    @pytest.mark.parametrize("temperature", [1e4, 1e5])
    def test_one_call_holds_two_block_buffers(self, temperature):
        # two float64 buffers of 2**16 levels are 1 MiB; fresh arrays for
        # each block step peaked at 2 MiB
        tracemalloc.start()
        try:
            spectral_density_ladder_sum(1.0, temperature)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20

    def test_memory_is_bounded_by_the_block(self):
        # x = 1e-5 takes 7 103 821 levels; all at once they peaked at about 163 MiB
        tracemalloc.start()
        try:
            spectral_density_ladder_sum(1.0, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestClassicalLimit:
    def test_rayleigh_jeans_recovery_at_tiny_x(self):
        x = 1e-6
        temperature = temperature_for_x(x)
        thermal = spectral_density(1.0, temperature).thermal_density
        classical = rayleigh_jeans_density(1.0, temperature)
        assert abs(thermal - classical) / classical < 5e-7

    def test_looser_grid_check(self):
        x = 1e-6
        temperature = temperature_for_x(x)
        thermal = spectral_density(1.0, temperature).thermal_density
        classical = rayleigh_jeans_density(1.0, temperature)
        assert abs(thermal - classical) / classical < 1e-5

    def test_classical_always_exceeds_thermal(self):
        for x in (0.01, 0.1, 1.0, 5.0, 40.0):
            temperature = temperature_for_x(x)
            thermal = spectral_density(1.0, temperature).thermal_density
            classical = rayleigh_jeans_density(1.0, temperature)
            assert 0 < thermal < classical

    def test_underflowed_x_takes_its_limit(self):
        # x = hbar*w/(k*T) = 1e-450 underflows to 0; the thermal energy
        # is then its x -> 0 limit k*T, not a division by expm1(0)
        point = spectral_density(1e-150, 1e300)
        assert math.isfinite(point.total_density)
        assert point.thermal_density == pytest.approx(
            rayleigh_jeans_density(1e-150, 1e300), rel=1e-15, abs=0)
        assert mean_oscillator_energy(1e-150, 1e300, include_zero_point=False) == 1e300

    def test_overflowing_density_names_omega(self):
        with pytest.raises(ValueError, match=re.escape("omega = 1e+300 overflows")):
            rayleigh_jeans_density(1e300, 1.0)
        with pytest.raises(ValueError, match=re.escape("omega = 1e+150 overflows")):
            rayleigh_jeans_density(1e150, 1e300)

    def test_linear_in_temperature(self):
        assert rayleigh_jeans_density(1.0, 6.0) == pytest.approx(
            3 * rayleigh_jeans_density(1.0, 2.0), rel=1e-15, abs=0)


class TestWienPeak:
    @staticmethod
    def bisection_root():
        def g(x):
            return 3 * (1 - math.exp(-x)) - x

        low, high = 2.0, 3.0
        for _ in range(200):
            mid = 0.5 * (low + high)
            if g(mid) > 0:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def test_root_residual(self):
        x_star = wien_x_constant()
        assert abs(3 * (1 - math.exp(-x_star)) - x_star) < 1e-12

    def test_against_bisection_oracle(self):
        assert wien_x_constant() == pytest.approx(self.bisection_root(), abs=1e-12)

    def test_against_closed_form(self):
        # independent route: x* = 3 + W0(-3 e^-3)
        from scipy.special import lambertw
        closed = float(3 + lambertw(-3 * math.exp(-3), 0).real)
        assert wien_x_constant() == pytest.approx(closed, abs=1e-13)

    def test_reference_value(self):
        assert wien_x_constant() == pytest.approx(2.821439, abs=1e-6)

    def test_linear_scaling_with_temperature(self):
        assert wien_peak(2.0) == pytest.approx(2 * wien_peak(1.0), rel=1e-15, abs=0)

    def test_peak_domain(self):
        for temperature in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="temperature must be positive and finite"):
                wien_peak(temperature)
        with pytest.raises(ValueError, match=re.escape(
                "Wien peak at temperature 1e+300 overflows a double")):
            wien_peak(1e300, UnitSystem.si())
        assert math.isfinite(wien_peak(1e300))

    def test_peak_brackets_the_thermal_maximum(self):
        # the thermal density on a fine grid peaks where the root says
        temperature = 1.0
        peak = wien_peak(temperature)
        step = 1e-4 * peak
        center = spectral_density(peak, temperature).thermal_density
        assert center >= spectral_density(peak - step, temperature).thermal_density
        assert center >= spectral_density(peak + step, temperature).thermal_density

    def test_zero_point_part_is_monotone_and_peakless(self):
        # the w^3 zero-point column only grows, which is why the peak is
        # defined on the thermal part alone
        densities = [spectral_density(w, 1.0).zero_point_density
                     for w in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert densities == sorted(densities)
        assert densities[0] < densities[-1]


class TestStefanBoltzmann:
    TARGET = math.pi ** 4 / 15

    def test_integral_matches_closed_form(self):
        integral, _ = stefan_boltzmann_integral()
        assert abs(integral - self.TARGET) / self.TARGET < 1e-8

    def test_minimum_node_count_suffices(self):
        integral, _ = stefan_boltzmann_integral(quadrature_points=64)
        assert abs(integral - self.TARGET) / self.TARGET < 1e-8

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            stefan_boltzmann_integral(quadrature_points=32)

    def test_node_count_limit_is_inclusive(self):
        integral, _ = stefan_boltzmann_integral(quadrature_points=MAX_QUADRATURE_POINTS)
        assert abs(integral - self.TARGET) / self.TARGET < 1e-8
        limit = re.escape(f"exceeds the limit of {MAX_QUADRATURE_POINTS}")
        with pytest.raises(ValueError, match=limit):
            stefan_boltzmann_integral(quadrature_points=MAX_QUADRATURE_POINTS + 1)
        with pytest.raises(ValueError, match=limit):
            stefan_boltzmann_integral(quadrature_points=10 ** 6)

    def test_memoised_rule_equals_a_fresh_one(self):
        from phasestar.blackbody import _bose_quadrature
        first = stefan_boltzmann_integral(quadrature_points=97)
        assert stefan_boltzmann_integral(quadrature_points=97) == first
        assert first[0] == _bose_quadrature.__wrapped__(97)
        assert _bose_quadrature(121) == _bose_quadrature.__wrapped__(121)
        for bad in (63, 97.0, MAX_QUADRATURE_POINTS + 1):
            with pytest.raises(ValueError, match="quadrature_points"):
                stefan_boltzmann_integral(quadrature_points=bad)

    def test_self_check_runs_on_every_call(self, monkeypatch):
        from phasestar.blackbody import QuadratureError, _bose_quadrature
        stefan_boltzmann_integral(quadrature_points=80)
        monkeypatch.setattr(blackbody, "_bose_quadrature",
                            lambda points: _bose_quadrature(points) * (1.0 if points == 80 else 2.0))
        with pytest.raises(QuadratureError):
            stefan_boltzmann_integral(quadrature_points=80)

    def test_quartic_temperature_scaling(self):
        _, coefficient = stefan_boltzmann_integral()
        density = lambda t: coefficient * t ** 4
        assert density(2.0) / density(1.0) == 16.0

    def test_coefficient_composition(self):
        units = UnitSystem.si()
        integral, coefficient = stefan_boltzmann_integral(units)
        expected = integral * units.k_boltzmann ** 4 / (
            units.hbar ** 3 * units.c_light ** 3 * math.pi ** 2)
        assert coefficient == expected

    @pytest.mark.parametrize("units", [
        UnitSystem(k_boltzmann=1e100),               # k**4 overflows
        UnitSystem(hbar=1e-300, c_light=1e-10),      # hbar**3 c**3 underflows to 0
        UnitSystem(k_boltzmann=1e77, hbar=0.1),      # the product overflows to inf
    ])
    def test_coefficient_beyond_double_range_names_units(self, units):
        with pytest.raises(ValueError, match=re.escape(f"units = {units!r} overflows")):
            stefan_boltzmann_integral(units)

    @pytest.mark.parametrize("units", [
        UnitSystem(k_boltzmann=1e100, hbar=1e100),                  # k**4 overflows
        UnitSystem(hbar=1e-110, k_boltzmann=1e-20, c_light=1e-10),  # hbar**3 underflows to 0
        UnitSystem(k_boltzmann=1e77),   # integral*k**4 overflows to inf, the result is 6.6e307
    ])
    def test_coefficient_that_fits_where_a_power_does_not(self, units):
        integral, coefficient = stefan_boltzmann_integral(units)
        exact = Fraction(integral) * Fraction(units.k_boltzmann) ** 4 / (
            Fraction(units.hbar) ** 3 * Fraction(units.c_light) ** 3 * Fraction(math.pi) ** 2)
        assert coefficient == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_integrand_limit_at_zero(self):
        from phasestar.blackbody import _bose_integrand
        assert _bose_integrand(1e-8) == pytest.approx(1e-16, rel=1e-6, abs=0)


class TestZeroPointCutoff:
    def test_quartic_growth(self):
        small = zero_point_cutoff_energy(1.0)
        large = zero_point_cutoff_energy(2.0)
        assert abs(large / small - 16.0) < 1e-12

    def test_free_limit_is_exactly_zero(self):
        assert zero_point_cutoff_energy(10.0, N=math.inf) == 0.0

    def test_natural_unit_value(self):
        assert zero_point_cutoff_energy(1.0) == pytest.approx(
            1 / (8 * math.pi ** 2), rel=1e-15, abs=0)

    def test_general_n_scaling(self):
        assert zero_point_cutoff_energy(1.0, N=4.0) == pytest.approx(
            0.5 * zero_point_cutoff_energy(1.0, N=2.0), rel=1e-15, abs=0)

    @pytest.mark.parametrize("omega_cutoff, units", [
        (1e100, NATURAL),                        # wc**4 overflows
        (1.0, UnitSystem(c_light=1e-120)),       # c**3 underflows to 0
        (1.0, UnitSystem(c_light=1e-106)),       # the quotient overflows to inf
    ])
    def test_energy_beyond_double_range_names_cutoff(self, omega_cutoff, units):
        with pytest.raises(ValueError, match=re.escape(f"omega_cutoff = {omega_cutoff!r}")):
            zero_point_cutoff_energy(omega_cutoff, units)
        assert math.isfinite(zero_point_cutoff_energy(1e77))

    @pytest.mark.parametrize("omega_cutoff, units", [
        (1e100, UnitSystem(c_light=1e100)),              # wc**4 overflows
        (1e-100, UnitSystem(c_light=1e-120)),            # c**3 underflows to 0
        (1e70, UnitSystem(hbar=1e100, c_light=1e100)),   # hbar*wc**4 overflows to inf
    ])
    def test_energy_that_fits_where_a_power_does_not(self, omega_cutoff, units):
        exact = Fraction(units.hbar) * Fraction(omega_cutoff) ** 4 / (
            8 * Fraction(math.pi) ** 2 * Fraction(units.c_light) ** 3)
        assert zero_point_cutoff_energy(omega_cutoff, units) == pytest.approx(
            float(exact), rel=1e-15, abs=0)


PI_SQUARED = Fraction(math.pi ** 2)  # the double the code uses


def t4_coefficient(units):
    return stefan_boltzmann_integral(units)[1]


def exact_t4_coefficient(units):
    integral = Fraction(stefan_boltzmann_integral()[0])  # the same for every unit system
    return integral * Fraction(units.k_boltzmann) ** 4 / (
        Fraction(units.hbar) ** 3 * Fraction(units.c_light) ** 3 * PI_SQUARED)


def exact_cutoff_energy(omega_cutoff, units, N=2.0):
    return Fraction(units.hbar) * Fraction(omega_cutoff) ** 4 / (
        4 * Fraction(N) * PI_SQUARED * Fraction(units.c_light) ** 3)


def exact_wien_peak(temperature, units):
    return (Fraction(wien_x_constant()) * Fraction(units.k_boltzmann) * Fraction(temperature)
            / Fraction(units.hbar))


def assert_rounded_once(call, exact):
    """``call()`` is ``float(exact)``, or raises where that leaves the double range."""
    try:
        expected = float(exact)
    except OverflowError:
        with pytest.raises(ValueError, match="overflows a double"):
            call()
        return
    assert call() == expected


class TestCorrectRounding:
    """The T**4 coefficient, the zero-point cutoff energy and the Wien peak are
    each their exact closed form rounded once, with pi**2 and x* the doubles
    the code uses."""

    @pytest.mark.parametrize("call, exact, args", [
        # a subnormal power or product zeroed or skewed the float grouping here
        (t4_coefficient, exact_t4_coefficient,                             # 6.58e-9
         (UnitSystem(k_boltzmann=1e76, hbar=1e52, c_light=1e52),)),
        (t4_coefficient, exact_t4_coefficient,                             # 6.58e-161
         (UnitSystem(k_boltzmann=1e-100, hbar=1e-30, c_light=1e-50),)),
        (zero_point_cutoff_energy, exact_cutoff_energy, (1e70, UnitSystem(c_light=4e102))),
        (zero_point_cutoff_energy, exact_cutoff_energy, (1e-10, UnitSystem(c_light=1e-104))),
        (wien_peak, exact_wien_peak, (1e-20, UnitSystem(k_boltzmann=1e-300, hbar=1e-300))),
        # x* k T overflows, the peak is 2.82e307
        (wien_peak, exact_wien_peak, (1e308, UnitSystem(hbar=10.0))),
    ], ids=["t4-1e76", "t4-1e-100", "cutoff-4e102", "cutoff-1e-104", "wien-1e-300",
            "wien-1e308"])
    def test_row(self, call, exact, args):
        assert call(*args) == float(exact(*args))

    def test_zero_point_density_where_omega_squared_is_subnormal(self):
        # w**2 = 3.1e-323 is subnormal; its float grouping was 5.5 % off
        units = UnitSystem(c_light=1e-100)
        point = spectral_density(5.6e-162, 1.0, units)
        exact = Fraction(5.6e-162) ** 3 / (2 * Fraction(math.pi) ** 2 * Fraction(1e-100) ** 3)
        assert point.zero_point_density == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_seeded_grid(self):
        rng = random.Random(30)
        systems = [NATURAL, UnitSystem.si()] + [
            UnitSystem(*(10 ** rng.uniform(-320, 300) for _ in range(3))) for _ in range(120)]
        for units in systems:
            assert_rounded_once(lambda: t4_coefficient(units), exact_t4_coefficient(units))
            for _ in range(4):
                omega_cutoff, N = 10 ** rng.uniform(-320, 307), rng.choice((2.0, 3, 0.75))
                assert_rounded_once(lambda: zero_point_cutoff_energy(omega_cutoff, units, N),
                                    exact_cutoff_energy(omega_cutoff, units, N))
                temperature = 10 ** rng.uniform(-320, 307)
                if 0 < units.k_boltzmann * temperature < math.inf:  # else a domain error
                    assert_rounded_once(lambda: wien_peak(temperature, units),
                                        exact_wien_peak(temperature, units))


class TestSweep:
    def test_grid_shapes_and_ordering(self):
        points = spectrum_sweep(1.0, 0.1, 10.0, 25)
        assert len(points) == 25
        omegas = [p.omega for p in points]
        assert omegas == sorted(omegas)
        assert omegas[0] == pytest.approx(0.1, abs=0)
        assert omegas[-1] == pytest.approx(10.0, abs=0)

    def test_linear_spacing(self):
        points = spectrum_sweep(1.0, 1.0, 2.0, 3, spacing="linear")
        assert [p.omega for p in points] == pytest.approx([1.0, 1.5, 2.0], abs=0)

    def test_determinism(self):
        a = spectrum_sweep(2.0, 0.5, 8.0, 11)
        b = spectrum_sweep(2.0, 0.5, 8.0, 11)
        assert a == b

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            spectrum_sweep(1.0, 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            spectrum_sweep(1.0, 1.0, 2.0, 1)
        with pytest.raises(ValueError):
            spectrum_sweep(1.0, 1.0, 2.0, 5, spacing="cubic")

    def test_point_limit(self, monkeypatch):
        with pytest.raises(ValueError, match=f"10000000000000 points exceeds the "
                                             f"limit of {MAX_SWEEP_POINTS}"):
            spectrum_sweep(1.0, 1.0, 2.0, 10 ** 13)
        monkeypatch.setattr(blackbody, "MAX_SWEEP_POINTS", 5)
        assert len(spectrum_sweep(1.0, 1.0, 2.0, 5)) == 5
        with pytest.raises(ValueError, match="6 points exceeds the limit of 5"):
            spectrum_sweep(1.0, 1.0, 2.0, 6)

    def test_field_order_is_pinned(self):
        assert SPECTRUM_FIELDS == ("omega", "temperature", "thermal_density",
                                   "zero_point_density", "total_density", "x")


def scalar_sweep(temperature, omega_min, omega_max, points, spacing, units,
                 include_zero_point):
    """The per-point route: one spectral_density call per grid point."""
    with np.errstate(invalid="ignore"):
        space = np.geomspace if spacing == "log" else np.linspace
        grid = space(omega_min, omega_max, points)
    return [spectral_density(float(w), temperature, units, include_zero_point)
            for w in grid]


def bits(rows):
    return [tuple(float(value).hex() for value in astuple(row)) for row in rows]


def outcome(call):
    try:
        return bits(call())
    except Exception as error:  # the type and message are what is compared
        return type(error), str(error)


class TestSweepMatchesScalarRoute:
    """spectrum_sweep computes columns; each row must equal the scalar
    spectral_density at its grid point, bit for bit."""

    @pytest.mark.parametrize("units", [NATURAL, UnitSystem.si()], ids=["natural", "si"])
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("include_zero_point", [True, False])
    def test_rows_are_bit_identical(self, units, spacing, include_zero_point):
        rng = random.Random(f"{units.mode}-{spacing}-{include_zero_point}")
        for _ in range(3):
            # the benchmark's ranges: 200-5000 points, x from 1e-4 up to 50
            points = round(10 ** rng.uniform(math.log10(200), math.log10(5000)))
            x_low = 10 ** rng.uniform(-4, 0)
            x_high = 10 ** rng.uniform(math.log10(10 * x_low), math.log10(50))
            temperature = 10 ** rng.uniform(-2, 2) * (300 if units.mode == "si" else 1)
            scale = units.k_boltzmann * temperature / units.hbar
            args = (temperature, x_low * scale, x_high * scale, points, spacing, units,
                    include_zero_point)
            rows = spectrum_sweep(*args)
            assert len(rows) == points
            assert bits(rows) == bits(scalar_sweep(*args))

    @pytest.mark.parametrize("units", [
        NATURAL, UnitSystem.si(),
        UnitSystem(c_light=4e102),   # pi**2 c**3 overflows: every row leaves the float grouping
        UnitSystem(c_light=1e-110),  # c**3 underflows to 0
        UnitSystem(c_light=1e-104),  # c**3 is subnormal
        UnitSystem(c_light=1e-100),  # a subnormal w**2 leaves it, c**3 is normal
    ], ids=["natural", "si", "c=4e102", "c=1e-110", "c=1e-104", "c=1e-100"])
    def test_rows_are_bit_identical_across_the_double_range(self, units):
        rng = random.Random(f"wide-{units.mode}")
        for _ in range(40):
            temperature = 10 ** rng.uniform(-300, 300)
            omega_min = 10 ** rng.uniform(-300, 150)
            args = (temperature, omega_min, omega_min * 10 ** rng.uniform(0.01, 12),
                    rng.randint(2, 60), rng.choice(("log", "linear")), units,
                    rng.random() < 0.5)
            assert outcome(lambda: spectrum_sweep(*args)) == outcome(lambda: scalar_sweep(*args))

    @pytest.mark.parametrize("args", [
        (1.0, 690.0, 720.0, 31, "linear", NATURAL),      # flush band and x > 700
        (1e300, 1e-150, 1e-5, 40, "log", NATURAL),       # x underflows past 1e-308
        (300.0, 1e-300, 1e-290, 20, "log", UnitSystem.si()),  # hbar*w underflows to 0
    ], ids=["overflow-and-flush", "x-underflow", "quantum-underflow"])
    def test_rows_are_bit_identical_at_the_policy_edges(self, args):
        for include_zero_point in (True, False):
            rows = spectrum_sweep(*args, include_zero_point)
            assert bits(rows) == bits(scalar_sweep(*args, include_zero_point))

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_rows_where_only_omega_squared_overflows(self, spacing):
        # w**2 overflows from about w = 1.34e154 on; every density stays finite
        for include_zero_point in (True, False):
            args = (1e199, 1e150, 1e200, 41, spacing, UnitSystem(c_light=1e100),
                    include_zero_point)
            rows = spectrum_sweep(*args)
            with np.errstate(over="ignore"):
                assert np.isinf(np.float_power([row.omega for row in rows], 2.0)).sum() > 20
            assert bits(rows) == bits(scalar_sweep(*args))

    @pytest.mark.parametrize("omega", [
        0.19391198154887967,  # np.expm1 and math.expm1 may differ in the last ulp here
        5.537602076146872e-06,  # w * w and libm pow(w, 2) differ here
    ])
    def test_last_ulp_witnesses(self, omega):
        for include_zero_point in (True, False):
            rows = spectrum_sweep(1.0, omega, 2 * omega, 3, "linear",
                                  include_zero_point=include_zero_point)
            assert rows[0].omega == omega
            assert bits(rows) == bits(scalar_sweep(1.0, omega, 2 * omega, 3, "linear",
                                                   NATURAL, include_zero_point))

    @pytest.mark.parametrize("temperature, omega_min, omega_max, spacing, units", [
        (1.0, 1e300, 1e301, "log", NATURAL),            # overflow at the first row
        (1.0, 1e150, 1e160, "log", NATURAL),            # overflow part way along
        (1e300, 1e150, 1e160, "linear", NATURAL),
        (1.0, 1.0, math.inf, "log", NATURAL),           # grid reaches inf
        (1.0, 1.0, math.inf, "linear", NATURAL),        # grid starts at nan
        (1.0, 1e300, math.inf, "log", NATURAL),         # overflow before the inf point
        (math.nan, 1.0, 2.0, "log", NATURAL),
        (math.inf, 1.0, 2.0, "linear", NATURAL),
        (1e-310, 1.0, 2.0, "log", UnitSystem.si()),     # k*T underflows to 0
        (1.0, 1.0, 1e20, "log", UnitSystem(hbar=1e300)),  # hbar*w overflows part way
        (1.0, 1.0, 2.0, "log", UnitSystem(c_light=1e-120)),  # density of states overflows
    ])
    def test_errors_are_the_first_bad_row(self, temperature, omega_min, omega_max,
                                          spacing, units):
        for include_zero_point in (True, False):
            args = (temperature, omega_min, omega_max, 9, spacing, units,
                    include_zero_point)
            scalar = outcome(lambda: scalar_sweep(*args))
            assert isinstance(scalar, tuple) and scalar[0] is ValueError
            assert outcome(lambda: spectrum_sweep(*args)) == scalar


class TestRowType:
    """Sweep rows are built slot by slot without __init__; they must be the same
    frozen, slotted SpectrumPoint as the rows the scalar route constructs."""

    GRID = (1.0, 0.05, 900.0, 13, "log", NATURAL)

    @pytest.fixture(params=[True, False], ids=["zero-point", "thermal-only"])
    def pairs(self, request):
        args = self.GRID + (request.param,)
        return list(zip(spectrum_sweep(*args), scalar_sweep(*args)))

    def test_rows_are_slotted_spectrum_points(self, pairs):
        for row in (row for pair in pairs for row in pair):
            assert type(row) is SpectrumPoint
            assert not hasattr(row, "__dict__")

    def test_rows_are_frozen(self, pairs):
        for row in (row for pair in pairs for row in pair):
            for field in SPECTRUM_FIELDS[:5]:
                with pytest.raises(FrozenInstanceError):
                    setattr(row, field, 0.0)
            with pytest.raises(FrozenInstanceError):
                del row.omega

    def test_sweep_and_scalar_rows_agree(self, pairs):
        for swept, scalar in pairs:
            assert swept == scalar
            assert hash(swept) == hash(scalar)
            assert repr(swept) == repr(scalar)
            assert astuple(swept) == astuple(scalar)
            for row in (swept, scalar):
                restored = pickle.loads(pickle.dumps(row))
                assert type(restored) is SpectrumPoint
                assert restored == swept and astuple(restored) == astuple(swept)

    @pytest.mark.parametrize("fields, message", [
        ((1.0, 1.0, -1.0, 0.0, -1.0), "densities must be non-negative"),
        ((1.0, 1.0, 1.0, -0.5, 0.5), "densities must be non-negative"),
        ((1.0, 1.0, 1.0, 0.5, 2.0), "total density must equal thermal plus zero-point"),
        ((2.5, 1.0, math.inf, 0.0, math.inf), "spectral density at omega = 2.5 overflows"),
        ((2.5, 1.0, 0.0, math.nan, math.nan), "spectral density at omega = 2.5 overflows"),
    ])
    def test_direct_construction_still_checks(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SpectrumPoint(*fields)

    def test_direct_construction_reads_any_real_number(self):
        # a bool reads as 0 or 1, and numpy and exact reals are real numbers too
        point = SpectrumPoint(np.float32(2.0), True, 0, Fraction(1, 2), Fraction(1, 2))
        assert (point.temperature, point.total_density) == (1, 0.5)

    @pytest.mark.parametrize("include_zero_point", [True, False])
    def test_sweep_error_names_the_first_overflowing_row(self, include_zero_point):
        # the thermal density, about w**2 k T / pi**2, overflows part way along
        grid = np.geomspace(1.0, 1e10, 21).tolist()
        first = next(w for w in grid
                     if outcome(lambda: [spectral_density(w, 1e300, NATURAL,
                                                          include_zero_point)])[0] is ValueError)
        assert grid.index(first) not in (0, 20)
        with pytest.raises(ValueError, match=re.escape(f"omega = {first!r} overflows")):
            spectrum_sweep(1e300, 1.0, 1e10, 21, "log", NATURAL, include_zero_point)


class TestFrequencyView:
    @pytest.mark.parametrize("units", [NATURAL, UnitSystem.si()], ids=["natural", "si"])
    def test_jacobian_consistency(self, units):
        # each density field is 2*pi times the angular one, bit for bit
        rng = random.Random(f"jacobian-{units.mode}")
        cases = [(0.35, 1.4)] if units is NATURAL else []
        for _ in range(200):
            temperature = 10 ** rng.uniform(-2, 2) * (300 if units.mode == "si" else 1)
            x = 10 ** rng.uniform(-4, math.log10(50))
            cases.append((x * units.k_boltzmann * temperature / (2 * math.pi * units.hbar),
                          temperature))
        for nu, temperature in cases:
            for include_zero_point in (True, False):
                per_nu = spectral_density_per_frequency(nu, temperature, units,
                                                        include_zero_point)
                per_omega = spectral_density(2 * math.pi * nu, temperature, units,
                                             include_zero_point)
                assert (per_nu.omega, per_nu.temperature) == (nu, temperature)
                assert per_nu.thermal_density == 2 * math.pi * per_omega.thermal_density
                assert per_nu.zero_point_density == 2 * math.pi * per_omega.zero_point_density
                assert per_nu.total_density == pytest.approx(
                    2 * math.pi * per_omega.total_density, rel=1e-15, abs=0)

    @pytest.mark.parametrize("nu", [1e308, 3e307])
    def test_overflowing_angular_frequency_names_nu(self, nu):
        # nu is finite and valid; only 2*pi*nu leaves the double range
        with pytest.raises(ValueError, match=re.escape(
                f"2*pi*nu at nu = {nu!r} overflows a double")):
            spectral_density_per_frequency(nu, 1.0)
