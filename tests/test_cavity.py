"""Mode enumeration, lattice counting and field-energy tests.

The counting arithmetic is cross-checked against a plain triple-loop oracle
that shares no code with the integer shell counters.
"""

import gc
import math
import random
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cavity_oracle import oracle_enumerate_modes
from phasestar import cavity
from phasestar.cavity import (MAX_LATTICE_RADIUS, MODE_COUNT_CAP, CavitySpec, FieldEnergy,
                              Mode, ModeAmplitude, ModeCapExceeded, PERIODIC, STANDING,
                              electromagnetic_standing_mode_count,
                              enumerate_modes, field_energy,
                              mode_count_vs_asymptotic)
from phasestar.units import NATURAL, UnitSystem


def triple_loop_count(radius, positive_octant, shell=None):
    """Independent brute-force lattice count: triples with |n| <= radius, or
    with the integer |n|**2 <= shell when a shell is given."""
    reach = int(radius)
    limit = radius * radius if shell is None else shell
    total = 0
    axis = range(1, reach + 1) if positive_octant else range(-reach, reach + 1)
    for a in axis:
        for b in axis:
            for c in axis:
                if not positive_octant and a == 0 and b == 0 and c == 0:
                    continue
                if a * a + b * b + c * c <= limit:
                    total += 1
    return total


def exact_shells(positive_octant, below):
    """Every |n|**2 < below that some lattice triple of the convention hits."""
    reach = math.isqrt(below)
    axis = range(1, reach + 1) if positive_octant else range(-reach, reach + 1)
    return sorted({a * a + b * b + c * c for a in axis for b in axis for c in axis}
                  - {0} & set(range(below)))


def assert_same_modes(modes, oracle_modes):
    """Equal under ==, with plain int and float entries (no numpy scalars,
    which the CLI's JSON export could not write)."""
    assert modes == oracle_modes
    for mode in modes:
        assert type(mode) is Mode
        assert all(type(n) is int for n in mode.lattice_triple)
        assert type(mode.omega) is float
        assert type(mode.polarization_count) is int


class TestEnumerateModes:
    def test_standing_lowest_mode(self):
        spec = CavitySpec(side_length=1.0, boundary_convention=STANDING)
        lowest_omega = math.pi * math.sqrt(3)
        modes = enumerate_modes(spec, lowest_omega * 1.001)
        assert len(modes) == 1
        assert modes[0].lattice_triple == (1, 1, 1)
        assert modes[0].omega == pytest.approx(lowest_omega, rel=1e-15, abs=0)
        assert modes[0].polarization_count == 2

    def test_lowest_shell_is_inclusive(self):
        # omega_max equal to the (1,1,1) mode's own omega lists that mode
        modes = enumerate_modes(CavitySpec(), math.pi * math.sqrt(3))
        assert [m.lattice_triple for m in modes] == [(1, 1, 1)]
        assert modes[0].omega == math.pi * math.sqrt(3)

    def test_below_lowest_mode_is_empty(self):
        spec = CavitySpec(side_length=1.0, boundary_convention=STANDING)
        assert enumerate_modes(spec, 0.9 * math.pi * math.sqrt(3)) == []

    def test_periodic_lowest_shell(self):
        spec = CavitySpec(side_length=1.0, boundary_convention=PERIODIC)
        shell_omega = 2 * math.pi
        modes = enumerate_modes(spec, shell_omega * 1.001)
        assert len(modes) == 6
        triples = {m.lattice_triple for m in modes}
        assert triples == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)}
        assert all(m.omega == pytest.approx(shell_omega, abs=0) for m in modes)

    def test_ordering_and_uniqueness(self):
        spec = CavitySpec(side_length=1.0, boundary_convention=STANDING)
        modes = enumerate_modes(spec, 20.0)
        keys = [(m.omega, m.lattice_triple) for m in modes]
        assert keys == sorted(keys)
        triples = [m.lattice_triple for m in modes]
        assert len(triples) == len(set(triples))

    @pytest.mark.parametrize("convention", [STANDING, PERIODIC])
    def test_rows_are_modes(self, convention):
        # == alone would accept plain tuples
        modes = enumerate_modes(CavitySpec(boundary_convention=convention), 40.0)
        assert modes and all(type(mode) is Mode for mode in modes)
        assert modes[0].omega == modes[0][1]

    def test_determinism(self):
        spec = CavitySpec(side_length=2.0, boundary_convention=PERIODIC)
        assert enumerate_modes(spec, 15.0) == enumerate_modes(spec, 15.0)

    def test_side_length_scales_frequencies(self):
        unit_box = CavitySpec(side_length=1.0)
        double_box = CavitySpec(side_length=2.0)
        modes_unit = enumerate_modes(unit_box, 30.0)
        modes_double = enumerate_modes(double_box, 15.0)
        assert [m.lattice_triple for m in modes_unit] == \
            [m.lattice_triple for m in modes_double]
        for a, b in zip(modes_unit, modes_double):
            assert a.omega == pytest.approx(2 * b.omega, rel=1e-15, abs=0)

    def test_cap_reports_requirement(self):
        spec = CavitySpec(side_length=1.0)
        with pytest.raises(ModeCapExceeded) as info:
            enumerate_modes(spec, 100.0, cap=10)
        assert info.value.required_cap > 10

    def test_default_cap_refuses_before_allocating(self):
        # 14031032 positive triples lie in the shell |n|**2 <= 300**2; listing
        # them would hold about 2.4 GB, the refusal only the census blocks.
        tracemalloc.start()
        try:
            with pytest.raises(ModeCapExceeded) as info:
                enumerate_modes(CavitySpec(), 300 * math.pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.required_cap == 14031032
        assert info.value.cap == MODE_COUNT_CAP == 10_000_000
        assert peak < 16 * 2 ** 20

    def test_omega_max_validated(self):
        for omega_max in (0.0, -1.0, math.nan):
            for count in (enumerate_modes, mode_count_vs_asymptotic,
                          electromagnetic_standing_mode_count):
                with pytest.raises(ValueError, match="omega_max must be positive"):
                    count(CavitySpec(), omega_max)

    def test_speed_of_light_enters(self):
        spec = CavitySpec(side_length=1.0)
        units = UnitSystem.si()
        lowest = math.pi * units.c_light * math.sqrt(3)
        modes = enumerate_modes(spec, lowest * 1.001, units)
        assert len(modes) == 1
        assert modes[0].omega == pytest.approx(lowest, rel=1e-15, abs=0)


class TestCounting:
    @pytest.mark.parametrize("convention,ratio", [
        (STANDING, 37.7), (PERIODIC, 41.3),
    ])
    def test_matches_triple_loop_oracle(self, convention, ratio):
        spec = CavitySpec(boundary_convention=convention)
        report = mode_count_vs_asymptotic(spec, ratio)
        scale = math.pi if convention == STANDING else 2 * math.pi
        radius = ratio / scale
        oracle = triple_loop_count(radius, convention == STANDING)
        assert report.exact_count == 2 * oracle

    def test_shell_bound_steps_down_from_a_float_guess_above_omega_max(self):
        # (omega_max/scale)**2 truncates to 77, but the |n|**2 = 77 shell, e.g.
        # (2, 3, 8), has omega 91.89121218314385, one step above omega_max
        spec = CavitySpec(side_length=0.3)
        omega_max = 91.89121218314384
        scale = math.pi * NATURAL.c_light / spec.side_length
        assert int((omega_max / scale) ** 2) == 77 and scale * math.sqrt(77) > omega_max
        axis = range(1, 10)
        inside = sum(scale * math.sqrt(a * a + b * b + c * c) <= omega_max
                     for a in axis for b in axis for c in axis)
        modes = enumerate_modes(spec, omega_max)
        assert len(modes) == inside == 266
        assert all(mode.omega <= omega_max for mode in modes)
        with pytest.warns(UserWarning, match="only 532 modes"):
            assert mode_count_vs_asymptotic(spec, omega_max).exact_count == 2 * inside

    def test_shell_bound_matches_guess_and_fix_loops(self):
        def guess_and_fix(spec, omega_max, units):
            # a float guess stepped down, then up, to the largest m with
            # scale * sqrt(m) <= omega_max
            scale = cavity._wavenumber_scale(spec, units)
            radius = omega_max / scale
            m = int(radius * radius)
            while m > 0 and scale * math.sqrt(m) > omega_max:
                m -= 1
            while scale * math.sqrt(m + 1) <= omega_max:
                m += 1
            return m

        rng = random.Random(2024)
        mismatches = []
        for convention in (STANDING, PERIODIC):
            for units in (NATURAL, UnitSystem.si(), UnitSystem(c_light=0.7371)):
                for exponent in range(-5, 6):
                    spec = CavitySpec(side_length=10.0 ** exponent,
                                      boundary_convention=convention)
                    scale = cavity._wavenumber_scale(spec, units)
                    shells = [*range(1, 31), *(int(10 ** rng.uniform(1.5, 8)) - 1
                                               for _ in range(120))]
                    for k in shells:
                        on = scale * math.sqrt(k)
                        for omega_max in (math.nextafter(on, 0), on,
                                          math.nextafter(on, math.inf)):
                            expected = guess_and_fix(spec, omega_max, units)
                            if cavity._shell_bound(spec, omega_max, units) != expected:
                                mismatches.append((spec, units, omega_max, expected))
        assert mismatches == []

    def test_matches_enumeration(self):
        spec = CavitySpec(boundary_convention=STANDING)
        omega_max = 45.0
        report = mode_count_vs_asymptotic(spec, omega_max)
        modes = enumerate_modes(spec, omega_max)
        assert report.exact_count == 2 * len(modes)

    def test_asymptote_formula(self):
        spec = CavitySpec(side_length=3.0)
        omega_max = 40.0
        report = mode_count_vs_asymptotic(spec, omega_max)
        expected = 27.0 * omega_max ** 3 / (3 * math.pi ** 2)
        assert report.asymptotic_count == pytest.approx(expected, rel=1e-15, abs=0)

    def test_error_decreases_over_doubling_sweep(self):
        spec = CavitySpec(boundary_convention=STANDING)
        errors = [mode_count_vs_asymptotic(spec, ratio).relative_error
                  for ratio in (50.0, 100.0, 200.0, 400.0)]
        assert all(late < early for early, late in zip(errors, errors[1:]))

    def test_conventions_share_the_asymptote(self):
        omega_max = 200.0
        standing = mode_count_vs_asymptotic(
            CavitySpec(boundary_convention=STANDING), omega_max)
        periodic = mode_count_vs_asymptotic(
            CavitySpec(boundary_convention=PERIODIC), omega_max)
        assert standing.asymptotic_count == periodic.asymptotic_count
        assert periodic.relative_error < 0.01
        assert standing.relative_error < 0.05

    def test_advisory_warning_below_thousand_modes(self):
        with pytest.warns(UserWarning):
            mode_count_vs_asymptotic(CavitySpec(), 20.0)

    def test_electromagnetic_budget_cancels_the_surface_deficit(self):
        spec = CavitySpec(boundary_convention=STANDING)
        omega_max = 200.0
        budget = electromagnetic_standing_mode_count(spec, omega_max)
        asymptote = omega_max ** 3 / (3 * math.pi ** 2)
        assert abs(budget - asymptote) / asymptote < 0.005
        # and it is strictly larger than the uniform two-polarization count
        uniform = mode_count_vs_asymptotic(spec, omega_max).exact_count
        assert budget > uniform

    @pytest.mark.parametrize("convention,scale", [
        (STANDING, math.pi), (PERIODIC, 2 * math.pi),
    ], ids=[STANDING, PERIODIC])
    def test_exact_shells_are_inclusive(self, convention, scale):
        spec = CavitySpec(boundary_convention=convention)
        standing = convention == STANDING
        for m in exact_shells(standing, 200):
            omega_max = scale * math.sqrt(m)  # the shell's own Mode.omega
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                census = mode_count_vs_asymptotic(spec, omega_max).exact_count
            modes = enumerate_modes(spec, omega_max)
            assert_same_modes(modes, oracle_enumerate_modes(spec, omega_max))
            listed = len(modes)
            oracle = triple_loop_count(math.isqrt(m), standing, m)
            assert census // 2 == listed == oracle, m
            if standing:
                axis = range(1, math.isqrt(m) + 1)
                pairs = sum(1 for a in axis for b in axis if a * a + b * b <= m)
                assert electromagnetic_standing_mode_count(spec, omega_max) == \
                    2 * oracle + 3 * pairs, m

    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    @pytest.mark.parametrize("radius", [12, 30])
    @pytest.mark.parametrize("convention", [STANDING, PERIODIC])
    def test_census_blocks_match_triple_loop(self, monkeypatch, convention,
                                             radius, extra_rows):
        """The census sums rows a = 1..isqrt(m - 1), each isqrt(m - 1) entries
        wide at first.  A block of rows * rows entries holds exactly all of
        them; one row less leaves the last row to a second block, and one row
        more runs past the census."""
        m = radius * radius
        rows = math.isqrt(m - 1)
        monkeypatch.setattr(cavity, "_BLOCK_ENTRIES", rows * (rows + extra_rows))
        spec = CavitySpec(boundary_convention=convention)
        # a cached count would skip the blocks under test, and one counted
        # here must not outlive the patched block size
        cavity._positive_triples.cache_clear()
        try:
            assert cavity._lattice_point_count(spec, m) == \
                triple_loop_count(radius, convention == STANDING)
        finally:
            cavity._positive_triples.cache_clear()

    def test_one_census_pass_per_shell(self):
        spec, omega_max = CavitySpec(), 20 * math.pi
        cavity._positive_triples.cache_clear()
        mode_count_vs_asymptotic(spec, omega_max)
        electromagnetic_standing_mode_count(spec, omega_max)
        enumerate_modes(spec, omega_max)
        info = cavity._positive_triples.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_float_roots_cover_the_radius_limit(self):
        assert MAX_LATTICE_RADIUS ** 2 < 2 ** 52
        k = np.arange(1, MAX_LATTICE_RADIUS + 2, dtype=np.int64)
        assert (cavity._isqrt_rows(k * k - 1) == k - 1).all()
        assert (cavity._isqrt_rows(k * k) == k).all()

    @pytest.mark.parametrize("ratio,exact_count", [
        (1000, 1044840698), (4000, 66982925602),
        (MAX_LATTICE_RADIUS, 1046961910988),
    ])
    def test_large_standing_census(self, ratio, exact_count):
        # many census blocks of the default size
        report = mode_count_vs_asymptotic(CavitySpec(), ratio * math.pi)
        assert report.exact_count == exact_count

    @pytest.mark.parametrize("ratio,exact_count", [
        (4000, 536164948784), (MAX_LATTICE_RADIUS, 8377580122216),
    ])
    def test_large_periodic_census(self, ratio, exact_count):
        spec = CavitySpec(boundary_convention=PERIODIC)
        report = mode_count_vs_asymptotic(spec, ratio * 2 * math.pi)
        assert report.exact_count == exact_count

    def test_large_electromagnetic_budget(self):
        assert electromagnetic_standing_mode_count(CavitySpec(), 1000 * math.pi) == \
            1047193859
        assert electromagnetic_standing_mode_count(
            CavitySpec(), MAX_LATTICE_RADIUS * math.pi) == 1047197500277

    @pytest.mark.parametrize("omega_max", [
        math.pi * (MAX_LATTICE_RADIUS + 1), 1e12, 1e300, math.inf,
    ])
    def test_lattice_radius_limit(self, omega_max):
        spec = CavitySpec()
        for count in (mode_count_vs_asymptotic, enumerate_modes,
                      electromagnetic_standing_mode_count):
            with pytest.raises(ValueError, match=f"limit of {MAX_LATTICE_RADIUS}"):
                count(spec, omega_max)

    @pytest.mark.parametrize("side_length,omega_max,units", [
        (1e-300, 5.0, NATURAL),                 # the count is about 4e-900
        (1.0, 5.0, UnitSystem(c_light=1e120)),  # about 4e-360
    ])
    def test_asymptote_must_be_positive_and_finite(self, side_length, omega_max, units):
        spec = CavitySpec(side_length=side_length)
        with pytest.raises(ValueError, match=re.escape(
                "asymptotic count 0.0 is not positive and finite")):
            mode_count_vs_asymptotic(spec, omega_max, units)

    @pytest.mark.parametrize("side_length,omega_max", [
        (1e150, 1e-148),   # wL/c = 100, where L**3 alone overflows
        (1e-300, 1e200),   # wL/c = 1e-100, where omega_max**3 alone overflows
    ])
    def test_asymptote_that_fits_a_double_is_returned(self, side_length, omega_max):
        ratio = Fraction(omega_max) * Fraction(side_length) / Fraction(NATURAL.c_light)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the few-modes advisory
            report = mode_count_vs_asymptotic(CavitySpec(side_length=side_length), omega_max)
        assert report.asymptotic_count == pytest.approx(
            float(ratio ** 3 / (3 * Fraction(math.pi) ** 2)), rel=1e-15, abs=0)

    def test_electromagnetic_budget_requires_standing(self):
        with pytest.raises(ValueError):
            electromagnetic_standing_mode_count(
                CavitySpec(boundary_convention=PERIODIC), 10.0)


class TestEnumerationOracle:
    """``enumerate_modes`` against the Python-loop enumeration it replaced."""

    @staticmethod
    def assert_matches_oracle(spec, omega_max, units=NATURAL):
        assert_same_modes(enumerate_modes(spec, omega_max, units),
                          oracle_enumerate_modes(spec, omega_max, units))

    @pytest.mark.parametrize("side_length", [1.0, 0.37, 2.5, 1e-3])
    @pytest.mark.parametrize("convention", [STANDING, PERIODIC])
    def test_side_lengths(self, convention, side_length):
        spec = CavitySpec(side_length=side_length, boundary_convention=convention)
        scale = (math.pi if convention == STANDING else 2 * math.pi) / side_length
        for radius in (0.5, 1.0, 2.9, 7.3, 15.5):
            self.assert_matches_oracle(spec, scale * radius)

    @pytest.mark.parametrize("convention", [STANDING, PERIODIC])
    def test_si_units(self, convention):
        spec = CavitySpec(side_length=0.5, boundary_convention=convention,
                          polarizations_per_mode=3)
        units = UnitSystem.si()
        scale = (math.pi if convention == STANDING else 2 * math.pi) \
            * units.c_light / spec.side_length
        self.assert_matches_oracle(spec, scale * 9.4, units)

    @pytest.mark.parametrize("convention, count, omegas, shells", [
        (STANDING, 120, 14, 27), (PERIODIC, 170, 10, 10)])
    def test_subnormal_omega_ties_keep_the_triple_order(self, convention, count, omegas,
                                                        shells):
        # At c = 5e-324 the standing convention's 27 shells |n|**2 round to 14
        # omegas, so there only an order by (omega, triple) matches the oracle,
        # not one by |n|**2.
        spec = CavitySpec(boundary_convention=convention)
        units = UnitSystem(c_light=5e-324)
        modes = enumerate_modes(spec, 1e-322, units)
        assert len(modes) == count
        assert len({mode.omega for mode in modes}) == omegas
        assert len({sum(n * n for n in mode.lattice_triple) for mode in modes}) == shells
        self.assert_matches_oracle(spec, 1e-322, units)

    def test_every_radius_order_matches_the_oracle(self):
        # Later enumerations of one cavity may be served from the rows of an
        # earlier, larger one: every result must still be the oracle's, in any
        # radius order, after refusing caps, and whatever the caller does to
        # the lists it was given.
        rng = random.Random(3232)
        cavities = [(CavitySpec(side_length=side_length, boundary_convention=convention,
                                polarizations_per_mode=polarizations), units)
                    for convention in (STANDING, PERIODIC)
                    for side_length in (1.0, 0.37, 1e-3)
                    for polarizations in (1, 2, 3)
                    for units in (NATURAL, UnitSystem(c_light=5e-324))]
        radii = (0.5, 1.0, 1.8, 2.9, 4.1, 5.5, 7.3)
        oracle = {}

        def check(spec, units, radius):
            factor = math.pi if spec.boundary_convention == STANDING else 2 * math.pi
            omega = factor * units.c_light / spec.side_length * radius
            key = (spec, units.c_light, radius)
            if key not in oracle:
                oracle[key] = oracle_enumerate_modes(spec, omega, units)
            expected = oracle[key]
            if expected and rng.random() < 0.2:
                with pytest.raises(ModeCapExceeded) as refusal:
                    enumerate_modes(spec, omega, units, cap=len(expected) - 1)
                assert refusal.value.required_cap == len(expected)
            modes = enumerate_modes(spec, omega, units)
            assert type(modes) is list
            assert_same_modes(modes, expected)
            mutation = rng.randrange(4)
            if mutation == 0:
                modes.append(Mode((0, 0, 0), 0.0, 1))
            elif mutation == 1:
                modes.clear()
            elif mutation == 2:
                del modes[:rng.randrange(len(modes) + 1)]

        shuffled = list(radii)
        for spec, units in cavities:
            rng.shuffle(shuffled)
            for order in (radii, radii[::-1], shuffled):
                for radius in order:
                    check(spec, units, radius)
        calls = [(spec, units, radius) for spec, units in cavities for radius in radii]
        rng.shuffle(calls)
        for call in calls:
            check(*call)


class TestCollectorState:
    """``enumerate_modes`` pauses the cyclic collector for its row build only
    and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def nothing_held(self, monkeypatch):
        # rows held by an earlier test would serve these calls without a build
        monkeypatch.setattr(cavity, "_held", cavity._NOTHING_HELD)

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("convention", [STANDING, PERIODIC])
    def test_state_is_left_as_found(self, collector, convention):
        enumerate_modes(CavitySpec(boundary_convention=convention), 20.0)
        assert gc.isenabled() is collector

    def test_state_is_left_as_found_after_the_cap_refusal(self, collector):
        with pytest.raises(ModeCapExceeded):
            enumerate_modes(CavitySpec(), 100.0, cap=10)
        assert gc.isenabled() is collector

    def test_state_is_restored_when_the_row_build_raises(self, collector, monkeypatch):
        seen = []

        def omega_column():
            seen.append(gc.isenabled())
            yield 1.0
            raise RuntimeError("column failed")

        monkeypatch.setattr(cavity, "_mode_columns",
                            lambda spec, omega_max, units: ([1, 1], [1, 1], [1, 2],
                                                            omega_column()))
        with pytest.raises(RuntimeError, match="column failed"):
            enumerate_modes(CavitySpec(), 20.0)
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_state_is_left_as_found_when_served_from_held_rows(self, collector,
                                                               monkeypatch):
        enumerate_modes(CavitySpec(), 20.0)

        def no_build(spec, omega_max, units):
            raise AssertionError("served from the held rows without a build")

        monkeypatch.setattr(cavity, "_mode_columns", no_build)
        assert enumerate_modes(CavitySpec(), 10.0) == oracle_enumerate_modes(CavitySpec(), 10.0)
        assert gc.isenabled() is collector

    def test_a_second_enumeration_cannot_read_the_first_ones_pause(self, monkeypatch):
        # Only a call that finds the collector on pauses it: the second call
        # finds the first one's pause, so it neither pauses nor resumes, and
        # the first turns the collector back on.
        class Collector:
            enabled = True
            second = None
            second_read = threading.Event()
            first_done = threading.Event()

            def isenabled(self):
                enabled = self.enabled
                if threading.current_thread() is self.second:
                    self.second_read.set()
                    self.first_done.wait(timeout=30)
                return enabled

            def disable(self):
                self.enabled = False
                if self.second is None:
                    self.second = threading.Thread(target=enumerate_modes,
                                                   args=(CavitySpec(), 20.0))
                    self.second.start()
                    # taken only when the second call gets past the lock
                    self.second_read.wait(timeout=0.5)

            def enable(self):
                self.enabled = True
                if threading.current_thread() is not self.second:
                    self.first_done.set()

        stand_in = Collector()
        monkeypatch.setattr(cavity, "gc", stand_in)
        enumerate_modes(CavitySpec(), 20.0)
        stand_in.second.join(timeout=30)
        assert not stand_in.second.is_alive()
        assert stand_in.enabled

    def test_a_collector_found_off_is_never_switched(self, monkeypatch):
        calls = []

        class Collector:
            def isenabled(self):
                calls.append("isenabled")
                return False

            def disable(self):
                calls.append("disable")

            def enable(self):
                calls.append("enable")

        monkeypatch.setattr(cavity, "gc", Collector())
        assert enumerate_modes(CavitySpec(), 20.0) == oracle_enumerate_modes(CavitySpec(), 20.0)
        assert calls == ["isenabled"]


class TestHeldRows:
    """The rows of one cavity's largest enumeration are held, up to
    ``_HELD_MODES`` of them, and later enumerations inside them are served
    as their prefix."""

    @pytest.fixture
    def builds(self, monkeypatch):
        monkeypatch.setattr(cavity, "_held", cavity._NOTHING_HELD)
        calls = []
        mode_columns = cavity._mode_columns

        def counted(spec, omega_max, units):
            calls.append(omega_max)
            return mode_columns(spec, omega_max, units)

        monkeypatch.setattr(cavity, "_mode_columns", counted)
        return calls

    def test_smaller_enumerations_are_served_without_a_build(self, builds):
        spec = CavitySpec(boundary_convention=PERIODIC)
        for omega_max in (30.0, 12.0, 30.0, 7.0):
            assert_same_modes(enumerate_modes(spec, omega_max),
                              oracle_enumerate_modes(spec, omega_max))
        assert builds == [30.0]
        enumerate_modes(spec, 31.0)
        # the same scale 2*pi, but the other convention's lattice
        enumerate_modes(CavitySpec(side_length=0.5), 12.0)
        assert builds == [30.0, 31.0, 12.0]

    def test_enumerations_above_the_bound_are_not_held(self, builds, monkeypatch):
        monkeypatch.setattr(cavity, "_HELD_MODES", 10)
        spec = CavitySpec()
        # 7 modes at omega <= 10, 35 at omega <= 15
        held_columns = []
        for omega_max in (15.0, 15.0, 10.0, 10.0, 15.0):
            assert_same_modes(enumerate_modes(spec, omega_max),
                              oracle_enumerate_modes(spec, omega_max))
            held_columns.append([None if column is None else len(column)
                                 for column in cavity._held[3:]])
        assert builds == [15.0, 15.0, 10.0, 15.0]
        assert held_columns == [[None, None]] * 2 + [[7, 7]] * 2 + [[None, None]]
        assert cavity._held is cavity._NOTHING_HELD

    def test_held_rows_are_freed_before_a_rebuild(self, builds, monkeypatch):
        enumerate_modes(CavitySpec(), 20.0)
        held = cavity._held[2:]  # the rows and their omega and omega**2 columns
        references = list(map(sys.getrefcount, held))
        seen = []
        mode_columns = cavity._mode_columns

        def observed(spec, omega_max, units):
            # the holder no longer references the rows or columns, nor does the call
            seen.append((cavity._held is cavity._NOTHING_HELD,
                         list(map(sys.getrefcount, held))))
            return mode_columns(spec, omega_max, units)

        monkeypatch.setattr(cavity, "_mode_columns", observed)
        enumerate_modes(CavitySpec(boundary_convention=PERIODIC), 20.0)
        assert seen == [(True, [count - 1 for count in references])]

    @pytest.mark.parametrize("spec", [CavitySpec(), CavitySpec(0.3, PERIODIC, 3)])
    def test_held_columns_are_the_rows_omega_and_its_square(self, builds, spec):
        modes = enumerate_modes(spec, 40.0)
        _, _, rows, omega, omega_squared = cavity._held
        assert rows == modes
        assert omega.dtype == omega_squared.dtype == np.float64
        assert not (omega.flags.writeable or omega_squared.flags.writeable)
        assert omega.tobytes() == struct.pack(f"<{len(modes)}d", *(mode.omega for mode in modes))
        assert omega_squared.tobytes() == struct.pack(f"<{len(modes)}d",
                                                      *(mode.omega ** 2 for mode in modes))


class TestFieldEnergy:
    @staticmethod
    def one_mode(omega=1.0, polarizations=2):
        return Mode((1, 1, 1), omega, polarizations)

    def test_vacuum_in_the_free_limit(self):
        mode = self.one_mode()
        rows = [[ModeAmplitude(0.0, 0.0)] * 2]
        result = field_energy([mode], rows, N=math.inf)
        assert result.classical == 0.0
        assert result.zero_point_prefactored == 0.0
        assert result.zero_point_per_oscillator == 0.0

    def test_prefactored_zero_point_single_oscillator(self):
        mode = self.one_mode(omega=1.0, polarizations=1)
        result = field_energy([mode], [[ModeAmplitude(0.0, 0.0)]], N=2.0)
        assert result.zero_point_prefactored == pytest.approx(0.25, rel=1e-15, abs=0)
        assert result.zero_point_per_oscillator == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_kinetic_term_only(self):
        mode = self.one_mode(polarizations=1)
        result = field_energy([mode], [[ModeAmplitude(0.0, 1.0)]], N=2.0)
        assert result.classical == 0.5

    def test_missing_amplitudes_rejected(self):
        mode = self.one_mode()
        with pytest.raises(ValueError):
            field_energy([mode], [])
        with pytest.raises(ValueError):
            field_energy([mode], [[ModeAmplitude(0.0, 0.0)]])  # one of two

    def test_amplitudes_must_be_pairs(self):
        modes = [Mode((1, 1, 1), 1.0, 2), Mode((1, 1, 2), 2.0, 2)]
        with pytest.raises(ValueError, match=re.escape(
                "mode (1, 1, 1) needs (Q, P) amplitude pairs, got (1.0, 2.0, 3.0)")):
            field_energy(modes[:1], [((1.0, 2.0, 3.0), (1.0, 2.0))])
        with pytest.raises(ValueError, match=re.escape(
                "mode (1, 1, 2) needs (Q, P) amplitude pairs, got (4.0,)")):
            field_energy(modes, [((1.0, 2.0), (1.0, 2.0)), ((1.0, 2.0), (4.0,))])
        pair = (1.0, 2.0)
        for rows, mode, got in [
                ([((), pair), (pair, pair)], (1, 1, 1), ()),
                ([(pair, pair), (pair, ())], (1, 1, 2), ()),
                ([((5.0,), pair), (pair, (1.0, 2.0, 3.0))], (1, 1, 1), (5.0,)),  # the first of two
                ([(pair, (1.0, 2.0, 3.0)), (pair, pair)], (1, 1, 1), (1.0, 2.0, 3.0))]:
            message = f"mode {mode} needs (Q, P) amplitude pairs, got {got!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                field_energy(modes, rows)
        # no modes, or modes without polarizations: the pair check has nothing to read
        assert field_energy([], []) == FieldEnergy(0.0, 0.0, 0.0)
        result = field_energy([Mode((1, 1, 1), 2.0, 0), Mode((1, 1, 2), 3.0, 0)], [[], ()])
        assert result == FieldEnergy(0.0, 0.0, 0.0)

    def test_row_length_is_checked_before_the_pairs(self):
        with pytest.raises(ValueError, match="needs 2 polarization amplitudes, got 1"):
            field_energy([self.one_mode()], [((1.0, 2.0, 3.0),)])

    def test_sign_flip_invariance(self):
        modes = [self.one_mode(1.0), self.one_mode(2.0)]
        rows = [[ModeAmplitude(0.3, -1.2), ModeAmplitude(0.0, 0.7)],
                [ModeAmplitude(-2.0, 0.1), ModeAmplitude(1.0, 1.0)]]
        flipped = [[ModeAmplitude(-a.Q, -a.P) for a in row] for row in rows]
        assert field_energy(modes, rows).classical == \
            field_energy(modes, flipped).classical

    def test_mode_reordering_invariance(self):
        modes = [self.one_mode(1.0), self.one_mode(3.0)]
        rows = [[ModeAmplitude(1.0, 0.0), ModeAmplitude(0.0, 1.0)],
                [ModeAmplitude(0.5, 0.5), ModeAmplitude(2.0, 0.0)]]
        forward = field_energy(modes, rows)
        backward = field_energy(modes[::-1], rows[::-1])
        assert forward.classical == pytest.approx(backward.classical, rel=1e-15, abs=0)
        assert forward.zero_point_per_oscillator == pytest.approx(
            backward.zero_point_per_oscillator, rel=1e-15, abs=0)

    def test_zero_point_ignores_amplitudes(self):
        mode = self.one_mode()
        quiet = field_energy([mode], [[ModeAmplitude(0.0, 0.0)] * 2])
        loud = field_energy([mode], [[ModeAmplitude(5.0, -3.0)] * 2])
        assert quiet.zero_point_prefactored == loud.zero_point_prefactored
        assert quiet.zero_point_per_oscillator == loud.zero_point_per_oscillator

    def test_totals(self):
        mode = self.one_mode(polarizations=1)
        result = field_energy([mode], [[ModeAmplitude(0.0, 1.0)]], N=2.0)
        assert result.total_prefactored == result.classical + 0.25
        assert result.total_per_oscillator == result.classical + 0.5

    @pytest.mark.parametrize("omega,amplitude", [
        (1e200, ModeAmplitude(1.0, 0.0)),      # omega**2 raises OverflowError
        (2.0, ModeAmplitude(0.0, 1e200)),      # P**2 raises OverflowError
        (1e154, ModeAmplitude(1e154, 0.0)),    # omega**2 * Q**2 is inf
        (2.0, ModeAmplitude(math.nan, 0.0)),
        (2.0, ModeAmplitude(0.0, math.inf)),
        (math.inf, ModeAmplitude(0.0, 0.0)),   # inf * 0.0 is nan, the zero point inf
    ])
    def test_non_finite_energy_names_the_mode(self, omega, amplitude):
        modes = [Mode((1, 1, 1), 1.0, 1), Mode((1, 1, 2), omega, 1),
                 Mode((1, 2, 2), 3.0, 1)]
        rows = [[ModeAmplitude(0.5, 0.5)], [amplitude], [ModeAmplitude(0.5, 0.5)]]
        with pytest.raises(ValueError, match=r"mode \(1, 1, 2\) .* not a finite"):
            field_energy(modes, rows)

    def test_sum_overflow_names_the_mode_it_happens_at(self):
        # every term is finite; the running sum leaves the doubles at the third
        modes = [Mode((1, 1, 1), 1.0, 1), Mode((1, 1, 2), 1.0, 1),
                 Mode((1, 2, 2), 1.0, 1)]
        rows = [[ModeAmplitude(0.0, 1.2e154)]] * 3
        with pytest.raises(ValueError, match=r"mode \(1, 2, 2\)"):
            field_energy(modes, rows)

    def test_conventions_differ_by_factor_two(self):
        modes = [self.one_mode(1.7)]
        rows = [[ModeAmplitude(0.0, 0.0)] * 2]
        result = field_energy(modes, rows, N=3.0)
        assert result.zero_point_per_oscillator == pytest.approx(
            2 * result.zero_point_prefactored, rel=1e-15, abs=0)


class TestSpecValidation:
    def test_convention_names(self):
        with pytest.raises(ValueError):
            CavitySpec(boundary_convention="open")

    def test_side_length(self):
        for side_length in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                CavitySpec(side_length=side_length)

    def test_polarizations_per_mode(self):
        for count in (0, -1, 2.5, "2"):
            with pytest.raises(ValueError):
                CavitySpec(polarizations_per_mode=count)
