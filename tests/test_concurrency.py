"""Thread-safety smoke tests: values are immutable and operations pure, so
concurrent use must reproduce sequential results exactly."""

import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from phasestar.blackbody import spectral_density, spectral_density_ladder_sum
from phasestar import cavity
from phasestar.cavity import (PERIODIC, STANDING, CavitySpec, ModeAmplitude,
                              electromagnetic_standing_mode_count, enumerate_modes,
                              field_energy, mode_count_vs_asymptotic)
from phasestar import expressions
from phasestar.checks import random_phase_polynomial
from phasestar.expressions import ParseError, format_canonical, parse_expression
from phasestar.star import DeformationParameter, star_product


def test_concurrent_star_products_match_sequential():
    rng = random.Random(4242)
    pairs = []
    for _ in range(24):
        d = rng.choice((1, 2))
        pairs.append((random_phase_polynomial(rng, d),
                      random_phase_polynomial(rng, d)))
    param = DeformationParameter(N=2)
    sequential = [star_product(f, g, param) for f, g in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda fg: star_product(*fg, param), pairs))
    assert concurrent == sequential


def test_shared_polynomial_is_safe_to_read_from_many_threads():
    rng = random.Random(7)
    f = random_phase_polynomial(rng, 2, max_terms=6)
    g = random_phase_polynomial(rng, 2, max_terms=6)
    param = DeformationParameter(N=2)
    reference = star_product(f, g, param)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: star_product(f, g, param), range(16)))
    assert all(result == reference for result in results)
    assert f == random_phase_polynomial(random.Random(7), 2, max_terms=6)


def test_concurrent_spectrum_evaluations_are_deterministic():
    grid = [0.1 * k for k in range(1, 41)]
    sequential = [spectral_density(w, 1.0) for w in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda w: spectral_density(w, 1.0), grid))
    assert concurrent == sequential


def test_concurrent_ladder_sums_match_sequential():
    # x from 1e-4 to 1e-3 takes 57 005 to 640 268 levels, up to 10 blocks,
    # each summed in the buffers of its own call
    calls = [(temperature, include_zero_point)
             for temperature in (1e3, 2e3, 5e3, 1e4)
             for include_zero_point in (True, False)]

    def ladder_sum(call):
        temperature, include_zero_point = call
        return spectral_density_ladder_sum(1.0, temperature,
                                           include_zero_point=include_zero_point)

    sequential = list(map(ladder_sum, calls))
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(ladder_sum, calls * 2, timeout=60))
    assert concurrent == sequential * 2


def race_enumerations():
    """Eight threads enumerate two cavities at once, so rows are built while
    other calls replace the held ones; returns the (spec, modes) results and
    the sequential lists."""
    specs = [CavitySpec(boundary_convention=convention) for convention in (STANDING, PERIODIC)]
    sequential = {spec: enumerate_modes(spec, 60.0) for spec in specs}
    barrier = threading.Barrier(8)

    def enumerate_after_barrier(index):
        spec = specs[index % 2]
        barrier.wait(timeout=30)
        return spec, enumerate_modes(spec, 60.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(enumerate_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    return results, sequential


def test_concurrent_enumerations_match_sequential_and_leave_the_collector_on():
    # each enumeration pauses and turns back on the shared collector it found on
    assert gc.isenabled()
    results, sequential = race_enumerations()
    assert len(results) == 8
    assert all(modes == sequential[spec] for spec, modes in results)
    assert gc.isenabled()


def test_concurrent_enumerations_leave_a_collector_found_off_off():
    # no enumeration pauses or turns on a collector it found off
    gc.disable()
    try:
        results, sequential = race_enumerations()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(results) == 8
    assert all(modes == sequential[spec] for spec, modes in results)


def test_concurrent_enumerations_of_mixed_cavities_match_sequential():
    # each call may replace the held rows of one cavity while others read them
    calls = [(CavitySpec(side_length=side_length, boundary_convention=convention),
              omega_max / side_length)
             for convention in (STANDING, PERIODIC) for side_length in (1.0, 0.37)
             for omega_max in (9.0, 40.0, 17.0, 25.0)]
    sequential = [enumerate_modes(*call) for call in calls]
    barrier = threading.Barrier(8)

    def enumerate_after_barrier(index):
        barrier.wait(timeout=30)
        return [enumerate_modes(*call) for call in calls[index:] + calls[:index]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(enumerate_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for index, result in enumerate(results):
        assert result == sequential[index:] + sequential[:index]
    assert gc.isenabled()


def test_concurrent_field_energies_match_sequential():
    # Each enumeration may replace the held rows and columns while other
    # threads read them; one cavity's rows read with the other's omega columns
    # would change the energy, as the two scales differ.
    specs = [CavitySpec(), CavitySpec(side_length=0.7)]
    rng = random.Random(61)
    amplitudes = [[ModeAmplitude(rng.uniform(-10, 10), rng.uniform(-10, 10))
                   for _ in range(2)] for _ in range(2000)]

    def energy(spec):
        modes = enumerate_modes(spec, 45.0)
        return field_energy(modes, amplitudes[:len(modes)])

    sequential = {spec: energy(spec) for spec in specs}
    assert sequential[specs[0]] != sequential[specs[1]]
    barrier = threading.Barrier(8)

    def alternate_after_barrier(index):
        barrier.wait(timeout=30)
        return [(spec, energy(spec))
                for spec in (specs[(index + turn) % 2] for turn in range(8))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(alternate_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    assert all(result == sequential[spec] for calls in results for spec, result in calls)


def test_concurrent_census_and_budget_calls_match_sequential():
    # the threads fill the shared shell cache together
    calls = [(mode_count_vs_asymptotic, convention, omega_max)
             for convention in (STANDING, PERIODIC) for omega_max in (120.0, 270.0, 450.0)]
    calls += [(electromagnetic_standing_mode_count, STANDING, omega_max)
              for omega_max in (120.0, 270.0, 450.0)]

    def census(call):
        count, convention, omega_max = call
        return count(CavitySpec(boundary_convention=convention), omega_max)

    cavity._positive_triples.cache_clear()
    cavity._positive_pairs.cache_clear()
    sequential = list(map(census, calls))
    cavity._positive_triples.cache_clear()
    cavity._positive_pairs.cache_clear()
    barrier = threading.Barrier(8)

    def census_after_barrier(index):
        barrier.wait(timeout=30)
        return [census(call) for call in calls[index % 3:] + calls[:index % 3]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(census_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for index, result in enumerate(results):
        assert result == sequential[index % 3:] + sequential[:index % 3]


def test_concurrent_parses_and_renders_match_sequential():
    # the threads fill the shared per-dimension table of reserved names together
    rng = random.Random(3131)
    param = DeformationParameter(N=2)
    texts = []
    for d in (1, 2, 3):
        for _ in range(6):
            f, g = (random_phase_polynomial(rng, d, max_degree=4, complex_coefficients=True)
                    for _ in range(2))
            text = format_canonical(star_product(f, g, param))
            texts += [(text, d), (text + " * q" + str(d + 1), d)]

    def round_trip(case):
        text, d = case
        try:
            parsed = parse_expression(text, d)
        except ParseError as error:
            return error.message, error.position
        return parsed, format_canonical(parsed)

    expressions._reserved_names.cache_clear()
    sequential = list(map(round_trip, texts))
    expressions._reserved_names.cache_clear()
    barrier = threading.Barrier(8)

    def round_trips_after_barrier(index):
        barrier.wait(timeout=30)
        return [round_trip(case) for case in texts[index:] + texts[:index]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(round_trips_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for index, result in enumerate(results):
        assert result == sequential[index:] + sequential[:index]
    # every second text ends in a variable past d and is a ParseError
    assert [isinstance(outcome[0], str) for outcome in sequential] == [False, True] * 18
