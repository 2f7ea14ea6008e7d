"""Thread-safety smoke tests: values are immutable and operations pure, so
concurrent use must reproduce sequential results exactly."""

import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from phasestar.blackbody import spectral_density
from phasestar.cavity import PERIODIC, STANDING, CavitySpec, enumerate_modes
from phasestar.checks import random_phase_polynomial
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


def test_concurrent_enumerations_match_sequential_and_leave_the_collector_on():
    # each enumeration pauses and restores the shared collector state
    specs = [CavitySpec(boundary_convention=convention) for convention in (STANDING, PERIODIC)]
    sequential = {spec: enumerate_modes(spec, 60.0) for spec in specs}
    barrier = threading.Barrier(8)

    def enumerate_after_barrier(index):
        spec = specs[index % 2]
        barrier.wait(timeout=30)
        return spec, enumerate_modes(spec, 60.0)

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(enumerate_after_barrier, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    assert all(modes == sequential[spec] for spec, modes in results)
    assert gc.isenabled()
