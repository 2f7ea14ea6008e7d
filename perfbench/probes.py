"""Known-defect probes and the opt-in reference one-shots.

The probes run after the timed phase of every run, each with the workload
whose layers it concerns, so the defects show by name in every result.  They
are kept out of the timed operations because those must all pass at the
parent commit for the numbers to be comparable; a probe that starts passing
simply drops off the list.
``modes --omega-max 1e12`` is not probed: its O(R^2) census at R ~ 3e11
never returns, so it cannot run inside a bounded benchmark.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
import warnings

from common import CheckFailed, lattice_points

# ROADMAP item 4 inputs: each should exit 1 with "error:", but tracebacks.
CLI_DEFECTS = {
    "spectrum -T inf": ["spectrum", "-T", "inf", "--omega-min", "1", "--omega-max", "2"],
    "spectrum --omega-max 1e300": ["spectrum", "-T", "1", "--omega-min", "1",
                                   "--omega-max", "1e300"],
    "star q1 p1 --N 1e-320": ["star", "q1", "p1", "--N", "1e-320"],
    "star (x3000 q1 )x3000 p1": ["star", "(" * 3000 + "q1" + ")" * 3000, "p1"],
}
SHELL_LIMIT = 200


def shell_probes() -> list:
    """Exact lattice-shell radii w_max = scale * sqrt(m), m < 200, both
    conventions: census and enumeration must both include the shell itself
    (the inclusive ``omega <= omega_max`` of their docstrings)."""
    from phasestar.cavity import (PERIODIC, STANDING, CavitySpec, enumerate_modes,
                                  mode_count_vs_asymptotic)
    failing = []
    for convention, scale in ((STANDING, math.pi), (PERIODIC, 2 * math.pi)):
        spec = CavitySpec(boundary_convention=convention)
        axis = range(1, 15) if convention == STANDING else range(-14, 15)
        shells = sorted({a * a + b * b + c * c for a in axis for b in axis for c in axis}
                        - {0})
        for m in (m for m in shells if m < SHELL_LIMIT):
            want = lattice_points(m, convention == STANDING)
            omega_max = scale * math.sqrt(m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                census = mode_count_vs_asymptotic(spec, omega_max).exact_count // 2
            listed = len(enumerate_modes(spec, omega_max))
            if census != want or listed != want:
                failing.append(f"cavity.shell[{convention} m={m}]: census {census}, "
                               f"enumerated {listed}, lattice points {want}")
    return failing


def cli_probes(root: str, names=tuple(CLI_DEFECTS)) -> list:
    from cli_cold import expect_error, run_cli
    failing = []
    for name in names:
        argv = CLI_DEFECTS[name]
        code, out, err = run_cli(argv, os.path.join(root, "src"), root)
        try:
            expect_error(code, out, err)
        except CheckFailed as failure:
            failing.append(f"cli.invalid[{name}]: {failure}")
    return failing


def known_defects(workload: str, root: str) -> list:
    """The probes of the layers a workload exercises: the shells with
    ``cavity``, the parse and render inputs with ``symbolic``, the spectrum
    inputs with ``radiation``."""
    if workload == "cavity":
        return shell_probes()
    prefix = {"symbolic": "star", "radiation": "spectrum"}[workload]
    return cli_probes(root, [n for n in CLI_DEFECTS if n.startswith(prefix)])


def reference(root: str, env: dict) -> dict:
    """Reproduce the ROADMAP re-anchor baselines once each."""
    from cli_cold import run_cli
    from inproc import polynomial
    from common import family_terms
    from phasestar.cavity import CavitySpec, mode_count_vs_asymptotic
    from phasestar.star import DeformationParameter, star_product

    rng = random.Random(20260808)
    family = []
    for _ in range(200):
        d = rng.choice((1, 2))
        family.append([polynomial(d, family_terms(rng, d)) for _ in range(3)])
    param = DeformationParameter(N=2)
    started = time.perf_counter()
    violations = sum(
        star_product(star_product(f, g, param), h, param)
        != star_product(f, star_product(g, h, param), param)
        for f, g, h in family)
    family_s = time.perf_counter() - started

    def cold(argv, repeats):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            code, _, _ = run_cli(argv, os.path.join(root, "src"), root)
            times.append(time.perf_counter() - started)
            if code != 0:
                raise RuntimeError(f"phasestar {' '.join(argv)} exited {code}")
        return statistics.median(times)

    started = time.perf_counter()
    census = mode_count_vs_asymptotic(CavitySpec(), math.pi * 4000).exact_count
    census_s = time.perf_counter() - started
    return {"env": env,
            "family_200_seed_20260808_s": family_s, "family_violations": violations,
            "cold_star_q1_p1_s_median_of_5": cold(["star", "q1", "p1"], 5),
            "cold_checks_s_median_of_3": cold(["checks"], 3),
            "octant_census_R4000_s": census_s, "octant_census_R4000_count": census}
