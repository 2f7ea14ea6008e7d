"""Self-test of the benchmark itself (``python3 perfbench/run.py --self-test``).

1. Tiny runs of every workload, untraced and traced, must print every metric
   that BENCHMARK.json names, with its unit, and nothing else.
2. One deliberately corrupted library result per workload (a flipped
   coefficient, a density above Rayleigh-Jeans, a census off by one mode)
   must be counted as exactly one failed operation.
3. The benchmark's family generator must reproduce the acceptance family.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path


def tiny_runs(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=root)
            if done.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            want = {metric["name"]: metric["unit"] for metric in wanted}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
            print(f"tiny {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")
            for name, entry in result["metrics"].items():
                print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return problems


def _first_call_corrupted(module, attribute: str, corrupt):
    """Patch ``module.attribute`` so that only its first call is corrupted."""
    real = getattr(module, attribute)
    calls = []

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        return corrupt(out) if len(calls) == 1 else out

    setattr(module, attribute, patched)
    return real


def corrupted_runs(root: Path) -> list:
    import inproc
    from phasestar.blackbody import SpectrumPoint
    from phasestar.cavity import ModeCountResult
    from run import measure
    from spans import Tracer

    def flip(poly):
        terms = dict(poly.terms)
        if not terms:
            return poly + 1
        index = next(iter(terms))
        terms[index] = -terms[index]
        return inproc.PhasePolynomial(poly.dimension, terms)

    def above_rayleigh_jeans(rows):
        row = rows[0]
        thermal = row.omega ** 2 * row.temperature
        return [SpectrumPoint(row.omega, row.temperature, thermal, row.zero_point_density,
                              thermal + row.zero_point_density)] + rows[1:]

    def census_plus_one(report):
        return ModeCountResult(report.exact_count + 2, report.asymptotic_count,
                               report.relative_error)

    cases = [("symbolic", inproc, "star_product", flip),
             ("radiation", inproc, "spectrum_sweep", above_rayleigh_jeans),
             ("cavity", inproc, "mode_count_vs_asymptotic", census_plus_one)]
    problems = []
    for name, module, attribute, corrupt in cases:
        tracer = Tracer(on=False)
        workload = inproc.WORKLOADS[name](7, tracer)
        real = _first_call_corrupted(module, attribute, corrupt)
        try:
            latencies, failures = measure(workload, workload.block(0), 0.0, tracer, [])
        finally:
            setattr(module, attribute, real)
        ok_frac = 1 - len(failures) / len(latencies)
        print(f"corrupted {name}.{attribute}: {len(failures)} of {len(latencies)} "
              f"failed, ok_frac {ok_frac:.4f}: {failures}")
        if len(failures) != 1:
            problems.append(f"corrupted {attribute} gave {len(failures)} failures, want 1")
    return problems


def family_matches() -> list:
    from common import family_terms
    from inproc import polynomial
    from phasestar.checks import random_phase_polynomial
    ours, theirs = random.Random(20260808), random.Random(20260808)
    for _ in range(20):
        d = ours.choice((1, 2))
        if d != theirs.choice((1, 2)):
            return ["family generator drew another dimension"]
        for _ in range(3):
            if polynomial(d, family_terms(ours, d)) != random_phase_polynomial(theirs, d):
                return ["family generator differs from the acceptance family"]
    print("family generator reproduces the acceptance family")
    return []


def self_test(root: Path) -> int:
    problems = family_matches() + corrupted_runs(root) + tiny_runs(root)
    for problem in problems:
        print("SELF-TEST FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
