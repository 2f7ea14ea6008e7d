"""phasestar benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Workloads: symbolic, radiation and cavity, or ``all`` to run the three one
after another and print a table.  One closed-loop client runs the operations one at a time.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload traced for half the time and untraced for the other half and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; spans and a full result
record go to ``.perfbench-out/``.

Opt-in modes, outside the repeated workloads:
    --reference   one-shot reference timings (family, cold CLI, R = 4000 census)
    --self-test   tiny runs of every workload, and corrupted results that
                  must be counted as failed operations
See perfbench/NOTES.md for the design, the known defects and what each
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from common import CheckFailed, percentile_tail
from cli_cold import WARM_ARGV, cli_env, warm_cli_spans
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("symbolic", "radiation", "cavity")
SETUP_SAMPLES = 5
# How far operation times follow the speed reference, as a power: between
# a shared VM's fast and slow phases the reference changed about 2x while
# operations changed 1.0-1.5x, and over two ten-seed batches the square root
# gave the smallest worst-case spread (0.26, against 0.46 at full scaling
# and 0.43 unscaled).  See NOTES.md.
SPEED_ELASTICITY = 0.5


def environment_stamp(seed) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed, "loadavg_1m": os.getloadavg()[0]}


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def set_up(name: str, seed: int, tracer):
    """Imports, block-0 inputs and a warm-up: everything before timing.

    Returns (workload, block 0, seconds taken)."""
    started = time.perf_counter()
    from inproc import WORKLOADS as IN_PROCESS
    workload = IN_PROCESS[name](seed, tracer)
    first = workload.block(0)
    for kind, params in workload.warm_up():
        workload.run(kind, params)
    return workload, first, time.perf_counter() - started


def setup_samples(name: str, seed: int, own: float) -> list:
    """This process's set-up time plus fresh-process set-ups (imports only
    happen once per process)."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-400:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def attempt(fn, *args):
    """None, or the failure text: an exception or a broken identity."""
    try:
        fn(*args)
    except CheckFailed as failure:
        return str(failure)
    except Exception as error:  # any exception is a failed operation
        return f"{type(error).__name__}: {error}"
    return None


def measure(workload, first_block: list, seconds: float, tracer,
            reference: list) -> tuple:
    """Run whole blocks until ``seconds`` have passed, adding
    ``(operations done, workload.speed_sample())`` to ``reference`` after
    each block that ends a second or more after the previous sample.

    Returns (latencies in s, failure names).  Finishing the block keeps the
    mix of operation kinds the same on every run, whatever the seed.
    """
    clock = time.perf_counter
    latencies, failures = [], []
    deadline = clock() + seconds
    sampled = clock()
    block, index = first_block, 0
    while True:
        workload.counting = tracer.on and index == 0
        for kind, params in block:
            op = len(latencies)
            span = tracer.begin(f"op.{kind}", op)
            started = clock()
            failure = attempt(workload.run, kind, params)
            latencies.append(clock() - started)
            tracer.end(span)
            if failure is not None:
                failures.append(f"{workload.name}.{kind}#{op}: {failure}")
        workload.counting = False
        if clock() - sampled >= 1.0:
            reference.append((len(latencies), workload.speed_sample()))
            sampled = clock()
        index += 1
        if clock() >= deadline:
            return latencies, failures
        block = workload.block(index)


def normalised(metrics: dict, slowness: float) -> dict:
    """Times divided and rates multiplied by the machine's slowness."""
    scale = {"s": 1 / slowness, "ms": 1 / slowness, "s/op": 1 / slowness,
             "1/s": slowness}
    return {name: (value * scale.get(unit, 1), unit)
            for name, (value, unit) in metrics.items()}


def scaled_latencies(latencies: list, reference: list, nominal_s: float) -> list:
    """Each latency divided by the slowness around it: the mean of the
    machine-speed samples taken just before and just after its stretch of
    operations, over ``nominal_s``, to the power ``SPEED_ELASTICITY``, so a
    change of machine speed inside a run is followed."""
    scaled = []
    for (start, before), (end, after) in zip(reference, reference[1:]):
        slowness = ((before + after) / 2 / nominal_s) ** SPEED_ELASTICITY
        scaled += [t / slowness for t in latencies[start:end]]
    return scaled


def end_to_end_metrics(latencies: list, failed: int, setup_s: float, rss: float):
    tail, percentile = percentile_tail(latencies)
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_tail_ms": (tail * 1000, "ms"),
            "ok_frac": (1 - failed / len(latencies), "frac"),
            "peak_rss_mb": (rss, "MiB")}, percentile


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def import_times_ms() -> dict:
    """Cumulative import time of numpy, scipy and all of phasestar, from one
    ``python -X importtime -c 'import phasestar.cli'``."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phasestar.cli"],
                          capture_output=True, text=True, env=cli_env(str(SRC)),
                          cwd=str(ROOT), timeout=120)
    entries = []
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    result = {}
    for package in ("numpy", "scipy", "phasestar"):
        mine = [e for e in entries if e[1] == package or e[1].startswith(package + ".")]
        top = min((depth for depth, _, _ in mine), default=0)
        result[package] = sum(us for depth, _, us in mine if depth == top) / 1000
    return result


def per_layer_metrics(workload, tracer, ops: int, traced_rate: float,
                      untraced_rate: float) -> dict:
    times = tracer.self_times()
    counts = tracer.counts

    def per_op(*names):
        return sum(times.get(name, 0.0) for name in names) / ops

    star_dims = [f"star.product.d{d}" for d in (1, 2, 3)]
    metrics = {
        "algebra.mul_s": (per_op("algebra.mul"), "s/op"),
        "algebra.eq_s": (per_op("algebra.eq"), "s/op"),
        "algebra.coeff_bits": (counts["algebra.coeff_bits"], "count"),
        "star.product_calls": (counts["star.product_calls"], "count"),
        "star.product_s": (per_op(*star_dims), "s/op"),
        **{f"star.product_s.d{d}": (per_op(name), "s/op")
           for d, name in zip((1, 2, 3), star_dims)},
        "star.pair_terms": (counts["star.pair_terms"], "count"),
        "star.terms_out": (counts["star.terms_out"], "count"),
        "star.series_order": (counts["star.series_order"], "count"),
        "star.out_per_pair": (counts["star.terms_out"] / counts["star.pair_terms"]
                              if counts["star.pair_terms"] else 0.0, "ratio"),
        "star.bracket_s": (per_op("star.bracket"), "s/op"),
        "star.first_order_s": (per_op("star.first_order"), "s/op"),
        "expressions.parse_s": (per_op("expressions.parse"), "s/op"),
        "expressions.render_s": (per_op("expressions.render"), "s/op"),
        "expressions.chars": (counts["expressions.chars"], "count"),
        "oscillator.energy_s": (per_op("oscillator.energy"), "s/op"),
        "oscillator.ladder_s": (per_op("oscillator.ladder"), "s/op"),
        "blackbody.sweep_s": (per_op("blackbody.sweep"), "s/op"),
        "blackbody.ladder_s": (per_op("blackbody.ladder"), "s/op"),
        "blackbody.integral_s": (per_op("blackbody.integral"), "s/op"),
        "blackbody.peak_s": (per_op("blackbody.peak"), "s/op"),
        "blackbody.points": (counts["blackbody.points"], "count"),
        "blackbody.ladder_terms": (counts["blackbody.ladder_terms"], "count"),
        "blackbody.oracle_max_dev": (getattr(workload, "oracle_max_dev", 0.0), "ratio"),
        "cavity.census_s": (per_op("cavity.census"), "s/op"),
        "cavity.census_rows": (counts["cavity.census_rows"], "count"),
        "cavity.lattice_points": (counts["cavity.lattice_points"], "count"),
        "cavity.enumerate_s": (per_op("cavity.enumerate"), "s/op"),
        "cavity.modes_enumerated": (counts["cavity.modes_enumerated"], "count"),
        "cavity.field_energy_s": (per_op("cavity.field_energy"), "s/op"),
        "checks.run_all_s": (times.get("checks.run_all", 0.0), "s"),
        "bench.check_s": (sum(t for name, t in times.items() if name.startswith("op."))
                          / ops, "s/op"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead": (untraced_rate / traced_rate, "ratio"),
    }
    imports = import_times_ms()
    for package in ("numpy", "scipy", "phasestar"):
        metrics[f"cli.import_{package}_ms"] = (imports[package], "ms")
    for argv in WARM_ARGV:
        warm = [end - start for name, start, end, _, _ in tracer.spans
                if name == f"cli.main.{argv[0]}"]
        metrics[f"cli.main_warm_ms.{argv[0]}"] = (
            statistics.median(warm) * 1000 if warm else 0.0, "ms")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    loadavg = os.getloadavg()[0]
    tracer = Tracer(on=traced)
    workload, first, own_setup = set_up(name, seed, tracer)
    reference = [(0, workload.speed_sample())]
    if traced:
        latencies, failures = measure(workload, first, seconds / 2, tracer, reference)
        traced_rate = len(latencies) / sum(latencies)
        tracer.on = False
        plain, plain_failures = measure(workload, first, seconds / 2, tracer, reference)
        tracer.on = True
        if name == "symbolic":
            warm_cli_spans(tracer)
        metrics = per_layer_metrics(workload, tracer, len(latencies), traced_rate,
                                    len(plain) / sum(plain))
        latencies += plain
        failures += plain_failures
    else:
        latencies, failures = measure(workload, first, seconds, tracer, reference)
        rss = peak_rss_mb()
    reference.append((len(latencies), workload.speed_sample()))
    nominal = workload.NOMINAL_SPEED_S
    slowness = (statistics.median(s for _, s in reference) / nominal) ** SPEED_ELASTICITY
    if traced:
        raw = metrics
        metrics = normalised(metrics, slowness)
    else:
        # Set-up is reported unscaled: most of its samples come from other
        # processes, which this run's speed samples do not cover.
        setup = setup_samples(name, seed, own_setup)
        raw, _ = end_to_end_metrics(latencies, len(failures),
                                    statistics.median(setup), rss)
        metrics, tail_pct = end_to_end_metrics(
            scaled_latencies(latencies, reference, nominal),
            len(failures), statistics.median(setup), rss)
    raw = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    from probes import known_defects
    defects = known_defects(name, str(ROOT))
    record = {"workload": name, "trace": int(traced), "seconds": seconds,
              "env": dict(environment_stamp(seed), loadavg_1m=loadavg),
              "ops": len(latencies), "failures": failures,
              "slowness": slowness, "raw_metrics": raw,
              "known_defects": defects,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if not traced:
        record["op_tail"] = {"percentile": tail_pct, "samples": len(latencies)}
        record["setup_samples_s"] = setup
        record["latencies_ms"] = [t * 1000 for t in latencies]
    record["reference_ms"] = [[ops, t * 1000] for ops, t in reference]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if traced:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"]))
    print(f"{name}: {len(latencies)} ops in {sum(latencies):.2f} s of operations, "
          f"{len(failures)} failed")
    print(f"machine slowness {slowness:.4f} (median reference work "
          f"{statistics.median(s for _, s in reference) * 1000:.3f} ms against "
          f"{nominal * 1000:g} ms, to the power {SPEED_ELASTICITY}); "
          "unscaled: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                   for k, v in raw.items()
                                   if v["unit"] in ("s", "ms", "s/op", "1/s")))
    if not traced:
        print(f"op_tail_ms is p{tail_pct:.1f} of {len(latencies)} samples")
    for failure in failures[:20]:
        print("FAIL " + failure)
    for case in defects:
        print("known-defect FAIL " + case)
    return {"correct": not failures, "attempted": len(latencies),
            "failed": len(failures), "metrics": record["metrics"]}


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(traced))],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            raise RuntimeError(f"{name} failed: {done.stderr.strip()[-400:]}")
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(f"{'workload':<10} {'metric':<28} {'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<28} {entry['value']:>14.6g}  {entry['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "phasestar" / "__init__.py").is_file():
        print(f"error: {SRC / 'phasestar'} not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.reference:
        from probes import reference
        print(json.dumps(reference(str(ROOT), environment_stamp(args.seed))))
        return 0
    if args.self_test:
        from selftest import self_test
        return self_test(ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        _, _, seconds = set_up(args.workload, args.seed, Tracer(on=False))
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
