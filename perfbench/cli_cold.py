"""Cold and warm runs of the ``phasestar`` command line.

``run_cli`` starts one cold ``python -m phasestar <argv>`` process, as the
known-defect probes and ``--reference`` need.  ``warm_cli_spans`` times one
fixed argv per subcommand through the in-process ``cli.main`` for the traced
``symbolic`` run.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

from common import CheckFailed

TIMEOUT_S = 60

# One argv per subcommand, fixed so the warm times compare across runs.
WARM_ARGV = (
    ["star", "q1^2*p1 + 3*p1*hbar", "q1*p1^2 - 2*q1", "--N", "3"],
    ["commutator", "q1*p2 + p1^2", "q2^2 + q1", "--dims", "2", "--format", "json"],
    ["oscillator", "--omega", "1.5", "--levels", "6", "--N", "3"],
    ["spectrum", "-T", "2", "--omega-min", "0.01", "--omega-max", "40",
     "--points", "400", "--oracle"],
    ["modes", "--omega-max", "60", "--format", "csv"],
    ["checks", "--seed", "1"],
)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list, src: str, cwd: str):
    """(exit code, stdout, stderr) of one cold CLI process; code None on timeout."""
    try:
        done = subprocess.run([sys.executable, "-m", "phasestar", *argv],
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              env=cli_env(src), cwd=cwd)
    except subprocess.TimeoutExpired:
        return None, "", "timeout"
    return done.returncode, done.stdout, done.stderr


def expect_error(code, out: str, err: str) -> None:
    if code != 1 or "error:" not in err or "Traceback" in err:
        raise CheckFailed(f"exit {code}, want 1 with 'error:' and no traceback: "
                          f"{err.strip().splitlines()[-1:] or err!r}")


def warm_cli_spans(tracer) -> None:
    """One ``cli.main`` per subcommand once imports are done (cold minus warm
    is the start-up cost), then one warm ``run_all_checks``."""
    from phasestar import cli
    from phasestar.checks import run_all_checks
    for argv in WARM_ARGV:
        with contextlib.redirect_stderr(io.StringIO()):
            code = tracer.call(f"cli.main.{argv[0]}", cli.main, argv, io.StringIO(),
                               io.StringIO())
        if code != 0:
            raise RuntimeError(f"phasestar {' '.join(argv)} exited {code}")
    tracer.call("checks.run_all", run_all_checks)
