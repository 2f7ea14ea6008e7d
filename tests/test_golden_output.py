"""Byte-identical output gate for canonical rendering.

``tests/golden/cli_stdout.json`` holds the stdout of a fixed set of
``star``, ``commutator`` and ``oscillator`` argv: complex coefficients,
``--N 3`` (non-dyadic coefficients), ``--N 0.7``, ``--N infinity``,
``--first-order``, ``--poisson`` and every output format.  These texts were
recorded from the implementation that stored ComplexFraction coefficients.
The ``spectrum`` argv in it (log and linear spacing, text, CSV and JSON,
``--oracle``, ``--no-zero-point``, ``--units si``, ``--precision 17``) were
recorded from the sweep that built each row through ``SpectrumPoint(...)``.
The ``modes`` argv (both conventions, text, CSV and JSON, ``--units si``,
``--precision 17`` with ``-L 1.7``, an empty table and one suppressed above
``MODE_LIST_LIMIT``) and ``oscillator --format csv --levels 5`` were
recorded from the writer that built one dict per table row.  The two
``checks`` argv (the defaults, and ``--units si --seed 7``) were recorded
from the writer that formatted each table cell through a ``render``
closure.  The last four ``star`` and two ``commutator`` argv (powers of
complex, decimal and bound scalars, a zero coefficient, ``--param``,
``--N 3``, ``--N infinity``, ``--first-order``, ``--poisson``, CSV and
JSON) were recorded from the parser that read its scalars through a
helper of its own and the constructor that summed coefficients as
ComplexFraction values.  The last ``spectrum`` argv (``--oracle`` from
omega = 0.001 at T = 1, ``--precision 17``: n_max = 57004, the largest
ladder sum that fits one 2**16-level block) was recorded from the ladder
sum that allocated every level at once.  The last three argv (``star``,
``star --first-order`` and ``commutator --poisson`` on 40th powers of
``q1 + p1`` and ``q1 - p1``) were recorded from the kernel that read every
layer, layers 0 and 1 too, from the split tables.  The last ``spectrum``
argv (``--oracle`` from omega = 0.0001 at T = 1, CSV, ``--precision 17``:
its first row sums 640 267 levels in 10 blocks) was recorded from the
ladder sum whose least length came from a doubling-and-bisect search and
whose blocks were added through ``np.sum``.  The ``demo_*.txt`` files hold the stdout of the
deterministic demos 01 to 04.  Any change of rendered output fails here.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasestar
from phasestar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
CASES = json.loads((GOLDEN / "cli_stdout.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{case['argv'][0]}-{n}"
                                             for n, case in enumerate(CASES)])
def test_cli_stdout_is_unchanged(case):
    out, err = io.StringIO(), io.StringIO()
    assert main(list(case["argv"]), out=out, err=err) == 0, err.getvalue()
    assert out.getvalue() == case["stdout"]


@pytest.mark.parametrize("demo", ("01_star_product_tour", "02_oscillator_zero_point",
                                  "03_radiation_spectrum", "04_cavity_mode_census"))
def test_demo_stdout_is_unchanged(demo):
    package_root = str(Path(phasestar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo_{demo}.txt").read_text()
