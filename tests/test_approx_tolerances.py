"""Every ``approx`` comparison in the tests states its absolute tolerance.

``pytest.approx`` without ``abs`` allows an absolute error of 1e-12, so a
comparison of values far below 1e-12 passes whatever the value.  Each call
must say ``abs=0`` or the floor it means near 0.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _approx_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "approx":
                yield node


def test_every_approx_call_has_an_abs_keyword():
    calls = [(path.name, call) for path in sorted(TESTS.glob("*.py"))
             for call in _approx_calls(ast.parse(path.read_text(), filename=str(path)))]
    unstated = [f"{name}:{call.lineno}" for name, call in calls
                if not any(keyword.arg == "abs" for keyword in call.keywords)]
    assert len(calls) >= 40
    assert not unstated, f"approx calls without abs: {', '.join(unstated)}"


def test_the_walk_finds_calls_without_abs():
    tree = ast.parse("x == pytest.approx(1e-20, rel=1e-9)\ny == approx(2, abs=0)\n")
    calls = list(_approx_calls(tree))
    assert [any(k.arg == "abs" for k in call.keywords) for call in calls] == [False, True]
