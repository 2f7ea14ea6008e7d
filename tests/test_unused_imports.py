"""Every name an import binds in ``src/phasestar`` is used by its module.

A name counts as used when the module reads it as an ``ast.Name`` anywhere,
annotations included.  ``from __future__`` imports bind no usable name, and
the package ``__init__`` may import a name only to list it in ``__all__``.
"""

import ast
from pathlib import Path

import phasestar

SOURCES = Path(phasestar.__file__).parent


def _unused_imports(tree):
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(SOURCES.glob("*.py"))
    assert len(paths) >= 10
    unused = [f"{path.name}:{line} {name}" for path in paths
              for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not unused, f"unused imports: {', '.join(unused)}"


def test_the_walk_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport gc\nimport threading\n"
                     "import numpy as np\nfrom .units import positive, integer\n"
                     "__all__ = ['integer']\n"
                     "def f(x: np.ndarray):\n    gc.disable()\n")
    assert _unused_imports(tree) == [(3, "threading"), (5, "positive")]
