"""Every module of the package uses each name it imports.

A stdlib ``ast`` pass: a name bound by ``import`` or ``from ... import``
(``__future__`` features aside) must be read somewhere in the module, so
that an import orphaned by a refactor fails here rather than lingering.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lattice_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_module_is_checked():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_unused_import_is_caught():
    source = ("from math import gcd as _gcd\nimport os.path\n"
              "from fractions import Fraction\nx = Fraction(1, 2)\n")
    assert _unused_imports(source) == [(1, "_gcd"), (2, "os")]
