"""Every module of the package uses each name it imports, and the package
reads each private name it defines.

Stdlib ``ast`` passes: a name bound by ``import`` or ``from ... import``
(``__future__`` features aside) must be read somewhere in the module, and a
module-level ``def``, ``class`` or assignment whose name starts with one
underscore must be read somewhere in the package (as a name, an attribute
or an import), so that an import or a helper orphaned by a refactor fails
here rather than lingering.
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


def _unread_private_names(sources):
    """(module, line, name) of each module-level private definition in
    ``sources`` (module name -> text) that no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_private_names(sources)
    assert not unread, f"private names no module reads (module, line, name) {unread}"


def test_unread_private_name_is_caught():
    sources = {
        "a.py": ("_used = 1\n_orphan = 2\n__dunder__ = 3\n"
                 "def _helper():\n    return _used\nclass _Gone:\n    pass\n"),
        "b.py": "from a import _helper\nimport a\nx = a._orphan\n_lonely: int = 0\n",
        "c.py": "def _recursive(n):\n    _gone = 1\n    return n\n_Gone = None\n",
    }
    assert _unread_private_names(sources) == [
        ("a.py", 6, "_Gone"), ("b.py", 4, "_lonely"), ("c.py", 1, "_recursive"),
        ("c.py", 4, "_Gone")]
