"""Every module of the package uses each name it imports, the package
reads each private name it defines, and README names only what exists.

Stdlib ``ast`` passes: a name bound by ``import`` or ``from ... import``
(``__future__`` features aside) must be read somewhere in the module, and a
module-level ``def``, ``class`` or assignment whose name starts with one
underscore must be read somewhere in the package (as a name, an attribute
or an import), so that an import or a helper orphaned by a refactor fails
here rather than lingering.
"""

import ast
import dataclasses
import importlib
import re
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


CONCURRENCY = ("multiprocessing", "concurrent.futures", "threading")


def _concurrency_imports(source):
    """(line, module) of each import of a process or thread module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if any(name == c or name.startswith(c + ".") for c in CONCURRENCY)]
    return sorted(set(found))


def test_the_library_runs_in_one_process():
    """No module starts processes or threads: every scan and check runs in
    the calling process."""
    for path in sorted(PACKAGE.glob("*.py")):
        found = _concurrency_imports(path.read_text(encoding="utf-8"))
        assert not found, f"{path.name}: concurrency imports (line, module) {found}"


def test_concurrency_import_is_caught():
    source = ("import os\nfrom multiprocessing import Pool\nimport threading as t\n"
              "from concurrent import futures\nimport concurrent.futures\n"
              "from threadingx import y\n")
    assert _concurrency_imports(source) == [
        (2, "multiprocessing"), (2, "multiprocessing.Pool"), (3, "threading"),
        (4, "concurrent.futures"), (5, "concurrent.futures")]


README = PACKAGE.parent.parent / "README.md"


def _readme_references(text):
    """The names README's backticked spans give as code: a dotted name, or
    a bare name with one leading underscore, alone or called (``f(...)``).
    Fenced code blocks are left out."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", span)
        if match:
            name = match.group(1)
            if "." in name or (name.startswith("_") and not name.startswith("__")):
                names.append(name)
    return names


def _package_namespace():
    """(modules by name, the package's classes by name, every module-level
    name) of the package's modules, ``__main__`` aside."""
    modules = {p.stem: importlib.import_module(f"lattice_lab.{p.stem}")
               for p in MODULES if p.stem != "__main__"}
    classes = {name: obj for m in modules.values() for name, obj in vars(m).items()
               if isinstance(obj, type) and obj.__module__.startswith("lattice_lab")}
    names = {name for m in modules.values() for name in vars(m)}
    return modules, classes, names


def _unresolved(references, namespace):
    """The references that name the package but resolve in it to nothing:
    ``module.name`` for the package's own modules (``module.py`` being the
    file), ``Class.attr`` for its classes, counting dataclass fields and
    ``__slots__``, and a bare private name at module level.  A dotted name
    whose head is neither, such as a local variable's attribute or another
    package's, is not the package's and passes."""
    modules, classes, names = namespace
    missing = []
    for ref in references:
        head, _, rest = ref.partition(".")
        if not rest:
            ok = ref in names
        elif head in modules:
            ok = rest == "py" or hasattr(modules[head], rest)
        elif head in classes:
            cls = classes[head]
            fields = ({f.name for f in dataclasses.fields(cls)}
                      if dataclasses.is_dataclass(cls) else set())
            ok = hasattr(cls, rest) or rest in fields
        else:
            ok = True
        if not ok:
            missing.append(ref)
    return missing


def test_readme_names_resolve_in_the_package():
    """Every module, class attribute and private helper that README.md
    names in backticks exists, so a rename or a removal cannot leave the
    prose pointing at nothing."""
    references = _readme_references(README.read_text(encoding="utf-8"))
    modules, classes, _ = namespace = _package_namespace()
    assert len([r for r in references if r.partition(".")[0] in {*modules, *classes}]) >= 20
    assert _unresolved(references, namespace) == []


def test_unresolved_readme_name_is_caught():
    text = ("`workflows._default_basis` and `Ideal._packed` are gone; "
            "`Ideal._cache`, `PrimeComponent.admissible`, `groebner.py`, "
            "`_buchberger_core(..., known=)`, `m.ring` and `random.Random` "
            "are not.\n```sh\n`_nowhere`\n```\n`_nowhere_either`\n")
    references = _readme_references(text)
    assert "_nowhere" not in references
    assert _unresolved(references, _package_namespace()) == [
        "workflows._default_basis", "Ideal._packed", "_nowhere_either"]
