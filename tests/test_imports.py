"""Every import in the package modules is used.

A stdlib-``ast`` check: a name bound by ``import`` or ``from ... import``
must be read somewhere in its module, or be listed in ``__all__``.
``__init__.py`` is skipped, because it exists to re-export, and so is
``from __future__``.  Quoted annotations are parsed and count as reads.

A second check of the same kind: every module-level ``_private``
function is referenced somewhere in the package outside its own
definition, so a helper that a merge made unused does not linger.

A third: every non-dunder method of a package class is read as an
attribute in the package, the tests or the benchmark, or is named by a
string in the benchmark, whose tracer patches methods by name.

A fourth: importing the package loads neither ``dataclasses`` nor
``inspect``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qheis"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, including quoted annotations and ``__all__``."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _read(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Callable, Iterable\n"
        "from .x import a as b, c, d\n"
        "__all__ = ['d']\n"
        "def f(g: 'Callable[[], int]') -> None:\n"
        "    return os.path.join(c)\n"
    )
    assert unused_imports(source) == [("Iterable", 4), ("b", 5), ("json", 2)]


def _references(tree: ast.AST):
    """Every name a tree reads, as a Name, an attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unreferenced_private_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level ``_private`` function that no
    module references outside the function's own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = Counter(ref for tree in trees.values() for ref in _references(tree))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                own = sum(ref == node.name for ref in _references(node))
                if total[node.name] == own:
                    out.append((module, node.name))
    return sorted(out)


def test_every_private_function_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def test_detector_sees_unreferenced_private_functions():
    sources = {
        "a.py": (
            "def _dead(n):\n"
            "    return _dead(n - 1) if n else 0\n"
            "def _local():\n"
            "    return 1\n"
            "def _imported():\n"
            "    return 2\n"
            "def _by_attribute():\n"
            "    return 3\n"
            "def public():\n"
            "    return _local()\n"
        ),
        "b.py": (
            "from .a import _imported\n"
            "from . import a\n"
            "value = a._by_attribute()\n"
        ),
    }
    assert unreferenced_private_functions(sources) == [("a.py", "_dead")]


ROOT = SRC.parent.parent


def unread_methods(package: dict[str, str], readers: dict[str, str],
                   patchers: dict[str, str]) -> list[tuple[str, str]]:
    """(class, method) of each non-dunder method of a ``package`` class that
    no ``package`` or ``readers`` source reads as an attribute and no
    ``patchers`` source names in a string (a tracer patches methods by name)."""
    read = set()
    for src in {**package, **readers, **patchers}.values():
        read.update(node.attr for node in ast.walk(ast.parse(src))
                    if isinstance(node, ast.Attribute))
    for src in patchers.values():
        read.update(node.value for node in ast.walk(ast.parse(src))
                    if isinstance(node, ast.Constant) and isinstance(node.value, str))
    out = []
    for src in package.values():
        for cls in ast.walk(ast.parse(src)):
            if isinstance(cls, ast.ClassDef):
                out.extend((cls.name, node.name) for node in cls.body
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (node.name.startswith("__") and node.name.endswith("__"))
                           and node.name not in read)
    return sorted(out)


def _sources(directory: Path) -> dict[str, str]:
    return {str(p): p.read_text(encoding="utf-8") for p in directory.glob("*.py")}


def test_every_method_is_read():
    assert unread_methods(_sources(SRC), _sources(ROOT / "tests"), _sources(ROOT / "bench")) == []


def test_detector_sees_unread_methods():
    package = {"a.py": (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return 2\n"
        "    def tested(self):\n"
        "        return 3\n"
        "    def patched(self):\n"
        "        return 4\n"
    )}
    readers = {"t.py": "def test():\n    assert K().tested() == 3\n    assert 'dead'\n"}
    patchers = {"b.py": "SPANS = [('a', 'K', 'patched')]\n"}
    assert unread_methods(package, readers, patchers) == [("K", "dead")]


def test_importing_the_package_loads_no_introspection_modules():
    # dataclasses imports inspect, ast and dis, about 0.6 MB of resident memory
    # in every process that imports the package; its records are NamedTuples
    # and plain classes instead
    code = "import sys, qheis; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.stdout.strip() == "[]"
