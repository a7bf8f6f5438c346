"""Static checks on the library source, in place of a linter."""

import ast
from pathlib import Path

import pytest

import fraclap

SOURCES = sorted(Path(fraclap.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "tests", "demos", "benchmarks") for p in (ROOT / d).rglob("*.py"))
# the closed-form oracles that tests compare the pipeline against
ORACLES = {"reference"}
# decorators that register the function they wrap (the click commands)
_REGISTERING = {"command", "group"}


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nx = np.pi + pi\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _registered(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in _REGISTERING
        for d in node.decorator_list
    )


def definitions(source: str) -> set:
    """Module-level functions and classes, less those a decorator registers."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _registered(node))
    }


def reads(source: str) -> set:
    """Names a module reads, as a bare name or as an attribute.

    Imports and ``__all__`` entries are not reads, so a re-export alone does
    not keep a definition alive.
    """
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_detector_flags_a_dead_definition():
    library = (
        "import click\n"
        "@click.group()\ndef main(): pass\n"
        "@main.command('run')\ndef run(): pass\n"
        "class Used: pass\nclass Dead: pass\n"
        "def helper(): return Used()\ndef dead(): pass\ndef via_attr(): pass\n"
    )
    reexport = "from .library import Dead, dead\n__all__ = ['Dead', 'dead']\n"
    user = "import library\nlibrary.via_attr()\nlibrary.helper()\nlibrary.main()\n"
    read = reads(library) | reads(reexport) | reads(user)
    assert sorted(definitions(library) - read) == ["Dead", "dead"]


def test_no_dead_definitions():
    # a definition that only tests read is dead, except an oracle's
    by_tests = {path for path in READERS if path.is_relative_to(ROOT / "tests")}
    read = set().union(*(reads(path.read_text()) for path in READERS if path not in by_tests))
    read_by_tests = set().union(*(reads(path.read_text()) for path in by_tests))
    dead = {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in definitions(path.read_text())
        - read
        - (read_by_tests if path.stem in ORACLES else set())
    }
    assert sorted(dead) == []
