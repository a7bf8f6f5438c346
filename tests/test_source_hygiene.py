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


def imports(source: str, package: str | None = None) -> dict:
    """Each name a file binds by an import, mapped to the dotted name it stands for.

    ``package`` resolves relative imports (``from .basis import x``).
    """
    bound = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package if node.level else None, node.module]))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def _dotted(node) -> str | None:
    """'a.b.c' for a name or a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def reads(source: str, module: str | None = None, package: str | None = None) -> set:
    """Dotted names a file reads, as a bare name or through attributes.

    A name bound by an import stands for what it imports, so ``np.trace``
    reads ``numpy.trace`` and ``args.trace`` reads nothing.  In a library
    module (``module`` is its dotted name) any other name is its own,
    ``module.name``.  Every prefix of an attribute chain is a read.
    Imports and ``__all__`` entries are not reads, so a re-export alone does
    not keep a definition alive.
    """
    bound = imports(source, package)
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            continue
        dotted = _dotted(node)
        if dotted is None:
            continue
        base, _, rest = dotted.partition(".")
        if base in bound:
            head = bound[base]
        elif module is not None:
            head = f"{module}.{base}"
        else:
            continue
        found.add(f"{head}.{rest}" if rest else head)
    return found


def _through_reexports(name: str, bound: dict) -> str:
    """The name a read reaches once imports are followed: ``pkg.x`` becomes ``pkg.mod.x``."""
    module, _, attr = name.rpartition(".")
    target = bound.get(module, {}).get(attr)
    return name if target in (None, name) else _through_reexports(target, bound)


def dead_definitions(package: str, modules: dict, readers: list, oracles=(), oracle_readers=()) -> list:
    """Definitions in ``package`` that no module and no reader reaches, as 'stem.name'.

    ``modules`` maps each module's stem ('__init__' for the package file)
    to its source, and ``readers`` holds other files' sources.  A module in
    ``oracles`` is also kept alive by ``oracle_readers``.
    """
    dotted = {stem: package if stem == "__init__" else f"{package}.{stem}" for stem in modules}
    bound = {dotted[stem]: imports(source, package) for stem, source in modules.items()}

    def reached(files) -> set:
        return {
            _through_reexports(name, bound)
            for source, module in files
            for name in reads(source, module, package)
        }

    read = reached([(source, dotted[stem]) for stem, source in modules.items()])
    read |= reached((source, None) for source in readers)
    by_oracle_readers = reached((source, None) for source in oracle_readers)
    return sorted(
        f"{stem}.{name}"
        for stem, source in modules.items()
        for name in definitions(source)
        if f"{dotted[stem]}.{name}" not in read
        and not (stem in oracles and f"{dotted[stem]}.{name}" in by_oracle_readers)
    )


def test_detector_flags_a_dead_definition():
    library = (
        "import click\n"
        "@click.group()\ndef main(): pass\n"
        "@main.command('run')\ndef run(): pass\n"
        "class Used: pass\nclass Dead: pass\n"
        "def helper(): return Used()\ndef dead(): pass\ndef via_attr(): pass\n"
        "def via_from(): pass\ndef via_reexport(): pass\ndef trace(): pass\n"
    )
    package = "from .library import Dead, dead, via_reexport\n__all__ = ['Dead', 'dead']\n"
    user = (
        "import numpy as np\nimport pkg\nfrom pkg import library\nfrom pkg.library import via_from\n"
        "library.via_attr()\nlibrary.helper()\nlibrary.main()\nvia_from()\npkg.via_reexport()\n"
        "np.trace(args.trace)\n"
    )
    modules = {"__init__": package, "library": library}
    assert dead_definitions("pkg", modules, [user]) == ["library.Dead", "library.dead", "library.trace"]


def test_no_dead_definitions():
    # a definition that only tests read is dead, except an oracle's
    others = [p for p in READERS if not p.is_relative_to(ROOT / "src")]
    by_tests = [p.read_text() for p in others if p.is_relative_to(ROOT / "tests")]
    readers = [p.read_text() for p in others if not p.is_relative_to(ROOT / "tests")]
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert dead_definitions("fraclap", modules, readers, ORACLES, by_tests) == []
