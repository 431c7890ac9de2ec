"""Every name a package module imports is used somewhere in that module,
and every module-level private function is referenced somewhere in the
package."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mulhopf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom .a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict) -> list:
    """(module, line, name) of module-level ``_private`` functions that no
    module of ``sources`` (name -> text) references outside their own body."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((module, node.lineno, owner))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else
                        sub.name if isinstance(sub, ast.alias) else None)
                if name is not None and name != owner:
                    used.add(name)
    return sorted(d for d in defined if d[2] not in used)


def test_the_scan_flags_an_unreferenced_private_function():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n",
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    assert unreferenced_private_functions(sources) == [("a", 1, "_dead")]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []
