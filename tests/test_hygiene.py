"""Source hygiene: every name a module imports is used by that module, and
every exception the package raises is one of its own typed errors."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "octodyson"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = [p for p in MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def builtin_raises(source: str) -> list[str]:
    """``raise`` statements whose exception is a builtin class, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not isinstance(exc, ast.Name):
            continue
        cls = getattr(builtins, exc.id, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            found.append(f"{exc.id} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_builtin_exceptions_raised(path):
    assert builtin_raises(path.read_text()) == []
