"""Source hygiene: every name a module imports is used by that module, every
module-level private name is read by its module, every exception the package
raises is one of its own typed errors, importing the CLI stays cheap, and the
package still offers every name the benchmark harness reaches for."""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "octodyson"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
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


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_name`` definitions that the module never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in loaded)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_builtin_exceptions_raised(path):
    assert builtin_raises(path.read_text()) == []


def test_cli_import_stays_numpy_only():
    """Every CLI invocation pays for the import: scipy and hypothesis stay out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    code = ("import sys, octodyson.cli; "
            "print(sorted({'scipy', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def assigned_literal(path: Path, name: str):
    """The literal value of the first assignment to ``name`` in ``path``, at
    any depth, read without importing the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def benchmark_names() -> list[tuple[str, str]]:
    """(module, name) pairs the benchmark harness reads from the package: the
    traced layers, the attributes its setup code uses, the four calculus
    functions the closed-form recorder wraps in ``verify``, and every name a
    harness file imports from a package module."""
    pairs = [(module, name) for module, names in
             assigned_literal(PERFBENCH / "tracing.py", "LAYERS").items() for name in names]
    setup = ast.parse(assigned_literal(PERFBENCH / "run.py", "SETUP_CODE"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(setup)
               if isinstance(node, ast.ImportFrom) and node.module == "octodyson"
               for alias in node.names}
    pairs += [(modules[node.value.id], node.attr) for node in ast.walk(setup)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    pairs += [("verify", name) for name in
              assigned_literal(PERFBENCH / "workloads.py", "names")]
    pairs += [(node.module.split(".", 1)[1], alias.name) for path in PERFBENCH.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("octodyson.")
              for alias in node.names]
    return pairs


BENCHMARK_NAMES = sorted(set(benchmark_names()))


def test_benchmark_harness_reads_at_least_the_recorded_names():
    assert {("matrices", "oct_inverse"), ("simulate", "sample_matrix"),
            ("calculus", "DiffusionModel"), ("verify", "gamma_closed_form"),
            ("simulate", "SimulationConfig"), ("simulate", "sample_components")} <= {
                *BENCHMARK_NAMES}


@pytest.mark.parametrize("module,name", BENCHMARK_NAMES, ids=map(".".join, BENCHMARK_NAMES))
def test_benchmark_names_exist(module, name):
    mod = importlib.import_module(f"octodyson.{module}")
    assert hasattr(mod, name), f"perfbench reads octodyson.{module}.{name}"
    if module == "verify" and hasattr(importlib.import_module("octodyson.calculus"), name):
        # the recorder wraps the calculus function as verify binds it
        assert getattr(mod, name) is getattr(importlib.import_module("octodyson.calculus"), name)
