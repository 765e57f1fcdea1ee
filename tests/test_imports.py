"""Every name a source or test module imports is used there, every
alias.name reference to a cstarfix module in the sources resolves, and every
console script's target imports."""

import ast
import importlib
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
# __init__.py is left out: its imports are the package's re-exports
SOURCES = sorted(p for p in (ROOT / "src" / "cstarfix").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """The names a module binds by import, each with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    """The string entries of the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _package_modules(tree: ast.Module) -> dict:
    """The names a source module binds to cstarfix modules, as in
    `from . import algebra as alg`, each with its module's full name."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"cstarfix.{alias.name}"
    return modules


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used | _exported(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_package_module_attribute_resolves(path):
    # such a reference on an error path, say `except alg.SomeError`, runs only when that error does
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = _package_modules(tree)
    missing = sorted(
        (node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(importlib.import_module(modules[node.value.id]), node.attr)
    )
    assert not missing, f"{path.name} refers to names its modules lack: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    # bench/tracing.py wraps each entry through getattr, so a stale one breaks every traced run
    module = importlib.import_module(f"cstarfix.{path.stem}")
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{path.name} lists names in __all__ that it lacks: {stale}"


def test_every_console_script_target_imports_as_a_callable():
    # no test runs the installed script, so a moved entry function would break it unseen
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), (script, target)
