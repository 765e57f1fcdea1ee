"""Every name a source module imports is used there."""

import ast
from pathlib import Path

import pytest

# __init__.py is left out: its imports are the package's re-exports
SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "cstarfix").glob("*.py")
                 if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used | _exported(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
