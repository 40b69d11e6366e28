"""Source hygiene checks that need no linter: only the stdlib `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "forestfuse"
# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Every name an import statement binds, except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


# `Tree` and `Forest.trees` are a view of the forest's arrays kept for the
# benchmark; forest.py alone builds it and __init__.py re-exports the name
@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "forest.py"],
                         ids=lambda p: p.name)
def test_only_forest_py_uses_the_tree_view(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reexport = path.name == "__init__.py"
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "Tree"
            or isinstance(node, ast.Attribute)
            and node.attr in ("Tree", "trees")
            or isinstance(node, ast.alias) and node.name == "Tree"
            and not reexport]
    assert uses == []


# the grower draws each node's candidates from raw Philox output
# (`rng.choose`), not through numpy's sampling code
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_generator_choice(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "choice"]
    assert calls == []
