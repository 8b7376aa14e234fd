"""The package's import graph, read from the source with `ast` (nothing is
imported): each module's `from .x import` targets, at any depth, must equal
the table below, so a new edge between modules is made on purpose."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toursid"

# module -> the toursid modules it imports; `rng` and `digraph` are leaves,
# and the data formats and the counting engines read `digraph` alone
IMPORTS = {
    "__init__": {"counting", "digraph", "hosts", "properties"},
    "rng": set(),
    "digraph": set(),
    "counting": {"digraph"},
    "formats": {"digraph"},
    "hosts": {"digraph", "rng"},
    "constructions": {"counting", "digraph"},
    "properties": {"counting", "digraph", "formats", "hosts", "rng"},
    "covers": {"counting", "digraph", "formats", "hosts", "rng"},
    "cli": {"constructions", "counting", "digraph", "formats", "properties"},
}


def package_imports(module: str) -> list[tuple[str, str | None]]:
    """(target, enclosing function or None) of each relative import in `module`."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                if child.module:  # from .x import ...
                    found.append((child.module.split(".")[0], where))
                else:  # from . import x
                    found.extend((alias.name, where) for alias in child.names)
            visit(child, where)

    visit(tree, None)
    return found


def test_every_module_is_in_the_table():
    assert {p.stem for p in SRC.glob("*.py")} == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_imports_match_the_table(module):
    assert {target for target, _ in package_imports(module)} == IMPORTS[module]


def test_cli_loads_the_catalog_only_to_construct():
    where = {w for target, w in package_imports("cli") if target == "constructions"}
    assert where == {"_cmd_construct"}
