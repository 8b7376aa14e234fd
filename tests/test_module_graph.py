"""The package's import graph, read from the source with `ast` (nothing is
imported): each module's `from .x import` targets, and the private names it
takes from them, at any depth, must equal the tables below, so a new edge
between modules, or a new reach into another module's private names, is made
on purpose."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toursid"

# module -> the toursid modules it imports; `rng` and `digraph` are leaves,
# the data formats read `digraph` alone, and so do the counting engines, but
# for the backtracker in `search`, which they import when first called. The
# package `__init__` imports nothing: it names each public name's module in
# a table, read on first access.
IMPORTS = {
    "__init__": set(),
    "rng": set(),
    "digraph": set(),
    "counting": {"digraph", "search"},
    "search": {"counting", "digraph"},
    "formats": {"digraph"},
    "hosts": {"digraph", "rng"},
    "constructions": {"counting", "digraph"},
    "properties": {"counting", "digraph", "formats", "hosts", "rng"},
    "experiments": {"counting", "digraph", "properties", "rng"},
    "covers": {"counting", "digraph", "formats", "hosts", "rng"},
    "cli": {"constructions", "counting", "digraph", "formats", "properties"},
}

# module -> the `_`-prefixed names it imports from other toursid modules, as
# "module.name"; `properties` reads `hosts._BLOCK` inside `_exact_best` and
# `quasirandom_epsilon`, and `search` walks the plan of `counting._plan`
PRIVATE_IMPORTS = {
    "cli": {"formats._frac"},
    "counting": {"digraph._transpose", "search._backtrack"},
    "search": {"counting._plan"},
    "properties": {
        "counting._add_plane",
        "formats._frac",
        "formats._unfrac",
        "hosts._block_rows",
        "hosts._BLOCK",
    },
}


def package_imports(module: str) -> list[tuple[str, str | None, list[str]]]:
    """(target, enclosing function or None, imported names) of each relative
    import in `module`; `from . import x` imports the module x itself."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [alias.name for alias in child.names]
                if child.module:  # from .x import ...
                    found.append((child.module.split(".")[0], where, names))
                else:  # from . import x
                    found.extend((name, where, []) for name in names)
            visit(child, where)

    visit(tree, None)
    return found


def test_every_module_is_in_the_table():
    assert {p.stem for p in SRC.glob("*.py")} == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_imports_match_the_table(module):
    assert {target for target, _, _ in package_imports(module)} == IMPORTS[module]


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_private_imports_match_the_table(module):
    private = {
        f"{target}.{name}"
        for target, _, names in package_imports(module)
        for name in names
        if name.startswith("_")
    }
    assert private == PRIVATE_IMPORTS.get(module, set())


def test_cli_loads_the_catalog_only_to_construct():
    where = {w for target, w, _ in package_imports("cli") if target == "constructions"}
    assert where == {"_cmd_construct"}


def test_counting_loads_the_backtracker_only_to_count_one_host():
    where = {w for target, w, _ in package_imports("counting") if target == "search"}
    assert where == {"count_homomorphisms", "count_labeled", "count_labeled_pinned"}
