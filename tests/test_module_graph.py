"""The package's import graph, read from the source with `ast` (nothing is
imported): each module's `from .x import` targets, the private names it
takes from them, at any depth, and the imports it makes inside a function,
must equal the tables below, so a new edge between modules, a new reach into
another module's private names, or a new import on a command's start-up path
is made on purpose. The imports made at module level form no cycle.

`counting`, `digraph` and `properties` take one helper from the package
`__init__`, `_forward`, which enters the modules that define the names they
forward (as `toursid._PUBLIC` maps them) in `sys.modules` as lazy modules;
those modules run no code until one of their names is read, so they are not
edges here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toursid"

# module -> the toursid modules it imports, at any depth. `rng` is a leaf;
# `digraph` reaches the undirected graphs (`graphs`, a leaf on `digraph`)
# only inside `Digraph.underlying`; the
# data formats and the count tables (`counting`) read `digraph` alone, and
# the backtracker (`search`) sits on `counting`, which does not import it.
# `hosts` reads `rng` inside `coin_rows`, so an exhaustive scan (`cli`,
# `properties`, `counting`, `hosts`, `digraph`, `formats`) loads no RNG.
# `families` reads the report path and the backtracker, and `properties`
# reads `families` and `search`, only inside the function that needs them
# (`LAZY`). The package `__init__` imports nothing: it names each public
# name's module in a table, read on first access.
IMPORTS = {
    "__init__": set(),
    "rng": set(),
    "digraph": {"__init__", "graphs"},
    "graphs": {"digraph"},
    "counting": {"__init__", "digraph"},
    "search": {"counting", "digraph"},
    "formats": {"digraph"},
    "hosts": {"digraph", "rng"},
    "constructions": {"counting", "digraph", "graphs"},
    "properties": {
        "__init__", "counting", "digraph", "families", "formats", "hosts", "search",
    },
    "families": {"digraph", "formats", "hosts", "properties", "rng", "search"},
    "quasi": {"counting", "digraph", "families", "hosts", "rng"},
    "experiments": {"digraph", "families", "quasi", "rng", "search"},
    "covers": {"digraph", "formats", "graphs", "hosts", "rng", "search"},
    "cli": {
        "constructions", "counting", "digraph", "families", "formats", "hosts", "properties",
        "quasi", "search",
    },
}

# module -> the `_`-prefixed names it imports from other toursid modules, as
# "module.name"; `quasi` reads `hosts._BLOCK` inside `_exact_best`, and
# `search` walks the plan of `counting._plan`
PRIVATE_IMPORTS = {
    "cli": {"formats._frac"},
    "counting": {"__init__._forward", "digraph._transpose"},
    "digraph": {"__init__._forward"},
    "search": {"counting._check_anchor", "counting._plan"},
    "properties": {"__init__._forward", "formats._frac", "formats._unfrac"},
    "families": {"formats._frac", "hosts._block_rows", "properties._report"},
    "quasi": {
        "counting._add_plane",
        "families._packed_rows",
        "hosts._BLOCK",
        "hosts._block_rows",
    },
}

# module -> (imported module, enclosing function) of each import made inside
# a function, so that a command loads only the code it runs: `cli` imports
# each engine in the handler that runs it, and the seeded hosts, the sampled
# quasirandom scan, the family scan, a witness recount and
# `Digraph.underlying` import what only they need
LAZY = {
    "cli": {
        ("constructions", "_cmd_construct"),
        ("families", "_cmd_check"),
        ("hosts", "_cmd_quasi"),
        ("properties", "_cmd_check"),
        ("quasi", "_cmd_quasi"),
        ("search", "_cmd_count"),
    },
    "digraph": {("graphs", "underlying")},
    "hosts": {("rng", "coin_rows")},
    "families": {("properties", "check_anti_on_family"), ("search", "check_anti_on_family")},
    "properties": {("families", "verify_witness"), ("search", "verify_witness")},
    "quasi": {
        ("families", "quasirandom_epsilon"),
        ("hosts", "_exact_best"),
        ("rng", "quasirandom_epsilon"),
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
                else:  # from . import x: the module x, or the package's own x
                    for name in names:
                        if (SRC / f"{name}.py").is_file():
                            found.append((name, where, []))
                        else:
                            found.append(("__init__", where, [name]))
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


def test_the_backtracker_loads_only_where_one_host_is_counted():
    where = {
        (module, w)
        for module in IMPORTS
        for target, w, _ in package_imports(module)
        if target == "search"
    }
    assert where == {
        ("cli", "_cmd_count"),
        ("covers", None),
        ("experiments", None),
        ("families", "check_anti_on_family"),
        ("properties", "verify_witness"),
    }


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_imports_inside_functions_match_the_table(module):
    lazy = {(target, w) for target, w, _ in package_imports(module) if w is not None}
    assert lazy == LAZY.get(module, set())


def test_module_level_imports_form_no_cycle():
    top = {
        module: {target for target, w, _ in package_imports(module) if w is None}
        for module in IMPORTS
    }
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join(path + [module])
        if module not in done:
            for target in top[module]:
                visit(target, path + [module])
            done.add(module)

    for module in sorted(top):
        visit(module, [])
