"""toursid: exact counting and extremal search for Sidorenko-type properties
of oriented graphs in tournaments.

The package certifies or falsifies, at desk scale and in exact arithmetic,
whether small oriented graphs are systematically under-represented
(anti-Sidorenko), over-represented (Sidorenko side, reported as ratio scans),
impartial, or tied to quasirandom direction in tournament hosts.
"""

import os

# toursid does no BLAS work; OpenBLAS's thread pool only slows start-up
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# each public name and the module that defines it. A name is imported from
# its module when it is first read (PEP 562), so `import toursid` loads no
# submodule and `python -m toursid.cli` loads only what `cli` imports.
_PUBLIC = {
    "BudgetExceededError": "counting",
    "CountResult": "search",
    "Digraph": "digraph",
    "PinnedPattern": "counting",
    "PropertyReport": "properties",
    "SizeLimitError": "digraph",
    "StarClassification": "experiments",
    "Tournament": "digraph",
    "UndirectedGraph": "graphs",
    "all_tournaments": "hosts",
    "are_isomorphic": "graphs",
    "check_anti_exhaustive": "properties",
    "check_anti_on_family": "families",
    "check_strong_anti": "properties",
    "classify_star": "experiments",
    "count_homomorphisms": "search",
    "count_labeled": "search",
    "count_labeled_pinned": "search",
    "density": "search",
    "disjoint_union": "digraph",
    "falsify_by_blowup": "experiments",
    "fill_to_tournament": "digraph",
    "forcing_probe": "experiments",
    "impartiality_report": "properties",
    "interpolate_to_density": "experiments",
    "oracle_count": "search",
    "quasirandom_epsilon": "quasi",
    "sampled_density": "families",
    "sidorenko_scan_exhaustive": "properties",
    "star_expected_density": "experiments",
    "tournament_representatives": "hosts",
    "transitive_host": "digraph",
    "two_block_tournament": "hosts",
    "uniform_tournament": "hosts",
}

__all__ = sorted(_PUBLIC)


def __getattr__(name: str):
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _PUBLIC.keys())


def _forward(owner: str, *names: str):
    """The PEP 562 `__getattr__` of module `owner`, which answers for `names`
    with the package's own objects (each defined where `_PUBLIC` says). Each
    defining module not yet imported enters `sys.modules` now as a lazy module
    (`importlib.util.LazyLoader`) whose code runs at its first attribute read,
    so a tool that lists `sys.modules` and then rebinds a function at every
    module attribute holding it, as the benchmark's tracer
    (`perfbench/tracing.py`) does, finds the defining module in its list. If
    that code raises, the module leaves `sys.modules`, as after a failed
    plain import, and stays lazy: the import statement discards the error
    of its first read (`__spec__`), and the next read raises it.
    """
    import importlib.util
    import sys

    package = sys.modules[__name__]
    for sub in sorted({_PUBLIC[name] for name in names}):
        name = f"{__name__}.{sub}"
        if name not in sys.modules:
            spec = importlib.util.find_spec(name)
            lazy = importlib.util.LazyLoader(spec.loader)

            def exec_module(module, run=spec.loader.exec_module, lazy=lazy):
                try:
                    run(module)
                except BaseException:
                    sys.modules.pop(module.__name__, None)
                    lazy.exec_module(module)
                    raise

            spec.loader.exec_module, spec.loader = exec_module, lazy
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            setattr(package, sub, module)

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(package, name)

    return __getattr__
