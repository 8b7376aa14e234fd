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
    "CountResult": "counting",
    "Digraph": "digraph",
    "PinnedPattern": "counting",
    "PropertyReport": "properties",
    "SizeLimitError": "digraph",
    "StarClassification": "experiments",
    "Tournament": "digraph",
    "UndirectedGraph": "digraph",
    "all_tournaments": "hosts",
    "are_isomorphic": "digraph",
    "check_anti_exhaustive": "properties",
    "check_anti_on_family": "properties",
    "check_strong_anti": "properties",
    "classify_star": "experiments",
    "count_homomorphisms": "counting",
    "count_labeled": "counting",
    "count_labeled_pinned": "counting",
    "density": "counting",
    "disjoint_union": "digraph",
    "falsify_by_blowup": "experiments",
    "fill_to_tournament": "digraph",
    "forcing_probe": "experiments",
    "impartiality_report": "properties",
    "interpolate_to_density": "experiments",
    "oracle_count": "counting",
    "quasirandom_epsilon": "properties",
    "sampled_density": "properties",
    "sidorenko_scan_exhaustive": "properties",
    "star_expected_density": "experiments",
    "tournament_representatives": "hosts",
    "transitive_host": "digraph",
    "two_block_tournament": "properties",
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
