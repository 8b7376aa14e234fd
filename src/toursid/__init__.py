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

from .counting import (
    BudgetExceededError,
    CountResult,
    PinnedPattern,
    count_homomorphisms,
    count_labeled,
    count_labeled_pinned,
    density,
    oracle_count,
)
from .digraph import (
    Digraph,
    SizeLimitError,
    Tournament,
    UndirectedGraph,
    are_isomorphic,
    disjoint_union,
    fill_to_tournament,
    transitive_host,
)
from .hosts import (
    all_tournaments,
    tournament_representatives,
    uniform_tournament,
)
from .properties import (
    PropertyReport,
    StarClassification,
    check_anti_exhaustive,
    check_anti_on_family,
    check_strong_anti,
    classify_star,
    falsify_by_blowup,
    forcing_probe,
    impartiality_report,
    interpolate_to_density,
    quasirandom_epsilon,
    sampled_density,
    sidorenko_scan_exhaustive,
    star_expected_density,
    two_block_tournament,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CountResult",
    "Digraph",
    "PinnedPattern",
    "PropertyReport",
    "SizeLimitError",
    "StarClassification",
    "Tournament",
    "UndirectedGraph",
    "all_tournaments",
    "are_isomorphic",
    "check_anti_exhaustive",
    "check_anti_on_family",
    "check_strong_anti",
    "classify_star",
    "count_homomorphisms",
    "count_labeled",
    "count_labeled_pinned",
    "density",
    "disjoint_union",
    "falsify_by_blowup",
    "fill_to_tournament",
    "forcing_probe",
    "impartiality_report",
    "interpolate_to_density",
    "oracle_count",
    "quasirandom_epsilon",
    "sampled_density",
    "sidorenko_scan_exhaustive",
    "star_expected_density",
    "tournament_representatives",
    "transitive_host",
    "two_block_tournament",
    "uniform_tournament",
]
