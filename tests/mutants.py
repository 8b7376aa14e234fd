"""The mutant table: each row breaks the source in one place, and the tests it
names must then fail. `python tests/mutants.py` extracts the committed tree
(`git archive HEAD`) into a temporary directory, checks that the named tests
pass there, then applies one row at a time, runs only its tests and prints
killed or survived. It exits 1 if any row survives. Tier-1 does not run it;
`test_mutants.py` checks that each row still applies to the source."""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINES = "tests/test_engines.py::test_every_engine_equals_the_reference"
PROPERTIES = "tests/test_properties.py"

# (id, file, snippet, replacement, the tests that must fail)
MUTANTS = [
    # a flipped required bit keeps every total over the raw hosts
    ("flipped-required-bit", "src/toursid/counting.py",
     "to[i][j], to[j][i] = 1 << pairs + p | 1 << p, 1 << pairs + p",
     "to[i][j], to[j][i] = 1 << pairs + p, 1 << pairs + p | 1 << p",
     [f"{ENGINES}[star-2-1-labeled]"]),
    ("table-ignores-pins", "src/toursid/counting.py",
     "for h in [pins[v]] if v in pins else spare:", "for h in spare:",
     [f"{ENGINES}[star-1-3@2,4-labeled]"]),
    ("closed-form-counts-the-candidate", "src/toursid/search.py",
     "inside * math.perm(c - 1, size)", "inside * math.perm(c, size)",
     [f"{ENGINES}[directed-path-3-labeled]"]),
    ("memo-stores-count-plus-one", "src/toursid/search.py",
     "memo[key] = whole\n", "memo[key] = whole + 1\n",
     [f"{ENGINES}[directed-cycle-5-homs]"]),
    # a pattern's edges widen a block's gathers past its k map slots
    ("density-blocks-sized-by-slots", "src/toursid/families.py",
     "step = _block_rows(max(k, d.edge_count))", "step = _block_rows(k)",
     [f"{PROPERTIES}::TestSampledDensityBlocks::test_each_draw_is_one_bounded_block"]),
    ("three-sigmas-inclusive", "src/toursid/families.py",
     "self.samples > 9 * p * (1 - p)", "self.samples >= 9 * p * (1 - p)",
     [f"{PROPERTIES}::TestSampledVerdict::test_exactly_three_standard_errors_is_not_a_violation"]),
    ("sampled-quasi-big-endian", "src/toursid/quasi.py",
     'count=n, bitorder="little"', 'count=n, bitorder="big"',
     [f"{PROPERTIES}::TestSampledQuasiReference::test_equals_popcount_cube"]),
    # every sampled subset drawn at once: the draw grows with the samples
    ("quasi-blocks-unbounded", "src/toursid/quasi.py",
     "chunk = step * _block_rows(step * words)", "chunk = samples",
     [f"{PROPERTIES}::TestSampledQuasiBlocks::test_each_draw_is_one_bounded_block"]),
    # every sampled subset in one counter: the counter grows with the samples
    ("quasi-counter-unbounded", "src/toursid/quasi.py",
     "step = _block_rows(n)", "step = samples",
     ["tests/test_golden.py::test_sampling_streams_in_bounded_blocks"]),
    ("quasi-best-of-last-block", "src/toursid/quasi.py",
     "best = max(best, int(positive.sum(axis=1).max()))", "best = int(positive.sum(axis=1).max())",
     ["tests/test_golden.py::TestScalarReference::test_quasi_sampled",
      "tests/test_golden.py::TestScalarReference::test_tiny_blocks_do_not_change_results",
      f"{PROPERTIES}::TestSampledQuasiReference::test_equals_popcount_cube"]),
    # os._exit skips the flush of stdout
    ("run-exits-without-flushing", "src/toursid/cli.py",
     "    sys.exit(code)\n", '    __import__("os")._exit(code)\n',
     ["tests/test_entry.py::test_process_matches_main"]),
    # the last walked position charged as one expansion, not one per candidate
    ("last-position-charged-once", "src/toursid/search.py",
     "1 + cand.bit_count()", "1",
     ["tests/test_counting.py::TestBudget::test_smallest_budget_is_pinned"]),
    # a negative vertex then fails as a negative shift, not as out of range
    ("negative-vertex-accepted", "src/toursid/digraph.py",
     "if not 0 <= v < n:", "if not v < n:",
     ["tests/test_refusals.py::test_cli_refuses_a_negative_pinned_vertex",
      "tests/test_refusals.py::test_constructions_refuses[extend-negative]"]),
    ("repeated-vertex-accepted", "src/toursid/digraph.py",
     "        if mask >> v & 1:\n            raise ValueError(twice.format(v))\n", "",
     ["tests/test_formats.py::TestBcv::test_repeated_member_rejected",
      "tests/test_refusals.py::test_constructions_refuses[extend-repeated]"]),
    # without the override, `_make` and `_replace` build through tuple.__new__
    ("pinned-pattern-make-unchecked", "src/toursid/counting.py",
     "    @classmethod\n    def _make(cls, fields):\n"
     "        # `_replace` builds through `_make`: both re-run the checks above\n"
     "        return cls(*fields)\n\n", "",
     ["tests/test_refusals.py::test_records_rebuild_through_their_checks[pinned-replace]",
      "tests/test_refusals.py::test_records_rebuild_through_their_checks[pinned-make]"]),
    ("stray-private-import", "src/toursid/covers.py",
     "from .rng import blend\n", "from .rng import blend\nfrom .digraph import _transpose\n",
     ["tests/test_module_graph.py::test_private_imports_match_the_table[covers]"]),
    # the defining modules kept out of sys.modules until a forward is read:
    # the benchmark's tracer, which lists sys.modules first, misses them
    ("forward-enters-no-module", "src/toursid/__init__.py",
     "        if name not in sys.modules:\n", "        if False:\n",
     ["tests/test_tracing_targets.py::test_a_traced_command_counts_its_engines[count]",
      "tests/test_tracing_targets.py::test_a_traced_command_counts_its_engines[quasi-host]"]),
    # a lazy module whose code raised stays half-run in sys.modules
    ("failed-lazy-module-kept", "src/toursid/__init__.py",
     "                    sys.modules.pop(module.__name__, None)\n"
     "                    lazy.exec_module(module)\n", "",
     ["tests/test_tracing_targets.py::test_a_lazy_module_that_raises_leaves_sys_modules[syntax-error]",
      "tests/test_tracing_targets.py::test_a_lazy_module_that_raises_leaves_sys_modules[raises]"]),
    # a forward returns what the one public map names, not the defining object
    ("public-map-points-elsewhere", "src/toursid/__init__.py",
     '    "sampled_density": "families",\n', '    "sampled_density": "quasi",\n',
     ["tests/test_tracing_targets.py::test_a_moved_target_is_the_defining_modules_object"
      "[toursid.properties:sampled_density]"]),
    # a host with too few edges is transposed, O(n^2), before it is refused
    ("host-transposed-before-count", "src/toursid/digraph.py",
     "        d = _trusted(cls, rows, m)\n",
     "        _transpose(rows, n)\n        d = _trusted(cls, rows, m)\n",
     ["tests/test_digraph.py::TestInvariants::test_edge_count_is_checked_before_the_transpose",
      "tests/test_digraph.py::TestInvariants::test_from_rows_transposes_once"]),
    ("hypercube-guard-loose", "src/toursid/covers.py",
     "HYPERCUBE_LIMIT = 12\n", "HYPERCUBE_LIMIT = 16\n",
     ["tests/test_covers.py::TestHypercube::test_a_cover_too_large_to_build_is_refused_first"]),
]


def run_tests(tree, tests):
    """pytest's exit code on `tests` in `tree`: 0 all passed, 1 some failed.
    No bytecode is written, so a restored file never loads a mutant's."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def main():
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        if run_tests(tree, sorted({test for *_, tests in MUTANTS for test in tests})):
            print("the named tests do not pass on the unmutated tree")
            return 1
        survived = 0
        for name, path, snippet, replacement, tests in MUTANTS:
            source = Path(tree, path).read_text()
            Path(tree, path).write_text(source.replace(snippet, replacement, 1))
            code = run_tests(tree, tests)
            Path(tree, path).write_text(source)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            survived += verdict != "killed"
            print(f"{name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
