"""Each row of the mutant table in `mutants.py` still applies: its snippet
occurs once in the source, and each test it names exists."""

import pytest

from mutants import MUTANTS, ROOT
from test_engines import CASES


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_row_applies(row):
    _, path, snippet, _, tests = row
    assert (ROOT / path).read_text().count(snippet) == 1
    for test in tests:
        file, *_, function = test.split("[")[0].split("::")
        assert f"def {function}(" in (ROOT / file).read_text()
        assert "[" not in test or test.split("[")[1][:-1] in {case.name for case in CASES}
