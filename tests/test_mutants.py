"""Each row of the mutant table in `mutants.py` still applies: its snippet
occurs once in the source, and each test it names exists: its function, and
its parameter id, a case of the engine table or a quoted id in its file."""

import pytest

from mutants import ENGINES, MUTANTS, ROOT
from test_engines import CASES


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_row_applies(row):
    _, path, snippet, _, tests = row
    assert (ROOT / path).read_text().count(snippet) == 1
    for test in tests:
        node, _, param = test.partition("[")
        file, *_, function = node.split("::")
        text = (ROOT / file).read_text()
        assert f"def {function}(" in text
        if test.startswith(ENGINES):
            assert param[:-1] in {case.name for case in CASES}
        elif param:
            assert f'"{param[:-1]}"' in text
