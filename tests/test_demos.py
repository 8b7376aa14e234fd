import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMO_DIR.parent / "src"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("0*.py")), ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
