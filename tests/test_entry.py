"""The process entry points give the bytes of in-process `main`.

`python -m toursid.cli` and `toursid.cli.run` (the `toursid` console script)
run `main` in a fresh interpreter and, on the way out, freeze the collector's
objects so that shutdown does not walk them. Each case here runs both as a
subprocess and `main` in this process, and compares stdout, the `--out`
document, stderr and the exit code byte for byte; `main` itself freezes
nothing."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toursid.cli import main
from toursid.constructions import directed_cycle, star
from toursid.formats import dgf_dumps

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRIES = {
    "module": [sys.executable, "-m", "toursid.cli"],
    "run": [sys.executable, "-c", "from toursid.cli import run; run()"],
}

# per case: the arguments, and the exit code of `main` on them
CASES = {
    # a holds report on stdout
    "holds": (["check", "anti", "--pattern", "c3.dgf", "--exhaustive", "5"], 0),
    # a violated report with a witness, written to --out
    "violated-out": (["check", "impartial", "--pattern", "star22.dgf", "--n", "6",
                      "--out", "report.json"], 2),
    # a violated report rendered as text on stdout
    "text": (["check", "anti", "--pattern", "star20.dgf", "--family", "transitive",
              "--n", "4..14", "--format", "text"], 2),
    # an error on stderr
    "missing-pattern": (["check", "anti", "--pattern", "missing.dgf", "--exhaustive", "5"], 1),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "c3.dgf").write_text(dgf_dumps(directed_cycle(3)))
    (tmp_path / "star22.dgf").write_text(dgf_dumps(star(2, 2)))
    (tmp_path / "star20.dgf").write_text(dgf_dumps(star(2, 0)))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def take_out(workdir: Path) -> bytes | None:
    """The --out document, removed so that the next run writes it afresh."""
    path = workdir / "report.json"
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_process_matches_main(workdir, capsysbinary, entry, case):
    argv, code = CASES[case]
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    expected = (code, captured.out, take_out(workdir), captured.err)

    # buffered stdout, as by default, so that an exit skipping the flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        ENTRIES[entry] + argv, cwd=workdir, capture_output=True, timeout=120,
        env={**env, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, take_out(workdir), proc.stderr) == expected


def test_main_freezes_nothing(workdir, capsys):
    for argv, _ in CASES.values():
        main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == 0
