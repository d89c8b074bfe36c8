"""Byte-exact stdout snapshots of every CLI command on every shipped scenario.

Each run is replayed in-process from the repository root with a relative
scenario path (the path is echoed in the report's ``config``), and its
stdout and exit code must equal the recorded ones exactly.  The snapshots
pin the deterministic-output contract; they are recorded once with

    PYTHONPATH=src python tests/test_stdout_snapshot.py --record

and must not be re-recorded to make a behaviour change pass.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_DIR = Path(__file__).resolve().parent / "golden" / "stdout"
EXIT_CODES = SNAPSHOT_DIR / "exit_codes.json"
COMMANDS = (
    "lift-check",
    "simulate",
    "controllability",
    "reachable",
    "bump-convergence",
    "brackets",
)
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
CASES = [(scenario, command) for scenario in SCENARIOS for command in COMMANDS]


def _key(scenario: str, command: str) -> str:
    return f"{Path(scenario).stem}/{command}"


def _snapshot_path(scenario: str, command: str) -> Path:
    return SNAPSHOT_DIR / f"{_key(scenario, command)}.out"


def _replay(scenario: str, command: str, capsys) -> tuple:
    from tanlift.cli import main

    code = main([command, "--scenario", f"scenarios/{scenario}"])
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("scenario, command", CASES, ids=[_key(*c) for c in CASES])
def test_stdout_matches_snapshot(scenario, command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = _replay(scenario, command, capsys)
    expected_codes = json.loads(EXIT_CODES.read_text())
    assert code == expected_codes[_key(scenario, command)]
    assert out == _snapshot_path(scenario, command).read_bytes()


def _record() -> None:
    import contextlib
    import io
    import os

    from tanlift.cli import main

    os.chdir(ROOT)
    codes = {}
    for scenario, command in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            codes[_key(scenario, command)] = main([command, "--scenario", f"scenarios/{scenario}"])
        path = _snapshot_path(scenario, command)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(buffer.getvalue().encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_stdout_snapshot.py --record")
    _record()
