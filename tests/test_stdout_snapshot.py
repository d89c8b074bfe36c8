"""Byte-exact stdout snapshots of every CLI command on every shipped scenario.

Each run is replayed in-process from the repository root with a relative
scenario path (the path is echoed in the report's ``config``), and its
stdout and exit code must equal the recorded ones exactly.  Besides the
default flags, ``controllability`` and ``reachable`` also run with
``--grid 8 --rank-tol 1e-6`` on two scenarios, which pins how those flags
reach the transport report.  The snapshots pin the deterministic-output
contract; new cases are recorded with

    PYTHONPATH=src python tests/test_stdout_snapshot.py --record

Recording only adds snapshots: if a recorded file or exit code would
change, it lists those cases, writes nothing and exits non-zero.
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
FLAGS = ("--grid=8", "--rank-tol=1e-6")
CASES = [(scenario, command, ()) for scenario in SCENARIOS for command in COMMANDS] + [
    (scenario, command, FLAGS)
    for scenario in ("r2_shear.json", "s2_lifted.json")
    for command in ("controllability", "reachable")
]


def _key(scenario: str, command: str, flags: tuple) -> str:
    return f"{Path(scenario).stem}/{command}{''.join(flags)}"


def _snapshot_path(scenario: str, command: str, flags: tuple) -> Path:
    return SNAPSHOT_DIR / f"{_key(scenario, command, flags)}.out"


def _argv(scenario: str, command: str, flags: tuple) -> list:
    return [command, "--scenario", f"scenarios/{scenario}", *flags]


@pytest.mark.parametrize("scenario, command, flags", CASES, ids=[_key(*c) for c in CASES])
def test_stdout_matches_snapshot(scenario, command, flags, capsys, monkeypatch):
    from tanlift.cli import main

    monkeypatch.chdir(ROOT)
    code = main(_argv(scenario, command, flags))
    out = capsys.readouterr().out.encode()
    expected_codes = json.loads(EXIT_CODES.read_text())
    assert code == expected_codes[_key(scenario, command, flags)]
    assert out == _snapshot_path(scenario, command, flags).read_bytes()


def _record() -> int:
    import contextlib
    import io
    import os

    from tanlift.cli import main

    os.chdir(ROOT)
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    new, changed = {}, []
    for case in CASES:
        key, path = _key(*case), _snapshot_path(*case)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(*case))
        out = buffer.getvalue().encode()
        if key in codes or path.exists():
            if codes.get(key) != code or not path.exists() or path.read_bytes() != out:
                changed.append(key)
        else:
            new[key] = (code, out)
    if changed:
        print("refusing to overwrite snapshots that would change:", file=sys.stderr)
        for key in changed:
            print(f"  {key}", file=sys.stderr)
        return 1
    for key, (code, out) in new.items():
        path = SNAPSHOT_DIR / f"{key}.out"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(out)
        codes[key] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(new)} new snapshots", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_stdout_snapshot.py --record")
    sys.exit(_record())
