"""Fuzz the shipped scenarios: break one key, run one command in process.

Each example takes a shipped scenario, drops one key (or list entry) or
sets it to a value of the wrong type, a non-finite number or an
out-of-range number, and runs one CLI command on the result.  The run
must end with a documented exit code (0-3), raise nothing, print no numpy
RuntimeWarning, and an input error (exit 2) must name the mutated key or
a block that holds it.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from tanlift.cli import _COMMANDS, main

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))

# Wrong types, non-finite numbers and out-of-range numbers; no large
# positive values, which would only make a valid run slow.
BAD_VALUES = [None, "x", [], {}, True, -1, 0, 1.5, -0.5, math.inf, -math.inf, math.nan]
DROP = "drop"


def _paths(node, prefix=()):
    """Every key path below ``node``, list entries included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` dropped or set to ``value``."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value is DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return doc


def _commands(doc) -> list:
    """The commands that succeed on the unmutated scenario ``doc``."""
    return [c for c in sorted(_COMMANDS) if c != "bump-convergence" or "lifted_system" in doc]


CASES = [
    (scenario, path, value, command)
    for scenario in SCENARIOS
    for doc in [json.loads(scenario.read_text())]
    for path in _paths(doc)
    for value in [DROP] + BAD_VALUES
    for command in _commands(doc)
]


def run_mutated(tmp_dir: Path, scenario: Path, path, value, command: str):
    """Run ``command`` on the mutated scenario; return (exit code, stderr, warnings)."""
    target = tmp_dir / "mutated.json"
    target.write_text(json.dumps(mutate(json.loads(scenario.read_text()), path, value)))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(target)])
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(CASES))
def test_a_broken_scenario_key_exits_cleanly(tmp_path, case):
    scenario, path, value, command = case
    code, err, runtime_warnings = run_mutated(tmp_path, scenario, path, value, command)
    assert code in (0, 1, 2, 3), err
    assert runtime_warnings == []
    assert "Traceback" not in err
    if code == 2:
        assert any(str(key) in err for key in path if isinstance(key, str)), (path, err)
