"""Every python block in README.md runs as written.

A renamed function or a removed option would otherwise leave the
"Library use" example stale without any test noticing.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
