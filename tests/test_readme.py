"""README.md's python examples run as written.

Each ```python block runs in a fresh interpreter on the package source and
must exit 0 without writing to stderr, so an example that the API has left
behind, or one that logs a warning, fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"block{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs_cleanly(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
