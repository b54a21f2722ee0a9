"""The example scripts import the library directly; run each on a small
input so an API change that breaks them fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("approach_comparison.py", ["--train", "300", "--sim", "200"]),
        ("heterogeneity_experiment.py", ["--households", "3", "--days", "7"]),
    ],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_example_runs(tmp_path):
    """The `python` block under the README's `## Library use` runs as written."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    code = re.search(r"^## Library use\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)[1]
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(7, 96)\n"
