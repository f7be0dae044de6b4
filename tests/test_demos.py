"""Every demo script runs to completion against the package sources."""

import glob
import os
import subprocess
import sys

import pytest

import fcspread

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fcspread.__file__)))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, demo], capture_output=True, text=True, timeout=300,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
