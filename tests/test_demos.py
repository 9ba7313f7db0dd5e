"""Each narrative script under demos/ runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # the benchmark demo writes its CSVs under a fresh temporary directory
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
