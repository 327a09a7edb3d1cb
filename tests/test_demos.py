"""Every script under demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccflab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(ccflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
