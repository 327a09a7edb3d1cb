"""The repository's pytest configuration reports a failing property test as
one failure: the warnings it turns into errors must not abort the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in done.stdout
