"""The repository's pytest settings report a failing Hypothesis test as a failure.

Warnings are errors in this suite; a warning raised inside a plugin's
hooks must not turn a test failure into an ``INTERNALERROR`` that loses
the session's results.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
