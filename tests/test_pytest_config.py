"""The test configuration itself: a failing property test is reported as a
failure, and the session goes on to the tests after it.

pyproject.toml turns every warning into an error.  The hypothesis plugin
warns while it builds the report of a failing example; as an error that
warning would end the session in INTERNALERROR and hide every later result.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    test_file = tmp_path / "test_sample.py"
    test_file.write_text(FAILING_THEN_PASSING, encoding="utf-8")
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *config, str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout[-2000:]
    assert "1 failed, 1 passed" in result.stdout, result.stdout[-2000:]
    assert result.returncode == 1, result.stdout[-2000:]
