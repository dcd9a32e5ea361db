"""The pytest configuration in pyproject.toml: one failing test must not end the run."""

from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
