"""The suite's own pytest settings, checked on a throwaway test directory."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_fails_alone(tmp_path):
    # on a failure, Hypothesis's plugin imports libcst, which warns; the warning filters
    # must not turn that into an error that stops the run before the other tests
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
