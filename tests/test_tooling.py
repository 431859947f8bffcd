"""The test configuration itself: a failing test must be reported as one."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_not_aborted(tmp_path):
    # On a failure the hypothesis plugin imports libcst to print a patch,
    # and that import warns. Under the project's warning filters the run
    # must still report the failure and go on, with exit code 1, not stop
    # with an internal error (exit code 3).
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
