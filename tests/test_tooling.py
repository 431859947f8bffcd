"""The test configuration itself: a failing test must be reported as one;
and the digest tool reads what a run returns."""
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from lunephase.experiment import prepare_pure_program
from lunephase.pulse import run_sequence
from lunephase.qcore import DensityOperator

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


def load_outcome_digest():
    spec = importlib.util.spec_from_file_location(
        "outcome_digest", ROOT / "tools" / "outcome_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_reads_a_trajectory_as_its_pairs():
    feed = load_outcome_digest().feed
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    for record in (True, False):
        final, traj = run_sequence(rho, prepare_pure_program(), record=record)
        whole, pairs = hashlib.sha256(), hashlib.sha256()
        feed(whole, (final, traj))
        feed(pairs, (final, list(traj)))
        assert whole.hexdigest() == pairs.hexdigest()


def test_digest_tells_signed_zeros_of_a_complex_apart():
    feed = load_outcome_digest().feed
    digests = []
    for value in (complex(1, 0.0), complex(1, -0.0)):
        h = hashlib.sha256()
        feed(h, value)
        digests.append(h.hexdigest())
    assert digests[0] != digests[1]


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_LINES_FIXTURE = '''\
"""Module docstring,
over two lines."""
import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string that is
no docstring"""
    return math.sqrt(
        x
    )


class C:
    """Class docstring,

    with a blank line inside."""

    def g(self):
        # comment
        return 1
'''


def test_code_lines_counts_code_not_blanks_comments_or_docstrings(tmp_path):
    tool = load_code_lines()
    # import, def f, the string's two lines, the call's three, class C,
    # def g and its return
    assert tool.code_lines(CODE_LINES_FIXTURE) == 10
    (tmp_path / "b.py").write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1 a.py\n10 b.py\n11 total\n"
