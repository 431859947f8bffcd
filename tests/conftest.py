import pytest

from lunephase import pulse

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Records one pass/fail line per acceptance criterion and asserts it.

    The collected lines are echoed in a terminal summary section so every
    criterion's verdict is visible in the test log regardless of capture.
    """

    def record(label: str, ok: bool, detail: str) -> None:
        line = f"{label}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


@pytest.fixture(autouse=True)
def empty_compile_cache():
    """Start every test with an empty pulse-program compile cache, so that a
    test that patches a propagator builder sees its program compiled anew
    rather than served from an earlier test's entry."""
    pulse._compile.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
