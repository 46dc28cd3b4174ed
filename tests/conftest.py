import pytest

from photodyne import DEFAULTS, build_system, steady_state

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Stash an acceptance line for the end-of-run summary."""
    _criterion_lines.append(line)


def pytest_collection_modifyitems(config, items):
    """Mark the criteria of test_acceptance.py, so that -m "not acceptance"
    runs every other test in well under a minute."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_system():
    return build_system(DEFAULTS)


@pytest.fixture(scope="session")
def default_steady(default_system):
    return steady_state(default_system)
