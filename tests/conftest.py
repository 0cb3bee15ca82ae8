import pytest

from toricaut import cli
from toricaut.corpus import corpus


@pytest.fixture(scope="session")
def fans():
    return corpus()


@pytest.fixture(autouse=True)
def fresh_loader(monkeypatch):
    """Each test starts with the CLI loader's table of fans empty, so no
    test reads a Fan (or the caches on it) that an earlier test loaded."""
    monkeypatch.setattr(cli, "_LOADED", {})


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
