"""Shared pytest wiring: no test leaves a child process behind, and the
collected acceptance lines are replayed after the run."""

import multiprocessing
import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A snapshot writer that outlives its test fails that test."""
    yield
    assert multiprocessing.active_children() == []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "RESULTS", None)
            if lines:
                terminalreporter.ensure_newline()
                terminalreporter.section("acceptance summary", sep="-")
                for line in lines:
                    terminalreporter.write_line(line)
            break
