"""Shared pytest wiring: the collected acceptance lines are replayed after
the run."""

import sys


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
