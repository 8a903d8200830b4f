"""Shared test plumbing.

The acceptance tests tag themselves with ``record_criterion("criterion", ...)``
and a one-line ``detail``; the terminal summary prints one PASS/FAIL line per
criterion so the whole acceptance surface is readable at a glance.
"""

from __future__ import annotations

import pytest

_acceptance_lines: list[tuple[str, bool, str]] = []


@pytest.fixture
def record_criterion(request):
    """Attach a ``(name, value)`` pair to the test's report.

    Pytest's own ``record_property`` does the same but warns under the default
    ``--junitxml`` family (xunit2), and the suite turns every warning into an
    error, so a junit run would fail all acceptance tests.
    """

    def record(name, value):
        request.node.user_properties.append((name, value))

    return record


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    props = dict(report.user_properties)
    criterion = props.get("criterion")
    if criterion is None:
        criterion = report.nodeid.split("::")[-1]
    detail = props.get("detail", "" if report.passed else "see failure above")
    _acceptance_lines.append((str(criterion), report.passed, str(detail)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in _acceptance_lines:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
