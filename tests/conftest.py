"""Shared test plumbing: the acceptance-criteria result board, CPU forcing
for the evaluation pool, and a check that the suite leaves no process
running.

Acceptance tests record one line per criterion through the ``acceptance``
fixture; the lines are echoed in the terminal summary so the verdicts are
visible even though pytest captures stdout of passing tests.
"""

import multiprocessing
import os

import pytest

from gradprune import models

_ACCEPTANCE_LINES: list[str] = []
_LEFT_RUNNING: list[str] = []


class AcceptanceBoard:
    def check(self, number: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number} ({name}): {verdict} — {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line


@pytest.fixture(scope="session")
def acceptance():
    return AcceptanceBoard()


@pytest.fixture
def cpus(monkeypatch):
    """Force the CPU count the evaluation pool reads, so a 1-CPU host also
    runs the pool.

    The test starts with no pool (an earlier one is set aside and put back
    afterwards), and the pool it makes is shut down when it ends."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the evaluation pool runs on Linux only")
    monkeypatch.setattr(models, "_pool", None)

    def force(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    yield force
    if models._pool is not None:
        models._pool[2].shutdown()


def pytest_sessionfinish(session, exitstatus):
    """Shut the evaluation pool down, then fail the session if any child
    process is still running: a benchmark run must not leave one behind."""
    if models._pool is not None and models._pool[0] == os.getpid():
        models._pool[2].shutdown()
        models._pool = None
    left = multiprocessing.active_children()
    if left:
        _LEFT_RUNNING.extend(f"pid {p.pid} ({p.name})" for p in left)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LEFT_RUNNING:
        terminalreporter.section("processes left running")
        for line in _LEFT_RUNNING:
            terminalreporter.write_line(line)
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
