"""Fixtures every test in this directory uses."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test process behind,
    running or unreaped: the leave-one-out and sweep drivers fork workers,
    and each must be reaped before the driver returns or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid}, exited unreaped with status {status}"
    pytest.fail(f"the test left a child process behind ({state})")
