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


def _open_pipes() -> set:
    """The pipe:[inode] links of this process's open file descriptors."""
    links = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since the listing, such as the listing's own fd
            continue
        if link.startswith("pipe:"):
            links.add(link)
    return links


@pytest.fixture(autouse=True)
def no_pipe_left_open():
    """Fail a test that leaves a pipe open in the test process: the fork-map
    opens two pipes per worker, and must close both ends it keeps."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_pipes()
    yield
    left = sorted(_open_pipes() - before)
    if left:
        pytest.fail(f"the test left {len(left)} pipe end(s) open: {left}")


# Each acceptance criterion's PASS/FAIL line, in the order the criteria ran
# (test_acceptance._report appends it).
CLAIM_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print every acceptance criterion's line at the end of the run, so a -q
    log holds the claim readings, failures included."""
    if CLAIM_LINES:
        terminalreporter.section("claim readings")
        for line in CLAIM_LINES:
            terminalreporter.write_line(line)
