"""The fork-map's failure rule, drawn: _procs._spread over drawn owners, submit orders and faults,
each outcome checked against the rule its docstring states, with no child process or pipe end left."""

from __future__ import annotations

import os
import signal
import time
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import _open_pipes
from gacfas import _procs
from gacfas.config import ConfigValueError

_RAISED = {"RuntimeError": RuntimeError, "ConfigValueError": ConfigValueError}
_CALLER_FAULTS = [*_RAISED, "KeyboardInterrupt"]
_WORKER_FAULTS = [*_CALLER_FAULTS, "unpicklable", "SIGKILL", "block", "block"]  # a block shows a wait


class Case(NamedTuple):
    """Item i is the caller's if owners[i] < 0, else worker owners[i]'s, and meets faults[i]. The caller
    submits the workers' items first if workers_first, else in index order, then raises block_fails,
    a class, if given. os.fork raises fork_fails[1], a class, at fork fork_fails[0] if given."""
    owners: tuple
    faults: tuple
    workers_first: bool = False
    block_fails: type | None = None
    fork_fails: tuple | None = None


class _Alarm(BaseException):
    pass


def _alarm(signum, frame):
    raise _Alarm


_here, _log = {}, [-1]  # what each caller item raised, by index; the fd _fn appends "<index> <pid>" to
_doing = "working from item {}".format


def _fn(item):
    i, fault = item
    os.write(_log[0], f"{i} {os.getpid()}\n".encode())
    if fault in _CALLER_FAULTS:
        _here[i] = exc = _RAISED.get(fault, KeyboardInterrupt)(f"item {i} failed")
        raise exc from ValueError(f"the cause of item {i}")
    if fault == "unpicklable":  # pickle cannot find the class by its name
        raise type("Unpicklable", (Exception,), {})(f"item {i} failed")
    if fault == "SIGKILL":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault == "block":
        time.sleep(3600)  # until the caller kills it
    return 10 * i + 1


def _rule(case: Case) -> tuple:
    """What the rule gives: (case, each block of a worker the caller must wait on made "ok"; the submit
    order; the caller's items run; each worker's, those sent before the caller stopped up to its first
    fault; the failure raised, (index, "here" | "block" | "raised" | "died") or None; the workers waited on)."""
    owners, faults, n = case.owners, case.faults, len(case.owners)
    order = sorted(range(n), key=lambda i: owners[i] < 0) if case.workers_first else list(range(n))
    stop = next((i for i in order if owners[i] < 0 and faults[i] != "ok"), None)
    sent = order if stop is None else order[: order.index(stop) + 1]
    here = [i for i in sent if owners[i] < 0]
    failures = {stop: "here"} if stop is not None else {n: "block"} if case.block_fails else {}
    firsts, runs, blocks = [owners.index(w) for w in range(max(owners, default=-1) + 1)], {}, {}
    for w, first in enumerate(firsts):
        items = [i for i in sent if owners[i] == w]
        faulty = next((i for i in items if faults[i] != "ok"), None)
        runs[w] = items if faulty is None else items[: items.index(faulty) + 1]
        if faulty is not None and faults[faulty] == "block":
            blocks[w] = faulty
        elif faulty is not None:
            failures.update({faulty: "raised"} if faults[faulty] in _RAISED else {first: "died"})
    if stop is not None and faults[stop] == "KeyboardInterrupt":  # it propagates at once
        return case, order, here, runs, (stop, "here"), set()
    failure = min(failures.items(), default=None)
    waited = {w for w, first in enumerate(firsts) if failure is None or first <= failure[0]}
    if waited & set(blocks):  # the caller must wait on it, so it cannot block
        i = blocks[min(waited & set(blocks))]
        return _rule(case._replace(faults=(*faults[:i], "ok", *faults[i + 1 :])))
    return case, order, here, runs, failure, waited


@st.composite
def _cases(draw) -> Case:
    """0-7 items on 0-3 workers, numbered by their first items as loo and convergence number theirs; a fault
    for each, one the caller survives for its own; at times a failure of the with block or a fork."""
    n = draw(st.integers(0, 7))
    workers = draw(st.integers(0, min(n, 3)))
    firsts = sorted(draw(st.sets(st.integers(0, n - 1), min_size=workers, max_size=workers))) if workers else []
    started = lambda i: [-1, *range(sum(f < i for f in firsts))]  # the caller, and workers whose first is before i
    owners = tuple(firsts.index(i) if i in firsts else draw(st.sampled_from(started(i))) for i in range(n))
    faults = tuple(draw(st.sampled_from(["ok"] * 6 + (_CALLER_FAULTS if w < 0 else _WORKER_FAULTS))) for w in owners)
    forks = st.tuples(st.integers(0, workers - 1), st.sampled_from([OSError, KeyboardInterrupt]))
    fork_fails = draw(forks) if workers and draw(st.integers(0, 7)) == 0 else None
    return Case(owners, faults, draw(st.booleans()), draw(st.sampled_from([None, RuntimeError, ConfigValueError])), fork_fails)


_LOO3 = (-1, -1, 0, 0, 1, 1)  # loo's six runs on 3 processes, submitted workers first
_CONV2, _CONV3 = (-1, 0, 0, -1, 0, 0, -1), (-1, 0, 0, 1, 1, -1, 0)  # convergence's records on 2 and 3
_FROM_2 = ("ok", "ok", *["RuntimeError"] * 5)


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cases())
@example(case=Case(_LOO3, ("ok", "ok", *["RuntimeError"] * 4), True))  # the lowest failing run, any process
@example(case=Case((-1,) * 6, ("ok", "ok", *["ConfigValueError"] * 4), True))  # the same on one process
@example(case=Case(_LOO3, ("ok",) * 4 + ("SIGKILL",) * 2, True))  # a worker killed names its first run
@example(case=Case(_LOO3, ("ok",) * 4 + ("unpicklable",) * 2, True))  # so does one whose failure does not pickle
@example(case=Case(_LOO3, ("RuntimeError", "ok", "block", "ok", "block", "ok"), True))  # the caller fails: no wait
@example(case=Case(_LOO3, ("KeyboardInterrupt", "ok", "block", "ok", "block", "ok"), True))
@example(case=Case((-1,) * 7, _FROM_2))  # the earliest failing record, on one process
@example(case=Case(_CONV2, _FROM_2))  # a worker's, before the caller's
@example(case=Case(_CONV3, _FROM_2))
@example(case=Case(_CONV2, ("ok", "SIGKILL", "SIGKILL", "ok", "SIGKILL", "SIGKILL", "ok")))  # named by its first record
@example(case=Case(_CONV2, ("KeyboardInterrupt",) + ("ok",) * 6))  # an interrupt kills and reaps the worker
@example(case=Case((-1, 0), ("ok", "RuntimeError"), block_fails=RuntimeError))  # ahead of the block's own failure
@example(case=Case((-1, 0, 1), ("ok",) * 3, fork_fails=(0, KeyboardInterrupt)))  # a fork that raises
@example(case=Case((-1, 0, 1), ("ok",) * 3, fork_fails=(1, KeyboardInterrupt)))
@example(case=Case((-1, 0, 1), ("ok",) * 3, fork_fails=(0, OSError)))
@example(case=Case((-1, 0, 1), ("ok",) * 3, fork_fails=(1, OSError)))
def test_spread_gives_the_serial_loop_or_the_failure_its_rule_names(tmp_path, case):
    """With no failure, results is the serial loop's, each item run in its owner's process, one
    process forked per worker. Otherwise the exception raised is the one the rule names (the same
    object if the caller or os.fork raised it; else its class, message and cause), a worker runs
    only items sent before the caller stopped, and the caller waits on no worker whose first item
    comes after the lowest failure (one that blocks trips the alarm). No child or pipe end is left."""
    numbered = list(dict.fromkeys(w for w in case.owners if w >= 0))
    assert numbered == list(range(len(numbered)))  # by their first items
    assert all(f in ("ok", *_CALLER_FAULTS) for w, f in zip(case.owners, case.faults) if w < 0)
    case, order, here, runs, failure, waited = _rule(case)
    forks, returned, pipes, real_fork = [], {}, _open_pipes(), os.fork
    block_failure = case.block_fails and case.block_fails("the block failed")
    fork_failure = case.fork_fails and case.fork_fails[1]("stop")

    def fork():
        if case.fork_fails and len(forks) == case.fork_fails[0]:
            raise fork_failure
        forks.append(real_fork())  # 0 in the child, which never reads it
        return forks[-1]

    _here.clear()
    _log[0] = os.open(tmp_path / "log", os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", fork)
            with _procs._spread(_fn, list(case.owners), _doing) as (submit, results):
                for i in order:
                    returned[i] = submit(i, (i, case.faults[i]))
                if block_failure:
                    raise block_failure
        outcome = results
    except BaseException as exc:
        outcome = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        calls = [tuple(int(v) for v in line.split()) for line in (tmp_path / "log").read_text().splitlines()]
        os.close(_log[0])

    assert not isinstance(outcome, _Alarm), "the caller waited on a worker that the rule skips"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_pipes() == pipes
    if case.fork_fails:
        assert outcome is fork_failure and len(forks) == case.fork_fails[0] and calls == []
        return
    assert len(forks) == len(runs) and {pid for _, pid in calls} <= {os.getpid(), *forks}
    assert [i for i, pid in calls if pid == os.getpid()] == here
    for w, items in runs.items():
        ran = [i for i, pid in calls if pid == forks[w]]
        assert ran == (items if w in waited else items[: len(ran)])  # a skipped worker may be killed at any time
    assert returned == {i: None if case.owners[i] >= 0 else 10 * i + 1 for i in returned}
    if failure is None:
        assert outcome == [10 * i + 1 for i in range(len(case.owners))]
    elif failure[1] in ("here", "block"):
        assert outcome is (_here[failure[0]] if failure[1] == "here" else block_failure)
    else:
        at, cause = failure[0], outcome.__cause__
        expected = (RuntimeError, f"the process {_doing(at)} exited without a result", None) if failure[1] == "died" else (
            _RAISED[case.faults[at]], f"item {at} failed", (ValueError, f"the cause of item {at}"))
        assert (type(outcome), str(outcome), cause and (type(cause), str(cause))) == expected
