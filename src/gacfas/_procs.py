"""The process model: how many processes share a list of items, and the
forked workers that compute their share as one serial loop would. Every
fork, pipe, pickle and kill of the package is here."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from typing import BinaryIO, NamedTuple


def _process_count(n_items: int) -> int:
    """How many processes share n_items runs or records: one per CPU the
    calling process may run on, at most one per item, and 1 where the
    platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


@contextlib.contextmanager
def _spread(fn, owners, doing):
    """Yield (submit, results) to compute fn over the items 0 .. len(owners) - 1
    on the processes owners names, as one serial loop over the items gives.
    submit(i, arg) runs fn(arg) here and returns its value when owners[i] < 0;
    otherwise it sends (i, arg) to forked worker owners[i] and returns None.
    The caller submits each item once, its own in index order. On the way
    out, results[i] holds every item's value.

    A worker computes its items in the order sent and stops at its first
    failure; one that exits without a result fails at its first item i as
    "the process {doing(i)} exited without a result". The failure with the
    lowest index is raised, ahead of a failure of the block's own, such as a
    training step's. A failing item of the caller's is raised at once, and
    the workers killed, when no lower index is a worker's. With no worker,
    nothing is forked: that is the serial loop."""
    results = [None] * len(owners)
    failures = {}  # index: exception; the block's own failure takes len(owners), after every item
    firsts = [owners.index(w) for w in range(max(owners, default=-1) + 1)]
    unsent = [owners.count(w) for w in range(len(firsts))]

    def submit(i, arg):
        w = owners[i]
        if w >= 0:
            view = memoryview(pickle.dumps((i, arg)))
            with contextlib.suppress(BrokenPipeError):  # a worker that has gone is found to have no result
                while view:
                    view = view[children[w].inbox.write(view) :]
            unsent[w] -= 1
            if not unsent[w]:  # its last item: the worker can finish and exit while the caller works on
                children[w].inbox.close()
            return None
        try:
            results[i] = fn(arg)
        except Exception as exc:
            failures[i] = exc
            raise
        return results[i]

    def work(inbox):
        done, failure = {}, None
        while True:
            try:
                i, arg = pickle.load(inbox)
            except EOFError:  # the caller has sent every item
                return done, failure
            if failure is None:  # after a failure, read on: the caller must never wait on a full pipe
                try:
                    done[i] = fn(arg)
                except Exception as exc:
                    failure = (i, exc, exc.__cause__)  # pickle drops the cause

    with _forked(work, len(firsts)) as children:
        try:
            yield submit, results
        except Exception as exc:
            if not failures:
                failures[len(owners)] = exc
            elif max(owners[: min(failures)], default=-1) < 0:
                raise  # no lower index is a worker's
        for child in children:
            child.inbox.close()
        for first, child in zip(firsts, children):
            if min(failures, default=first) < first:
                continue  # every item of this worker comes after a failure
            try:
                done, failure = pickle.load(child.results)
            except Exception:  # no result: killed by a signal, or a failure that did not pickle
                done, failure = {}, (first, RuntimeError(f"the process {doing(first)} exited without a result"), None)
            for i, value in done.items():
                results[i] = value
            if failure is not None:
                i, exc, exc.__cause__ = failure
                failures[i] = exc
        if failures:
            raise failures[min(failures)]


class _Child(NamedTuple):
    """A process that _forked started: its pid, the write end of the pipe it
    reads and the read end of the pipe its result comes back on."""

    pid: int
    inbox: BinaryIO
    results: BinaryIO


@contextlib.contextmanager
def _forked(work, n: int):
    """Fork n processes and yield their _Child handles, in order. Each runs
    work(inbox), inbox being a binary file of what the caller sends it, sends
    back its pickled return value, and exits: it never returns into the
    caller's stack. A failure sends nothing. Every child is killed and reaped
    before the block is left, by a return, a failure or KeyboardInterrupt."""
    children = []
    try:
        for _ in range(n):
            sys.stdout.flush()  # a child must not write out what the caller has buffered
            sys.stderr.flush()
            fds = os.pipe() + os.pipe()  # the child's inbox (read, write), then its results (read, write)
            try:
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                raise
            if pid == 0:
                code = 1
                try:
                    for child in children:  # an earlier child's inbox ends only when no process holds it open
                        child.inbox.close()
                        child.results.close()
                    os.close(fds[1])
                    os.close(fds[2])
                    with open(fds[0], "rb") as inbox:
                        payload = pickle.dumps(work(inbox))  # a failure to pickle sends no byte
                    with open(fds[3], "wb") as fh:
                        fh.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(fds[0])
            os.close(fds[3])
            children.append(_Child(pid, open(fds[1], "wb", buffering=0), open(fds[2], "rb")))
        yield children
    finally:
        for child in children:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
            child.inbox.close()
            child.results.close()
