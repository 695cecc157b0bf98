"""Independent work items shared among the usable CPUs by forked workers.

`share(work, n)` runs `work(i)` for every item i < n and returns the
results in item order. Cross-validation shares its folds this way
(`evaluate.cross_validate`), ReliefF its blocks of sampled rows
(`rank.relieff`) and a forest its trees (`learn.train_forest`). The
calling process is one worker; the others are children forked before it
starts its own items, so a child reads whatever the caller built before
the call from the memory it shares with it, and sends back only its
results. Since the results are joined in item order, a caller that
combines them in that order gets the same bits for any worker count.

Shares do not nest: a share started while this process runs the items of
another one, in the caller or in a child, runs all its items here, in
order, and forks nothing. So a cross-validation forks only for its folds,
and each fold's forest grows its trees in the worker that has the fold.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")

_running = False  # this process, or the one that forked it, is running a share's items


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS cannot say or cannot fork."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def share(work: Callable[[int], T], n: int) -> list[T]:
    """`work(i)` for every item i < n, in item order.

    The workers are min(`usable_cpus()`, n), at least one, and item i goes
    to worker i % workers, so no worker is without an item. Worker 0 is
    this process; each other worker is a child forked before this process
    runs its own share, and sends back the results of the items it
    finished, pickled through a pipe. Then, in item order, this process
    runs every item that has no result: one whose child failed on it, died
    or could not be forked. Its own first failure is raised when that loop
    reaches the item, so the first failing item raises with its own type,
    text and traceback, as one worker would raise it. No child outlives the
    call: on any exception here, KeyboardInterrupt too, the children still
    running are killed and reaped. Called from inside an item of another
    share, it is `[work(i) for i in range(n)]`, and asks for no CPU count.
    """
    global _running
    if _running:
        return [work(i) for i in range(n)]
    workers = max(1, min(usable_cpus(), n))
    results: dict[int, T] = {}
    failed, failure = n, None  # this process's first failing item, and its exception
    children: dict[int, int] = {}  # pid -> pipe read end
    _running = True  # before the forks, so the children inherit it
    try:
        for w in range(1, workers):
            child = _fork(work, range(w, n, workers))
            if child is not None:
                children[child[0]] = child[1]
        for i in range(0, n, workers):
            try:
                results[i] = work(i)
            except Exception as exc:  # raised below unless an earlier item fails too
                failed, failure = i, exc
                break
        for pid, fd in list(children.items()):
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            os.waitpid(pid, 0)
            del children[pid]
            os.close(fd)
            with contextlib.suppress(Exception):  # an unreadable pickle: no results
                results.update(pickle.loads(b"".join(chunks)))
        for i in range(n):  # every child is reaped by now
            if i == failed:
                raise failure
            if i not in results:
                results[i] = work(i)
    finally:
        _running = False
        for pid, fd in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return [results[i] for i in range(n)]


def _fork(work: Callable[[int], T], items: range) -> tuple[int, int] | None:
    """Fork a child that runs `work` on each of `items`: (pid, pipe read end).

    None when the pipe or the fork fails. The child stops at the first item
    that raises, sends back one pickle, {item: result} of the items it
    finished, and leaves through os._exit(0) on every path, so no exception
    crosses the pipe, and the child never returns into the caller's stack
    nor flushes stdio buffers that the parent will flush too.

    Python 3.12+ warns that a fork may deadlock the child when the process
    has more than one thread, and numpy's OpenBLAS starts a thread of its
    own at import. The fork is safe here: it copies only the calling
    thread, neither caller's work makes a BLAS call that would need the
    missing one, and the child leaves through os._exit without running any
    exit handler. So the warning is muted, whatever the warning filters
    (`-W always`, `-X dev`, a test run's "error") say.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    try:
        os.close(r)
        results: dict[int, T] = {}
        with contextlib.suppress(Exception):  # the parent runs this item again
            for i in items:
                results[i] = work(i)
        view = memoryview(pickle.dumps(results))
        while view:
            view = view[os.write(w, view):]
    finally:
        os._exit(0)
