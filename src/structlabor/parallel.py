"""Ordered map over forked worker processes.

Tasks are closures over data the parent already holds.  Workers are
forked after the task exists, so they inherit it together with that data,
and only each task's index and result cross a pipe.  Results come back
in index order, whatever the number of workers, so output built from
them does not depend on it.

A task may do linear algebra even after the parent's BLAS library has
started its threads: the OpenBLAS that numpy ships shuts its thread pool
down before a ``fork`` (a ``pthread_atfork`` handler), so a forked worker
starts its own.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

# The task of a worker process, set once as it starts.
_task: Callable | None = None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _install(task: Callable) -> None:
    global _task
    _task = task


def _run(i: int):
    return _task(i)


def ordered_map(task: Callable[[int], T], n: int) -> Iterator[T]:
    """Yield ``task(0), ..., task(n - 1)`` in order, computed in up to one
    forked worker per CPU.

    Runs serially in this process with one CPU, one task, or no ``fork``.
    At most two results per worker are in flight, so a slow consumer holds
    few of them.  A task's exception is raised here when its result is due,
    after the tasks already in flight have finished.
    """
    workers = min(_cpu_count(), n)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        yield from map(task, range(n))
        return
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork in a process with threads.  Here those
        # are the BLAS library's idle workers, which it shuts down before the
        # fork, so a task may still do linear algebra (Roy solves do).
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pool = multiprocessing.get_context("fork").Pool(workers, _install, (task,))
    try:
        window = 2 * workers
        pending = deque(pool.apply_async(_run, (i,)) for i in range(min(window, n)))
        for i in range(window, n + window):
            result = pending.popleft().get()
            if i < n:
                pending.append(pool.apply_async(_run, (i,)))
            yield result
    finally:
        # The workers finish their tasks and exit; terminating them instead
        # can kill one mid-way through writing a result, and the pool's result
        # thread then waits forever on the partial message.
        pool.close()
        pool.join()
