"""Ordered map over forked worker processes.

Tasks are closures over data the parent already holds.  Workers are
forked after the task exists, so they inherit it together with that data,
and only each task's index and result cross a pipe.  Results come back
in index order, whatever the number of workers, so output built from
them does not depend on it.  :func:`ordered_map` runs many short tasks on
a pool of workers; :func:`forked_map` runs a few long ones, such as the
contiguous ranges of :func:`split`, one per CPU, each in a worker of its
own but the first, which runs in this process.

A task may do linear algebra even after the parent's BLAS library has
started its threads: the OpenBLAS that numpy ships shuts its thread pool
down before a ``fork`` (a ``pthread_atfork`` handler), so a forked worker
starts its own.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
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


def split(n: int, least: int) -> list[range]:
    """``range(n)`` cut into contiguous ranges for :func:`forked_map`: one
    per CPU, each at least ``least`` long, or ``[range(n)]`` when ``n`` is
    below ``2 * least``.  Lengths differ by at most one."""
    k = max(1, min(_cpu_count(), n // least))
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork in a process with threads; see ordered_map.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        return os.fork()


def _serve(task: Callable, i: int, pipe: int, inherited: list[int]) -> None:
    """Run ``task(i)`` in a forked worker, write ``(result, None)`` or
    ``(exception, its traceback)`` to ``pipe`` and exit, never returning to
    the caller.  ``inherited`` are the parent's pipe ends, closed first."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(pipe, "wb") as out:
            try:
                outcome = (task(i), None)
            except Exception as exc:
                outcome = (exc, traceback.format_exc())
            pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def forked_map(task: Callable[[int], T], n: int) -> Iterator[T]:
    """Yield ``task(0), ..., task(n - 1)`` in order: task 0 in this
    process, each other task in a worker forked for it before task 0 starts.

    A worker writes its result to a pipe of its own and waits there until
    the result is due, so this process holds at most one worker's result
    at a time, however many there are.  Runs serially with one task or no
    ``fork``.  A task's exception is raised here when its result is due,
    caused by a ``RuntimeError`` that holds the worker's traceback; the
    workers whose results are not read by then are killed.
    """
    if n <= 1 or not hasattr(os, "fork"):
        yield from map(task, range(n))
        return
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe), results not yet read
    try:
        for i in range(1, n):
            read, write = os.pipe()
            pid = _fork()
            if pid == 0:
                _serve(task, i, write, [read, *(fd for _, fd in workers)])
            os.close(write)
            workers.append((pid, read))
        yield task(0)
        while workers:
            pid, read = workers.pop(0)
            try:
                with os.fdopen(read, "rb") as pipe:
                    result, trace = pickle.load(pipe)
            except EOFError:
                raise RuntimeError(f"forked worker {pid} exited without a result") from None
            finally:
                os.waitpid(pid, 0)
            if trace is not None:
                raise result from RuntimeError(f"in forked worker {pid}:\n{trace}")
            yield result
    finally:
        for pid, read in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
