"""Ordered map over forked worker processes.

Tasks are closures over data the parent already holds.  Workers are
forked after the task exists, so they inherit it together with that data,
and only each task's result crosses a pipe.  Results come back in index
order, whatever the number of workers, so output built from them does not
depend on it.  :func:`forked_map` runs short tasks (the row chunks of a CSV
file, the replications of a Roy experiment) and long ones (the contiguous
ranges of :func:`split`, one per CPU) alike.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, TypeVar

T = TypeVar("T")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split(n: int, least: int) -> list[range]:
    """``range(n)`` cut into contiguous ranges for :func:`forked_map`: one
    per CPU, each at least ``least`` long, or ``[range(n)]`` when ``n`` is
    below ``2 * least``.  Lengths differ by at most one."""
    k = max(1, min(_cpu_count(), n // least))
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork in a process with threads.  Here those
        # are the BLAS library's idle workers: the OpenBLAS that numpy ships
        # shuts its thread pool down before a fork (a pthread_atfork handler),
        # so a worker starts its own and a task may still do linear algebra
        # (Roy solves do).
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        return os.fork()


@contextmanager
def _deferred_signals() -> Iterator[None]:
    """Catch SIGINT and SIGTERM and raise them again on leaving, yielding the
    ``(signal, handler)`` pairs held back: a handler that raises between a
    fork and the listing of its worker (``KeyboardInterrupt``, the CLI's
    ``SystemExit``) would orphan it.  Only the main thread runs handlers."""
    main = threading.current_thread() is threading.main_thread()
    held = [(s, h) for s in (signal.SIGINT, signal.SIGTERM) if main and (h := signal.getsignal(s)) is not None]
    caught: list[int] = []
    for s, _ in held:
        signal.signal(s, lambda signum, frame: caught.append(signum))
    try:
        yield held
    finally:
        for s, handler in held:
            signal.signal(s, handler)
        for signum in caught:
            signal.raise_signal(signum)


def _serve(task: Callable, tasks: range, pipe: int, inherited: list[int], handlers: list) -> None:
    """Run ``task(i)`` for each ``i`` of ``tasks`` in a forked worker,
    writing ``(result, None)`` or ``(exception, its traceback)`` to ``pipe``
    after each, and exit after the last or the first exception, never
    returning to the caller.  It first restores the signal ``handlers``
    the parent holds back and closes the parent's pipe ends, ``inherited``."""
    code = 1
    try:
        for s, handler in handlers:
            signal.signal(s, handler)
        for fd in inherited:
            os.close(fd)
        with os.fdopen(pipe, "wb") as out:
            for i in tasks:
                try:
                    outcome = (task(i), None)
                except Exception as exc:
                    outcome = (exc, traceback.format_exc())
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if outcome[1] is not None:
                    break
                del outcome  # a worker holds one result at a time, too
        code = 0
    finally:
        os._exit(code)


def forked_map(task: Callable[[int], T], n: int) -> Iterator[T]:
    """Yield ``task(0), ..., task(n - 1)`` in order, computed in ``k``
    workers forked before the first result is read, one per CPU up to
    ``n``: worker ``w`` runs tasks ``w, w + k, ...``.

    A worker writes each result to a pipe of its own, where the result
    waits until it is due (one larger than the pipe's buffer blocks the
    worker until it is read), so this process runs no task and holds at
    most one worker's result at a time, however many there are.  Runs
    serially in this process with one CPU, one task or no ``fork``.  A
    task's exception is raised here when its result is due, caused by a
    ``RuntimeError`` that holds the worker's traceback, and a worker that
    dies before a result it owes (killed, say) raises ``ChildProcessError``;
    the workers are then killed, as they are when the consumer stops early.
    """
    k = min(_cpu_count(), n)
    if k <= 1 or not hasattr(os, "fork"):
        yield from map(task, range(n))
        return
    workers: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        with _deferred_signals() as handlers:
            for w in range(k):
                read, write = os.pipe()
                pid = _fork()
                if pid == 0:
                    _serve(task, range(w, n, k), write, [read, *(pipe.fileno() for _, pipe in workers)], handlers)
                os.close(write)
                workers.append((pid, os.fdopen(read, "rb")))
        for i in range(n):
            pid, pipe = workers[i % k]
            try:
                result, trace = pickle.load(pipe)
            except EOFError:
                raise ChildProcessError(f"forked worker {pid} exited without a result") from None
            if trace is not None:
                raise result from RuntimeError(f"in forked worker {pid}:\n{trace}")
            yield result
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
