import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from structlabor.calibration import _BLOCK
from structlabor.errors import DomainError
from structlabor import parallel
from structlabor.parallel import forked_map, split


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 23])
def test_forked_map_yields_every_result_in_order(cpus, n):
    # A lambda over data this process holds, reached through the fork, not
    # by pickling; more tasks than workers, too.
    data = np.arange(n) ** 2
    assert list(forked_map(lambda i: (i, int(data[i])), n)) == [(i, i * i) for i in range(n)]
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_split_gives_one_range_per_cpu_of_at_least_the_least_length(pin_cpus, n_cpus):
    pin_cpus(n_cpus)
    for n in range(40):
        ranges = split(n, 8)
        assert [i for r in ranges for i in r] == list(range(n))
        assert len(ranges) == max(1, min(n_cpus, n // 8))
        assert len(ranges) == 1 or min(map(len, ranges)) >= 8
        assert max(map(len, ranges)) - min(map(len, ranges)) <= 1


def test_task_i_runs_in_worker_i_mod_k_and_none_here(pin_cpus):
    pin_cpus(3)
    pids = list(forked_map(lambda i: os.getpid(), 8))
    assert [pids[i % 3] for i in range(8)] == pids
    assert len(set(pids)) == 3 and os.getpid() not in pids


def test_one_cpu_one_task_or_no_fork_runs_here(pin_cpus, monkeypatch):
    pin_cpus(1)
    assert list(forked_map(lambda i: os.getpid(), 4)) == [os.getpid()] * 4
    pin_cpus(2)
    assert list(forked_map(lambda i: os.getpid(), 1)) == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    assert list(forked_map(lambda i: os.getpid(), 4)) == [os.getpid()] * 4


def test_a_task_error_is_raised_in_the_parent(cpus):
    def task(i):
        if i == 3:
            raise DomainError(f"task {i} failed")
        return i

    seen = []
    with pytest.raises(DomainError, match="^task 3 failed$"):
        for result in forked_map(task, 10):
            seen.append(result)
    assert seen == [0, 1, 2]
    assert_no_child_left()


def test_forked_map_raises_a_worker_error_when_its_result_is_due(pin_cpus):
    # Two workers: task 2 is worker 0's second, after its first result (and
    # worker 1's) has been yielded.
    pin_cpus(2)

    def task(i):
        if i == 2:
            raise DomainError(f"task {i} failed")
        return i

    seen = []
    with pytest.raises(DomainError, match="^task 2 failed$") as err:
        for result in forked_map(task, 6):
            seen.append(result)
    assert seen == [0, 1]
    # Its cause holds the worker's traceback, down to the raise.
    assert 'raise DomainError(f"task {i} failed")' in str(err.value.__cause__)
    assert_no_child_left()


def test_forked_map_reports_a_worker_that_exits_without_a_result(pin_cpus):
    pin_cpus(2)
    with pytest.raises(ChildProcessError, match="^forked worker [0-9]+ exited without a result$"):
        list(forked_map(lambda i: os._exit(3) if i else i, 2))
    assert_no_child_left()


def test_forked_map_kills_the_workers_it_no_longer_reads(pin_cpus):
    # The consumer stops after the first result: the sleeping workers are
    # killed and reaped, not waited for.
    pin_cpus(3)
    started = time.perf_counter()
    results = forked_map(lambda i: i if i == 0 else time.sleep(60), 6)
    assert next(results) == 0
    results.close()
    assert time.perf_counter() - started < 30
    assert_no_child_left()


def test_a_signal_during_the_forks_is_raised_once_every_worker_is_listed(pin_cpus, monkeypatch):
    # SIGTERM arrives right after each fork, under a handler that raises as
    # the CLI's does: it waits until both workers are listed, so both are
    # killed and reaped rather than orphaned.
    pin_cpus(2)
    real_fork, forks = parallel._fork, []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            signal.raise_signal(signal.SIGTERM)
        return pid

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        # Workers run their tasks under the handlers the caller had.
        assert list(forked_map(lambda i: signal.getsignal(signal.SIGTERM) is terminate, 4)) == [True] * 4
        monkeypatch.setattr(parallel, "_fork", fork)
        with pytest.raises(SystemExit, match="^143$"):
            list(forked_map(lambda i: i, 4))
        assert signal.getsignal(signal.SIGTERM) is terminate
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(forks) == 2
    assert_no_child_left()


def test_forked_map_holds_one_worker_result_at_a_time(pin_cpus):
    # Twelve 1 MiB results from two workers, summed as they come: the peak
    # is the sum and the one being read, not all twelve.
    pin_cpus(2)
    tracemalloc.start()
    try:
        total = sum(forked_map(lambda i: np.full(1 << 17, i), 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.tolist() == [66] * (1 << 17)
    assert peak < 5 * 2**20


def test_a_task_error_never_leaves_the_map_waiting():
    # When a task fails, the other worker may be writing a 1 MB result into
    # its pipe; it is killed mid-way and the map returns.  A pool that waited
    # for such a partial message hung most runs within 40 failed maps, so
    # this runs 40 in a subprocess.
    code = (
        "from structlabor import parallel\n"
        "from structlabor.errors import DomainError\n"
        "parallel._cpu_count = lambda: 2\n"
        "def task(i):\n"
        "    if i == 0:\n"
        "        raise DomainError('task 0 failed')\n"
        "    return bytes(1 << 20)\n"
        "for _ in range(40):\n"
        "    try:\n"
        "        list(parallel.forked_map(task, 4))\n"
        "    except DomainError:\n"
        "        pass\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_default_runs_do_not_import_multiprocessing(tmp_path):
    # No module of the package imports multiprocessing, nor do the modules a
    # default run imports: default-sized outputs fit one chunk, calibrate
    # draws its blocks in this process until they fill two ranges of
    # _MIN_RANGE blocks, and forked workers need no multiprocessing.
    config = tmp_path / "blocks.json"
    config.write_text(json.dumps({"priors": {"n_draws": 2 * _BLOCK + 1}}), encoding="utf-8")
    code = (
        "import sys\n"
        "from structlabor.cli import main\n"
        "for command in ('portfolio', 'calibrate'):\n"
        f"    assert main([command, '--out', {str(tmp_path)!r} + '/' + command, '--quiet']) == 0\n"
        f"assert main(['calibrate', '--config', {str(config)!r}, '--out', {str(tmp_path / 'blocks')!r}, '--quiet']) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_roy_workers_do_linear_algebra_after_blas_has_started_threads():
    # A solve on a 300 x 300 matrix starts the BLAS library's threads in the
    # parent; the experiment's two replications then solve in two forked workers.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from structlabor import parallel\n"
        "from dataclasses import replace\n"
        "from defaults import DEFAULTS\n"
        "from structlabor.roy import dispersion_experiment\n"
        "rng = np.random.default_rng(0)\n"
        "np.linalg.solve(rng.standard_normal((300, 300)), rng.standard_normal(300))\n"
        "parallel._cpu_count = lambda: 2\n"
        "exp = replace(DEFAULTS.roy, n_initial=3, T=6, eval_window=3, n_workers=40, mu=0.4, replications=2)\n"
        "res = dispersion_experiment(exp, seed=1)\n"
        "print(len(res.base + res.treated), 'multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.split() == ["4", "False"]
