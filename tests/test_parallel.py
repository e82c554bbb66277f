import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from structlabor.calibration import _BLOCK
from structlabor.errors import DomainError
from structlabor.parallel import ordered_map


@pytest.mark.parametrize("n", [0, 1, 2, 5, 23])
def test_ordered_map_yields_every_result_in_order(cpus, n):
    # More tasks than the in-flight window of two per worker, too.
    data = np.arange(n) ** 2
    assert list(ordered_map(lambda i: (i, int(data[i])), n)) == [(i, i * i) for i in range(n)]


def test_tasks_run_in_forked_workers(cpus):
    # Tasks reach the workers through the fork, not by pickling, so a task
    # may be a lambda.
    pids = set(ordered_map(lambda i: os.getpid(), 6))
    assert (pids == {os.getpid()}) == (cpus == 1)


def test_one_task_or_no_fork_stays_in_process(pin_cpus, monkeypatch):
    pin_cpus(2)
    assert list(ordered_map(lambda i: os.getpid(), 1)) == [os.getpid()]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert set(ordered_map(lambda i: os.getpid(), 4)) == {os.getpid()}


def test_a_task_error_is_raised_in_the_parent(cpus):
    def task(i):
        if i == 3:
            raise DomainError(f"task {i} failed")
        return i

    seen = []
    with pytest.raises(DomainError, match="^task 3 failed$"):
        for result in ordered_map(task, 10):
            seen.append(result)
    assert seen == [0, 1, 2]


def test_a_task_error_never_leaves_the_pool_waiting():
    # When a task fails, the tasks still in flight send their results while
    # the map shuts its pool down.  Killing a worker mid-way through such a
    # write left the pool waiting forever on a partial message, most runs
    # within 40 failed maps of 1 MB results; so this runs 40 in a subprocess.
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
        "        list(parallel.ordered_map(task, 4))\n"
        "    except DomainError:\n"
        "        pass\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_default_runs_do_not_import_multiprocessing(tmp_path):
    # Default-sized outputs fit one chunk, so the serial path runs and small
    # runs never pay for importing multiprocessing; calibrate sums its blocks
    # in this process, however many there are.
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
    # parent; the experiment's arms then solve in two forked workers.
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
        "exp = replace(DEFAULTS.roy.experiment, n_initial=3, T=6, eval_window=3, n_workers=40, mu=0.4)\n"
        "res = dispersion_experiment(exp, 'mu', factor=2.0, replications=2, seed=1)\n"
        "print(len(res.base + res.treated), 'multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.split() == ["4", "True"]
