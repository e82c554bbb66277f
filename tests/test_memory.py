"""Allocation guards: the large commands hold their data plus a few columns.

Peaks are measured with ``tracemalloc``, which sees numpy's array buffers
as well as Python objects.  Panel bounds are in int64 columns of a
synthetic ordered panel of 2,000 periods x 100 families.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from structlabor.calibration import run_monte_carlo
from structlabor.errors import DomainError
from structlabor.estimators import MaturityPanel, count_births, detect_degradation
from structlabor.io import PANEL_COLUMNS, write_csv
from structlabor.parallel import ordered_map
from structlabor.portfolio import run_portfolio_scenario
from structlabor.schema import MAX_PANEL_ROWS

from defaults import DEFAULTS

PERIODS, FAMILIES = 2000, 100
COLUMN = 8 * PERIODS * FAMILIES


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ordered_columns():
    n = PERIODS * FAMILIES
    rng = np.random.Generator(np.random.Philox(key=3))
    return {
        "family_id": np.tile(np.arange(FAMILIES, dtype=np.int64), PERIODS),
        "period": np.repeat(np.arange(PERIODS, dtype=np.int64), FAMILIES),
        "maturity": rng.uniform(0.5, 2.0, size=n),
        "tech_window": rng.uniform(size=n) < 0.2,
        "org_window": rng.uniform(size=n) < 0.1,
    }


def test_ordered_panel_is_held_without_copies(ordered_columns):
    panel, peak = traced_peak(MaturityPanel, **ordered_columns)
    assert peak < COLUMN
    for name, column in ordered_columns.items():
        assert np.shares_memory(getattr(panel, name), column)


def as_table(columns):
    """The columns as strided views of one structured array, as the panel
    file reader returns them."""
    table = np.empty(PERIODS * FAMILIES, dtype=[(name, col.dtype) for name, col in columns.items()])
    for name, col in columns.items():
        table[name] = col
    return {name: table[name] for name in columns}


@pytest.mark.parametrize("layout", ["columns", "table"])
def test_detect_degradation_peak(ordered_columns, layout):
    if layout == "table":
        ordered_columns = as_table(ordered_columns)
    panel = MaturityPanel(**ordered_columns)
    flags, peak = traced_peak(detect_degradation, panel, DEFAULTS.estimate.rel_drop, DEFAULTS.estimate.horizon)
    assert flags.n_obs == (PERIODS - 1) * FAMILIES
    # The flags take half a column: a bool mask over the panel's rows and
    # three compressed bool columns.  The search adds a bool column of drops
    # and the list of block periods, about 40 bytes per period.
    assert peak <= 0.6 * COLUMN


@pytest.mark.parametrize("layout", ["columns", "table"])
def test_births_from_panel_peak(ordered_columns, layout):
    # Births are counted period by period, without a sorted copy
    # of the family column, and without a contiguous copy of a column that
    # is a strided view of one table, as the panel file reader returns.
    if layout == "table":
        ordered_columns = as_table(ordered_columns)
    panel = MaturityPanel(**ordered_columns)
    births, peak = traced_peak(count_births, panel)
    assert births.tolist() == [FAMILIES] + [0] * (PERIODS - 1)
    assert peak < COLUMN / 10


def test_scenario_holds_its_panel_and_little_else():
    # The panel columns are allocated once at their full length and filled
    # period by period; 100 families, no entry, no drift.
    n = FAMILIES
    initial = DEFAULTS.portfolio.initial
    additive = replace(initial.aggregator, kind="additive", rho=None)
    columns = {"omega": np.ones(n), "delta": np.full(n, 0.1), "k": np.ones(n), "born_at": np.zeros(n, dtype=np.int64)}
    p = replace(initial, **columns, aggregator=additive)
    entry = replace(DEFAULTS.portfolio.entry, mu=0.0)
    # A first run pays one-time costs (about 1 MB of lazily built module state).
    run_portfolio_scenario(p, 1.0, entry, 1, seed=0)
    scenario, peak = traced_peak(run_portfolio_scenario, p, 1.0, entry, PERIODS - 1, seed=0)
    panel_bytes = sum(getattr(scenario, name).nbytes for name in PANEL_COLUMNS)
    assert len(scenario.family_id) == PERIODS * FAMILIES
    assert peak <= 1.1 * panel_bytes


def test_scenario_beyond_the_row_bound_is_refused_before_its_panel():
    # 10,000 families over 2,000 transitions would record 20,010,000 rows,
    # about 0.9 GB; the refusal comes while the entrants are drawn, before
    # the roster and the panel are allocated.
    n, T = 10_000, 2000
    assert n * (T + 1) > MAX_PANEL_ROWS
    initial = DEFAULTS.portfolio.initial
    columns = {"omega": np.ones(n), "delta": np.full(n, 0.1), "k": np.ones(n), "born_at": np.zeros(n, dtype=np.int64)}
    p = replace(initial, **columns)
    entry = replace(DEFAULTS.portfolio.entry, mu=0.0)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^panel out of range"):
            run_portfolio_scenario(p, 1.0, entry, T, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COLUMN


def test_write_csv_memory_is_bounded_by_a_small_chunk(tmp_path, pin_cpus):
    # Four times the rows of a 16,384-row write cost at most half as much
    # again, so the writer renders no more than about 16,384 rows at a time.
    # One CPU: tracemalloc sees only this process, not forked workers.
    pin_cpus(1)

    def peak(rows):
        rng = np.random.Generator(np.random.Philox(key=5))
        columns = [
            np.arange(rows) % 200,
            np.arange(rows) // 200,
            rng.uniform(size=rows),
            rng.uniform(size=rows),
            rng.uniform(size=rows),
            rng.uniform(size=rows) < 0.2,
            rng.uniform(size=rows) < 0.1,
        ]
        return traced_peak(write_csv, str(tmp_path / f"panel-{rows}.csv"), PANEL_COLUMNS, columns)[1]

    assert peak(4 * 16_384) <= 1.5 * peak(16_384)


def test_ordered_map_holds_few_results_from_its_workers(pin_cpus):
    # Workers run at most two tasks each ahead of the consumer, so with a
    # consumer slower than the workers, 40 results of 1 MiB cost this
    # process little more than 8: a chunked write's peak does not grow with
    # the file.
    pin_cpus(2)
    list(ordered_map(bytes, 2))  # pays one-time costs (importing multiprocessing)

    def peak(n):
        def consume():
            for chunk in ordered_map(lambda i: bytes(1 << 20), n):
                time.sleep(0.02)

        return traced_peak(consume)[1]

    assert peak(40) <= 1.5 * peak(8)


def test_run_monte_carlo_memory_does_not_grow_with_the_draws():
    # The sample is regenerated block by block, never held: four times the
    # draws cost no more memory, and the peak (a sampling block, its
    # temporaries and the histogram of bit patterns) is far below the 8n
    # bytes a held sample would take.
    run_monte_carlo(replace(DEFAULTS.priors, n_draws=1000))  # pays one-time costs

    def peak(n):
        result, peak = traced_peak(run_monte_carlo, replace(DEFAULTS.priors, n_draws=n, seed=1))
        assert result.n_draws == n
        return peak

    small, large = peak(1_000_000), peak(4_000_000)
    assert large <= small + 2**20
    assert large < 8 * 4_000_000 / 3


@pytest.mark.parametrize("n_cpus", [8, 16])
def test_run_monte_carlo_memory_does_not_grow_with_the_cpus(pin_cpus, n_cpus):
    # 8M draws fill eight ranges on eight CPUs and fifteen on sixteen, 1M
    # draws two: this process reads the workers' histograms one at a time,
    # so the peak is the same as with two ranges.
    run_monte_carlo(replace(DEFAULTS.priors, n_draws=1000))
    pin_cpus(n_cpus)
    small = traced_peak(run_monte_carlo, replace(DEFAULTS.priors, n_draws=1_000_000, seed=1))[1]
    large = traced_peak(run_monte_carlo, replace(DEFAULTS.priors, n_draws=8_000_000, seed=1))[1]
    assert large <= small + 2**20
