import math
from dataclasses import replace

import numpy as np
import pytest

from structlabor.cli import indices
from structlabor.errors import DomainError
from structlabor.estimators import (
    DegradationFlags,
    MaturityPanel,
    count_births,
    detect_degradation,
    estimate_hazard_decomposition,
)
from structlabor.portfolio import (
    DriftConfig,
    PowerCodification,
    aggregate_capability,
    periodic_windows,
    run_portfolio_scenario,
)
from structlabor.schema import MAX_HORIZON

from defaults import DEFAULTS, scenario_panel

TECH = PowerCodification(beta=0.5)
# The config's initial portfolio, aggregator (CES at rho 0.5) and entry.
INITIAL = DEFAULTS.portfolio.initial
CES = INITIAL.aggregator
ADD = replace(CES, rho=1.0)  # the additive index
ENTRY = DEFAULTS.portfolio.entry


def detect(panel, **given):
    """``detect_degradation`` with the config's rel_drop and horizon, unless given."""
    options = {"rel_drop": DEFAULTS.estimate.rel_drop, "horizon": DEFAULTS.estimate.horizon, **given}
    return detect_degradation(panel, **options)


def panel_from(rows):
    """A panel from (family_id, period, maturity, tech_window, org_window) rows."""
    fam, per, mat, tw, ow = zip(*rows) if rows else ((),) * 5
    return MaturityPanel(
        family_id=np.asarray(fam, dtype=np.int64),
        period=np.asarray(per, dtype=np.int64),
        maturity=np.asarray(mat, dtype=float),
        tech_window=np.asarray(tw, dtype=bool),
        org_window=np.asarray(ow, dtype=bool),
    )


def test_panel_validation():
    with pytest.raises(DomainError):
        panel_from([(0, 0, 1.0, False, False), (0, 0, 0.9, False, False)])
    with pytest.raises(DomainError):
        panel_from([(0, -1, 1.0, False, False)])
    with pytest.raises(DomainError):
        panel_from([(0, 0, -1.0, False, False)])
    with pytest.raises(DomainError):
        panel_from([(0, 0, math.nan, False, False)])
    with pytest.raises(DomainError, match="family_id must be one-dimensional"):
        MaturityPanel(
            family_id=[[0], [1]], period=[0, 0], maturity=[1.0, 1.0], tech_window=[False] * 2, org_window=[False] * 2
        )
    p = panel_from([(0, 0, 1.0, False, True), (1, 0, 2.0, True, False)])
    assert p.n_obs == 2


def test_panel_holds_rows_in_period_family_order():
    rows = [
        (2, 1, 0.5, True, False),
        (0, 1, 0.7, False, True),
        (1, 0, 2.0, False, False),
        (2, 0, 1.0, True, True),
        (0, 0, 3.0, False, False),
    ]
    p = panel_from(rows)
    expected = sorted(rows, key=lambda row: (row[1], row[0]))
    assert p.family_id.tolist() == [row[0] for row in expected]
    assert p.period.tolist() == [row[1] for row in expected]
    assert p.maturity.tolist() == [row[2] for row in expected]
    assert p.tech_window.tolist() == [row[3] for row in expected]
    assert p.org_window.tolist() == [row[4] for row in expected]


def test_panel_rejects_non_adjacent_duplicates():
    rows = [(0, 0, 1.0, False, False), (1, 0, 1.0, False, False), (0, 1, 1.0, False, False), (0, 0, 2.0, False, False)]
    with pytest.raises(DomainError, match=r"\(family_id, period\) pairs must be unique"):
        panel_from(rows)


def test_panel_rejects_adjacent_duplicates_without_sorting(monkeypatch):
    # Rows already in (period, family_id) order are never sorted, so the
    # uniqueness rule must hold on that path too.
    def no_sort(keys):
        raise AssertionError("ordered input was sorted")

    monkeypatch.setattr(np, "lexsort", no_sort)
    ordered = [(0, 0, 1.0, False, False), (1, 0, 1.0, False, False), (0, 1, 1.0, False, False)]
    assert panel_from(ordered).n_obs == 3
    with pytest.raises(DomainError, match=r"\(family_id, period\) pairs must be unique"):
        panel_from([*ordered[:2], (1, 0, 2.0, True, False), ordered[2]])


def test_shuffled_panel_is_sorted_into_the_ordered_build():
    sc = stationary_scenario(12, 40, seed=2)
    ordered = scenario_panel(sc)
    assert np.shares_memory(ordered.maturity, sc.maturity)
    shuffle = np.random.default_rng(1).permutation(ordered.n_obs)
    shuffled = MaturityPanel(
        family_id=sc.family_id[shuffle],
        period=sc.period[shuffle],
        maturity=sc.maturity[shuffle],
        tech_window=sc.tech_window[shuffle],
        org_window=sc.org_window[shuffle],
    )
    for name in ("family_id", "period", "maturity", "tech_window", "org_window"):
        got, want = getattr(shuffled, name), getattr(ordered, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_detect_degradation_flags_the_right_transitions():
    p = panel_from([
        (0, 0, 1.0, False, False),
        (0, 1, 0.5, True, False),
        (0, 2, 0.45, False, False),
    ])
    out = detect_degradation(p, rel_drop=0.2, horizon=1)
    assert out.n_obs == 2
    assert list(p.period[out.observed]) == [0, 1]
    # 0.5 < 0.8 * 1.0 flags; 0.45 >= 0.8 * 0.5 does not.
    assert list(out.flag) == [True, False]
    # Window markers travel with the start of the transition.
    assert list(out.tech_window) == [False, True]


def test_detect_degradation_longer_horizon():
    p = panel_from([
        (0, 0, 1.0, False, False),
        (0, 1, 0.9, False, False),
        (0, 2, 0.45, False, False),
    ])
    out = detect_degradation(p, rel_drop=0.2, horizon=2)
    assert out.n_obs == 1
    assert list(out.flag) == [True]


def test_detect_degradation_skips_gaps():
    p = panel_from([
        (0, 0, 1.0, False, False),
        (0, 2, 0.1, False, False),
        (1, 0, 1.0, False, False),
        (1, 1, 0.1, False, False),
    ])
    out = detect_degradation(p, rel_drop=0.2, horizon=1)
    # Family 0 has no consecutive pair; only family 1 contributes.
    assert out.n_obs == 1
    assert list(p.family_id[out.observed]) == [1]
    assert list(out.flag) == [True]


def test_detect_degradation_keys_do_not_overflow():
    # family * (max period + horizon + 1) would pass 2**63 here.
    t = 2**23 - 1
    big = 2**40
    p = panel_from([
        (0, t, 1.0, False, False),
        (0, t + 1, 1.0, False, False),
        (big, t, 1.0, False, False),
        (big, t + 1, 0.5, False, False),
    ])
    out = detect_degradation(p, rel_drop=0.2, horizon=1)
    assert out.n_obs == 2
    assert list(p.family_id[out.observed]) == [0, big]
    assert list(out.flag) == [False, True]


def test_detect_degradation_negative_family_ids():
    p = panel_from([
        (3, 0, 1.0, False, False),
        (-5, 1, 0.5, False, False),
        (-5, 0, 1.0, False, False),
        (3, 1, 0.9, False, False),
        (-7, 1, 1.0, False, False),
    ])
    out = detect_degradation(p, rel_drop=0.2, horizon=1)
    assert list(p.family_id[out.observed]) == [-5, 3]
    assert list(p.period[out.observed]) == [0, 0]
    assert list(out.flag) == [True, False]


def random_rows(seed, periods, ids, presence=0.7):
    """Rows (family_id, period, maturity, tech_window, org_window) over the
    given periods and ids, each pair present with probability ``presence``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [
        (f, t, float(rng.uniform(0.0, 2.0)), bool(rng.uniform() < 0.3), bool(rng.uniform() < 0.2))
        for t in periods for f in ids if rng.uniform() < presence
    ]


def degradation_oracle(rows, horizon):
    """(family_id, period, flag, tech_window, org_window) of every pair (j, t), (j, t + horizon)."""
    maturity = {(f, t): k for f, t, k, _, _ in rows}
    return [
        (f, t, maturity[f, t + horizon] < 0.8 * k, tw, ow)
        for f, t, k, tw, ow in sorted(rows, key=lambda r: (r[1], r[0]))
        if (f, t + horizon) in maturity
    ]


def births_oracle(rows):
    """Families first seen at each period 0..last period."""
    first = {}
    for f, t, *_ in sorted(rows, key=lambda r: r[1]):
        first.setdefault(f, t)
    return [sum(1 for t in first.values() if t == s) for s in range(max(r[1] for r in rows) + 1)]


def assert_matches_oracles(rows):
    panel = panel_from(rows)
    for horizon in (1, 2, 3):
        out = detect_degradation(panel, rel_drop=0.2, horizon=horizon)
        want = degradation_oracle(rows, horizon)
        columns = (panel.family_id[out.observed], panel.period[out.observed], out.flag, out.tech_window, out.org_window)
        got = zip(*(c.tolist() for c in columns))
        assert list(got) == want
        assert any(row[2] for row in want) and not all(row[2] for row in want)
    assert count_births(panel).tolist() == births_oracle(rows)


@pytest.mark.parametrize("id_step", [1, 3, 2**40])
def test_detect_degradation_matches_a_pairwise_oracle(id_step):
    # An unbalanced panel with gaps over ids -40, -40 + step, ...: dense,
    # sparse and far-apart ids, some negative.
    assert_matches_oracles(random_rows(8, range(40), [-40 + id_step * j for j in range(30)]))


def one_row_per_period():
    rng = np.random.Generator(np.random.Philox(key=9))
    return [(int(rng.integers(3)), t, float(rng.uniform(0.0, 2.0)), bool(rng.uniform() < 0.3), False) for t in range(80)]


# Panels whose period blocks are degenerate: a single row each, periods
# missing between blocks, and no block at period 0.
BLOCK_PANELS = {
    "one-row-per-period": one_row_per_period,
    "gaps": lambda: random_rows(10, sorted({3 * t + t % 2 for t in range(30)} | {1, 2}), range(12)),
    "late-start": lambda: random_rows(11, range(57, 97), range(5, 25), 0.6),
}


@pytest.mark.parametrize("kind", BLOCK_PANELS)
def test_block_walks_match_pairwise_oracles(kind):
    assert_matches_oracles(BLOCK_PANELS[kind]())


@pytest.mark.parametrize("order", ["in-order", "shuffled", "empty"])
def test_panel_blocks_bound_the_period_runs(order):
    rows = sorted(BLOCK_PANELS["gaps"](), key=lambda r: (r[1], r[0]))
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(4).permutation(len(rows))]
    elif order == "empty":
        rows = []
    periods = sorted(r[1] for r in rows)
    runs = [i for i in range(1, len(periods)) if periods[i] != periods[i - 1]]
    blocks = panel_from(rows).blocks
    assert blocks == ([0, *runs, len(periods)] if periods else [0])
    assert all(type(b) is int for b in blocks)


def test_detect_degradation_zero_maturity_never_flags():
    p = panel_from([(0, 0, 0.0, False, False), (0, 1, 0.0, False, False)])
    out = detect_degradation(p, rel_drop=0.2, horizon=1)
    assert list(out.flag) == [False]


def test_detect_degradation_validation():
    p = panel_from([(0, 0, 1.0, False, False), (0, 1, 0.5, False, False)])
    with pytest.raises(DomainError):
        detect(p, rel_drop=0.0)
    with pytest.raises(DomainError):
        detect(p, rel_drop=1.0)
    with pytest.raises(DomainError):
        detect(p, horizon=0)
    # Periods are int64, so no horizon beyond that range is taken; at its
    # end, t + horizon is computed exactly and names no period.
    with pytest.raises(DomainError, match="horizon must be an integer"):
        detect(p, horizon=MAX_HORIZON + 1)
    assert detect(p, horizon=MAX_HORIZON).n_obs == 0
    with pytest.raises(DomainError):
        detect(panel_from([]), rel_drop=0.2)


def make_flags(cells):
    """Flags with given per-cell (n, n_flagged); cells keyed (tech, org)."""
    flag, tw, ow = [], [], []
    for (in_tech, in_org), (n, hits) in cells.items():
        for i in range(n):
            flag.append(i < hits)
            tw.append(in_tech)
            ow.append(in_org)
    return DegradationFlags(
        observed=np.ones(len(flag), dtype=bool),
        flag=np.asarray(flag, dtype=bool),
        tech_window=np.asarray(tw, dtype=bool),
        org_window=np.asarray(ow, dtype=bool),
    )


def test_hazard_decomposition_exact_cell_arithmetic():
    flags = make_flags({
        (False, False): (10, 2),
        (True, False): (5, 2),
        (False, True): (4, 1),
        (True, True): (2, 2),
    })
    est = estimate_hazard_decomposition(flags)
    assert est.env == pytest.approx(0.2)
    assert est.tech == pytest.approx(0.4 - 0.2)
    assert est.org == pytest.approx(0.25 - 0.2)
    assert est.delta_hat == pytest.approx(0.2 + 0.2 + 0.05)
    assert est.n_obs == 21
    assert est.cells[(False, False)].count == 10
    assert est.cells[(True, True)].mean == 1.0
    assert est.se_env == pytest.approx(math.sqrt(0.2 * 0.8 / 10))
    assert est.se_tech == pytest.approx(math.sqrt(0.4 * 0.6 / 5 + 0.2 * 0.8 / 10))


def test_hazard_decomposition_missing_cells_are_none():
    flags = make_flags({(False, False): (10, 1), (True, False): (5, 3)})
    est = estimate_hazard_decomposition(flags)
    assert est.org is None and est.se_org is None
    assert est.delta_hat == pytest.approx(est.env + est.tech)


def test_hazard_decomposition_negative_contrasts_clip_to_zero():
    flags = make_flags({(False, False): (10, 5), (True, False): (10, 2)})
    est = estimate_hazard_decomposition(flags)
    assert est.tech == 0.0


def test_hazard_decomposition_requires_a_baseline_cell():
    flags = make_flags({(True, False): (5, 1)})
    with pytest.raises(DomainError):
        estimate_hazard_decomposition(flags)


def stationary_scenario(J, T, seed, env=0.05, tech=0.10, org=0.03):
    # Families start at the stock level their equal labor share maintains,
    # so only drift events move maturity.
    kbar = TECH.g(1.0 / J) / 0.15
    p = replace(
        INITIAL, omega=np.ones(J), delta=np.full(J, 0.15), k=np.full(J, kbar),
        born_at=np.zeros(J, dtype=np.int64), aggregator=ADD, tech=TECH,
    )
    drift = DriftConfig(
        env_hazard=env, tech_hazard=tech, org_hazard=org,
        tech_windows=periodic_windows(1, 4, T),
        org_windows=periodic_windows(3, 5, T),
        drop_frac=0.5,
    )
    return run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.0), T=T, seed=seed, drift=drift)


def test_generated_panel_recovers_the_hazards():
    sc = stationary_scenario(50, 200, seed=6)
    est = estimate_hazard_decomposition(detect(scenario_panel(sc)))
    assert abs(est.env - 0.05) < 0.01
    assert abs(est.tech - 0.10) < 0.01
    assert abs(est.org - 0.03) < 0.01


def test_zero_tech_hazard_estimates_within_noise():
    # Windows are declared but carry no extra hazard; the estimate must
    # stay inside two standard errors of zero.
    for seed in (0, 1):
        sc = stationary_scenario(50, 200, seed=seed, tech=0.0)
        est = estimate_hazard_decomposition(detect(scenario_panel(sc)))
        assert est.tech < 2.0 * est.se_tech


def test_estimates_tighten_with_panel_size():
    for seed in (1, 3):
        small = stationary_scenario(50, 200, seed=seed)
        large = stationary_scenario(500, 200, seed=seed)
        errs = []
        for sc in (small, large):
            est = estimate_hazard_decomposition(detect(scenario_panel(sc)))
            errs.append(max(abs(est.env - 0.05), abs(est.tech - 0.10), abs(est.org - 0.03)))
        assert errs[1] < errs[0]
        assert errs[1] < 0.005


def test_shuffled_panel_gives_the_same_estimates():
    sc = stationary_scenario(30, 80, seed=4)
    panel = scenario_panel(sc)
    shuffle = np.random.default_rng(0).permutation(panel.n_obs)
    shuffled = MaturityPanel(
        family_id=panel.family_id[shuffle],
        period=panel.period[shuffle],
        maturity=panel.maturity[shuffle],
        tech_window=panel.tech_window[shuffle],
        org_window=panel.org_window[shuffle],
    )

    def flag_set(panel, flags):
        rows = (panel.family_id[flags.observed], panel.period[flags.observed], flags.flag, flags.tech_window, flags.org_window)
        return set(zip(*(c.tolist() for c in rows)))

    flags, shuffled_flags = detect(panel), detect(shuffled)
    assert flag_set(shuffled, shuffled_flags) == flag_set(panel, flags)
    est, shuffled_est = estimate_hazard_decomposition(flags), estimate_hazard_decomposition(shuffled_flags)
    for name in ("delta_hat", "env", "tech", "org", "se_env", "se_tech", "se_org", "n_obs", "cells"):
        assert getattr(shuffled_est, name) == getattr(est, name)

    births = count_births(panel)
    assert births.tolist() == count_births(shuffled).tolist()
    assert births.tolist() == np.bincount(sc.final.born_at, minlength=81).tolist()


def test_count_births_counts_a_returning_family_once():
    # Family 5 leaves after period 1 and returns at 3; period 2 has no rows,
    # and ids may be negative.
    f = False
    p = panel_from([
        (-2, 1, 1.0, f, f), (5, 1, 1.0, f, f),
        (7, 3, 1.0, f, f), (5, 3, 1.0, f, f), (-2, 3, 1.0, f, f),
        (9, 4, 1.0, f, f), (-3, 4, 1.0, f, f), (7, 4, 1.0, f, f),
    ])
    assert count_births(p).tolist() == [0, 2, 0, 1, 2]


def test_count_births():
    f = False
    # Family 0 at every period, families 1 and 2 from period 2.
    rows = [(0, 0, 1.0, f, f), (0, 1, 1.0, f, f), (0, 2, 1.0, f, f), (1, 2, 1.0, f, f), (2, 2, 1.0, f, f)]
    assert count_births(panel_from(rows)).tolist() == [1, 0, 2]
    assert count_births(panel_from(rows + [(0, 5, 1.0, f, f)])).tolist() == [1, 0, 2, 0, 0, 0]
    rows = [(0, 0, 1.0, f, f), (3, 1, 1.0, f, f), (1, 3, 1.0, f, f), (2, 3, 1.0, f, f), (3, 3, 1.0, f, f)]
    assert count_births(panel_from(rows)).tolist() == [1, 1, 0, 2]


@pytest.mark.parametrize("T", [2**62, 2**63 - 1])
def test_count_births_beyond_the_array_size_limit_is_a_domain_error(T):
    f = False
    panel = panel_from([(0, 0, 1.0, f, f), (0, 1, 1.0, f, f), (1, T, 1.0, f, f)])
    with pytest.raises(DomainError, match=f"at T = {T}$"):
        count_births(panel)


def test_count_births_refuses_an_empty_panel():
    with pytest.raises(DomainError, match="panel is empty"):
        count_births(panel_from([]))


def panel_capability(panel, roster):
    """The capability index at each of the panel's periods, rebuilt from its rows.

    ``roster`` holds every panel family at the row its id names, and
    supplies its weight and the aggregator, as a scenario's ``final``
    portfolio does.
    """
    pos = panel.family_id
    assert ((0 <= pos) & (pos < roster.size)).all()
    bounds = panel.blocks
    return np.array([
        aggregate_capability(roster.omega[pos[lo:hi]], panel.maturity[lo:hi], roster.aggregator)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


@pytest.mark.parametrize(
    "aggregator",
    [ADD, replace(CES, rho=-0.5), CES],
    ids=["additive", "ces-complements", "ces-substitutes"],
)
def test_scenario_indices_equal_the_scenario_capability(aggregator):
    # Entry and drift on; family 0 starts at zero maturity, which zeroes a
    # complements index until labor reaches it.
    J, T = 6, 60
    p = replace(
        INITIAL, omega=np.linspace(0.5, 2.0, J), delta=np.full(J, 0.12),
        k=np.r_[0.0, np.linspace(0.5, 1.5, J - 1)], born_at=np.zeros(J, dtype=np.int64),
        aggregator=aggregator, tech=TECH,
    )
    drift = DriftConfig(
        env_hazard=0.05, tech_hazard=0.1, org_hazard=0.0,
        tech_windows=periodic_windows(2, 5, T), org_windows=frozenset(), drop_frac=0.5,
    )
    sc = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.4), T=T, seed=11, drift=drift)
    assert sc.final.size > J and sc.event_period.size
    panel = scenario_panel(sc)
    period, capability, share, n_families = indices(sc, 1.0)
    assert period.tolist() == panel.period[panel.blocks[:-1]].tolist()
    assert capability.tolist() == panel_capability(panel, sc.final).tolist()
    assert share.tolist() == sc.labor_budget.tolist()
    assert n_families.tolist() == np.diff(panel.blocks).tolist()
