import math
from dataclasses import fields, replace

import numpy as np
import pytest

from structlabor.errors import DomainError
from structlabor.portfolio import (
    AggregatorSpec,
    DriftConfig,
    EntryConfig,
    Portfolio,
    PowerCodification,
    aggregate_capability,
    allocate_labor,
    effective_weights,
    periodic_windows,
    run_portfolio_scenario,
    step_portfolio,
)

from defaults import DEFAULTS
from oracles import (
    allocate_bisection,
    allocation_value,
    g_inv,
    g_prime_inv,
    grid_allocation_value,
    maintenance_labor,
    run_portfolio_scenario_reference,
    validate_codification,
)

TECH = PowerCodification(beta=0.5)

# The config's initial portfolio, aggregator (CES at rho 0.5) and entry.
INITIAL = DEFAULTS.portfolio.initial
CES = INITIAL.aggregator
ADD = replace(CES, rho=1.0)  # the additive index
ENTRY = DEFAULTS.portfolio.entry


def capability(p):
    return aggregate_capability(p.omega, p.k, p.aggregator)


def weights(p):
    return effective_weights(p.omega, p.k, p.aggregator, p.Lambda)


def allocate(p, budget):
    return allocate_labor(weights(p), p.tech, budget)


def make_portfolio(stocks, omegas=None, aggregator=CES, Lambda=1.0, deltas=None):
    n = len(stocks)
    return Portfolio(
        omega=omegas if omegas is not None else np.ones(n),
        delta=deltas if deltas is not None else np.full(n, 0.1),
        k=stocks,
        born_at=np.zeros(n, dtype=np.int64),
        aggregator=aggregator,
        tech=TECH,
        Lambda=Lambda,
    )


TWO_FAMILIES = {"omega": [1.0, 1.0], "delta": [0.1, 0.1], "k": [1.0, 1.0], "born_at": [0, 0]}

# One row per check a portfolio makes on its columns: (column overrides, message).
COLUMN_CHECKS = {
    "omega-zero": ({"omega": [1.0, 0.0]}, "omega must be positive"),
    "omega-negative": ({"omega": [-1.0, 1.0]}, "omega must be positive"),
    "omega-nan": ({"omega": [1.0, math.nan]}, "omega must be finite"),
    "omega-inf": ({"omega": [math.inf, 1.0]}, "omega must be finite"),
    "delta-zero": ({"delta": [0.0, 0.1]}, r"delta must lie in \(0, 1\)"),
    "delta-one": ({"delta": [0.1, 1.0]}, r"delta must lie in \(0, 1\)"),
    "delta-nan": ({"delta": [math.nan, 0.1]}, "delta must be finite"),
    "k-negative": ({"k": [1.0, -1.0]}, "k must be nonnegative"),
    "k-inf": ({"k": [math.inf, 1.0]}, "k must be finite"),
    "k-nan": ({"k": [1.0, math.nan]}, "k must be finite"),
    "born-negative": ({"born_at": [0, -1]}, "born_at must be a nonnegative integer"),
    "born-fractional": ({"born_at": [0.0, 0.5]}, "born_at must be a nonnegative integer"),
    "born-boolean": ({"born_at": [True, False]}, "born_at must be a nonnegative integer"),
    "columns-unequal": ({"k": [1.0, 1.0, 1.0]}, "family columns must be parallel 1-d arrays"),
    "born-two-dimensional": ({"born_at": [[0, 0]]}, "family columns must be parallel 1-d arrays"),
    "born-scalar": ({"born_at": 0}, "family columns must be parallel 1-d arrays"),
    "omega-two-dimensional": ({"omega": [[1.0, 1.0]]}, "family columns must be parallel 1-d arrays"),
    "Lambda-zero": ({"Lambda": 0.0}, "Lambda must be positive"),
    "Lambda-nan": ({"Lambda": math.nan}, "Lambda must be finite"),
}


@pytest.mark.parametrize("overrides, message", COLUMN_CHECKS.values(), ids=COLUMN_CHECKS.keys())
def test_portfolio_column_checks(overrides, message):
    with pytest.raises(DomainError, match=message):
        replace(INITIAL, **{**TWO_FAMILIES, **overrides}, aggregator=ADD, tech=TECH)
    replace(INITIAL, **TWO_FAMILIES, aggregator=ADD, tech=TECH)


def test_portfolio_keeps_rows_in_the_order_given():
    # Row j is family j: columns are neither sorted by maturity nor by birth.
    p = replace(INITIAL, omega=[1.0, 2.0], delta=[0.2, 0.1], k=[3.0, 1.0], born_at=[4, 0], aggregator=ADD, tech=TECH)
    assert p.size == 2
    assert (p.k.tolist(), p.born_at.tolist(), p.omega.tolist()) == ([3.0, 1.0], [4, 0], [1.0, 2.0])
    assert p.born_at.dtype == np.int64


def test_power_codification_shape():
    with pytest.raises(DomainError):
        PowerCodification(beta=0.0)
    with pytest.raises(DomainError):
        PowerCodification(beta=1.0)
    tech = PowerCodification(beta=0.5)
    assert tech.g(4.0) == 2.0
    assert g_inv(tech, 2.0) == 4.0
    assert tech.g_prime(4.0) == pytest.approx(0.25)
    assert g_prime_inv(tech, 0.25) == pytest.approx(4.0)
    assert tech.g_prime(0.0) == math.inf
    validate_codification(tech)


def test_validate_codification_catches_broken_technology():
    class Flat:
        def g(self, labor):
            return np.zeros_like(np.asarray(labor, dtype=float)) + 1.0

        def g_prime(self, labor):
            return np.ones_like(np.asarray(labor, dtype=float))

    with pytest.raises(DomainError):
        validate_codification(Flat())


def test_aggregator_spec_validation():
    # One index, CES; rho = 1 is the additive one, so there is no kind to choose.
    assert [f.name for f in fields(AggregatorSpec)] == ["rho", "epsilon_floor"]
    with pytest.raises(DomainError):
        replace(CES, rho=None)
    with pytest.raises(DomainError):
        replace(CES, rho=0.0)
    with pytest.raises(DomainError):
        replace(CES, rho=1.5)
    with pytest.raises(DomainError):
        replace(CES, epsilon_floor=0.0)


def test_aggregate_capability_additive_and_ces():
    p_add = make_portfolio([1.0, 4.0], omegas=[2.0, 0.5], aggregator=ADD)
    assert capability(p_add) == pytest.approx(2.0 * 1.0 + 0.5 * 4.0)
    p_ces = make_portfolio([1.0, 4.0], omegas=[2.0, 0.5], aggregator=CES)
    expected = (2.0 * 1.0**0.5 + 0.5 * 4.0**0.5) ** 2.0
    assert capability(p_ces) == pytest.approx(expected, rel=1e-14)


def test_rho_one_is_the_additive_index_bit_for_bit():
    # At rho = 1 the index is np.dot(omega, k) and the weights Lambda * omega,
    # exactly, over zero stocks and magnitudes from 1e-300 to 1e300; where
    # the sum overflows, the index is refused.
    rng = np.random.Generator(np.random.Philox(key=145))
    refused = 0
    for _ in range(2000):
        J = int(rng.integers(1, 9))
        omega = 10.0 ** rng.uniform(-300, 300, size=J)
        k = np.where(rng.uniform(size=J) < 0.2, 0.0, 10.0 ** rng.uniform(-300, 300, size=J))
        Lambda = float(10.0 ** rng.uniform(-3, 3))
        with np.errstate(over="ignore"):
            index, inner, expected = np.dot(omega, k), np.dot(omega, np.maximum(k, ADD.epsilon_floor)), Lambda * omega
        if math.isfinite(index):
            assert np.float64(aggregate_capability(omega, k, ADD)).view(np.int64) == index.view(np.int64)
        else:
            refused += 1
            with pytest.raises(DomainError, match="capability index out of range"):
                aggregate_capability(omega, k, ADD)
        if math.isfinite(inner):
            assert np.array_equal(effective_weights(omega, k, ADD, Lambda).view(np.int64), expected.view(np.int64))
        else:
            with pytest.raises(DomainError, match="effective weights out of range"):
                effective_weights(omega, k, ADD, Lambda)
    assert 0 < refused < 2000


@pytest.mark.parametrize("rho", [-0.01, -1.0, -400.0])
def test_aggregate_capability_negative_rho_zero_stock(rho):
    # Complements: one missing capability zeroes the aggregate, as +0.0.
    p = make_portfolio([1.0, 0.0], aggregator=replace(CES, rho=rho))
    assert math.copysign(1.0, capability(p)) == 1.0 and capability(p) == 0.0


def test_effective_weights_additive_case():
    p = make_portfolio([1.0, 4.0], omegas=[2.0, 0.5], aggregator=ADD, Lambda=3.0)
    assert list(weights(p)) == [6.0, 1.5]


def test_effective_weights_euler_identity():
    # Degree one homogeneity: capability equals sum_j k_j * weight_j at Lambda 1.
    p = make_portfolio([0.7, 2.3, 1.1], omegas=[1.0, 0.4, 2.0], aggregator=CES)
    w = weights(p)
    assert float(np.dot(p.k, w)) == pytest.approx(capability(p), rel=1e-12)


def test_effective_weights_decreasing_in_own_stock():
    lo = make_portfolio([0.5, 2.0], aggregator=CES)
    hi = make_portfolio([0.9, 2.0], aggregator=CES)
    assert weights(hi)[0] < weights(lo)[0]


def test_effective_weights_floor_protects_entrants():
    # A zero stock family still gets a finite positive effective weight.
    p = make_portfolio([0.0, 2.0], aggregator=CES)
    w = weights(p)
    assert np.all(np.isfinite(w)) and w[0] > 0.0
    floor = p.aggregator.epsilon_floor
    inner = 1.0 * floor**0.5 + 1.0 * 2.0**0.5
    assert w[0] == pytest.approx(floor ** (0.5 - 1.0) * inner, rel=1e-12)


def test_allocate_labor_closed_form_matches_bisection():
    p = make_portfolio([0.7, 2.3, 1.1], omegas=[1.0, 0.4, 2.0], aggregator=CES)
    a = allocate(p, 1.3)
    b_labor, b_kkt_residual = allocate_bisection(p.tech, weights(p), 1.3)
    assert np.allclose(a.labor, b_labor, rtol=1e-8, atol=0)
    assert a.labor.sum() == pytest.approx(1.3, rel=1e-12)
    assert a.kkt_residual < 1e-10
    assert b_kkt_residual < 1e-10


def test_allocate_labor_zero_budget():
    p = make_portfolio([1.0, 2.0])
    r = allocate(p, 0.0)
    assert list(r.labor) == [0.0, 0.0]
    assert r.kkt_residual == 0.0


def test_allocate_labor_monotone_in_budget():
    p = make_portfolio([0.7, 2.3, 1.1], omegas=[1.0, 0.4, 2.0])
    small = allocate(p, 0.5)
    large = allocate(p, 2.0)
    assert np.all(large.labor >= small.labor)


def test_allocate_labor_beats_grid_search():
    rng = np.random.Generator(np.random.Philox(key=321))
    for _ in range(10):
        stocks = rng.uniform(0.2, 3.0, size=3)
        omegas = rng.uniform(0.5, 2.0, size=3)
        p = make_portfolio(stocks, omegas=omegas, aggregator=CES)
        budget = float(rng.uniform(0.3, 2.0))
        res = allocate(p, budget)
        w = weights(p)
        best = grid_allocation_value(w, 0.5, budget, steps=200)
        assert allocation_value(w, 0.5, res.labor) >= best - 1e-6


def test_allocate_labor_validation():
    p = make_portfolio([1.0])
    with pytest.raises(DomainError):
        allocate(p, -0.5)
    with pytest.raises(DomainError, match="portfolio has no families"):
        allocate_labor(np.empty(0), TECH, 1.0)


@pytest.mark.parametrize("w", [[1e200, 1.0], [1.3e154, 1.3e154], [1e-200, 1e-200]], ids=["power", "sum", "underflow"])
def test_allocate_labor_out_of_range_weights_are_a_domain_error(w):
    # Shares w**2 overflow, their sum overflows, or every share underflows
    # to zero: the split is undefined, and no RuntimeWarning fires first.
    with pytest.raises(DomainError, match="effective weights out of range"):
        allocate_labor(np.array(w), TECH, 1.0)


@pytest.mark.parametrize("aggregator", [ADD, CES], ids=["additive", "ces"])
def test_effective_weight_overflow_is_left_to_allocate_labor(aggregator):
    # Weights beyond the floating-point range come back as inf without a
    # RuntimeWarning, and the split refuses them.
    w = effective_weights(np.array([1e300, 1.0]), np.array([1.0, 1.0]), aggregator, 1e300)
    assert w[0] == math.inf
    with pytest.raises(DomainError, match="the labor split overflows"):
        allocate_labor(w, TECH, 1.0)


def test_maintenance_labor_holds_stock_constant():
    p = make_portfolio([1.5], deltas=[0.2])
    ell = maintenance_labor(p)[0]
    assert TECH.g(ell) == pytest.approx(0.2 * 1.5, rel=1e-14)


def test_step_portfolio_hand_check():
    p = make_portfolio([1.0, 4.0], deltas=[0.1, 0.25])
    alloc = allocate(p, 1.0)
    k = p.k.copy()
    step_portfolio(k, p.delta, alloc.labor, TECH)
    expected0 = 0.9 * 1.0 + TECH.g(alloc.labor[0])
    expected1 = 0.75 * 4.0 + TECH.g(alloc.labor[1])
    assert k[0] == pytest.approx(expected0, rel=1e-14)
    assert k[1] == pytest.approx(expected1, rel=1e-14)
    assert k.shape == (2,)


def test_scenario_entrants_get_fresh_ids_and_birth_period():
    p = make_portfolio([1.0, 4.0])
    entry = EntryConfig(mu=6.0, k_seed=1e-3, omega_median=1.0, omega_sigma=0.5, delta_j=(0.1, 0.2))
    sc = run_portfolio_scenario(p, 1.0, entry, T=7, seed=5)
    final = sc.final
    born = final.born_at == 7
    assert np.count_nonzero(born) >= 1
    assert np.all(np.flatnonzero(born) >= 2)
    assert np.all(sc.maturity[sc.period == 7][born] == 1e-3)
    assert np.all((0.1 <= final.delta[final.born_at > 0]) & (final.delta[final.born_at > 0] <= 0.2))
    assert np.array_equal(sc.family_id[sc.period == 7], np.arange(final.size))
    assert np.all(np.diff(final.born_at) >= 0)


def test_entry_config_validation():
    with pytest.raises(DomainError):
        replace(ENTRY, mu=-0.1)
    with pytest.raises(DomainError, match=r"^delta_j must have lo <= hi$"):
        replace(ENTRY, mu=0.1, delta_j=(0.3, 0.2))
    with pytest.raises(DomainError, match=r"^delta_j must lie in \(0, 1\)$"):
        replace(ENTRY, mu=0.1, delta_j=(0.0, 0.2))
    with pytest.raises(DomainError, match=r"^delta_j must lie in \(0, 1\)$"):
        replace(ENTRY, mu=0.1, delta_j=(0.1, 1.0))
    for bad in ((0.1,), (0.1, 0.2, 0.3), 0.1, None):
        with pytest.raises(DomainError, match=r"^delta_j must be a \[lo, hi\] pair$"):
            replace(ENTRY, mu=0.1, delta_j=bad)
    assert replace(ENTRY, delta_j=[0.08, 0.25]) == ENTRY
    with pytest.raises(DomainError):
        replace(ENTRY, mu=0.1, omega_median=0.0)
    with pytest.raises(DomainError):
        replace(ENTRY, mu=0.1, omega_sigma=-1.0)


def test_maintenance_allocation_is_stationary():
    # Identical families split the budget evenly, so starting each at the
    # stock level that an even share exactly maintains keeps the whole
    # portfolio frozen.
    kbar = TECH.g(1.0 / 3.0) / 0.15
    p = make_portfolio([kbar] * 3, deltas=[0.15] * 3)
    scenario = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.0), T=30, seed=0)
    for t in (0, 15, 30):
        at = scenario.period == t
        assert np.allclose(scenario.maturity[at], p.k, rtol=0, atol=1e-12)


def test_exact_maintenance_labor_freezes_any_portfolio():
    p = make_portfolio([1.0, 4.0, 2.5], deltas=[0.1, 0.25, 0.15])
    k = p.k.copy()
    step_portfolio(k, p.delta, maintenance_labor(p), TECH)
    assert np.allclose(k, p.k, rtol=0, atol=1e-12)


def test_zero_budget_stocks_decay_geometrically():
    p = make_portfolio([1.0, 4.0], deltas=[0.1, 0.25])
    scenario = run_portfolio_scenario(p, 0.0, replace(ENTRY, mu=0.0), T=10, seed=0)
    at = scenario.period == 10
    assert scenario.maturity[at][0] == pytest.approx(1.0 * 0.9**10, rel=1e-12)
    assert scenario.maturity[at][1] == pytest.approx(4.0 * 0.75**10, rel=1e-12)


def test_scenario_is_deterministic():
    p = make_portfolio([1.0, 0.5, 2.0])
    entry = replace(ENTRY, mu=0.4)
    drift = DriftConfig(
        env_hazard=0.05, tech_hazard=0.1, org_hazard=0.03,
        tech_windows=periodic_windows(1, 4, 20), org_windows=periodic_windows(3, 5, 20),
        drop_frac=0.5,
    )
    a = run_portfolio_scenario(p, 1.0, entry, T=20, seed=99, drift=drift)
    b = run_portfolio_scenario(p, 1.0, entry, T=20, seed=99, drift=drift)
    assert np.array_equal(a.maturity, b.maturity)
    assert np.array_equal(a.labor, b.labor)
    assert np.array_equal(a.capability, b.capability)
    c = run_portfolio_scenario(p, 1.0, entry, T=20, seed=100, drift=drift)

    def same_events(x, y):
        return np.array_equal(x.event_family_id, y.event_family_id) and np.array_equal(x.event_period, y.event_period)

    assert same_events(a, b)
    assert not (np.array_equal(a.maturity, c.maturity) and same_events(a, c))


def test_scenario_without_entry_keeps_family_count():
    p = make_portfolio([1.0, 0.5])
    scenario = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.0), T=12, seed=1)
    assert scenario.final.size == 2
    assert len(scenario.family_id) == 2 * 13


def test_scenario_panel_is_sorted_and_flags_windows():
    p = make_portfolio([1.0, 0.5])
    drift = DriftConfig(
        env_hazard=0.0, tech_hazard=0.0, org_hazard=0.0,
        tech_windows=frozenset({1, 3}), org_windows=frozenset({2}),
        drop_frac=0.5,
    )
    scenario = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.0), T=4, seed=0, drift=drift)
    order = np.lexsort((scenario.family_id, scenario.period))
    assert np.array_equal(order, np.arange(len(scenario.family_id)))
    for t, expect in ((0, False), (1, True), (2, False), (3, True), (4, False)):
        assert bool(scenario.tech_window[scenario.period == t][0]) is expect
    assert bool(scenario.org_window[scenario.period == 2][0]) is True


def test_certain_hazard_hits_every_family_every_period():
    p = make_portfolio([1.0, 0.5])
    drift = DriftConfig(
        env_hazard=1.0, tech_hazard=0.0, org_hazard=0.0,
        tech_windows=frozenset(), org_windows=frozenset(), drop_frac=0.5,
    )
    scenario = run_portfolio_scenario(p, 0.0, replace(ENTRY, mu=0.0), T=3, seed=0, drift=drift)
    assert scenario.event_period.size == 2 * 3
    # Halving stacks on top of decay.
    at = scenario.period == 1
    assert scenario.maturity[at][0] == pytest.approx(0.9 * 1.0 * 0.5, rel=1e-12)


def test_drift_config_validation():
    with pytest.raises(DomainError):
        DriftConfig(env_hazard=0.7, tech_hazard=0.4, org_hazard=0.0,
                    tech_windows=frozenset(), org_windows=frozenset(), drop_frac=0.5)
    with pytest.raises(DomainError):
        DriftConfig(env_hazard=-0.1, tech_hazard=0.0, org_hazard=0.0,
                    tech_windows=frozenset(), org_windows=frozenset(), drop_frac=0.5)
    with pytest.raises(DomainError):
        DriftConfig(env_hazard=0.1, tech_hazard=0.0, org_hazard=0.0,
                    tech_windows=frozenset(), org_windows=frozenset(), drop_frac=1.0)
    good = DriftConfig(env_hazard=0.1, tech_hazard=0.2, org_hazard=0.05,
                       tech_windows=frozenset({2}), org_windows=frozenset({3}), drop_frac=0.5)
    assert good.hazard_at(0) == pytest.approx(0.1)
    assert good.hazard_at(2) == pytest.approx(0.3)
    assert good.hazard_at(3) == pytest.approx(0.15)


def test_periodic_windows():
    assert periodic_windows(1, 4, 10) == frozenset({1, 5, 9})
    assert periodic_windows(0, 3, 7) == frozenset({0, 3, 6})
    with pytest.raises(DomainError):
        periodic_windows(-1, 4, 10)
    with pytest.raises(DomainError):
        periodic_windows(0, 0, 10)


def test_budget_path_length_is_checked():
    p = make_portfolio([1.0])
    for budget in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            run_portfolio_scenario(p, budget, replace(ENTRY, mu=0.0), T=5, seed=0)


def test_portfolio_at_reconstructs_the_recorded_state():
    p = make_portfolio([1.0, 0.5, 2.0])
    entry = replace(ENTRY, mu=0.5)
    scenario = run_portfolio_scenario(p, 1.0, entry, T=15, seed=4)
    for t in range(16):
        snap = scenario.portfolio_at(t)
        at = scenario.period == t
        assert np.array_equal(np.arange(snap.size), scenario.family_id[at])
        assert np.array_equal(snap.k, scenario.maturity[at])
        alloc = allocate(snap, 1.0)
        assert np.allclose(alloc.labor, scenario.labor[at], rtol=0, atol=1e-12)
    with pytest.raises(DomainError):
        scenario.portfolio_at(16)


def test_scenario_timing_contract_holds_in_every_period():
    # Row t+1 is (1 - delta) k + g(l) from row t, times (1 - drop_frac)
    # exactly where an event fired at t; entrants first appear at t + 1.
    T = 40
    p = make_portfolio([1.0, 0.5, 2.0], deltas=[0.1, 0.2, 0.15])
    entry = replace(ENTRY, mu=0.5, k_seed=2e-3)
    drift = DriftConfig(
        env_hazard=0.05, tech_hazard=0.2, org_hazard=0.1,
        tech_windows=periodic_windows(1, 4, T), org_windows=periodic_windows(3, 5, T),
        drop_frac=0.4,
    )
    sc = run_portfolio_scenario(p, 1.0, entry, T=T, seed=21, drift=drift)
    events = set(zip(sc.event_family_id.tolist(), sc.event_period.tolist()))
    assert len(events) == sc.event_period.size > 0
    assert sc.final.size > p.size
    final = sc.final
    for t in range(T):
        now = sc.period == t
        nxt = sc.period == t + 1
        ids = sc.family_id[now]
        n = ids.shape[0]
        assert np.array_equal(sc.family_id[nxt][:n], ids)
        # Row j of the roster is family j.
        expect = (1.0 - final.delta[ids]) * sc.maturity[now] + TECH.g(sc.labor[now])
        hit = np.array([(i, t) in events for i in ids.tolist()], dtype=bool)
        expect[hit] = expect[hit] * (1.0 - drift.drop_frac)
        assert np.array_equal(sc.maturity[nxt][:n], expect)
        entrants = sc.family_id[nxt][n:]
        assert np.all(final.born_at[entrants] == t + 1)
        assert np.all(sc.maturity[nxt][n:] == entry.k_seed)
        assert np.all(final.born_at[ids] <= t)
    assert {t for _, t in events} <= set(range(T))


DRIFT = DriftConfig(
    env_hazard=0.05, tech_hazard=0.2, org_hazard=0.1,
    tech_windows=periodic_windows(1, 4, 60), org_windows=periodic_windows(3, 5, 60),
    drop_frac=0.4,
)
# (initial portfolio, labor budget, entry, drift) per case.
REFERENCE_CASES = {
    "additive": (make_portfolio([1.0, 0.5, 2.0], aggregator=ADD), 1.0, replace(ENTRY, mu=0.4), None),
    "ces-complements": (
        make_portfolio([1.0, 0.5, 2.0], aggregator=replace(CES, rho=-0.5)), 1.0, replace(ENTRY, mu=0.4), None,
    ),
    "ces-substitutes": (make_portfolio([1.0, 0.5, 2.0], aggregator=CES, Lambda=2.5), 1.3, replace(ENTRY, mu=0.4), None),
    "entry-and-drift": (make_portfolio([1.0, 0.5, 2.0], deltas=[0.1, 0.2, 0.15]), 1.0, replace(ENTRY, mu=0.6), DRIFT),
    "zero-budget": (make_portfolio([1.0, 0.5, 2.0]), 0.0, replace(ENTRY, mu=0.5), DRIFT),
    "unequal-omegas": (
        make_portfolio([1.0, 0.5, 2.0], omegas=[1.0, 0.7, 1.3], deltas=[0.1, 0.2, 0.15]), 1.0, replace(ENTRY, mu=0.5),
        DRIFT,
    ),
    "one-family": (make_portfolio([1.0]), 1.0, replace(ENTRY, mu=0.5), DRIFT),
}


@pytest.mark.parametrize("p, budget, entry, drift", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_scenario_matches_the_per_period_loop_bit_for_bit(p, budget, entry, drift):
    sc = run_portfolio_scenario(p, budget, entry, T=60, seed=13, drift=drift)
    ref = run_portfolio_scenario_reference(p, budget, entry, T=60, seed=13, drift=drift)
    assert sc.final.size > p.size
    for name in (
        "family_id", "period", "maturity", "labor", "effective_weight", "tech_window", "org_window",
        "periods", "capability", "labor_budget",
    ):
        got, want = getattr(sc, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in ("omega", "delta", "k", "born_at"):
        got, want = getattr(sc.final, name), getattr(ref.final, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (sc.final.aggregator, sc.final.tech, sc.final.Lambda) == (p.aggregator, p.tech, p.Lambda)
    for name in ("event_family_id", "event_period"):
        got, want = getattr(sc, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name
    assert (sc.event_period.size > 0) is (drift is not None)


def test_scenario_validates_one_portfolio(monkeypatch):
    p = make_portfolio([1.0, 0.5])
    built = []
    check = Portfolio.__post_init__
    monkeypatch.setattr(Portfolio, "__post_init__", lambda self: built.append(check(self)))
    sc = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.5), T=30, seed=2, drift=DRIFT)
    assert len(built) == 1
    assert sc.final.size > 2
