"""Task-family portfolio: many capability stocks under one labor budget.

The economy-wide capability stock is disaggregated into task families,
each with its own maturity (stock level), decay rate, and importance
weight.  A concave codification technology turns labor assigned to a
family into new maturity; an aggregator (additive or CES) combines the
family stocks into the economy-wide index.  Each period a fixed
maintenance-labor budget is split across families to maximize the
weighted sum of codification output, new families arrive at random with
near-zero maturity, and optional drift events knock maturity down in
designated periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require
from .rng import poisson_inverse_cdf, stream
from .schema import (
    AGGREGATOR,
    CODIFICATION,
    DELTA_ORDER,
    DRIFT,
    ENTRY,
    HAZARD_SUM,
    MAX_PANEL_ROWS,
    NONNEGATIVE,
    PORTFOLIO,
    SCENARIO,
    WINDOWS,
    check,
    pair,
    real_column,
)


@dataclass(frozen=True)
class PowerCodification:
    """Power-law codification technology g(l) = l**beta with beta in (0, 1).

    Concave with infinite marginal product at zero labor, so every family
    with positive weight receives some labor in an optimal split.
    """

    beta: float

    def __post_init__(self) -> None:
        check(vars(self), CODIFICATION)

    def g(self, labor):
        """Codification output from ``labor`` (scalar or array, >= 0)."""
        return np.power(labor, self.beta)

    def g_prime(self, labor):
        """Marginal codification product; infinite at zero labor."""
        with np.errstate(divide="ignore"):
            return self.beta * np.power(labor, self.beta - 1.0)


@dataclass(frozen=True)
class AggregatorSpec:
    """How family maturities combine into the economy-wide capability index.

    kind "additive" sums omega_j * k_j.  kind "ces" uses the CES form
    (sum omega_j * k_j**rho)**(1/rho) with rho <= 1, rho != 0; rho < 0
    makes families complements, and any family at zero maturity then
    drives the whole index to zero.  ``epsilon_floor`` is the maturity
    floor applied when differentiating the CES index so that newborn
    families have finite marginal weights.
    """

    kind: str
    rho: float | None
    epsilon_floor: float

    def __post_init__(self) -> None:
        # rho is read only by the CES form.
        ces = isinstance(self.kind, str) and self.kind == "ces"
        require(not ces or self.rho is not None, "ces aggregator needs rho")
        check(vars(self), {k: d for k, d in AGGREGATOR.items() if k != "rho" or ces})


@dataclass(frozen=True, eq=False)
class Portfolio:
    """Task families as parallel columns, plus the aggregator, technology, and scale.

    Row j is family j: its importance weight ``omega``, decay rate
    ``delta``, maturity ``k`` and birth period ``born_at``.  ``Lambda``
    is the economy-wide value of a marginal unit of aggregate capability;
    it scales effective weights and prices but cancels out of the labor
    allocation.
    """

    omega: np.ndarray
    delta: np.ndarray
    k: np.ndarray
    born_at: np.ndarray
    aggregator: AggregatorSpec
    tech: PowerCodification
    Lambda: float

    def __post_init__(self) -> None:
        born, msg = np.asarray(self.born_at), "born_at must be a nonnegative integer"
        require(born.dtype.kind in "iu" or born.size == 0, msg)
        born = born.astype(np.int64, copy=False)
        require(bool(np.all(born >= 0)), msg)
        omega, delta, k = (real_column(name, getattr(self, name)) for name in ("omega", "delta", "k"))
        n = born.shape[0] if born.ndim == 1 else -1
        require(all(c.shape == (n,) for c in (omega, delta, k)), "family columns must be parallel 1-d arrays")
        check({"omega": omega, "delta": delta, "k": k, "Lambda": self.Lambda}, PORTFOLIO)
        for name, col in (("omega", omega), ("delta", delta), ("k", k), ("born_at", born)):
            object.__setattr__(self, name, col)

    @property
    def size(self) -> int:
        return int(self.born_at.shape[0])


class AllocationResult(NamedTuple):
    """An optimal labor split: labor per family and its optimality residual.

    ``labor`` follows the order of the weights it was computed for.
    ``kkt_residual`` is the spread of weighted marginal products across
    families that received labor; it is zero at an exact optimum.
    """

    labor: np.ndarray
    kkt_residual: float


def aggregate_capability(omega: np.ndarray, k: np.ndarray, aggregator: AggregatorSpec) -> float:
    """Capability index of one or more families with weights ``omega`` and maturities ``k``.

    The additive index is sum omega_j * k_j; the CES index is
    (sum omega_j * k_j**rho)**(1/rho).  An index that leaves the
    floating-point range is a domain error.
    """
    rho = None if aggregator.kind == "additive" else float(aggregator.rho)
    if rho is not None and rho < 0.0 and np.any(k == 0.0):
        # Complements: one dead family zeroes the index.
        return 0.0
    with np.errstate(over="ignore", divide="ignore"):
        index = float(np.dot(omega, k) if rho is None else np.dot(omega, np.power(k, rho)) ** (1.0 / rho))
    kind = "additive" if rho is None else "CES"
    require(math.isfinite(index), f"capability index out of range: the {kind} index overflows")
    return index


def effective_weights(omega: np.ndarray, k: np.ndarray, aggregator: AggregatorSpec, Lambda: float) -> np.ndarray:
    """Marginal value of maturity by family, scaled by Lambda.

    ``omega`` and ``k`` are parallel family columns.  For the additive
    aggregator this is Lambda * omega_j.  For CES it is Lambda times the
    gradient of the index, evaluated with every maturity floored at
    ``epsilon_floor`` so that entrants with (near-)zero stocks get large
    but finite weights.  An index whose inner sum or power leaves the
    floating-point range is a domain error; weights that overflow are
    returned as inf or nan, which :func:`allocate_labor` refuses.
    """
    require(omega.shape[0] >= 1, "portfolio has no families")
    if aggregator.kind == "additive":
        with np.errstate(over="ignore"):
            return Lambda * omega
    rho = float(aggregator.rho)
    k = np.maximum(k, aggregator.epsilon_floor)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = float(np.dot(omega, np.power(k, rho)))
        try:
            scale = inner ** ((1.0 - rho) / rho)
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        # d/dk_j of (sum omega k^rho)^(1/rho) = omega_j k_j^(rho-1) * index^(1-rho)
        weights = Lambda * omega * np.power(k, rho - 1.0) * scale
    require(math.isfinite(inner) and math.isfinite(scale), "effective weights out of range: the CES index overflows")
    return weights


def allocate_labor(weights: np.ndarray, tech: PowerCodification, L_S: float) -> AllocationResult:
    """Split the labor budget to maximize weighted codification output.

    Maximizes sum_j w_j * g(l_j) subject to sum_j l_j = L_S, l_j >= 0,
    where w_j are the effective ``weights``.  The optimum equalizes
    w_j * g'(l_j) across served families at the multiplier nu; for the
    power technology that gives l_j proportional to w_j**(1/(1-beta)).
    Weights so large or so small that the split leaves the floating-point
    range are a domain error.
    """
    require(weights.shape[0] >= 1, "portfolio has no families")
    check({"L_S": L_S}, {"L_S": NONNEGATIVE})
    if L_S == 0.0:
        return AllocationResult(labor=np.zeros(weights.shape[0]), kkt_residual=0.0)

    with np.errstate(over="ignore", invalid="ignore"):
        shares = np.power(weights, 1.0 / (1.0 - tech.beta))
        labor = L_S * shares / shares.sum()
    active = labor > 0.0
    require(bool(np.all(np.isfinite(labor)) and np.any(active)), "effective weights out of range: the labor split overflows")
    marginal = weights[active] * np.asarray(tech.g_prime(labor[active]), dtype=float)
    return AllocationResult(labor=labor, kkt_residual=float(np.max(marginal) - np.min(marginal)))


@dataclass(frozen=True)
class EntryConfig:
    """Arrival process for new task families.

    Births per period are Poisson with intensity ``mu``.  Entrants start
    at maturity ``k_seed`` (near zero), draw their importance weight from
    a log-normal with the given median and log-scale sigma, and draw
    their decay rate uniformly from the ``(lo, hi)`` pair ``delta_j``,
    stored as a tuple.
    """

    mu: float
    k_seed: float
    omega_median: float
    omega_sigma: float
    delta_j: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_j", pair("delta_j", self.delta_j))
        check(vars(self), ENTRY, (DELTA_ORDER,))


def _draw_entrants(entry: EntryConfig, gen: np.random.Generator) -> tuple[list[float], list[float]]:
    """Draw the period's entrants: their weights and decay rates.

    One uniform decides the birth count by inversion; each entrant then
    consumes one normal (weight) and one uniform (decay) in slot order,
    so two runs that share the generator state produce identical early
    entrants even if one run goes on to draw more.
    """
    count = poisson_inverse_cdf(gen, entry.mu)
    omegas, deltas = [], []
    for _ in range(count):
        try:
            omegas.append(entry.omega_median * math.exp(entry.omega_sigma * gen.standard_normal()))
        except OverflowError:
            raise DomainError("omega must be finite") from None
        deltas.append(gen.uniform(*entry.delta_j))
    return omegas, deltas


def step_portfolio(k: np.ndarray, delta: np.ndarray, labor: np.ndarray, tech: PowerCodification) -> None:
    """Advance the current families' maturities one period, in place.

    ``k``, ``delta`` and ``labor`` are parallel family columns.  Each
    family decays and receives its codification inflow:
    k_j <- (1 - delta_j) * k_j + g(l_j).
    """
    k *= 1.0 - delta
    k += tech.g(labor)


@dataclass(frozen=True)
class DriftConfig:
    """Hazard of sudden maturity loss, decomposed by source.

    In every period each family independently suffers a degradation
    event with probability env_hazard, plus tech_hazard in periods listed
    in ``tech_windows``, plus org_hazard in periods listed in
    ``org_windows``.  An event multiplies maturity by (1 - drop_frac).
    """

    env_hazard: float
    tech_hazard: float
    org_hazard: float
    tech_windows: frozenset[int]
    org_windows: frozenset[int]
    drop_frac: float

    def __post_init__(self) -> None:
        check(vars(self), DRIFT, (HAZARD_SUM,))
        windows = self.tech_windows | self.org_windows
        require(all(isinstance(t, int) and t >= 0 for t in windows), "window periods must be nonnegative integers")

    def hazard_at(self, t: int) -> float:
        return (
            self.env_hazard
            + (self.tech_hazard if t in self.tech_windows else 0.0)
            + (self.org_hazard if t in self.org_windows else 0.0)
        )


def periodic_windows(start: int, every: int, T: int) -> frozenset[int]:
    """Periods start, start+every, ... below T."""
    check({"start": start, "every": every}, WINDOWS)
    return frozenset(range(start, T, every))


class ScenarioResult(NamedTuple):
    """Output of a portfolio scenario.

    The panel arrays are parallel and sorted by (period, family id); one
    row records a family's state and allocation at the start of a period.
    Window flags mark the hazard windows in force during the transition
    out of that period.  ``event_family_id`` and ``event_period`` are the
    parallel int64 columns of the (family_id, period) pairs where a
    degradation event actually fired, in panel order, for use as ground
    truth when exercising estimators.
    """

    family_id: np.ndarray
    period: np.ndarray
    maturity: np.ndarray
    labor: np.ndarray
    effective_weight: np.ndarray
    tech_window: np.ndarray
    org_window: np.ndarray
    periods: np.ndarray
    capability: np.ndarray
    labor_budget: np.ndarray
    final: Portfolio
    event_family_id: np.ndarray
    event_period: np.ndarray

    def portfolio_at(self, t: int) -> Portfolio:
        """Reconstruct the portfolio as it stood at the start of period t.

        Families never exit, so period t's families are the first rows of
        ``final``.
        """
        lo, hi = np.searchsorted(self.period, [t, t + 1])
        require(hi > lo, f"scenario has no period {t}")
        n, final = hi - lo, self.final
        return Portfolio(
            final.omega[:n], final.delta[:n], self.maturity[lo:hi], final.born_at[:n],
            final.aggregator, final.tech, final.Lambda,
        )


_TOO_MANY_ROWS = f"panel out of range: the scenario would record more than {MAX_PANEL_ROWS:,} rows"


def run_portfolio_scenario(
    portfolio: Portfolio,
    labor_budget: float,
    entry: EntryConfig,
    T: int,
    seed: int,
    drift: DriftConfig | None = None,
) -> ScenarioResult:
    """Simulate the portfolio for T transitions and record a maturity panel.

    Timing within period t: allocate ``labor_budget``, the same in every
    period, and record every family's (maturity, labor, effective weight);
    apply decay and codification inflow; apply drift events drawn for
    period t; append entrants, who first receive labor at t + 1.  The
    panel covers periods 0..T, where the final period records the
    post-transition state and the allocation it would receive.

    Randomness is organized in per-period substreams keyed by ``seed``:
    "drift" uniforms are consumed in roster order and "entry" draws in
    slot order, so scenarios sharing a seed share event and entrant draws
    for every family they have in common.  No draw depends on the
    maturities, so all entrants are drawn first and the whole roster is
    validated once, as ``final``, whose first n_t rows are period t's
    families.  The panel is allocated at its full sum_t n_t rows; each
    period writes its block and advances ``final.k[:n_t]`` in place.  A
    panel of more than ``MAX_PANEL_ROWS`` rows is refused while the
    entrants are drawn, before either is built.
    """
    check({"labor_budget": labor_budget, "T": T}, SCENARIO)

    sizes = [portfolio.size]
    rows = portfolio.size
    require(rows <= MAX_PANEL_ROWS, _TOO_MANY_ROWS)
    omegas: list[float] = []
    deltas: list[float] = []
    for t in range(T):
        born_omegas, born_deltas = _draw_entrants(entry, stream(seed, "entry", t))
        omegas += born_omegas
        deltas += born_deltas
        sizes.append(sizes[-1] + len(born_omegas))
        # Refused as soon as the rows so far pass the bound, before the roster and the panel are built.
        rows += sizes[-1]
        require(rows <= MAX_PANEL_ROWS, _TOO_MANY_ROWS)
    born = np.repeat(np.arange(1, T + 1), np.diff(sizes))
    added = [omegas, deltas, np.full(len(omegas), entry.k_seed), born]
    columns = [portfolio.omega, portfolio.delta, portfolio.k, portfolio.born_at]
    final = Portfolio(
        *(np.concatenate([old, new]) for old, new in zip(columns, added)),
        portfolio.aggregator, portfolio.tech, portfolio.Lambda,
    )

    ids, omega, delta, k = np.arange(final.size), final.omega, final.delta, final.k
    family_id = np.empty(rows, dtype=np.int64)
    maturity = np.empty(rows)
    labor = np.empty(rows)
    effective_weight = np.empty(rows)
    capability = np.empty(T + 1)
    fired = np.zeros(rows, dtype=bool)
    lo = 0
    for t, n in enumerate(sizes):
        hi = lo + n
        w = effective_weights(omega[:n], k[:n], final.aggregator, final.Lambda)
        alloc = allocate_labor(w, final.tech, labor_budget)
        family_id[lo:hi] = ids[:n]
        maturity[lo:hi] = k[:n]
        labor[lo:hi] = alloc.labor
        effective_weight[lo:hi] = w
        capability[t] = aggregate_capability(omega[:n], k[:n], final.aggregator)
        lo = hi
        if t == T:
            break

        step_portfolio(k[:n], delta[:n], alloc.labor, final.tech)
        if drift is not None:
            hit = stream(seed, "drift", t).uniform(size=n) < drift.hazard_at(t)
            if np.any(hit):
                # Entrants sit past row n and are never hit.
                k[:n][hit] *= 1.0 - drift.drop_frac
                fired[lo - n : lo] = hit  # period t's rows, which end at lo

    periods = np.arange(T + 1, dtype=np.int64)
    period = np.repeat(periods, sizes)
    in_tech = [drift is not None and t in drift.tech_windows for t in range(T + 1)]
    in_org = [drift is not None and t in drift.org_windows for t in range(T + 1)]
    return ScenarioResult(
        family_id=family_id,
        period=period,
        maturity=maturity,
        labor=labor,
        effective_weight=effective_weight,
        tech_window=np.repeat(np.asarray(in_tech, dtype=bool), sizes),
        org_window=np.repeat(np.asarray(in_org, dtype=bool), sizes),
        periods=periods,
        capability=capability,
        labor_budget=np.full(T + 1, float(labor_budget)),
        final=final,
        event_family_id=family_id[fired],
        event_period=period[fired],
    )
