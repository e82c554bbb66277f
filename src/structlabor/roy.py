"""Worker assignment across task families and the wage distribution.

Workers carry family-specific skills and sort to whichever family pays
them the most.  A family's piece rate is the marginal value of labor on
its maintenance problem: effective weight times the marginal
codification product at the family's labor level.  Because piece rates
fall as labor crowds in, assignment and rates must be mutually
consistent; a damped fixed-point iteration finds that point.  The module
also runs paired counterfactual experiments measuring how wage
dispersion responds to faster family turnover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import require
from .portfolio import (
    EntryConfig,
    Portfolio,
    PowerCodification,
    AggregatorSpec,
    effective_weights,
    run_portfolio_scenario,
)
from .rng import derive_seed, stream

_DELTA_CAP = 0.95
# Labor at which piece rates are evaluated for families nobody serves, so their rates stay finite.
_LABOR_FLOOR = 1e-6
# Step of the damped labor update, and the cap on update steps per solve.
_DAMPING = 0.3
_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class WorkerSkillMatrix:
    """Worker-by-family skill levels, all strictly positive."""

    a: np.ndarray
    family_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        require(a.ndim == 2, "skill matrix must be two-dimensional")
        require(a.shape[0] >= 1 and a.shape[1] >= 1, "skill matrix must be nonempty")
        require(a.shape[1] == len(self.family_ids), "one column per family required")
        require(len(set(self.family_ids)) == len(self.family_ids), "family ids must be unique")
        require(bool(np.all(np.isfinite(a)) and np.all(a > 0.0)), "skills must be finite and positive")

    @classmethod
    def generate(
        cls, n_workers: int, portfolio: Portfolio, seed: int, sigma_ln: Sequence[float]
    ) -> "WorkerSkillMatrix":
        """Draw log-normal skills exp(sigma_j * z), one stream per family identity.

        ``sigma_ln`` holds one log-scale per family, in the portfolio's
        family-id order.  A family's stream is keyed by its birth period
        and its rank within that birth cohort rather than by its id, and
        the scale is applied outside the raw normal draws, so two
        scenarios that produced the same early families give those
        families identical underlying draws even if later entry or the
        scales differed.
        """
        require(isinstance(n_workers, int) and n_workers >= 1, "n_workers must be an integer >= 1")
        n = portfolio.size
        require(n >= 1, "need at least one family")
        sigmas = np.asarray(sigma_ln, dtype=float)
        require(sigmas.shape == (n,), "sigma_ln must have one entry per family")
        require(bool(np.all(np.isfinite(sigmas)) and np.all(sigmas >= 0.0)), "sigma_ln must be nonnegative")
        slot_within_cohort: dict[int, int] = {}
        columns = []
        for born, sigma in zip(portfolio.born_at.tolist(), sigmas):
            slot = slot_within_cohort.get(born, 0)
            slot_within_cohort[born] = slot + 1
            z = stream(seed, f"skills:{born}:{slot}").standard_normal(n_workers)
            columns.append(np.exp(sigma * z))
        return cls(a=np.column_stack(columns), family_ids=tuple(portfolio.id.tolist()))


@dataclass(frozen=True, eq=False)
class RoyEquilibrium:
    """A self-consistent assignment: who works where, at what rates.

    ``prices`` holds one piece rate per family, in the portfolio's family order.
    """

    assignment: np.ndarray
    labor: np.ndarray
    prices: np.ndarray
    wages: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class DispersionStats:
    """Summary measures of a wage distribution."""

    mean_wage: float
    log_wage_variance: float
    p90_p10: float
    top_decile_share: float

    def __post_init__(self) -> None:
        require(self.log_wage_variance >= 0.0, "variance must be nonnegative")
        require(self.p90_p10 >= 1.0, "P90/P10 must be at least 1")
        require(0.0 < self.top_decile_share <= 1.0, "top decile share must lie in (0, 1]")


def family_prices(portfolio: Portfolio, labor: np.ndarray) -> np.ndarray:
    """Piece rates implied by a labor distribution over families.

    p_j = w_j * g'(max(l_j, floor)) with w_j the effective weights (which
    already carry the economy-wide scale Lambda), one per family in the
    portfolio's order.  The floor keeps rates finite for families nobody
    currently serves.
    """
    labor = np.asarray(labor, dtype=float)
    require(labor.shape == (portfolio.size,), "labor vector must have one entry per family")
    require(bool(np.all(np.isfinite(labor)) and np.all(labor >= 0.0)), "labor must be nonnegative")
    w = effective_weights(portfolio)
    rates = w * np.asarray(portfolio.tech.g_prime(np.maximum(labor, _LABOR_FLOOR)), dtype=float)
    require(bool(np.all(np.isfinite(rates)) and np.all(rates > 0.0)), "prices must be finite and positive")
    return rates


def solve_roy(skills: WorkerSkillMatrix, portfolio: Portfolio, tol: float = 1e-9) -> RoyEquilibrium:
    """Find assignment and piece rates consistent with each other.

    Iterates: given a labor distribution, compute rates; assign every
    worker to their wage-maximizing family (ties resolved to the lowest
    family index); move labor a fraction ``_DAMPING`` toward the implied
    head counts.  Stops when head counts and labor agree within ``tol``,
    which makes the final assignment optimal against the rates its own
    labor distribution generates.  When the residual stalls (workers
    flipping between near-indifferent families), the step size is halved
    so the iteration settles instead of cycling; a pure fixed point need
    not exist with finitely many workers, in which case the iteration
    stops after ``_MAX_ITER`` steps and the result carries
    ``converged=False`` and the residual that remained.  The reported
    wages are always optimal against the reported rates.
    """
    require(skills.family_ids == tuple(portfolio.id.tolist()), "skill columns must match portfolio families")
    require(tol > 0.0, "tol must be positive")

    n, j = skills.a.shape
    w = effective_weights(portfolio)
    labor = np.full(j, n / j, dtype=float)
    lam = _DAMPING
    best = math.inf
    stall = 0
    iterations = 0
    while True:
        prices = w * portfolio.tech.g_prime(np.maximum(labor, _LABOR_FLOOR))
        assignment = np.argmax(skills.a * prices, axis=1)
        counts = np.bincount(assignment, minlength=j).astype(float)
        residual = float(np.max(np.abs(counts - labor)))
        converged = residual < tol
        if converged or iterations >= _MAX_ITER:
            break
        if residual < best - 1e-12:
            best = residual
            stall = 0
        else:
            stall += 1
            if stall >= 25:
                lam = max(0.5 * lam, 1e-3)
                stall = 0
        labor = (1.0 - lam) * labor + lam * counts
        iterations += 1

    # The loop's last rates again, now through the checked path.
    prices = family_prices(portfolio, labor)
    wages = prices[assignment] * skills.a[np.arange(n), assignment]
    return RoyEquilibrium(
        assignment=assignment,
        labor=labor,
        prices=prices,
        wages=wages,
        iterations=iterations,
        residual=residual,
        converged=converged,
    )


def wage_stats(wages: np.ndarray) -> DispersionStats:
    """Dispersion statistics of a wage array.

    Log-wage variance is the sample statistic (ddof=1); the decile ratio
    uses linearly interpolated quantiles; the top decile share uses the
    ceil(N/10) highest earners.
    """
    wages = np.asarray(wages, dtype=float)
    require(wages.ndim == 1 and wages.size >= 2, "need at least two wages")
    require(bool(np.all(np.isfinite(wages)) and np.all(wages > 0.0)), "wages must be finite and positive")
    logs = np.log(wages)
    p10, p90 = np.quantile(wages, [0.10, 0.90], method="linear")
    m = max(1, math.ceil(0.1 * wages.size))
    top = np.sort(wages)[-m:]
    return DispersionStats(
        mean_wage=float(np.mean(wages)),
        log_wage_variance=float(np.var(logs, ddof=1)),
        p90_p10=float(p90 / p10),
        top_decile_share=float(np.sum(top) / np.sum(wages)),
    )


def maturity_skill_sigma(maturity, sigma_young: float, sigma_mature: float, k_ref: float):
    """Skill log-scale as a function of family maturity.

    Young, uncodified families draw suitable labor from a thin right
    tail, so their skill distribution is wide; as work standardizes the
    distribution compresses.  Interpolates from ``sigma_young`` at zero
    maturity toward ``sigma_mature``, with ``k_ref`` setting how fast
    codification compresses skills.
    """
    require(sigma_mature >= 0.0 and sigma_young >= sigma_mature, "need sigma_young >= sigma_mature >= 0")
    require(k_ref > 0.0, "k_ref must be positive")
    maturity = np.asarray(maturity, dtype=float)
    return sigma_mature + (sigma_young - sigma_mature) * np.exp(-maturity / k_ref)


@dataclass(frozen=True)
class RoyExperiment:
    """A paired-counterfactual design for wage dispersion.

    Each replication builds a portfolio scenario, draws a worker
    population over the resulting families (skill dispersion tied to
    family maturity via :func:`maturity_skill_sigma`), solves the
    assignment problem, and records dispersion statistics; the treatment
    arm repeats this with the entry intensity or the decay rates scaled
    by a factor, reusing the same random draws everywhere the two arms
    overlap.  Each solve uses ``tol``; its step ``_DAMPING`` and step cap
    ``_MAX_ITER`` are module constants.
    """

    n_initial: int = 6
    initial_k: float = 1.0
    omega: float = 1.0
    delta_lo: float = 0.08
    delta_hi: float = 0.25
    rho: float = 0.5
    beta: float = 0.5
    Lambda: float = 1.0
    epsilon_floor: float = 0.25
    labor_budget: float = 1.0
    T: int = 40
    mu: float = 0.25
    k_seed: float = 1e-3
    omega_sigma: float = 0.5
    n_workers: int = 400
    sigma_young: float = 1.5
    sigma_mature: float = 0.2
    k_ref: float = 1.0
    eval_window: int = 12
    tol: float = 1e-9

    def __post_init__(self) -> None:
        require(isinstance(self.n_initial, int) and self.n_initial >= 1, "n_initial must be an integer >= 1")
        require(isinstance(self.T, int) and self.T >= 1, "T must be an integer >= 1")
        require(0.0 < self.delta_lo <= self.delta_hi < 1.0, "delta range must lie in (0, 1)")
        require(self.mu >= 0.0, "mu must be nonnegative")
        require(
            0.0 <= self.sigma_mature <= self.sigma_young, "need sigma_young >= sigma_mature >= 0"
        )
        require(self.k_ref > 0.0, "k_ref must be positive")
        require(isinstance(self.n_workers, int) and self.n_workers >= 2, "n_workers must be an integer >= 2")
        require(
            isinstance(self.eval_window, int) and 1 <= self.eval_window <= self.T + 1,
            "eval_window must be an integer in [1, T + 1]",
        )


@dataclass(frozen=True)
class ArmOutcome:
    """One arm of one replication."""

    stats: DispersionStats
    n_families: int
    converged: bool


@dataclass(frozen=True)
class ExperimentResult:
    """Paired dispersion outcomes across replications."""

    treatment: str
    factor: float
    base: tuple[ArmOutcome, ...]
    treated: tuple[ArmOutcome, ...]
    variance_diffs: tuple[float, ...]
    mean_variance_diff: float
    share_positive: float


def _run_arm(exp: RoyExperiment, rep_seed: int, mu_factor: float, delta_factor: float) -> ArmOutcome:
    init_gen = stream(rep_seed, "init-delta")
    deltas = init_gen.uniform(exp.delta_lo, exp.delta_hi, size=exp.n_initial)
    n = exp.n_initial
    p0 = Portfolio(
        id=np.arange(n),
        omega=np.full(n, exp.omega),
        delta=np.minimum(_DELTA_CAP, deltas * delta_factor),
        k=np.full(n, exp.initial_k),
        born_at=np.zeros(n, dtype=np.int64),
        aggregator=AggregatorSpec(kind="ces", rho=exp.rho, epsilon_floor=exp.epsilon_floor),
        tech=PowerCodification(beta=exp.beta),
        Lambda=exp.Lambda,
    )
    entry = EntryConfig(
        mu=exp.mu * mu_factor,
        k_seed=exp.k_seed,
        omega_sigma=exp.omega_sigma,
        delta_lo=min(_DELTA_CAP, exp.delta_lo * delta_factor),
        delta_hi=min(_DELTA_CAP, exp.delta_hi * delta_factor),
    )
    scenario = run_portfolio_scenario(
        p0, exp.labor_budget, entry, exp.T, seed=derive_seed(rep_seed, "scenario")
    )
    # Dispersion is averaged over the last eval_window periods so that the
    # measurement is not hostage to whether a family happened to be born
    # right at the horizon.  Worker draws are keyed by family identity and
    # shared across periods: a family keeps the same underlying aptitude
    # column while its skill scale tracks its maturity.
    skills_seed = derive_seed(rep_seed, "skills")
    variances, ratios, shares, means = [], [], [], []
    all_converged = True
    for t in range(exp.T - exp.eval_window + 1, exp.T + 1):
        pt = scenario.portfolio_at(t)
        sigmas = maturity_skill_sigma(pt.k, exp.sigma_young, exp.sigma_mature, exp.k_ref)
        skills = WorkerSkillMatrix.generate(exp.n_workers, pt, seed=skills_seed, sigma_ln=sigmas)
        eq = solve_roy(skills, pt, tol=exp.tol)
        stats = wage_stats(eq.wages)
        variances.append(stats.log_wage_variance)
        ratios.append(stats.p90_p10)
        shares.append(stats.top_decile_share)
        means.append(stats.mean_wage)
        all_converged = all_converged and eq.converged
    averaged = DispersionStats(
        mean_wage=float(np.mean(means)),
        log_wage_variance=float(np.mean(variances)),
        p90_p10=float(np.mean(ratios)),
        top_decile_share=float(np.mean(shares)),
    )
    return ArmOutcome(stats=averaged, n_families=scenario.final.size, converged=all_converged)


def dispersion_experiment(
    experiment: RoyExperiment,
    treatment: str,
    factor: float,
    replications: int,
    seed: int,
) -> ExperimentResult:
    """Paired comparison of wage dispersion under faster family turnover.

    treatment "mu" scales the entry intensity; treatment "delta" scales
    every decay rate (initial families and the entrant distribution,
    capped below 1).  Both arms of a replication share all random draws
    through keyed substreams, so a factor of 1 reproduces the base arm
    exactly and differences isolate the treatment.
    """
    require(treatment in ("mu", "delta"), "treatment must be 'mu' or 'delta'")
    require(math.isfinite(factor) and factor > 0.0, "factor must be positive")
    require(isinstance(replications, int) and replications >= 1, "replications must be an integer >= 1")

    base: list[ArmOutcome] = []
    treated: list[ArmOutcome] = []
    diffs: list[float] = []
    for rep in range(replications):
        rep_seed = derive_seed(seed, "replication", rep)
        b = _run_arm(experiment, rep_seed, mu_factor=1.0, delta_factor=1.0)
        if treatment == "mu":
            t = _run_arm(experiment, rep_seed, mu_factor=factor, delta_factor=1.0)
        else:
            t = _run_arm(experiment, rep_seed, mu_factor=1.0, delta_factor=factor)
        base.append(b)
        treated.append(t)
        diffs.append(t.stats.log_wage_variance - b.stats.log_wage_variance)

    diffs_arr = np.asarray(diffs)
    return ExperimentResult(
        treatment=treatment,
        factor=factor,
        base=tuple(base),
        treated=tuple(treated),
        variance_diffs=tuple(diffs),
        mean_variance_diff=float(np.mean(diffs_arr)),
        share_positive=float(np.mean(diffs_arr > 0.0)),
    )
