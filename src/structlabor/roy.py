"""Worker assignment across task families and the wage distribution.

Workers carry family-specific skills and sort to whichever family pays
them the most.  A family's piece rate is the marginal value of labor on
its maintenance problem: effective weight times the marginal
codification product at the family's labor level.  Because piece rates
fall as labor crowds in, assignment and rates must be mutually
consistent.  With workers free to split their time between families
they are indifferent between, that equilibrium maximizes a strictly
concave potential, so it exists and its labor is unique; the solver
minimizes the potential's convex dual in log prices and certifies the
point it returns.  The module also runs paired counterfactual
experiments measuring how wage dispersion responds to faster family
turnover.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import require
from .parallel import ordered_map
from .portfolio import (
    EntryConfig,
    Portfolio,
    PowerCodification,
    AggregatorSpec,
    run_portfolio_scenario,
)
from .rng import derive_seed, stream
from .schema import DELTA_ORDER, EVAL_WINDOW, EXPERIMENT, ROY, SIGMA_ORDER, TREATED_INTENSITY, check, pair, real_column

_DELTA_CAP = 0.95
_ENTRANT_OMEGA_MEDIAN = 1.0  # median importance weight of an arm's entrants
# Labor at which piece rates are evaluated for families nobody serves, so their rates stay finite.
_LABOR_FLOOR = 1e-6
# Entropic smoothing of the dual, one Newton stage each, largest first.
_SMOOTHING = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
# From the second stage on, Newton holds every worker whose top-two gap
# exceeds _ACTIVE_GAP times the previous smoothing at their best family,
# and the stage ends with one exact finish at a tie width of its smoothing.
_ACTIVE_GAP = 20.0
# A stage ends once a Newton step moves no log price by more than
# _STEP_TOL times its smoothing, or after _NEWTON_STEPS steps.
_STEP_TOL = 0.1
_NEWTON_STEPS = 50


class WorkerSkillMatrix(NamedTuple):
    """Standard normal skill draws, one row per worker and one column per family.

    A family's column is keyed by its birth period and rank within that
    cohort, not by its roster row, so a roster's first families draw the same
    columns in any roster that extends it, such as a scenario's final one;
    :meth:`WorkerSkillMatrix.skills` applies the log-scales outside the draws.
    """

    z: np.ndarray

    @classmethod
    def generate(cls, n_workers: int, portfolio: Portfolio, seed: int) -> "WorkerSkillMatrix":
        """Draw ``n_workers`` normals per family of ``portfolio``, one stream per family identity."""
        require(isinstance(n_workers, int) and n_workers >= 1, "n_workers must be an integer >= 1")
        require(portfolio.size >= 1, "need at least one family")
        slot_within_cohort: dict[int, int] = {}
        z = np.empty((n_workers, portfolio.size))
        for col, born in enumerate(portfolio.born_at.tolist()):
            slot = slot_within_cohort.get(born, 0)
            slot_within_cohort[born] = slot + 1
            z[:, col] = stream(seed, f"skills:{born}:{slot}").standard_normal(n_workers)
        return cls(z)

    def skills(self, sigma_ln: Sequence[float]) -> np.ndarray:
        """Skills exp(sigma_j * z_ij) of the roster's first ``len(sigma_ln)``
        families, ``sigma_ln`` holding one log-scale per family."""
        sigmas = np.asarray(sigma_ln, dtype=float)
        j = self.z.shape[1]
        require(sigmas.ndim == 1 and 1 <= sigmas.size <= j, f"sigma_ln must have 1 to {j} entries, one per family")
        require(bool(np.all(np.isfinite(sigmas)) and np.all(sigmas >= 0.0)), "sigma_ln must be nonnegative")
        with np.errstate(over="ignore", under="ignore"):
            a = np.exp(self.z[:, : sigmas.size] * sigmas)
        require(
            bool(np.all(np.isfinite(a)) and np.all(a > 0.0)),
            "skill draws out of range: exp(sigma * z) leaves the float range; lower sigma_young",
        )
        return a


class RoyEquilibrium(NamedTuple):
    """A self-consistent assignment: who works where, at what rates.

    ``prices`` holds one piece rate per family, in the order of the skill
    columns, and ``labor`` the workers per family, split workers counted by
    their shares.  ``iterations`` counts Newton steps, ``converged`` says
    whether the point is certified, ``gap`` and ``residual`` are its
    complementarity gap and clearing residual (see :func:`solve_roy`), and
    ``tied_workers`` counts workers whose time is split between families.
    """

    assignment: np.ndarray
    labor: np.ndarray
    prices: np.ndarray
    wages: np.ndarray
    iterations: int
    residual: float
    converged: bool
    gap: float
    tied_workers: int


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


def family_prices(w: np.ndarray, tech: PowerCodification, labor: np.ndarray) -> np.ndarray:
    """Piece rates implied by a labor distribution over families.

    p_j = w_j * g'(max(l_j, floor)) with ``w`` the family weight column
    (effective weights, which already carry the economy-wide scale
    Lambda) and ``labor`` parallel to it.  The floor keeps rates finite
    for families nobody currently serves.
    """
    labor = np.asarray(labor, dtype=float)
    require(labor.shape == w.shape, "labor vector must have one entry per family")
    require(bool(np.all(np.isfinite(labor)) and np.all(labor >= 0.0)), "labor must be nonnegative")
    rates = w * np.asarray(tech.g_prime(np.maximum(labor, _LABOR_FLOOR)), dtype=float)
    require(bool(np.all(np.isfinite(rates)) and np.all(rates > 0.0)), "prices must be finite and positive")
    return rates


def _entropic_dual(pi, c, held, log_s, r, eps):
    """The dual smoothed by eps * logsumexp over the rows ``c``, its plan and the supplies.

    Workers outside ``c`` are held at their best family; ``held`` counts
    them per family, and their terms are linear in ``pi`` up to a constant.
    """
    plan = c + pi
    plan /= eps
    top = plan.max(axis=1, keepdims=True)
    plan -= top
    np.exp(plan, out=plan)
    z = plan.sum(axis=1, keepdims=True)
    plan /= z
    with np.errstate(over="ignore"):
        supply = np.exp(log_s - r * pi)
    value = eps * float(np.sum(top) + np.sum(np.log(z))) + float(held @ pi) + float(supply.sum()) / r
    return value, plan, supply


def _dual_newton(pi, c, held, log_s, r, eps):
    """Damped Newton on the smoothed dual from ``pi``.

    Returns the minimizer, its derivative d pi / d eps along the smoothing
    path, and the number of steps taken.  A step the line search cannot
    use ends the stage where it stands, with a zero derivative.
    """
    value, plan, supply = _entropic_dual(pi, c, held, log_s, r, eps)
    steps = 0
    while True:
        mass = plan.sum(axis=0)
        grad = mass + held - supply
        hess = (np.diag(mass) - plan.T @ plan) / eps + np.diag(r * supply)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return pi, np.zeros_like(pi), steps
        steps += 1
        if np.max(np.abs(step)) <= _STEP_TOL * eps or steps == _NEWTON_STEPS:
            break
        slope = float(grad @ step)
        t = 1.0
        while True:
            trial = pi + t * step
            trial_value, trial_plan, trial_supply = _entropic_dual(trial, c, held, log_s, r, eps)
            if trial_value <= value + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                return pi, np.zeros_like(pi), steps
        pi, value, plan, supply = trial, trial_value, trial_plan, trial_supply
    # d grad / d eps = -sum_i plan_i * (v_i - plan_i . v_i) / eps^2 with v = c + pi,
    # and along the path hess @ (d pi / d eps) = -d grad / d eps.
    v = c + pi
    drift = (plan * (v - np.sum(plan * v, axis=1, keepdims=True))).sum(axis=0) / eps**2
    return pi + step, np.linalg.solve(hess, drift), steps


def _finish(c, pi, log_s, r, width, tol):
    """The exact equilibrium whose tie workers are those within ``width`` of their best family.

    The other workers are held at their best family.  Returns the
    assignment shares x, the log prices and their gap and residual (see
    :func:`_certificates`), or None unless the ties form a forest and five
    checks pass: every held worker's family is still a best one and every
    tie worker is indifferent across its tie with nothing better outside
    it (both within ``tol`` in log wage), every share lies in [0, 1],
    every served family's labor is at or above the floor, and gap and
    residual are both at most ``tol * max(1, |G|)``.
    """
    n, j = c.shape
    floor_price = (log_s - math.log(_LABOR_FLOOR)) / r
    v = c + np.minimum(pi, floor_price)
    near = v >= (v.max(axis=1) - width)[:, None]
    links = near.sum(axis=1)
    tied = np.flatnonzero(links > 1)
    edges = int(np.sum(links[tied] - 1))
    held = np.flatnonzero(links == 1)
    best = np.argmax(near[held], axis=1)
    counts = np.bincount(best, minlength=j).astype(float)
    # Families linked by tie workers form components; each is labelled by
    # its lowest family index, found by squaring the reachability matrix.
    ties = near[tied].astype(float)
    reach = (ties.T @ ties + np.eye(j)) > 0.0
    for _ in range(edges.bit_length()):
        reach = (reach.astype(float) @ reach) > 0.0
    comp = np.argmax(reach, axis=1)
    roots = np.flatnonzero(comp == np.arange(j))
    if edges != j - roots.size:
        return None
    # Within a component each tie fixes one relative log price: a tie worker
    # earns the same c_if + pi_f in every family f of its tie.
    k_of, f_of = np.nonzero(ties)
    first = np.argmax(ties, axis=1)[k_of]
    rel = f_of != first
    system = np.zeros((j, j))
    rhs = np.zeros(j)
    rows = np.arange(edges)
    system[rows, f_of[rel]] = 1.0
    system[rows, first[rel]] = -1.0
    rhs[:edges] = c[tied[k_of[rel]], first[rel]] - c[tied[k_of[rel]], f_of[rel]]
    system[edges + np.arange(roots.size), roots] = 1.0
    delta = np.linalg.solve(system, rhs)
    # Each component's level clears its workers: sum_f S_f(pi_root + delta_f) = N_C.
    workers = np.bincount(comp, weights=counts, minlength=j) + np.bincount(comp[first[~rel]], minlength=j)
    q = log_s - r * delta
    top = np.full(j, -np.inf)
    np.maximum.at(top, comp, q)
    mass = np.bincount(comp, weights=np.exp(q - top[comp]), minlength=j)
    served = workers[comp] > 0.0
    root = comp[served]
    pi = floor_price.copy()
    pi[served] = delta[served] + (top[root] + np.log(mass[root]) - np.log(workers[root])) / r
    x = np.zeros((n, j))
    x[held, best] = 1.0
    if tied.size:
        # Tie shares: each tie worker's shares sum to one, and each family's
        # labor meets its supply; one family row per component is redundant.
        supply = np.exp(log_s - r * pi)
        linked = np.flatnonzero(ties.any(axis=0) & (comp != np.arange(j)))
        row_of = np.full(j, -1)
        row_of[linked] = tied.size + np.arange(linked.size)
        system = np.zeros((tied.size + linked.size, k_of.size))
        system[k_of, np.arange(k_of.size)] = 1.0
        on_row = np.flatnonzero(row_of[f_of] >= 0)
        system[row_of[f_of[on_row]], on_row] = 1.0
        shares = np.linalg.solve(system, np.concatenate([np.ones(tied.size), supply[linked] - counts[linked]]))
        if not np.all(shares >= 0.0):
            return None
        x[tied[k_of], f_of] = shares
    labor = x.sum(axis=0)
    if np.any((labor > 0.0) & (labor < _LABOR_FLOOR)):
        return None
    v = c + pi
    if np.any((v.max(axis=1)[:, None] - v)[x > 0.0] > tol):
        return None
    gap, residual, dual = _certificates(x, pi, c, log_s, r)
    if max(gap, residual) > tol * max(1.0, abs(dual)):
        return None
    return x, pi, gap, residual


def _certificates(x, pi, c, log_s, r):
    """Complementarity gap, clearing residual and dual value G of shares x at log prices pi."""
    v = c + pi
    u = v.max(axis=1)
    gap = float(np.sum(x * (u[:, None] - v)))
    with np.errstate(over="ignore"):
        supply = np.exp(log_s - r * pi)
    residual = float(np.max(np.abs(np.maximum(x.sum(axis=0), _LABOR_FLOOR) - supply)))
    dual = float(np.sum(u)) + float(np.sum(np.maximum(supply - _LABOR_FLOOR, 0.0))) / r
    return gap, residual, dual


def solve_roy(
    a: np.ndarray, w: np.ndarray, tech: PowerCodification, Lambda: float, tol: float
) -> RoyEquilibrium:
    """Find assignment and piece rates consistent with each other, with a certificate.

    ``a`` holds one row of strictly positive skills per worker and one
    column per family; ``w`` is the family weight column (effective
    weights, carrying the economy-wide scale ``Lambda``) and ``tech`` the
    codification technology g(l) = l**beta.  Worker i may split its unit
    across families: x_ij >= 0 with sum_j x_ij = 1.  In log prices pi,
    with c = log(a), worker i earns at most u_i = max_j(c_ij + pi_j), and
    family j's piece rate at labor l is w_j * g'(max(l, floor)), whose
    inverse is the supply
    S_j(pi_j) = (beta * w_j * exp(-pi_j))**(1 / (1 - beta)).  The
    equilibrium minimizes the convex dual

        G(pi) = sum_i u_i + (1 - beta) * sum_j max(S_j(pi_j) - floor, 0),

    and its labor vector is unique.  The solve runs damped Newton on G
    with the max smoothed to eps * logsumexp, eps falling tenfold per
    stage from ``_SMOOTHING[0]``; each stage starts from the previous one
    moved along the smoothing path.  From the second stage on, Newton
    holds each worker whose top-two gap is wide at its best family, and
    the stage ends with one exact finish (:func:`_finish`) from the point
    extrapolated to eps = 0, at a tie width of eps.  A finish is accepted
    when two certificates are at most ``tol * max(1, |G|)``: the
    complementarity gap sum_ij x_ij * (u_i - c_ij - pi_j), and the
    clearing residual max_j |max(l_j, floor) - S_j(pi_j)| with
    l_j = sum_i x_ij, which is zero exactly when every price is the one
    its labor implies.

    The solve runs on ``w / Lambda`` and the reported prices carry Lambda,
    so assignment and labor cannot depend on it.  ``assignment`` is each
    worker's largest-share family (lowest index on ties), ``labor`` is
    sum_i x_ij, ``prices`` come from :func:`family_prices` at that labor,
    and ``wages`` are each worker's best wage at those prices.  When no
    finish is accepted after the last stage, the result is the last
    smoothed point, with ``converged=False`` and its own gap and residual.
    """
    a, w = real_column("skills", a), real_column("weights", w)
    require(a.ndim == 2, "skill matrix must be two-dimensional")
    require(a.shape[0] >= 1 and a.shape[1] >= 1, "skill matrix must be nonempty")
    require(bool(np.all(np.isfinite(a)) and np.all(a > 0.0)), "skills must be finite and positive")
    require(w.shape == (a.shape[1],), "weights must have one entry per skill column")
    require(bool(np.all(np.isfinite(w)) and np.all(w > 0.0)), "weights must be finite and positive")
    check({"Lambda": Lambda, "tol": tol}, {"Lambda": ROY["Lambda"], "tol": ROY["tol"]})

    n, j = a.shape
    r = 1.0 / (1.0 - tech.beta)
    scale = tech.beta * (w / Lambda)
    require(bool(np.all(scale > 0.0)), "Roy supply out of range: beta * w / Lambda underflows to 0; raise beta or omega")
    log_s = r * np.log(scale)
    # Family j's supply at log price pi_j is S_j = exp(log_s_j - r * pi_j).
    c = np.log(a)
    # Start where every family's supply is n / j workers.
    pi = (log_s - math.log(n / j)) / r
    steps = 0
    found = None
    rows, held = c, np.zeros(j)
    for stage, eps in enumerate(_SMOOTHING):
        if stage:
            pi = pi + (eps - _SMOOTHING[stage - 1]) * tangent
            v = c + pi
            best = np.argmax(v, axis=1)
            top = v[np.arange(n), best]
            v[np.arange(n), best] = -np.inf
            active = top - v.max(axis=1) < _ACTIVE_GAP * _SMOOTHING[stage - 1]
            rows, held = c[active], np.bincount(best[~active], minlength=j).astype(float)
        pi, tangent, k = _dual_newton(pi, rows, held, log_s, r, eps)
        steps += k
        if stage:
            found = _finish(c, pi - eps * tangent, log_s, r, eps, tol)
            if found is not None:
                break
    if found is None:
        _, x, _ = _entropic_dual(pi, c, np.zeros(j), log_s, r, eps)
        gap, residual, _ = _certificates(x, pi, c, log_s, r)
    else:
        x, _, gap, residual = found
    labor = x.sum(axis=0)
    prices = family_prices(w, tech, labor)
    return RoyEquilibrium(
        assignment=np.argmax(x, axis=1),
        labor=labor,
        prices=prices,
        wages=(a * prices).max(axis=1),
        iterations=steps,
        residual=residual,
        converged=found is not None,
        gap=gap,
        tied_workers=int(np.count_nonzero(np.count_nonzero(x, axis=1) > 1)),
    )


def wage_stats(wages: np.ndarray) -> DispersionStats:
    """Dispersion statistics of a wage array.

    Log-wage variance is the sample statistic (ddof=1), taken in two
    passes; the decile ratio uses linearly interpolated quantiles; the
    top decile share uses the ceil(N/10) highest earners.  Every sum is a
    correctly rounded ``math.fsum``.
    """
    wages = np.asarray(wages, dtype=float)
    require(wages.ndim == 1 and wages.size >= 2, "need at least two wages")
    require(bool(np.all(np.isfinite(wages)) and np.all(wages > 0.0)), "wages must be finite and positive")
    n = wages.size
    logs = np.log(wages)
    p10, p90 = np.quantile(wages, [0.10, 0.90], method="linear")
    top = np.sort(wages)[-max(1, math.ceil(0.1 * n)):]
    total = math.fsum(wages)
    return DispersionStats(
        mean_wage=total / n,
        log_wage_variance=math.fsum((logs - math.fsum(logs) / n) ** 2) / (n - 1),
        p90_p10=float(p90 / p10),
        top_decile_share=math.fsum(top) / total,
    )


def maturity_skill_sigma(maturity, sigma_young: float, sigma_mature: float, k_ref: float):
    """Skill log-scale as a function of family maturity.

    Young, uncodified families draw suitable labor from a thin right
    tail, so their skill distribution is wide; as work standardizes the
    distribution compresses.  Interpolates from ``sigma_young`` at zero
    maturity toward ``sigma_mature``, with ``k_ref`` setting how fast
    codification compresses skills.
    """
    given = {"sigma_young": sigma_young, "sigma_mature": sigma_mature, "k_ref": k_ref}
    check(given, {name: ROY[name] for name in given}, (SIGMA_ORDER,))
    maturity = real_column("maturity", maturity)
    with np.errstate(over="ignore"):  # -maturity / k_ref may be -inf, whose exp is the limit 0
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
    overlap.  Each solve is certified to ``tol``, the only solver setting
    here; its smoothing schedule is a module constant, and each stage
    from the second on ends with one exact finish at a tie width of its
    smoothing.  ``delta_j`` is a ``(lo, hi)`` pair, stored as a tuple.
    """

    n_initial: int
    initial_k: float
    omega: float
    delta_j: tuple[float, float]
    rho: float
    beta: float
    Lambda: float
    epsilon_floor: float
    labor_budget: float
    T: int
    mu: float
    k_seed: float
    omega_sigma: float
    n_workers: int
    sigma_young: float
    sigma_mature: float
    k_ref: float
    eval_window: int
    tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_j", pair("delta_j", self.delta_j))
        check(vars(self), ROY, (DELTA_ORDER, EVAL_WINDOW, SIGMA_ORDER))


class ArmOutcome(NamedTuple):
    """One arm of one replication: its averaged statistics, the largest
    certificates and tie count of its solves, and their Newton steps."""

    stats: DispersionStats
    n_families: int
    gap_max: float
    residual_max: float
    tied_workers_max: int
    newton_steps: int


class ExperimentResult(NamedTuple):
    """Paired dispersion outcomes across replications."""

    treatment: str
    factor: float
    base: tuple[ArmOutcome, ...]
    treated: tuple[ArmOutcome, ...]
    variance_diffs: tuple[float, ...]
    mean_variance_diff: float
    share_positive: float


class _ArmInputs(NamedTuple):
    """What an arm's solves read: its scenario's final roster, the panel's
    maturity and effective-weight rows of the evaluated periods, the row
    offsets into those where each period starts and the last one ends,
    and the seed of its skill draws."""

    final: Portfolio
    bounds: list[int]
    maturity: np.ndarray
    effective_weight: np.ndarray
    skill_seed: int


def _arm_inputs(exp: RoyExperiment, rep_seed: int, mu_factor: float, delta_factor: float) -> _ArmInputs:
    init_gen = stream(rep_seed, "init-delta")
    deltas = init_gen.uniform(*exp.delta_j, size=exp.n_initial)
    n = exp.n_initial
    p0 = Portfolio(
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
        omega_median=_ENTRANT_OMEGA_MEDIAN,
        omega_sigma=exp.omega_sigma,
        delta_j=tuple(min(_DELTA_CAP, d * delta_factor) for d in exp.delta_j),
    )
    scenario = run_portfolio_scenario(
        p0, exp.labor_budget, entry, exp.T, seed=derive_seed(rep_seed, "scenario")
    )
    # Dispersion is averaged over the last eval_window periods so that the
    # measurement is not hostage to whether a family happened to be born
    # right at the horizon.  Copies, so the rest of the panel can go.
    bounds = np.searchsorted(scenario.period, np.arange(exp.T - exp.eval_window + 1, exp.T + 2))
    lo = int(bounds[0])
    return _ArmInputs(
        scenario.final,
        (bounds - lo).tolist(),
        scenario.maturity[lo:].copy(),
        scenario.effective_weight[lo:].copy(),
        derive_seed(rep_seed, "skills"),
    )


def _run_arm(exp: RoyExperiment, arm: _ArmInputs) -> ArmOutcome:
    """Solve each evaluated period of an arm and average its wage statistics.

    The panel is period-major and families never exit, so a period's rows
    are the final roster's first families: skills are drawn once, for the
    final roster, and each period scales its first columns by maturity.
    """
    draws = WorkerSkillMatrix.generate(exp.n_workers, arm.final, arm.skill_seed)
    eqs = []
    for lo, hi in zip(arm.bounds[:-1], arm.bounds[1:]):
        a = draws.skills(maturity_skill_sigma(arm.maturity[lo:hi], exp.sigma_young, exp.sigma_mature, exp.k_ref))
        eqs.append(solve_roy(a, arm.effective_weight[lo:hi], arm.final.tech, Lambda=exp.Lambda, tol=exp.tol))
    # Each statistic is averaged over the periods on its own.
    stats = zip(*(astuple(wage_stats(eq.wages)) for eq in eqs))
    return ArmOutcome(
        stats=DispersionStats(*map(_mean, stats)),
        n_families=arm.final.size,
        gap_max=max(eq.gap for eq in eqs),
        residual_max=max(eq.residual for eq in eqs),
        tied_workers_max=max(eq.tied_workers for eq in eqs),
        newton_steps=sum(eq.iterations for eq in eqs),
    )


def _mean(values) -> float:
    return math.fsum(values) / len(values)


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

    Every arm's scenario is built here, in replication order; the arms'
    solves then run as one task each over forked workers
    (:func:`~structlabor.parallel.ordered_map`), task 2 * rep the base arm
    and 2 * rep + 1 the treated one.  Results come back in task order, so
    the outcome does not depend on the number of workers.
    """
    arguments = {"treatment": treatment, "factor": factor, "replications": replications, "mu": experiment.mu}
    check(arguments, EXPERIMENT, (TREATED_INTENSITY,))

    mu_factor, delta_factor = (factor, 1.0) if treatment == "mu" else (1.0, factor)
    arms: list[_ArmInputs] = []
    for rep in range(replications):
        rep_seed = derive_seed(seed, "replication", rep)
        arms.append(_arm_inputs(experiment, rep_seed, mu_factor=1.0, delta_factor=1.0))
        arms.append(_arm_inputs(experiment, rep_seed, mu_factor=mu_factor, delta_factor=delta_factor))
    outcomes = list(ordered_map(lambda i: _run_arm(experiment, arms[i]), len(arms)))
    base, treated = tuple(outcomes[0::2]), tuple(outcomes[1::2])
    diffs = [t.stats.log_wage_variance - b.stats.log_wage_variance for b, t in zip(base, treated)]

    return ExperimentResult(
        treatment=treatment,
        factor=factor,
        base=base,
        treated=treated,
        variance_diffs=tuple(diffs),
        mean_variance_diff=_mean(diffs),
        share_positive=sum(d > 0.0 for d in diffs) / len(diffs),
    )
