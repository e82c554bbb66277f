"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles, without
importing model formulas from the package: root finding on the
equilibrium conditions instead of closed forms, finite differences
instead of analytic derivatives, brute-force enumeration instead of
solvers.  Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from structlabor.errors import DomainError

mp.mp.dps = 50


def share_bisection(alpha: float, gamma: float, r: float, delta_k: float) -> float:
    """Long-run maintenance share by bisection on the stationarity condition.

    At the long-run allocation the wage earned maintaining the stock equals
    the production wage.  Substituting the stationary stock k = eta*s*L/delta
    into eta * v = w_U and cancelling output reduces the condition to

        gamma * delta_k * (1 - s) - (1 - alpha) * (r + delta_k) * s = 0,

    which is strictly decreasing in s with a sign change on (0, 1).
    """

    def f(s: float) -> float:
        return gamma * delta_k * (1.0 - s) - (1.0 - alpha) * (r + delta_k) * s

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_long_run(
    alpha, gamma, r, delta_k, eta=1.0, A_bar=1.0, K=1.0, L_bar=1.0
) -> dict:
    """High-precision long-run quantities from the equilibrium conditions.

    Solves for the share s at which the value of maintenance labor equals
    the production wage, with the stock stationary, using mpmath root
    finding on the primitive condition (no closed form involved); then
    evaluates stock, output, and prices along the same primitives.
    """
    with mp.workdps(60):
        alpha, gamma, r, delta_k, eta, A_bar, K, L_bar = (
            mp.mpf(repr(x)) for x in (alpha, gamma, r, delta_k, eta, A_bar, K, L_bar)
        )

        def wage_gap(s):
            k = eta * s * L_bar / delta_k
            l_u = (1 - s) * L_bar
            y = A_bar * k**gamma * K**alpha * l_u ** (1 - alpha)
            w_u = (1 - alpha) * y / l_u
            v = (gamma * y / k) / (r + delta_k)
            return eta * v - w_u

        s = mp.findroot(
            wage_gap, (mp.mpf("1e-8"), mp.mpf("0.999999")), solver="anderson"
        )
        k = eta * s * L_bar / delta_k
        l_u = (1 - s) * L_bar
        y = A_bar * k**gamma * K**alpha * l_u ** (1 - alpha)
        w_u = (1 - alpha) * y / l_u
        v = (gamma * y / k) / (r + delta_k)
        return {
            "s": s,
            "L_S": s * L_bar,
            "L_U": l_u,
            "k": k,
            "Y": y,
            "wage": w_u,
            "shadow_value": v,
        }


def mp_output(alpha, gamma, A_bar, K, k, L_U):
    alpha, gamma, A_bar, K, k, L_U = (mp.mpf(repr(x)) for x in (alpha, gamma, A_bar, K, k, L_U))
    return A_bar * k**gamma * K**alpha * L_U ** (1 - alpha)


def fd_share_partials(alpha: float, gamma: float, r: float, delta_k: float, share_fn) -> tuple:
    """Central finite differences of a share function in (gamma, r, delta_k)."""

    def diff(lo_args, hi_args, h):
        return (share_fn(*hi_args) - share_fn(*lo_args)) / (2.0 * h)

    out = []
    for pos, value in ((1, gamma), (2, r), (3, delta_k)):
        h = 1e-6 * max(abs(value), 1e-3)
        args_lo = [alpha, gamma, r, delta_k]
        args_hi = [alpha, gamma, r, delta_k]
        args_lo[pos] = value - h
        args_hi[pos] = value + h
        out.append(diff(args_lo, args_hi, h))
    return tuple(out)


def grid_allocation_value(weights, beta: float, L_S: float, steps: int = 200) -> float:
    """Best value of sum_j w_j * l_j**beta over a simplex grid (3 families)."""
    w = np.asarray(weights, dtype=float)
    assert w.shape == (3,)
    frac = np.linspace(0.0, 1.0, steps + 1)
    l1, l2 = np.meshgrid(frac * L_S, frac * L_S, indexing="ij")
    l3 = L_S - l1 - l2
    feasible = l3 >= -1e-15
    l3 = np.clip(l3, 0.0, None)
    value = w[0] * l1**beta + w[1] * l2**beta + w[2] * l3**beta
    return float(np.max(value[feasible]))


def allocation_value(weights, beta: float, labor) -> float:
    w = np.asarray(weights, dtype=float)
    labor = np.asarray(labor, dtype=float)
    return float(np.sum(w * labor**beta))


def g_inv(tech, y):
    """Labor a power technology needs to codify ``y`` units of maturity: l = y**(1/beta)."""
    return np.power(y, 1.0 / tech.beta)


def g_prime_inv(tech, m):
    """Labor at which a power technology's marginal product beta * l**(beta-1) equals ``m`` (> 0)."""
    return np.power(np.asarray(m, dtype=float) / tech.beta, -1.0 / (1.0 - tech.beta))


def maintenance_labor(portfolio) -> np.ndarray:
    """Labor per family that exactly offsets one period of decay at current maturity.

    Solves g(l_j) = delta_j * k_j, the inflow needed to hold each
    family's maturity constant.
    """
    return np.asarray(g_inv(portfolio.tech, portfolio.delta * portfolio.k), dtype=float)


def allocate_bisection(tech, w, L_S: float, steps: int = 200) -> tuple[np.ndarray, float]:
    """Labor split by bisection on the allocation multiplier, with its KKT residual.

    Total labor demand sum_j g'^{-1}(nu / w_j) is continuous and strictly
    decreasing in nu, diverges as nu -> 0, and vanishes as nu -> inf, so
    the budget constraint has a unique root.  Works for any power
    technology; the split is rescaled uniformly to land exactly on the
    budget, which leaves the marginal conditions of a power technology
    untouched.  The residual is the spread of w_j * g'(l_j) over served
    families.
    """
    w = np.asarray(w, dtype=float)

    def demand(nu: float) -> float:
        return float(np.sum(g_prime_inv(tech, nu / w)))

    nu = float(np.median(w) * tech.g_prime(L_S / len(w)))
    lo = hi = nu
    while demand(lo) < L_S:
        lo /= 2.0
        assert lo > 0.0, "bisection failed to bracket the multiplier from below"
    while demand(hi) > L_S:
        hi *= 2.0
        assert math.isfinite(hi), "bisection failed to bracket the multiplier from above"
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if demand(mid) > L_S:
            lo = mid
        else:
            hi = mid
    labor = np.asarray(g_prime_inv(tech, 0.5 * (lo + hi) / w), dtype=float)
    labor = labor * (L_S / labor.sum())
    active = labor > 0.0
    marginal = w[active] * np.asarray(tech.g_prime(labor[active]), dtype=float)
    return labor, float(np.max(marginal) - np.min(marginal))


def validate_codification(tech, points=(0.25, 0.5, 1.0, 2.0, 4.0)) -> None:
    """Numerically check the shape restrictions on a codification technology.

    Requires g(0) = 0, a positive and strictly decreasing marginal
    product at the sample points, :func:`g_inv` inverting ``g``, and
    :func:`g_prime_inv` inverting ``g_prime``.  Raises
    :class:`DomainError` on the first violation.
    """

    def require(cond: bool, msg: str) -> None:
        if not cond:
            raise DomainError(msg)

    require(float(tech.g(0.0)) == 0.0, "codification must satisfy g(0) = 0")
    pts = sorted(float(p) for p in points)
    require(len(pts) >= 2 and pts[0] > 0.0, "need at least two positive sample points")
    previous = math.inf
    for p in pts:
        m = float(tech.g_prime(p))
        require(m > 0.0, "marginal codification product must be positive")
        require(m < previous, "marginal codification product must be strictly decreasing")
        previous = m
        require(
            abs(float(g_inv(tech, float(tech.g(p)))) - p) <= 1e-9 * max(1.0, p),
            "g_inv must invert g",
        )
        require(
            abs(float(g_prime_inv(tech, m)) - p) <= 1e-9 * max(1.0, p),
            "g_prime_inv must invert g_prime",
        )


def roy_consistent_assignments(
    a: np.ndarray, weights, beta: float, labor_floor: float = 1e-6
) -> list[tuple[int, ...]]:
    """Every self-consistent assignment, by exhaustive enumeration.

    An assignment maps each worker to a family.  It is self-consistent
    when, at the piece rates implied by its own head counts
    (p_j = w_j * beta * max(n_j, floor)**(beta-1)), every worker's
    assigned family attains their maximum available wage.
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(weights, dtype=float)
    n, j = a.shape
    consistent = []
    for assign in itertools.product(range(j), repeat=n):
        counts = np.bincount(np.asarray(assign), minlength=j).astype(float)
        rates = w * beta * np.maximum(counts, labor_floor) ** (beta - 1.0)
        wages = a * rates
        best = wages.max(axis=1)
        chosen = wages[np.arange(n), list(assign)]
        if np.all(chosen >= best - 1e-12):
            consistent.append(tuple(assign))
    return consistent


def corner_share_extremes(alpha_box, r_box, delta_box, gamma_box, share_fn) -> tuple[float, float]:
    """Exact share extremes by evaluating every corner of the prior box."""
    values = [
        share_fn(alpha, gamma, r, delta)
        for alpha in alpha_box
        for r in r_box
        for delta in delta_box
        for gamma in gamma_box
    ]
    return min(values), max(values)


def run_portfolio_scenario_reference(portfolio, labor_budget, entry, T, seed, drift):
    """The scenario as a per-period loop that rebuilds its portfolio every period.

    It pins arithmetic, not the model:
    each period builds and validates a new ``Portfolio`` holding the
    decayed stocks plus that period's entrants, keeps one column block
    per period, and joins the blocks at the end.  The weight, allocation
    and decay formulas are written out here in the package's operation
    order, so the package's scenario must match this loop bit for bit;
    at rho = 1 they are the additive closed forms ``Lambda * omega`` and
    ``omega . k``.  The drift windows are the periods
    ``range(start, T, every)`` and the hazard is summed here as well.
    Families are numbered by roster row.  Returns a ``ScenarioResult``.
    """
    from structlabor.portfolio import Portfolio, ScenarioResult, _draw_entrants
    from structlabor.rng import stream

    def weights(p):
        rho = float(p.aggregator.rho)
        if rho == 1.0:
            return p.Lambda * p.omega
        k = np.maximum(p.k, p.aggregator.epsilon_floor)
        inner = float(np.dot(p.omega, np.power(k, rho)))
        return p.Lambda * p.omega * np.power(k, rho - 1.0) * inner ** ((1.0 - rho) / rho)

    def aggregate(p):
        rho = float(p.aggregator.rho)
        if rho == 1.0:
            return float(np.dot(p.omega, p.k))
        with np.errstate(divide="ignore"):
            return float(np.dot(p.omega, np.power(p.k, rho)) ** (1.0 / rho))

    def allocate(w, beta):
        if labor_budget == 0.0:
            return np.zeros(w.shape[0])
        shares = np.power(w, 1.0 / (1.0 - beta))
        return labor_budget * shares / shares.sum()

    tech = set() if drift is None else set(range(drift.tech_start, T, drift.tech_every))
    org = set() if drift is None else set(range(drift.org_start, T, drift.org_every))
    blocks = {"family_id": [], "maturity": [], "labor": [], "effective_weight": []}
    capability = np.empty(T + 1)
    events = []
    p = portfolio
    for t in range(T + 1):
        w = weights(p)
        labor = allocate(w, p.tech.beta)
        for name, block in zip(blocks, (np.arange(p.size), p.k, labor, w)):
            blocks[name].append(block)
        capability[t] = aggregate(p)
        if t == T:
            break
        columns = [p.omega, p.delta, (1.0 - p.delta) * p.k + p.tech.g(labor), p.born_at]
        omegas, deltas = _draw_entrants(entry, stream(seed, "entry", t))
        if omegas:
            n = len(omegas)
            added = [omegas, deltas, np.full(n, entry.k_seed), np.full(n, t + 1)]
            columns = [np.concatenate([old, new]) for old, new in zip(columns, added)]
        stepped = Portfolio(*columns, p.aggregator, p.tech, p.Lambda)
        if drift is not None:
            hazard = drift.env_hazard + (drift.tech_hazard if t in tech else 0.0) + (drift.org_hazard if t in org else 0.0)
            hit = stream(seed, "drift", t).uniform(size=p.size) < hazard
            if np.any(hit):
                k = stepped.k[: p.size]
                k[hit] = k[hit] * (1.0 - drift.drop_frac)
                events.extend((i, t) for i in np.flatnonzero(hit).tolist())
        p = stepped

    periods = np.arange(T + 1, dtype=np.int64)
    pairs = np.array(events, dtype=np.int64).reshape(-1, 2)
    sizes = [block.shape[0] for block in blocks["family_id"]]
    in_tech = [t in tech for t in range(T + 1)]
    in_org = [t in org for t in range(T + 1)]
    return ScenarioResult(
        **{name: np.concatenate(column) for name, column in blocks.items()},
        period=np.repeat(periods, sizes),
        tech_window=np.repeat(np.asarray(in_tech, dtype=bool), sizes),
        org_window=np.repeat(np.asarray(in_org, dtype=bool), sizes),
        periods=periods,
        capability=capability,
        labor_budget=np.full(T + 1, float(labor_budget)),
        final=p,
        event_family_id=pairs[:, 0],
        event_period=pairs[:, 1],
    )
