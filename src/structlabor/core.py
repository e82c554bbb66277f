"""Baseline two-sector economy.

Final output is produced from fixed capital and direct production labor,
scaled by a stock of codified operational knowledge ("structured capability")
that raises total factor productivity.  The capability stock depreciates
every period and is replenished by maintenance labor, so the economy must
permanently divert part of its workforce away from production to keep the
stock from eroding.  This module provides the production function, factor
prices, the closed-form long-run allocation, its local sensitivities, and a
damped quasi-static transition path toward that allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require
from .schema import BASELINE, NONNEGATIVE, POSITIVE, TRANSITION, check


@dataclass(frozen=True)
class BaselineParams:
    """Parameters of the two-sector economy.  All rates are per period.

    alpha    capital share of output, in (0, 1)
    gamma    output elasticity of the capability stock, in (0, 1)
    r        discount rate used to price capability, positive
    delta_k  per-period decay rate of the capability stock, in (0, 1)
    eta      units of capability produced per unit of maintenance labor
    A_bar    neutral productivity level
    K        fixed stock of ordinary capital
    L_bar    total labor endowment
    """

    alpha: float
    gamma: float
    r: float
    delta_k: float
    eta: float
    A_bar: float
    K: float
    L_bar: float

    def __post_init__(self) -> None:
        check(vars(self), BASELINE)


class SteadyState(NamedTuple):
    """Long-run allocation and prices.

    s_star is the share of the labor endowment devoted to maintenance,
    wage the common wage earned in both activities, shadow_value the
    present value of a marginal unit of capability.
    """

    s_star: float
    L_S_star: float
    L_U_star: float
    k_star: float
    Y_star: float
    wage: float
    shadow_value: float


class TransitionPath(NamedTuple):
    """A simulated path as parallel columns over periods 0..n-1, with convergence bookkeeping.

    ``t`` holds the periods (integers); ``k``, ``L_S``, ``L_U``, ``Y``,
    ``w_U``, ``w_S`` and ``shadow_value`` hold the stock, the two labor
    uses, output, the two wages and the stock's shadow value per period.
    """

    t: np.ndarray
    k: np.ndarray
    L_S: np.ndarray
    L_U: np.ndarray
    Y: np.ndarray
    w_U: np.ndarray
    w_S: np.ndarray
    shadow_value: np.ndarray
    damping: float
    converged: bool
    periods_to_converge: int | None


def output(params: BaselineParams, k: float, L_U: float) -> float:
    """Output at capability stock ``k`` and production labor ``L_U``.

    Cobb-Douglas in capital and production labor with the capability
    stock entering as an additional productive factor of elasticity
    gamma.  Zero production labor yields zero output.
    """
    check({"k": k, "L_U": L_U}, {"k": POSITIVE, "L_U": NONNEGATIVE})
    if L_U == 0.0:
        return 0.0
    return (
        params.A_bar
        * k**params.gamma
        * params.K**params.alpha
        * L_U ** (1.0 - params.alpha)
    )


def marginals(params: BaselineParams, k: float, L_U: float) -> tuple[float, float, float]:
    """Production-labor wage, marginal product of capability, and its value.

    Returns ``(w_U, dY_dk, v)`` where ``v`` discounts the flow marginal
    product at the effective rate ``r + delta_k``.  Requires strictly
    positive production labor since the wage is a per-worker quantity.
    """
    check({"L_U": L_U}, {"L_U": POSITIVE})
    y = output(params, k, L_U)
    w_u = (1.0 - params.alpha) * y / L_U
    dy_dk = params.gamma * y / k
    v = dy_dk / (params.r + params.delta_k)
    return w_u, dy_dk, v


def structured_share(alpha, gamma, r, delta_k):
    """Closed-form long-run maintenance share of the labor endowment.

    s* = gamma*delta_k / (gamma*delta_k + (1-alpha)*(r+delta_k)).

    Accepts scalars or numpy arrays and performs no validation, so it can
    be applied to large parameter panels; use :func:`steady_state` for the
    checked scalar path.  The share never depends on eta, A_bar, K, or
    L_bar: those shift levels, not the split.
    """
    num = gamma * delta_k
    return num / (num + (1.0 - alpha) * (r + delta_k))


def steady_state(params: BaselineParams) -> SteadyState:
    """Long-run allocation, capability stock, output, and prices.

    In the long run the capability stock is stationary (inflow from
    maintenance labor equals decay) and labor is paid the same in both
    activities, which pins down the closed-form share.
    """
    a, g, r, d = params.alpha, params.gamma, params.r, params.delta_k
    underflow = "steady state out of range: gamma * delta_k and (1 - alpha) * (r + delta_k) both underflow to 0"
    require(g * d + (1.0 - a) * (r + d) > 0.0, underflow)
    s = float(structured_share(a, g, r, d))
    l_s = s * params.L_bar
    l_u = params.L_bar - l_s
    k = params.eta / params.delta_k * l_s
    y = output(params, k, l_u)
    w_u, _, v = marginals(params, k, l_u)
    return SteadyState(
        s_star=s,
        L_S_star=l_s,
        L_U_star=l_u,
        k_star=k,
        Y_star=y,
        wage=w_u,
        shadow_value=v,
    )


def comparative_statics(params: BaselineParams) -> tuple[float, float, float]:
    """Partial derivatives of the long-run share s*.

    Returns ``(ds/dgamma, ds/dr, ds/ddelta_k)`` evaluated at ``params``.
    With D = gamma*delta_k + (1-alpha)*(r+delta_k):

        ds/dgamma =  delta_k*(1-alpha)*(r+delta_k) / D^2   (> 0)
        ds/dr     = -gamma*delta_k*(1-alpha)       / D^2   (< 0)
        ds/ddelta =  gamma*(1-alpha)*r             / D^2   (> 0)

    A more valuable capability stock pulls labor into maintenance; a
    higher discount rate cheapens the stock and pushes labor out; faster
    decay raises the labor needed to hold the stock steady.
    """
    a, g, r, d = params.alpha, params.gamma, params.r, params.delta_k
    try:
        denom = (g * d + (1.0 - a) * (r + d)) ** 2
    except OverflowError:
        raise DomainError("comparative statics out of range: D**2 overflows") from None
    require(denom > 0.0, "comparative statics out of range: D**2 underflows")
    ds_dgamma = d * (1.0 - a) * (r + d) / denom
    ds_dr = -g * d * (1.0 - a) / denom
    ds_ddelta = g * (1.0 - a) * r / denom
    return ds_dgamma, ds_dr, ds_ddelta


def _labor_response_slope(params: BaselineParams) -> float:
    """Slope of the quasi-static labor target in the capability stock.

    The target allocation keeps the stock's marginal value equal to its
    maintenance cost each period; solving that condition gives
    L_S = L_bar - c*k with c = (1-alpha)*(r+delta_k)/(eta*gamma).
    """
    eta_gamma = params.eta * params.gamma  # 0 only by underflow: the target is then infinitely steep
    return (1.0 - params.alpha) * (params.r + params.delta_k) / eta_gamma if eta_gamma else math.inf


def default_damping(params: BaselineParams) -> float:
    """Damping factor that keeps the two-variable update locally stable.

    The undamped quasi-static update can overshoot when the labor target
    responds steeply to the stock (large eta or small gamma).  The linearized
    update matrix has trace 2 - delta_k - lam*(1 + eta*c) and determinant
    (1-lam)*(1-delta_k); choosing lam <= 0.9*(2-delta_k)/(eta*c) keeps every
    eigenvalue inside the unit circle with a margin, and lam = 1 is already
    safe when the response is shallow.  An eta*c that overflows, leaving
    lam = 0, is a domain error.
    """
    lam = min(1.0, 0.9 * (2.0 - params.delta_k) / (params.eta * _labor_response_slope(params)))
    require(lam > 0.0, "default damping is 0 as the labor response eta * c overflows; set transition.damping")
    return lam


def simulate_transition(
    params: BaselineParams,
    k0: float,
    L_S0: float,
    T: int,
    damping: float | None,
    tol: float,
) -> TransitionPath:
    """Damped quasi-static transition from ``(k0, L_S0)``.

    Each period the stock accumulates according to last period's
    maintenance labor, then labor moves part of the way (fraction
    ``damping``) toward the target allocation implied by the current
    stock, truncated to the feasible interval [0, L_bar].  The path is
    flagged converged at the first recorded period whose share and stock
    are both within relative ``tol`` of their long-run values; recording
    stops there.  With ``damping=None`` a stable factor is chosen from
    the parameters.

    Returns a path of at most ``T + 1`` periods, 0..T, as columns.
    """
    given = {"k0": k0, "L_S0": L_S0, "T": T, "damping": damping, "tol": tol}
    check(given, {name: row for name, row in TRANSITION.items() if given[name] is not None})
    require(L_S0 <= params.L_bar, "L_S0 must be <= L_bar")
    lam = default_damping(params) if damping is None else float(damping)

    ss = steady_state(params)
    c = _labor_response_slope(params)
    rows: list[tuple[float, ...]] = []
    periods: int | None = None

    k = float(k0)
    l_s = float(L_S0)
    for t in range(T + 1):
        if t > 0:
            k = (1.0 - params.delta_k) * k + params.eta * l_s
            target = min(max(params.L_bar - c * k, 0.0), params.L_bar)
            l_s = (1.0 - lam) * l_s + lam * target
        l_u = params.L_bar - l_s
        y = output(params, k, l_u)
        # With no production labor output is zero: the wage is unbounded and capability worthless.
        w_u, _, v = marginals(params, k, l_u) if l_u > 0.0 else (math.inf, 0.0, 0.0)
        rows.append((k, l_s, l_u, y, w_u, params.eta * v, v))
        share_gap = abs(l_s / params.L_bar - ss.s_star)
        stock_gap = abs(k - ss.k_star)
        if share_gap <= tol * ss.s_star and stock_gap <= tol * ss.k_star:
            periods = t
            break

    return TransitionPath(
        np.arange(len(rows), dtype=np.int64),
        *np.array(rows).T,
        damping=lam,
        converged=periods is not None,
        periods_to_converge=periods,
    )
