import math
from dataclasses import replace

import numpy as np
import pytest

from structlabor.core import (
    BaselineParams,
    comparative_statics,
    default_damping,
    marginals,
    output,
    simulate_transition,
    steady_state,
    structured_share,
)
from structlabor.errors import DomainError

from defaults import DEFAULTS
from oracles import fd_share_partials, mp_long_run, mp_output, share_bisection

BASELINE = DEFAULTS.baseline


def unit_eta(**values):
    """The default baseline at ``values``, with eta 1.0 unless given."""
    return replace(BASELINE, **{"eta": 1.0, **values})


def transition(k0, L_S0, **given):
    """A transition from BASELINE with T 1000 and the config's damping and tol, unless given."""
    options = {"T": 1000, "damping": DEFAULTS.transition.damping, "tol": DEFAULTS.transition.tol, **given}
    return simulate_transition(BASELINE, k0=k0, L_S0=L_S0, **options)


def test_baseline_params_bounds():
    with pytest.raises(DomainError):
        unit_eta(alpha=0.0, gamma=0.05, r=0.04, delta_k=0.15)
    with pytest.raises(DomainError):
        unit_eta(alpha=1.0, gamma=0.05, r=0.04, delta_k=0.15)
    with pytest.raises(DomainError):
        unit_eta(alpha=0.36, gamma=0.0, r=0.04, delta_k=0.15)
    with pytest.raises(DomainError):
        unit_eta(alpha=0.36, gamma=0.05, r=0.0, delta_k=0.15)
    with pytest.raises(DomainError):
        unit_eta(alpha=0.36, gamma=0.05, r=0.04, delta_k=1.0)
    with pytest.raises(DomainError):
        unit_eta(alpha=0.36, gamma=0.05, r=0.04, delta_k=0.15, eta=0.0)
    with pytest.raises(DomainError):
        unit_eta(alpha=math.nan, gamma=0.05, r=0.04, delta_k=0.15)


def test_output_matches_high_precision_reference():
    y = output(BASELINE, 1.2, 0.9)
    assert y == pytest.approx(0.9433530726310454, rel=0, abs=0)
    ref = mp_output(BASELINE.alpha, BASELINE.gamma, BASELINE.A_bar, BASELINE.K, 1.2, 0.9)
    assert abs(y - float(ref)) < 1e-14


def test_output_zero_labor_is_zero():
    assert output(BASELINE, 1.0, 0.0) == 0.0


def test_output_rejects_bad_inputs():
    with pytest.raises(DomainError):
        output(BASELINE, 0.0, 0.5)
    with pytest.raises(DomainError):
        output(BASELINE, -1.0, 0.5)
    with pytest.raises(DomainError):
        output(BASELINE, 1.0, -0.1)
    with pytest.raises(DomainError):
        output(BASELINE, math.inf, 0.5)


def test_marginals_identities():
    w_u, dy_dk, v = marginals(BASELINE, 1.2, 0.9)
    y = output(BASELINE, 1.2, 0.9)
    assert w_u == pytest.approx((1 - BASELINE.alpha) * y / 0.9)
    assert dy_dk == pytest.approx(BASELINE.gamma * y / 1.2)
    assert v == pytest.approx(dy_dk / (BASELINE.r + BASELINE.delta_k))
    with pytest.raises(DomainError):
        marginals(BASELINE, 1.2, 0.0)


def test_steady_state_frozen_values():
    # Reference values pinned against the independent high-precision solver.
    ss = steady_state(BASELINE)
    assert ss.s_star == 0.05809450038729667
    assert ss.k_star == 0.0774593338497289
    assert ss.Y_star == 0.8468731830705967
    assert ss.wage == 0.5754280417600739
    assert ss.shadow_value == 2.8771402088003692


def test_steady_state_agrees_with_equilibrium_root_finder():
    ss = steady_state(BASELINE)
    ref = mp_long_run(
        BASELINE.alpha, BASELINE.gamma, BASELINE.r, BASELINE.delta_k,
        eta=BASELINE.eta,
    )
    assert abs(ss.s_star - float(ref["s"])) < 1e-14
    assert abs(ss.k_star - float(ref["k"])) < 1e-14
    assert abs(ss.Y_star - float(ref["Y"])) < 1e-14
    assert abs(ss.wage - float(ref["wage"])) < 1e-14
    assert abs(ss.shadow_value - float(ref["shadow_value"])) < 1e-13


def test_steady_state_wages_equalize():
    # The long-run wage must price maintenance and production identically:
    # eta * shadow_value == wage.
    for params in (
        BASELINE,
        BaselineParams(alpha=0.33, gamma=0.08, r=0.03, delta_k=0.25, eta=1.7, A_bar=2.0, K=3.0, L_bar=5.0),
    ):
        ss = steady_state(params)
        assert params.eta * ss.shadow_value == pytest.approx(ss.wage, rel=1e-12)
        w_u, _, _ = marginals(params, ss.k_star, ss.L_U_star)
        assert w_u == pytest.approx(ss.wage, rel=1e-12)


def test_share_independent_of_scale_parameters():
    base = steady_state(BASELINE).s_star
    scaled = steady_state(
        BaselineParams(
            alpha=BASELINE.alpha, gamma=BASELINE.gamma, r=BASELINE.r,
            delta_k=BASELINE.delta_k, eta=3.0, A_bar=7.0, K=0.2, L_bar=11.0,
        )
    ).s_star
    assert base == pytest.approx(scaled, rel=1e-14)


def test_structured_share_matches_bisection_on_random_box():
    rng = np.random.Generator(np.random.Philox(key=20260822))
    for _ in range(50):
        alpha = rng.uniform(0.33, 0.40)
        r = rng.uniform(0.03, 0.05)
        delta = rng.uniform(0.08, 0.25)
        gamma = rng.uniform(0.02, 0.08)
        s = structured_share(alpha, gamma, r, delta)
        assert abs(s - share_bisection(alpha, gamma, r, delta)) <= 1e-10 * s


def test_structured_share_vectorizes():
    alpha = np.array([0.33, 0.40])
    gamma = np.array([0.02, 0.08])
    r = np.array([0.03, 0.05])
    delta = np.array([0.08, 0.25])
    vec = structured_share(alpha, gamma, r, delta)
    for i in range(2):
        assert vec[i] == structured_share(alpha[i], gamma[i], r[i], delta[i])


def test_share_positive_for_any_positive_decay():
    for delta in (1e-12, 1e-6, 1e-3):
        assert structured_share(0.36, 0.05, 0.04, delta) > 0.0


def test_comparative_statics_frozen_values_and_signs():
    ds_dgamma, ds_dr, ds_ddelta = comparative_statics(BASELINE)
    assert ds_dgamma == 1.0943905882409413
    assert ds_dr == -0.28799752322130034
    assert ds_ddelta == 0.0767993395256801
    assert ds_dgamma > 0 and ds_dr < 0 and ds_ddelta > 0


def test_comparative_statics_match_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(25):
        alpha = rng.uniform(0.33, 0.40)
        r = rng.uniform(0.03, 0.05)
        delta = rng.uniform(0.08, 0.25)
        gamma = rng.uniform(0.02, 0.08)
        params = unit_eta(alpha=alpha, gamma=gamma, r=r, delta_k=delta)
        analytic = comparative_statics(params)
        numeric = fd_share_partials(alpha, gamma, r, delta, structured_share)
        for a, n in zip(analytic, numeric):
            assert a == pytest.approx(n, rel=1e-6)


def test_default_damping_value_and_cap():
    assert default_damping(BASELINE) == 0.6846217105263158
    # A shallow response leaves the update undamped.
    gentle = replace(BASELINE, gamma=0.5)
    assert default_damping(gentle) == 1.0


DAMPING_IS_ZERO = "default damping is 0 as the labor response eta * c overflows; set transition.damping"


@pytest.mark.parametrize(
    "values",
    [{"r": 1.7976931348623157e308}, {"gamma": 1e-300, "eta": 1e-10}, {"gamma": 1e-200, "eta": 1e-200}],
    ids=["c-overflows", "eta-gamma-subnormal", "eta-gamma-underflows"],
)
def test_default_damping_refuses_an_overflowing_labor_response(values):
    # A damping of 0 would leave the path where it starts, outside (0, 1].
    with pytest.raises(DomainError) as exc:
        default_damping(replace(BASELINE, **values))
    assert str(exc.value) == DAMPING_IS_ZERO


def test_default_damping_may_be_tiny():
    assert 0.0 < default_damping(replace(BASELINE, r=1e300)) < 1e-300


def test_transition_reaches_long_run_allocation():
    ss = steady_state(BASELINE)
    path = transition(k0=0.5 * ss.k_star, L_S0=0.5 * ss.L_S_star)
    assert path.converged
    assert path.periods_to_converge == 38
    assert len(path.t) == 39
    assert path.L_S[-1] == pytest.approx(ss.L_S_star, rel=1e-9)
    assert path.k[-1] == pytest.approx(ss.k_star, rel=1e-9)


def test_transition_first_point_is_the_initial_condition():
    path = transition(k0=0.02, L_S0=0.01, T=5, tol=1e-16)
    assert path.k[0] == 0.02
    assert path.L_S[0] == 0.01
    assert path.t.dtype == np.int64
    assert path.t.tolist() == list(range(len(path.t)))
    columns = [path.t, path.k, path.L_S, path.L_U, path.Y, path.w_U, path.w_S, path.shadow_value]
    assert all(c.shape == path.t.shape for c in columns)
    assert all(c.dtype == np.float64 for c in columns[1:])


def test_transition_update_rule_is_the_documented_one():
    lam = 0.4
    path = transition(k0=0.02, L_S0=0.01, T=3, damping=lam, tol=1e-16)
    c = (1 - BASELINE.alpha) * (BASELINE.r + BASELINE.delta_k) / (BASELINE.eta * BASELINE.gamma)
    k1 = (1 - BASELINE.delta_k) * 0.02 + BASELINE.eta * 0.01
    target = min(max(BASELINE.L_bar - c * k1, 0.0), BASELINE.L_bar)
    l1 = (1 - lam) * 0.01 + lam * target
    assert path.k[1] == pytest.approx(k1, rel=1e-15)
    assert path.L_S[1] == pytest.approx(l1, rel=1e-15)


def test_transition_path_prices():
    path = transition(k0=0.02, L_S0=0.01, T=5, tol=1e-16)
    w_u, dy_dk, v = marginals(BASELINE, path.k[2], path.L_U[2])
    assert path.w_U[2] == pytest.approx(w_u, rel=1e-12)
    assert path.shadow_value[2] == pytest.approx(v, rel=1e-12)
    assert path.w_S[2] == pytest.approx(BASELINE.eta * v, rel=1e-12)


def test_transition_all_labor_in_maintenance_gives_infinite_production_wage():
    path = transition(k0=0.02, L_S0=BASELINE.L_bar, T=2, tol=1e-16)
    assert path.L_U[0] == 0.0
    assert path.Y[0] == 0.0
    assert path.w_U[0] == math.inf


def test_transition_without_convergence_reports_it():
    path = transition(k0=0.02, L_S0=0.01, T=3, tol=1e-16)
    assert not path.converged
    assert path.periods_to_converge is None
    assert len(path.t) == 4


def test_transition_input_validation():
    with pytest.raises(DomainError):
        transition(k0=0.0, L_S0=0.01)
    with pytest.raises(DomainError):
        transition(k0=0.02, L_S0=-0.1)
    with pytest.raises(DomainError):
        transition(k0=0.02, L_S0=0.01, T=0)
    with pytest.raises(DomainError):
        transition(k0=0.02, L_S0=0.01, damping=0.0)
    with pytest.raises(DomainError):
        transition(k0=0.02, L_S0=0.01, damping=1.5)
    with pytest.raises(DomainError):
        transition(k0=0.02, L_S0=0.01, tol=0.0)
