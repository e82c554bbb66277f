"""Acceptance gate.

Each test exercises one published behavioral guarantee end to end at its
stated tolerance and prints a single PASS/FAIL line naming the
guarantee, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from structlabor.calibration import run_monte_carlo
from structlabor.core import (
    comparative_statics,
    simulate_transition,
    steady_state,
    structured_share,
)
from structlabor.estimators import detect_degradation, estimate_hazard_decomposition
from structlabor.portfolio import (
    DriftConfig,
    EntryConfig,
    PowerCodification,
    aggregate_capability,
    allocate_labor,
    effective_weights,
    periodic_windows,
    _draw_entrants,
    run_portfolio_scenario,
    step_portfolio,
)
from structlabor.rng import derive_seed, generator
from structlabor.roy import WorkerSkillMatrix, dispersion_experiment, solve_roy

from defaults import DEFAULTS, scenario_panel
from oracles import (
    allocate_bisection,
    allocation_value,
    fd_share_partials,
    grid_allocation_value,
    maintenance_labor,
    roy_consistent_assignments,
    share_bisection,
)

TECH = PowerCodification(beta=0.5)
# The config's initial portfolio, aggregator (CES at rho 0.5), entry and Roy experiment.
INITIAL = DEFAULTS.portfolio.initial
CES = INITIAL.aggregator
ADD = replace(CES, rho=1.0)  # the additive index
ENTRY = DEFAULTS.portfolio.entry
EXPERIMENT = DEFAULTS.roy


def capability(p):
    return aggregate_capability(p.omega, p.k, p.aggregator)


def weights(p):
    return effective_weights(p.omega, p.k, p.aggregator, p.Lambda)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


def draw_box_params(rng):
    return (
        rng.uniform(0.33, 0.40),
        rng.uniform(0.02, 0.08),
        rng.uniform(0.03, 0.05),
        rng.uniform(0.08, 0.25),
    )


def test_criterion_01_calibration_distribution():
    from structlabor.calibration import share_bounds

    lo, hi = share_bounds(DEFAULTS.priors)
    checks = []
    elapsed = None
    for seed in (12345, 0, 987654321):
        start = time.perf_counter()
        res = run_monte_carlo(replace(DEFAULTS.priors, seed=seed))
        elapsed = time.perf_counter() - start
        checks += [
            5.80 <= res.mean <= 5.90,
            5.80 <= res.median <= 5.90,
            1.93 <= res.std_dev <= 2.03,
            3.08 <= res.q10 <= 3.18,
            8.48 <= res.q90 <= 8.58,
            2.53 <= res.q2_5 <= 2.63,
            9.25 <= res.q97_5 <= 9.35,
            62.2 <= res.pr_gt_5pct * 100.0 <= 63.2,
            16.6 <= res.pr_gt_8pct * 100.0 <= 17.6,
            res.share_min >= lo * 100.0,
            res.share_max <= hi * 100.0,
            elapsed < 10.0,
        ]
    report(
        1,
        all(checks),
        f"distribution of 200000-draw share summary inside all stated bands "
        f"for 3 seeds, last run {elapsed:.2f}s",
    )


def test_criterion_02_gamma_extension():
    res = run_monte_carlo(replace(DEFAULTS.priors, gamma=(DEFAULTS.priors.gamma[0], 0.12), seed=12345))
    ok = 7.4 <= res.mean <= 8.6
    report(2, ok, f"widening the gamma prior to 0.12 moves the mean to {res.mean:.3f}%")


def test_criterion_03_steady_state_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=103))
    worst_transition = 0.0
    worst_bisect = 0.0
    for _ in range(100):
        alpha, gamma, r, delta = draw_box_params(rng)
        params = replace(DEFAULTS.baseline, alpha=alpha, gamma=gamma, r=r, delta_k=delta, eta=1.0)
        ss = steady_state(params)
        path = simulate_transition(
            params, k0=0.5 * ss.k_star, L_S0=0.5 * ss.L_S_star, T=20000, damping=DEFAULTS.transition.damping, tol=1e-8
        )
        share_final = path.L_S[-1] / params.L_bar
        worst_transition = max(worst_transition, abs(share_final - ss.s_star) / ss.s_star)
        ref = share_bisection(alpha, gamma, r, delta)
        worst_bisect = max(worst_bisect, abs(ref - ss.s_star) / ss.s_star)
    ok = worst_transition <= 1e-6 and worst_bisect <= 1e-10
    report(
        3,
        ok,
        f"100 draws: transition share error <= {worst_transition:.2e} (tol 1e-6), "
        f"bisection error <= {worst_bisect:.2e} (tol 1e-10)",
    )


def test_criterion_04_comparative_statics():
    rng = np.random.Generator(np.random.Philox(key=104))
    worst = 0.0
    signs_ok = True
    for _ in range(1000):
        alpha, gamma, r, delta = draw_box_params(rng)
        params = replace(DEFAULTS.baseline, alpha=alpha, gamma=gamma, r=r, delta_k=delta, eta=1.0)
        analytic = comparative_statics(params)
        numeric = fd_share_partials(alpha, gamma, r, delta, structured_share)
        for a, n in zip(analytic, numeric):
            worst = max(worst, abs(a - n) / abs(a))
        signs_ok = signs_ok and analytic[0] > 0 and analytic[1] < 0 and analytic[2] > 0
    positive_everywhere = all(
        structured_share(0.36, 0.05, 0.04, d) > 0.0 for d in (1e-12, 1e-9, 1e-6, 1e-3)
    )
    ok = worst <= 1e-6 and signs_ok and positive_everywhere
    report(
        4,
        ok,
        f"1000 draws: max partial error {worst:.2e} (tol 1e-6), signs (+,-,+), "
        f"share positive down to delta_k = 1e-12",
    )


def columns(J, omega, delta, k):
    """Keyword columns for a portfolio of J period-0 families."""
    return {"omega": omega, "delta": delta, "k": k, "born_at": np.zeros(J, dtype=np.int64)}


def random_portfolio(rng, J, aggregator):
    # Draw omega, delta and k family by family, in that order.
    draws = [
        (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.2, 3.0)))
        for _ in range(J)
    ]
    omega, delta, k = (list(c) for c in zip(*draws))
    return replace(INITIAL, **columns(J, omega, delta, k), aggregator=aggregator, tech=TECH)


def test_criterion_05_allocation_optimality():
    rng = np.random.Generator(np.random.Philox(key=105))
    worst_kkt = 0.0
    worst_gap = 0.0
    for _ in range(200):
        J = int(rng.integers(1, 9))
        aggregator = CES if rng.uniform() < 0.5 else ADD
        p = random_portfolio(rng, J, aggregator)
        budget = float(rng.uniform(0.1, 3.0))
        a = allocate_labor(weights(p), p.tech, budget)
        b_labor, b_kkt_residual = allocate_bisection(p.tech, weights(p), budget)
        worst_kkt = max(worst_kkt, a.kkt_residual, b_kkt_residual)
        worst_gap = max(worst_gap, float(np.max(np.abs(a.labor - b_labor))))
    value_ok = True
    for _ in range(50):
        p = random_portfolio(rng, 3, CES)
        budget = float(rng.uniform(0.3, 2.0))
        res = allocate_labor(weights(p), p.tech, budget)
        w = weights(p)
        value_ok = value_ok and (
            allocation_value(w, 0.5, res.labor)
            >= grid_allocation_value(w, 0.5, budget, steps=200) - 1e-6
        )
    ok = worst_kkt < 1e-10 and worst_gap <= 1e-8 and value_ok
    report(
        5,
        ok,
        f"200 solves: max KKT residual {worst_kkt:.2e} (tol 1e-10), "
        f"closed form vs bisection gap {worst_gap:.2e} (tol 1e-8), "
        f"grid search never beats the solver on 50 instances",
    )


def test_criterion_06_ces_correctness():
    rng = np.random.Generator(np.random.Philox(key=106))
    worst_euler = 0.0
    for _ in range(100):
        J = int(rng.integers(2, 7))
        rho = float(rng.uniform(-2.0, 0.9))
        if abs(rho) < 1e-3:
            rho = 0.5
        p = random_portfolio(rng, J, replace(CES, rho=rho))
        agg = capability(p)
        euler = float(np.dot(p.k, weights(p)))
        worst_euler = max(worst_euler, abs(euler - agg) / agg)

    worst_limit = 0.0
    for _ in range(20):
        J = int(rng.integers(2, 7))
        stocks = rng.uniform(0.2, 3.0, size=J)
        omegas = rng.uniform(0.5, 2.0, size=J)
        fams_near = columns(J, omegas, np.full(J, 0.1), stocks)
        near = replace(INITIAL, **fams_near, aggregator=replace(CES, rho=1.0 - 1e-8), tech=TECH)
        exact = replace(INITIAL, **fams_near, aggregator=ADD, tech=TECH)
        # The additive index in closed form.
        a, b, c = capability(near), float(np.dot(omegas, stocks)), capability(exact)
        worst_limit = max(worst_limit, abs(a - b) / b, abs(c - b) / b)

    monotone = True
    for rho in (-1.0, 0.2, 0.5, 0.9):
        spec = replace(CES, rho=rho)
        grid = np.linspace(0.2, 3.0, 12)
        own = []
        for k in grid:
            fams = columns(2, [1.0, 1.0], [0.1, 0.1], [float(k), 1.5])
            own.append(weights(replace(INITIAL, **fams, aggregator=spec, tech=TECH))[0])
        monotone = monotone and bool(np.all(np.diff(own) < 0))

    ok = worst_euler <= 1e-10 and worst_limit <= 1e-6 and monotone
    report(
        6,
        ok,
        f"Euler identity error <= {worst_euler:.2e} (tol 1e-10), "
        f"rho->1 limit error <= {worst_limit:.2e} (tol 1e-6), "
        f"own-maturity weight strictly decreasing for rho in (-1, 0.9)",
    )


def test_criterion_07_maintenance_and_saturation():
    rng = np.random.Generator(np.random.Philox(key=107))
    worst_drift = 0.0
    for _ in range(20):
        p = random_portfolio(rng, int(rng.integers(1, 6)), CES)
        # Feed each family exactly the labor that offsets its decay.
        labor = maintenance_labor(p)
        k = p.k.copy()
        for t in range(1, 4):
            step_portfolio(k, p.delta, labor, p.tech)
        worst_drift = max(worst_drift, float(np.max(np.abs(k - p.k))))

    decay_ok = True
    p = replace(INITIAL, **columns(3, [1.0] * 3, [0.05, 0.15, 0.30], [1.0] * 3), aggregator=ADD, tech=TECH)
    bounds = [math.ceil(math.log(1e-6) / math.log(1.0 - d)) for d in p.delta.tolist()]
    scenario = run_portfolio_scenario(p, 0.0, replace(ENTRY, mu=0.0), T=max(bounds), seed=0)
    for family_id, bound in enumerate(bounds):
        at = (scenario.family_id == family_id) & (scenario.period == bound)
        decay_ok = decay_ok and float(scenario.maturity[at][0]) < 1e-6 * 1.0

    ok = worst_drift <= 1e-12 and decay_ok
    report(
        7,
        ok,
        f"maintenance labor holds stocks fixed to {worst_drift:.2e} (tol 1e-12) over 3 steps; "
        f"unstaffed stocks fall below 1e-6 of initial within their decay bounds",
    )


def test_criterion_08_frontier_reallocation():
    trials = 0
    successes = 0
    attempt = 0
    while trials < 50:
        attempt += 1
        rng = np.random.Generator(np.random.Philox(key=derive_seed(108, "trial", attempt)))
        J = int(rng.integers(2, 7))
        # Draw delta and k family by family, in that order.
        draws = [(float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.3, 3.0))) for _ in range(J)]
        delta, k = (list(c) for c in zip(*draws))
        p = replace(INITIAL, **columns(J, [1.0] * J, delta, k), aggregator=CES, tech=TECH)
        alloc = allocate_labor(weights(p), p.tech, 1.0)
        entry = EntryConfig(mu=0.5, k_seed=1e-3, omega_median=1.0, omega_sigma=0.0, delta_j=(0.1, 0.2))
        omegas, _ = _draw_entrants(entry, generator(derive_seed(108, "entry", attempt)))
        if len(omegas) != 1:
            continue
        trials += 1
        k = p.k.copy()
        step_portfolio(k, p.delta, alloc.labor, p.tech)
        # The entrant joins as the last family, at maturity k_seed.
        omega, k = np.append(p.omega, omegas), np.append(k, entry.k_seed)
        labor = allocate_labor(effective_weights(omega, k, p.aggregator, p.Lambda), p.tech, 1.0).labor
        if labor[-1] > np.max(labor[:-1]):
            successes += 1
    ok = successes == 50
    report(
        8,
        ok,
        f"lowest-maturity entrant took the strictly largest next-period allocation "
        f"in {successes}/50 seeded trials",
    )


def test_criterion_09_roy_equilibrium_and_dispersion():
    fams = columns(2, [1.0, 1.0], [0.1, 0.1], [1.0, 0.5])
    p = replace(INITIAL, **fams, aggregator=CES, tech=TECH)
    skills = WorkerSkillMatrix.generate(5, p, seed=0).skills([0.6, 0.6])
    oracle = roy_consistent_assignments(skills, weights(p), beta=0.5)
    eq = solve_roy(skills, weights(p), TECH, EXPERIMENT.Lambda, EXPERIMENT.tol)
    fixed_point_ok = (
        oracle == [(1, 1, 0, 0, 0)]
        and eq.converged
        and tuple(int(x) for x in eq.assignment) in oracle
    )

    scaled = replace(INITIAL, **fams, aggregator=CES, tech=TECH, Lambda=4.0)
    eq_scaled = solve_roy(skills, weights(scaled), TECH, Lambda=4.0, tol=EXPERIMENT.tol)
    scaling_ok = np.array_equal(eq.assignment, eq_scaled.assignment)

    exp = EXPERIMENT
    seed = 2024
    mu_res = dispersion_experiment(replace(exp, replications=20), seed=seed)
    delta_res = dispersion_experiment(replace(exp, treatment="delta", replications=20), seed=seed)
    mu_pos = sum(d > 0.0 for d in mu_res.variance_diffs)
    delta_pos = sum(d > 0.0 for d in delta_res.variance_diffs)
    dispersion_ok = (
        mu_pos >= 18
        and delta_pos >= 18
        and mu_res.mean_variance_diff > 0.0
        and delta_res.mean_variance_diff > 0.0
    )

    ok = fixed_point_ok and scaling_ok and dispersion_ok
    report(
        9,
        ok,
        f"exhaustive oracle confirms the fixed point; scale invariance exact; "
        f"doubled entry raises log-wage variance in {mu_pos}/20 replications "
        f"(mean {mu_res.mean_variance_diff:+.4f}), doubled decay in {delta_pos}/20 "
        f"(mean {delta_res.mean_variance_diff:+.4f})",
    )


def test_criterion_10_estimator_recovery():
    J, T = 50, 200
    kbar = TECH.g(1.0 / J) / 0.15
    p = replace(INITIAL, **columns(J, np.ones(J), np.full(J, 0.15), np.full(J, kbar)), aggregator=ADD, tech=TECH)
    drift = DriftConfig(
        env_hazard=0.05, tech_hazard=0.10, org_hazard=0.03,
        tech_windows=periodic_windows(1, 4, T),
        org_windows=periodic_windows(3, 5, T),
        drop_frac=0.5,
    )
    scenario = run_portfolio_scenario(p, 1.0, replace(ENTRY, mu=0.0), T=T, seed=6, drift=drift)
    estimate = DEFAULTS.estimate
    flags = detect_degradation(scenario_panel(scenario), estimate.rel_drop, estimate.horizon)
    est = estimate_hazard_decomposition(flags)

    errors = (abs(est.env - 0.05), abs(est.tech - 0.10), abs(est.org - 0.03))
    recovery_ok = flags.n_obs == J * T and all(e <= 0.01 for e in errors)

    # Recompute every cell frequency by direct counting.
    cells_ok = True
    for (in_tech, in_org), stat in est.cells.items():
        hits = 0
        n = 0
        for i in range(flags.n_obs):
            if bool(flags.tech_window[i]) == in_tech and bool(flags.org_window[i]) == in_org:
                n += 1
                hits += int(flags.flag[i])
        cells_ok = cells_ok and n == stat.count and abs(hits / n - stat.mean) <= 1e-12

    ok = recovery_ok and cells_ok
    report(
        10,
        ok,
        f"{flags.n_obs} family-periods: component errors "
        f"env {errors[0]:.4f}, tech {errors[1]:.4f}, org {errors[2]:.4f} (tol 0.01); "
        f"saturated cell means match direct counts to 1e-12",
    )


def run_cli(args, out, env_extra=None):
    env = dict(os.environ)
    env["STRUCTLABOR_OUT"] = ""
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "structlabor.cli", *args, "--out", out, "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {}
    manifest = json.loads(Path(out, "run.manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["outputs"]:
        digests[entry["path"]] = entry["sha256"]
    return digests


def test_criterion_11_cli_determinism(tmp_path):
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "run": {"seed": 31, "format": "both"},
                "portfolio": {"n_families": 4, "T": 25, "entry": {"mu": 0.4}, "drift": {"enabled": True}},
                "priors": {"n_draws": 20000},
                "transition": {"T": 200},
            },
            fh,
        )
    results = {}
    for command in ("portfolio", "simulate", "calibrate", "estimate"):
        runs = []
        for label, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = str(tmp_path / f"{command}_{label}")
            runs.append(
                run_cli(
                    [command, "--config", cfg_path],
                    out,
                    env_extra={"OMP_NUM_THREADS": threads},
                )
            )
        results[command] = runs[0] == runs[1] == runs[2]
    ok = all(results.values())
    report(
        11,
        ok,
        "byte-identical outputs across repeated runs and thread counts for "
        + ", ".join(f"{cmd} ({'ok' if good else 'DIFF'})" for cmd, good in results.items()),
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
