import numpy as np
import pytest

from structlabor.errors import DomainError
from structlabor.portfolio import (
    AggregatorSpec,
    EntryConfig,
    Portfolio,
    PowerCodification,
    effective_weights,
    run_portfolio_scenario,
)
from structlabor.roy import (
    RoyExperiment,
    WorkerSkillMatrix,
    dispersion_experiment,
    family_prices,
    maturity_skill_sigma,
    solve_roy,
    wage_stats,
)

from oracles import roy_consistent_assignments, solve_roy_reference

TECH = PowerCodification(beta=0.5)


def two_family_portfolio(k0=1.0, k1=0.5, aggregator=None, Lambda=1.0):
    agg = aggregator or AggregatorSpec(kind="ces", rho=0.5)
    return Portfolio(
        id=[0, 1], omega=[1.0, 1.0], delta=[0.1, 0.1], k=[k0, k1], born_at=[0, 0],
        aggregator=agg, tech=TECH, Lambda=Lambda,
    )


def test_skill_matrix_validation():
    with pytest.raises(DomainError):
        WorkerSkillMatrix(a=np.array([1.0, 2.0]), family_ids=(0, 1))
    with pytest.raises(DomainError):
        WorkerSkillMatrix(a=np.array([[1.0, -2.0]]), family_ids=(0, 1))
    with pytest.raises(DomainError):
        WorkerSkillMatrix(a=np.array([[1.0, 2.0]]), family_ids=(0, 0))
    with pytest.raises(DomainError):
        WorkerSkillMatrix(a=np.array([[1.0, 2.0]]), family_ids=(0,))


def test_generate_is_deterministic_in_seed():
    p = two_family_portfolio()
    a = WorkerSkillMatrix.generate(20, p, seed=7, sigma_ln=[0.5, 0.5])
    b = WorkerSkillMatrix.generate(20, p, seed=7, sigma_ln=[0.5, 0.5])
    c = WorkerSkillMatrix.generate(20, p, seed=8, sigma_ln=[0.5, 0.5])
    assert np.array_equal(a.a, b.a)
    assert not np.array_equal(a.a, c.a)
    assert a.a.shape[0] == 20
    assert a.family_ids == (0, 1)


def test_generate_scale_acts_outside_the_draws():
    # Doubling sigma must square the skill ratios: same z, scaled exponent.
    p = two_family_portfolio()
    narrow = WorkerSkillMatrix.generate(50, p, seed=3, sigma_ln=[0.4, 0.4])
    wide = WorkerSkillMatrix.generate(50, p, seed=3, sigma_ln=[0.8, 0.8])
    assert np.allclose(wide.a, narrow.a**2, rtol=1e-12)


def test_generate_per_family_scales():
    p = two_family_portfolio()
    m = WorkerSkillMatrix.generate(4000, p, seed=1, sigma_ln=[0.2, 1.0])
    spread0 = np.std(np.log(m.a[:, 0]))
    spread1 = np.std(np.log(m.a[:, 1]))
    assert spread1 > 4.0 * spread0
    with pytest.raises(DomainError):
        WorkerSkillMatrix.generate(10, p, seed=1, sigma_ln=[0.2])


def test_generate_streams_follow_birth_cohort_not_id():
    # A family born at the same time in the same slot draws the same
    # skills whatever its id turned out to be.
    columns = {"omega": [1.0, 1.0], "delta": [0.1, 0.1], "k": [1.0, 1.0], "born_at": [0, 2]}
    fams_a = Portfolio(id=[0, 1], **columns)
    fams_b = Portfolio(id=[0, 5], **columns)
    a = WorkerSkillMatrix.generate(10, fams_a, seed=11, sigma_ln=[0.5, 0.5])
    b = WorkerSkillMatrix.generate(10, fams_b, seed=11, sigma_ln=[0.5, 0.5])
    assert np.array_equal(a.a, b.a)


def test_family_prices_formula():
    p = two_family_portfolio()
    labor = np.array([3.0, 1.0])
    prices = family_prices(p, labor)
    w = effective_weights(p.omega, p.k, p.aggregator, p.Lambda)
    assert prices[0] == pytest.approx(w[0] * 0.5 * 3.0 ** (-0.5), rel=1e-14)
    assert prices[1] == pytest.approx(w[1] * 0.5 * 1.0 ** (-0.5), rel=1e-14)
    # The floor keeps an empty family's rate finite.
    floored = family_prices(p, np.array([0.0, 1.0]))
    assert np.isfinite(floored[0])
    with pytest.raises(DomainError):
        family_prices(p, np.array([1.0]))
    with pytest.raises(DomainError):
        family_prices(p, np.array([-1.0, 1.0]))


def test_solve_roy_reaches_an_enumerated_fixed_point():
    p = two_family_portfolio()
    skills = WorkerSkillMatrix.generate(5, p, seed=0, sigma_ln=[0.6, 0.6])
    w = effective_weights(p.omega, p.k, p.aggregator, p.Lambda)
    oracle = roy_consistent_assignments(skills.a, w, beta=0.5)
    assert oracle == [(1, 1, 0, 0, 0)]
    eq = solve_roy(skills, p)
    assert eq.converged
    assert tuple(int(x) for x in eq.assignment) in oracle
    # Labor has settled onto the head counts of the assignment.
    assert np.allclose(eq.labor, [3.0, 2.0], rtol=0, atol=1e-8)
    # Each wage is the best available at the reported prices.
    available = skills.a * eq.prices
    assert np.allclose(eq.wages, available.max(axis=1), rtol=1e-12)


def test_solve_roy_second_instance():
    p = two_family_portfolio()
    skills = WorkerSkillMatrix.generate(5, p, seed=4, sigma_ln=[0.6, 0.6])
    w = effective_weights(p.omega, p.k, p.aggregator, p.Lambda)
    oracle = roy_consistent_assignments(skills.a, w, beta=0.5)
    assert oracle == [(0, 1, 1, 0, 1)]
    eq = solve_roy(skills, p)
    assert eq.converged
    assert tuple(int(x) for x in eq.assignment) in oracle


def test_solve_roy_scale_invariant_assignment():
    # Scaling the economy-wide productivity rescales every price by the
    # same factor, so choices cannot move.
    base = two_family_portfolio(Lambda=1.0)
    scaled = two_family_portfolio(Lambda=4.0)
    skills = WorkerSkillMatrix.generate(30, base, seed=2, sigma_ln=[0.6, 0.6])
    eq_base = solve_roy(skills, base)
    eq_scaled = solve_roy(skills, scaled)
    assert np.array_equal(eq_base.assignment, eq_scaled.assignment)
    assert np.array_equal(eq_base.labor, eq_scaled.labor)
    assert np.array_equal(eq_scaled.prices, 4.0 * eq_base.prices)


def test_solve_roy_reports_nonexistence_honestly():
    # One worker, two interchangeable families: wherever the worker goes,
    # the empty family pays more.  No fixed point exists.
    p = Portfolio(
        id=[0, 1], omega=[1.0, 1.0], delta=[0.1, 0.1], k=[1.0, 1.0], born_at=[0, 0],
        aggregator=AggregatorSpec(kind="additive"), tech=TECH,
    )
    skills = WorkerSkillMatrix(a=np.array([[1.0, 1.0]]), family_ids=(0, 1))
    w = effective_weights(p.omega, p.k, p.aggregator, p.Lambda)
    assert roy_consistent_assignments(skills.a, w, beta=0.5) == []
    eq = solve_roy(skills, p)
    assert not eq.converged
    assert eq.residual > 0.1
    assert np.all(np.isfinite(eq.wages))


def _scenario_instance():
    # Six CES families grown by entry for 40 periods, 400 workers whose skill
    # spread follows maturity: the shape of one default experiment solve.
    n = 6
    p0 = Portfolio(
        id=np.arange(n), omega=np.ones(n), delta=np.linspace(0.08, 0.25, n), k=np.ones(n),
        born_at=np.zeros(n, dtype=np.int64),
        aggregator=AggregatorSpec(kind="ces", rho=0.5, epsilon_floor=0.25), tech=TECH,
    )
    entry = EntryConfig(mu=0.25, k_seed=1e-3, omega_sigma=0.5, delta_lo=0.08, delta_hi=0.25)
    pt = run_portfolio_scenario(p0, 1.0, entry, 40, seed=3).portfolio_at(40)
    assert pt.size >= 10
    sigmas = maturity_skill_sigma(pt.k, 1.5, 0.2, 1.0)
    return WorkerSkillMatrix.generate(400, pt, seed=5, sigma_ln=sigmas), pt


def _one_worker_instance():
    p = Portfolio(
        id=[0, 1], omega=[1.0, 1.0], delta=[0.1, 0.1], k=[1.0, 1.0], born_at=[0, 0],
        aggregator=AggregatorSpec(kind="additive"), tech=TECH,
    )
    return WorkerSkillMatrix(a=np.array([[1.0, 1.0]]), family_ids=(0, 1)), p


def _five_worker_instance():
    p = two_family_portfolio()
    return WorkerSkillMatrix.generate(5, p, seed=0, sigma_ln=[0.6, 0.6]), p


@pytest.mark.parametrize(
    "instance, converged, halved",
    [(_five_worker_instance, True, False), (_one_worker_instance, False, True), (_scenario_instance, False, True)],
    ids=["five-workers", "one-worker", "scenario-400-workers"],
)
def test_solve_roy_matches_the_reference_loop_bit_for_bit(instance, converged, halved):
    skills, p = instance()
    eq = solve_roy(skills, p)
    ref = solve_roy_reference(skills, p)
    for name in ("assignment", "labor", "prices", "wages"):
        assert np.array_equal(getattr(eq, name), ref[name]), name
    assert (eq.iterations, eq.residual, eq.converged) == (ref["iterations"], ref["residual"], ref["converged"])
    assert eq.converged is converged
    # The unconverged instances run into the step cap after halving the step.
    assert (ref["step"] < 0.3) is halved
    if not converged:
        assert eq.iterations == 500


def test_wage_stats_hand_computed():
    wages = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    s = wage_stats(wages)
    assert s.mean_wage == 4.0
    assert s.log_wage_variance == pytest.approx(np.var(np.log(wages), ddof=1), rel=1e-14)
    p10, p90 = np.quantile(wages, [0.1, 0.9])
    assert s.p90_p10 == pytest.approx(p90 / p10, rel=1e-14)
    assert s.top_decile_share == pytest.approx(10.0 / 20.0, rel=1e-14)


def test_wage_stats_validation():
    with pytest.raises(DomainError):
        wage_stats(np.array([1.0]))
    with pytest.raises(DomainError):
        wage_stats(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        wage_stats(np.array([1.0, -2.0]))


def test_maturity_skill_sigma_shape():
    assert maturity_skill_sigma(0.0, 1.5, 0.2, 1.0) == pytest.approx(1.5)
    big = maturity_skill_sigma(50.0, 1.5, 0.2, 1.0)
    assert big == pytest.approx(0.2, abs=1e-12)
    grid = maturity_skill_sigma(np.linspace(0, 5, 20), 1.5, 0.2, 1.0)
    assert np.all(np.diff(grid) < 0)
    with pytest.raises(DomainError):
        maturity_skill_sigma(1.0, 0.2, 1.5, 1.0)
    with pytest.raises(DomainError):
        maturity_skill_sigma(1.0, 1.5, 0.2, 0.0)


def test_roy_experiment_validation():
    with pytest.raises(DomainError):
        RoyExperiment(n_initial=0)
    with pytest.raises(DomainError):
        RoyExperiment(delta_lo=0.3, delta_hi=0.2)
    with pytest.raises(DomainError):
        RoyExperiment(mu=-0.5)
    with pytest.raises(DomainError):
        RoyExperiment(sigma_young=0.1, sigma_mature=0.5)
    with pytest.raises(DomainError):
        RoyExperiment(T=10, eval_window=12)
    with pytest.raises(DomainError):
        RoyExperiment(eval_window=0)


@pytest.mark.parametrize("n_workers", [1, 0, 2.0])
def test_roy_experiment_rejects_fewer_than_two_workers(n_workers):
    # Dispersion needs two wages; the constructor stops this before a run.
    with pytest.raises(DomainError, match="n_workers must be an integer >= 2"):
        RoyExperiment(n_initial=3, T=6, eval_window=3, n_workers=n_workers)


SMALL = RoyExperiment(n_initial=3, T=6, eval_window=3, n_workers=40, mu=0.4)


def test_dispersion_factor_one_is_an_exact_null():
    # With factor 1 the two arms share every draw, so the paired
    # differences must be exactly zero, not merely small.
    for treatment in ("mu", "delta"):
        res = dispersion_experiment(SMALL, treatment, factor=1.0, replications=2, seed=5)
        assert res.variance_diffs == (0.0, 0.0)
        assert res.mean_variance_diff == 0.0
        for b, t in zip(res.base, res.treated):
            assert b.stats == t.stats
            assert b.n_families == t.n_families


def test_dispersion_experiment_bookkeeping():
    res = dispersion_experiment(SMALL, "mu", factor=2.0, replications=3, seed=1)
    assert res.treatment == "mu"
    assert res.factor == 2.0
    assert len(res.base) == len(res.treated) == len(res.variance_diffs) == 3
    for b, t, d in zip(res.base, res.treated, res.variance_diffs):
        assert d == t.stats.log_wage_variance - b.stats.log_wage_variance
        assert t.n_families >= b.n_families
    assert res.share_positive == np.mean([d > 0 for d in res.variance_diffs])
    again = dispersion_experiment(SMALL, "mu", factor=2.0, replications=3, seed=1)
    assert again.variance_diffs == res.variance_diffs


def test_dispersion_rejects_unknown_treatment():
    with pytest.raises(DomainError):
        dispersion_experiment(SMALL, "sigma", factor=2.0, replications=1, seed=0)
    with pytest.raises(DomainError):
        dispersion_experiment(SMALL, "mu", factor=0.0, replications=1, seed=0)
    with pytest.raises(DomainError):
        dispersion_experiment(SMALL, "mu", factor=2.0, replications=0, seed=0)
