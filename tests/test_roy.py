import math
from dataclasses import asdict, is_dataclass, replace

import numpy as np
import pytest

import structlabor.roy as roy
from structlabor.errors import DomainError
from structlabor.portfolio import (
    PowerCodification,
    effective_weights,
    run_portfolio_scenario,
)
from structlabor.rng import derive_seed, stream
from structlabor.roy import (
    WorkerSkillMatrix,
    dispersion_experiment,
    family_prices,
    maturity_skill_sigma,
    solve_roy,
    wage_stats,
)

from defaults import DEFAULTS
from oracles import roy_consistent_assignments

TECH = PowerCodification(beta=0.5)
# The config's Roy experiment, and its initial portfolio, aggregator (CES at rho 0.5) and entry.
EXPERIMENT = DEFAULTS.roy
INITIAL = DEFAULTS.portfolio.initial
CES = INITIAL.aggregator
ADD = replace(CES, rho=1.0)  # the additive index
ENTRY = DEFAULTS.portfolio.entry


def solve(a, w, tech, **given):
    """``solve_roy`` with the experiment's Lambda and tol, unless given."""
    return solve_roy(a, w, tech, **{"Lambda": EXPERIMENT.Lambda, "tol": EXPERIMENT.tol, **given})


def two_family_portfolio(k0=1.0, k1=0.5, aggregator=None, Lambda=1.0):
    agg = aggregator or CES
    return replace(
        INITIAL,
        omega=[1.0, 1.0], delta=[0.1, 0.1], k=[k0, k1], born_at=[0, 0],
        aggregator=agg, tech=TECH, Lambda=Lambda,
    )


def weights(p):
    """The portfolio's effective weight column, Lambda included."""
    return effective_weights(p.omega, p.k, p.aggregator, p.Lambda)


# Two interchangeable additive families of weight 1.
UNIT_WEIGHTS = np.ones(2)


def test_skill_matrix_validation():
    p = two_family_portfolio()
    for n_workers in (0, 2.0):
        with pytest.raises(DomainError, match="^n_workers must be an integer >= 1$"):
            WorkerSkillMatrix.generate(n_workers, p, seed=0)
    with pytest.raises(DomainError, match="^need at least one family$"):
        WorkerSkillMatrix.generate(3, replace(p, omega=[], delta=[], k=[], born_at=[]), seed=0)
    draws = WorkerSkillMatrix.generate(3, p, seed=0)
    for sigmas in ([], [[0.5, 0.5]], [0.5, 0.5, 0.5]):
        with pytest.raises(DomainError, match="^sigma_ln must have 1 to 2 entries, one per family$"):
            draws.skills(sigmas)
    for sigmas in ([-0.1, 0.5], [0.5, np.nan], [0.5, np.inf]):
        with pytest.raises(DomainError, match="^sigma_ln must be nonnegative$"):
            draws.skills(sigmas)
    # Every nonzero draw times 1e300 overflows exp or underflows it to 0.
    with pytest.raises(DomainError, match=r"^skill draws out of range: exp\(sigma \* z\) leaves the float range"):
        draws.skills([1e300, 0.5])


def test_generate_is_deterministic_in_seed():
    p = two_family_portfolio()
    a = WorkerSkillMatrix.generate(20, p, seed=7).skills([0.5, 0.5])
    b = WorkerSkillMatrix.generate(20, p, seed=7).skills([0.5, 0.5])
    c = WorkerSkillMatrix.generate(20, p, seed=8).skills([0.5, 0.5])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (20, 2)


def test_generate_scale_acts_outside_the_draws():
    # Doubling sigma must square the skill ratios: same z, scaled exponent.
    p = two_family_portfolio()
    narrow = WorkerSkillMatrix.generate(50, p, seed=3).skills([0.4, 0.4])
    wide = WorkerSkillMatrix.generate(50, p, seed=3).skills([0.8, 0.8])
    assert np.allclose(wide, narrow**2, rtol=1e-12)


def test_generate_per_family_scales():
    p = two_family_portfolio()
    draws = WorkerSkillMatrix.generate(4000, p, seed=1)
    m = draws.skills([0.2, 1.0])
    spread0 = np.std(np.log(m[:, 0]))
    spread1 = np.std(np.log(m[:, 1]))
    assert spread1 > 4.0 * spread0
    # A shorter list scales the roster's first families alone.
    first = draws.skills([0.2])
    assert (first.shape, first.tobytes()) == ((4000, 1), m[:, :1].tobytes())
    with pytest.raises(DomainError):
        draws.skills([0.2, 1.0, 0.5])


def test_generate_draws_one_stream_per_birth_cohort_slot():
    # Column by column from the named streams: families 0 and 2 share birth
    # period 0 (slots 0 and 1), family 1 is the first born in period 3.
    p = replace(INITIAL, omega=[1.0] * 3, delta=[0.1] * 3, k=[1.0] * 3, born_at=[0, 3, 0], aggregator=ADD)
    sigmas = np.array([0.3, 1.1, 0.7])
    m = WorkerSkillMatrix.generate(9, p, seed=4).skills(sigmas)
    for col, key in enumerate(["skills:0:0", "skills:3:0", "skills:0:1"]):
        z = stream(4, key).standard_normal(9)
        assert np.array_equal(m[:, col], np.exp(sigmas[col] * z))


def test_generate_streams_follow_birth_cohort_not_id():
    # The first family born in period 2 draws the same skills at row 1 of
    # one roster and at row 2 of another, whatever row it turned out to hold.
    fams_a = replace(INITIAL, omega=[1.0] * 2, delta=[0.1] * 2, k=[1.0] * 2, born_at=[0, 2], aggregator=ADD)
    fams_b = replace(INITIAL, omega=[1.0] * 3, delta=[0.1] * 3, k=[1.0] * 3, born_at=[0, 0, 2], aggregator=ADD)
    a = WorkerSkillMatrix.generate(10, fams_a, seed=11).z
    b = WorkerSkillMatrix.generate(10, fams_b, seed=11).z
    assert np.array_equal(a[:, 1], b[:, 2])
    assert np.array_equal(a[:, 0], b[:, 0])
    assert not np.array_equal(a[:, 1], b[:, 1])


def test_family_prices_formula():
    p = two_family_portfolio()
    labor = np.array([3.0, 1.0])
    w = weights(p)
    prices = family_prices(w, p.tech, labor)
    assert prices[0] == pytest.approx(w[0] * 0.5 * 3.0 ** (-0.5), rel=1e-14)
    assert prices[1] == pytest.approx(w[1] * 0.5 * 1.0 ** (-0.5), rel=1e-14)
    # The floor keeps an empty family's rate finite.
    floored = family_prices(w, p.tech, np.array([0.0, 1.0]))
    assert np.isfinite(floored[0])
    with pytest.raises(DomainError):
        family_prices(w, p.tech, np.array([1.0]))
    with pytest.raises(DomainError):
        family_prices(w, p.tech, np.array([-1.0, 1.0]))


def test_solve_roy_reaches_an_enumerated_fixed_point():
    p = two_family_portfolio()
    skills = WorkerSkillMatrix.generate(5, p, seed=0).skills([0.6, 0.6])
    w = weights(p)
    oracle = roy_consistent_assignments(skills, w, beta=0.5)
    assert oracle == [(1, 1, 0, 0, 0)]
    eq = solve(skills, w, p.tech)
    assert eq.converged
    assert tuple(int(x) for x in eq.assignment) in oracle
    # Labor has settled onto the head counts of the assignment.
    assert np.allclose(eq.labor, [3.0, 2.0], rtol=0, atol=1e-8)
    # Each wage is the best available at the reported prices.
    available = skills * eq.prices
    assert np.allclose(eq.wages, available.max(axis=1), rtol=1e-12)


def test_solve_roy_second_instance():
    p = two_family_portfolio()
    skills = WorkerSkillMatrix.generate(5, p, seed=4).skills([0.6, 0.6])
    w = weights(p)
    oracle = roy_consistent_assignments(skills, w, beta=0.5)
    assert oracle == [(0, 1, 1, 0, 1)]
    eq = solve(skills, w, p.tech)
    assert eq.converged
    assert tuple(int(x) for x in eq.assignment) in oracle


def test_solve_roy_scale_invariant_assignment():
    # Scaling the economy-wide productivity rescales every price by the
    # same factor, so choices cannot move.
    base = two_family_portfolio(Lambda=1.0)
    scaled = two_family_portfolio(Lambda=4.0)
    skills = WorkerSkillMatrix.generate(30, base, seed=2).skills([0.6, 0.6])
    eq_base = solve(skills, weights(base), TECH)
    eq_scaled = solve(skills, weights(scaled), TECH, Lambda=4.0)
    assert np.array_equal(eq_base.assignment, eq_scaled.assignment)
    assert np.array_equal(eq_base.labor, eq_scaled.labor)
    assert np.array_equal(eq_scaled.prices, 4.0 * eq_base.prices)


def test_solve_roy_reports_nonexistence_honestly():
    # One worker, two interchangeable families: wherever the worker goes,
    # the empty family pays more, so no whole-worker equilibrium exists.
    # The worker splits evenly, and that split is certified.
    a = np.array([[1.0, 1.0]])
    assert roy_consistent_assignments(a, UNIT_WEIGHTS, beta=0.5) == []
    eq = solve(a, UNIT_WEIGHTS, TECH)
    assert eq.converged
    assert np.allclose(eq.labor, [0.5, 0.5], rtol=0, atol=1e-9)
    assert eq.tied_workers == 1
    assert eq.assignment.tolist() == [0]
    assert eq.gap <= 1e-9 and eq.residual <= 1e-9
    assert np.all(np.isfinite(eq.wages))
    assert eq.prices[0] == pytest.approx(eq.prices[1], rel=1e-12)


def test_solve_roy_refuses_a_finish_whose_ties_are_too_wide(monkeypatch):
    # At the equilibrium worker 0 prefers family 0 by about 0.45 in log
    # wage, workers 1 and 2 prefer family 1 by about 0.65.  With each
    # stage's finish run at 5e4 times its smoothing, the finishes at widths
    # 500, 50 and 5 tie all three workers (a cycle), then the one at width
    # 0.5 ties worker 0 alone, whose closed form needs a negative share.
    # All are refused; the finish at width 0.05 (eps = 1e-6) finds the
    # equilibrium.
    finish, tries = roy._finish, []

    def wide(c, pi, log_s, r, width, tol):
        point = finish(c, pi, log_s, r, 5e4 * width, tol)
        tries.append((5e4 * width, point is not None))
        return point

    monkeypatch.setattr(roy, "_finish", wide)
    a = np.exp([[0.1, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert roy_consistent_assignments(a, UNIT_WEIGHTS, beta=0.5) == [(0, 1, 1)]
    eq = solve(a, UNIT_WEIGHTS, TECH)
    assert eq.converged
    assert np.allclose(eq.labor, [1.0, 2.0], rtol=0, atol=1e-9)
    assert eq.assignment.tolist() == [0, 1, 1]
    assert [accepted for _, accepted in tries] == [False] * 4 + [True]
    assert tries[-1][0] == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 1e-300]] * 5, [[1.0, 5e-4]]],
    ids=["hopeless", "below-floor"],
)
def test_solve_roy_prices_an_unserved_family_at_its_floor(rows):
    # Nobody is worth hiring in family 1 even at the rate its labor floor
    # implies, so it stays empty at that rate, and the solve is certified.
    # Without the floor the single worker would put 2.5e-7 of its time there.
    eq = solve(np.array(rows), UNIT_WEIGHTS, TECH)
    assert eq.converged
    # The floor-less dual has no minimizer in family 1's price, so a
    # hopeless family runs its stages to the step cap until a finish lands.
    assert eq.iterations <= 2 * roy._NEWTON_STEPS
    labor = np.array([len(rows), 0.0])
    assert np.array_equal(eq.labor, labor)
    assert np.array_equal(eq.prices, family_prices(UNIT_WEIGHTS, TECH, labor))
    assert eq.tied_workers == 0


def _scenario_instance():
    # Six CES families grown by entry for 40 periods, 400 workers whose skill
    # spread follows maturity: the shape of one default experiment solve.
    n = 6
    p0 = replace(
        INITIAL, omega=np.ones(n), delta=np.linspace(0.08, 0.25, n), k=np.ones(n),
        born_at=np.zeros(n, dtype=np.int64), aggregator=replace(CES, epsilon_floor=0.25), tech=TECH,
    )
    entry = replace(ENTRY, mu=0.25, k_seed=1e-3, omega_sigma=0.5, delta_j=(0.08, 0.25))
    pt = run_portfolio_scenario(p0, 1.0, entry, 40, seed=3, drift=None).portfolio_at(40)
    assert pt.size >= 10
    sigmas = maturity_skill_sigma(pt.k, 1.5, 0.2, 1.0)
    return WorkerSkillMatrix.generate(400, pt, seed=5).skills(sigmas), weights(pt)


def test_solve_roy_certificate_holds_at_the_reported_point():
    # Rechecked from the reported fields alone: every worker's family pays
    # its best wage at the reported prices, split workers aside; the prices
    # are the ones the labor implies; labor counts every worker once.
    a, w = _scenario_instance()
    eq = solve(a, w, TECH)
    assert eq.converged
    assert eq.gap <= 1e-9 * a.shape[0] and eq.residual <= 1e-9 * a.shape[0]
    assert np.array_equal(eq.prices, family_prices(w, TECH, eq.labor))
    assert math.fsum(eq.labor) == pytest.approx(400.0, rel=1e-14)
    wages = a * eq.prices
    assert np.array_equal(eq.wages, wages.max(axis=1))
    chosen = wages[np.arange(400), eq.assignment]
    assert np.all(chosen >= eq.wages * (1.0 - 1e-9))
    # Tie workers link families into a forest, so there are fewer than families.
    assert 0 < eq.tied_workers < w.size


SKILLS = "skills must be finite and positive"
WEIGHTS = "weights must be finite and positive"
W_LENGTH = "weights must have one entry per skill column"


@pytest.mark.parametrize(
    "a, w, tol, message",
    [
        pytest.param(np.array([1.0, 2.0]), UNIT_WEIGHTS, 1e-9, "two-dimensional", id="1-d"),
        pytest.param(np.empty((0, 2)), UNIT_WEIGHTS, 1e-9, "nonempty", id="no-workers"),
        pytest.param(np.empty((3, 0)), np.empty(0), 1e-9, "nonempty", id="no-families"),
        pytest.param(np.array([[1.0, 0.0]]), UNIT_WEIGHTS, 1e-9, SKILLS, id="zero-skill"),
        pytest.param(np.array([[1.0, -2.0]]), UNIT_WEIGHTS, 1e-9, SKILLS, id="negative-skill"),
        pytest.param(np.array([[1.0, np.nan]]), UNIT_WEIGHTS, 1e-9, SKILLS, id="nan-skill"),
        pytest.param(np.array([[1.0, np.inf]]), UNIT_WEIGHTS, 1e-9, SKILLS, id="inf-skill"),
        pytest.param(np.array([[1.0, 2.0]]), np.ones(3), 1e-9, W_LENGTH, id="long-w"),
        pytest.param(np.array([[1.0, 2.0]]), np.ones((2, 1)), 1e-9, W_LENGTH, id="2-d-w"),
        pytest.param(np.array([[1.0, 2.0]]), np.array([1.0, 0.0]), 1e-9, WEIGHTS, id="zero-weight"),
        pytest.param(np.array([[1.0, 2.0]]), np.array([1.0, np.nan]), 1e-9, WEIGHTS, id="nan-weight"),
        pytest.param(np.array([[1.0, 2.0]]), UNIT_WEIGHTS, 0.0, "^tol must be positive$", id="zero-tol"),
        pytest.param(np.array([[1.0, 2.0]]), UNIT_WEIGHTS, -1e-9, "^tol must be positive$", id="negative-tol"),
    ],
)
def test_solve_roy_checks_its_raw_input(a, w, tol, message):
    with pytest.raises(DomainError, match=message):
        solve(a, w, TECH, tol=tol)


@pytest.mark.parametrize("Lambda", [0.0, -1.0, math.inf, math.nan])
def test_solve_roy_needs_a_positive_scale(Lambda):
    wording = "must be positive" if math.isfinite(Lambda) else "must be finite"
    with pytest.raises(DomainError, match=f"^Lambda {wording}$"):
        solve(np.array([[1.0, 2.0]]), UNIT_WEIGHTS, TECH, Lambda=Lambda)


def _tie_sets(c, pi, log_s, r, width):
    # The workers within width of their best family, as _finish selects them.
    v = c + np.minimum(pi, (log_s - math.log(roy._LABOR_FLOOR)) / r)
    return v >= (v.max(axis=1) - width)[:, None]


def test_a_finish_depends_only_on_its_tie_set(monkeypatch):
    # The accepted finish, rerun from the same point at three times its
    # width, selects the same ties and returns the same shares and prices
    # bit for bit; so does the whole solve with every finish that wide.
    finish, accepted = roy._finish, []

    def recording(*args):
        point = finish(*args)
        if point is not None:
            accepted.append(args)
        return point

    a, w = _scenario_instance()
    monkeypatch.setattr(roy, "_finish", recording)
    eq = solve(a, w, TECH)
    assert eq.converged and len(accepted) == 1
    c, pi, log_s, r, width, tol = accepted[0]
    narrow, wide = finish(c, pi, log_s, r, width, tol), finish(c, pi, log_s, r, 3.0 * width, tol)
    assert np.array_equal(_tie_sets(c, pi, log_s, r, width), _tie_sets(c, pi, log_s, r, 3.0 * width))
    assert wide is not None
    assert np.array_equal(narrow[0], wide[0]) and np.array_equal(narrow[1], wide[1])

    monkeypatch.setattr(roy, "_finish", lambda *args: finish(*args[:4], 3.0 * args[4], args[5]))
    wider = solve(a, w, TECH)
    assert wider.converged
    assert np.array_equal(wider.labor, eq.labor) and np.array_equal(wider.prices, eq.prices)
    assert (wider.gap, wider.residual, wider.tied_workers) == (eq.gap, eq.residual, eq.tied_workers)


def test_solve_roy_without_a_certified_finish_returns_its_last_point(monkeypatch):
    # When every finish is refused, the solve returns its last smoothed
    # point, uncertified, with that point's own gap and residual.
    monkeypatch.setattr(roy, "_finish", lambda *args: None)
    a, w = _scenario_instance()
    eq = solve(a, w, TECH)
    assert not eq.converged
    assert eq.iterations > 0
    assert np.isfinite(eq.gap) and eq.gap >= 0.0
    assert np.isfinite(eq.residual) and eq.residual >= 0.0
    assert math.fsum(eq.labor) == pytest.approx(400.0, rel=1e-12)
    assert np.array_equal(eq.prices, family_prices(w, TECH, eq.labor))
    assert np.array_equal(eq.wages, (a * eq.prices).max(axis=1))


@pytest.mark.parametrize("which", ["gap", "residual"])
def test_solve_roy_refuses_a_finish_that_fails_its_certificate(monkeypatch, which):
    # Every finish passes its own exact checks, and then its gap or its
    # clearing residual is read one worker too large, far beyond
    # tol * max(1, |G|): no finish may be accepted.
    certificates = roy._certificates

    def inflated(*args):
        gap, residual, dual = certificates(*args)
        return (gap + 1.0, residual, dual) if which == "gap" else (gap, residual + 1.0, dual)

    monkeypatch.setattr(roy, "_certificates", inflated)
    eq = solve(*_scenario_instance(), TECH)
    assert not eq.converged


def _small_instance(rng):
    n, j = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    p = replace(
        INITIAL, omega=rng.uniform(0.5, 2.0, j), delta=np.full(j, 0.1), k=rng.uniform(0.2, 2.0, j),
        born_at=np.zeros(j, dtype=np.int64), aggregator=CES,
        tech=PowerCodification(beta=float(rng.uniform(0.2, 0.8))),
    )
    return np.exp(rng.normal(0.0, 0.8, (n, j))), weights(p), p.tech


def test_solve_roy_agrees_with_exhaustive_enumeration():
    # Wherever a whole-worker equilibrium exists it is the equilibrium:
    # labor equals its head counts and the assignment is one the oracle lists.
    rng = np.random.default_rng(12345)
    found = 0
    for _ in range(50):
        a, w, tech = _small_instance(rng)
        eq = solve(a, w, tech)
        assert eq.converged
        oracle = roy_consistent_assignments(a, w, beta=tech.beta)
        if oracle:
            found += 1
            counts = np.bincount(np.asarray(oracle[0]), minlength=w.size)
            assert np.allclose(eq.labor, counts, rtol=0, atol=1e-9)
            assert tuple(eq.assignment.tolist()) in oracle
    assert found >= 20


def test_default_experiment_solves_are_all_certified(monkeypatch, pin_cpus):
    # The 240 solves of the default roy command at seed 0, in this process
    # so that the recorder sees them.
    pin_cpus(1)
    eqs = []

    def recording(a, w, tech, **kwargs):
        eq = solve_roy(a, w, tech, **kwargs)
        eqs.append((eq, a.shape[0]))
        return eq

    monkeypatch.setattr(roy, "solve_roy", recording)
    dispersion_experiment(EXPERIMENT, derive_seed(0, "roy"))
    assert len(eqs) == 240
    for eq, n in eqs:
        assert eq.converged
        assert eq.gap <= 1e-9 * n and eq.residual <= 1e-9 * n


def test_arm_columns_match_per_period_portfolios(monkeypatch):
    # Read off the panel, the skills and weights of each evaluated period's
    # solve are, bit for bit, the ones generate and effective_weights give for
    # the portfolio portfolio_at rebuilds for that period, entrants in the
    # window included.
    exp = EXPERIMENT
    p0 = replace(
        INITIAL, omega=np.ones(6), delta=np.linspace(0.08, 0.25, 6), k=np.ones(6),
        born_at=np.zeros(6, dtype=np.int64), aggregator=replace(CES, epsilon_floor=0.25), tech=TECH, Lambda=3.0,
    )
    entry = replace(ENTRY, mu=0.5, k_seed=1e-3, omega_sigma=0.5, delta_j=(0.08, 0.25))
    scenario = run_portfolio_scenario(p0, 1.0, entry, exp.T, seed=11, drift=None)
    # The arm is cut from this scenario in place of the one it would build.
    monkeypatch.setattr(roy, "run_portfolio_scenario", lambda *args, **kwargs: scenario)
    arm = roy._arm_inputs(exp, 17, mu_factor=1.0, delta_factor=1.0)
    columns = []

    def recording(a, w, tech, **kwargs):
        columns.append((a, w))
        return solve_roy(a, w, tech, **kwargs)

    monkeypatch.setattr(roy, "solve_roy", recording)
    roy._run_arm(exp, arm)
    periods = range(exp.T - exp.eval_window + 1, exp.T + 1)
    assert len(columns) == exp.eval_window
    assert scenario.portfolio_at(periods[0]).size < scenario.portfolio_at(periods[-1]).size
    for t, (a, w) in zip(periods, columns):
        pt = scenario.portfolio_at(t)
        sigmas = maturity_skill_sigma(pt.k, exp.sigma_young, exp.sigma_mature, exp.k_ref)
        expected = WorkerSkillMatrix.generate(exp.n_workers, pt, seed=arm.skill_seed).skills(sigmas)
        assert (a.dtype, a.shape, a.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
        w_expected = effective_weights(pt.omega, pt.k, pt.aggregator, pt.Lambda)
        assert (w.dtype, w.shape, w.tobytes()) == (w_expected.dtype, w_expected.shape, w_expected.tobytes())


def test_wage_stats_hand_computed():
    wages = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    s = wage_stats(wages)
    assert s.mean_wage == 4.0
    assert s.log_wage_variance == pytest.approx(np.var(np.log(wages), ddof=1), rel=1e-14)
    p10, p90 = np.quantile(wages, [0.1, 0.9])
    assert s.p90_p10 == pytest.approx(p90 / p10, rel=1e-14)
    assert s.top_decile_share == pytest.approx(10.0 / 20.0, rel=1e-14)


def test_wage_stats_sums_are_correctly_rounded():
    # Twenty wages of 2**-53 beside two of 1: numpy's blocked pairwise sum
    # rounds part of them away, math.fsum keeps all 20 * 2**-53.
    wages = np.array([1.0, 1.0] + [2.0**-53] * 20)
    total = 2.0 + 20 * 2.0**-53
    s = wage_stats(wages)
    assert s.mean_wage == total / 22
    assert s.top_decile_share == 2.0 / total
    assert wage_stats(np.full(10, 0.1)).log_wage_variance == 0.0


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
    with pytest.raises(DomainError, match="^sigma_mature must be <= sigma_young$"):
        maturity_skill_sigma(1.0, 0.2, 1.5, 1.0)
    with pytest.raises(DomainError, match="^k_ref must be positive$"):
        maturity_skill_sigma(1.0, 1.5, 0.2, 0.0)


def test_roy_experiment_validation():
    with pytest.raises(DomainError):
        replace(EXPERIMENT, n_initial=0)
    with pytest.raises(DomainError, match=r"^delta_j must have lo <= hi$"):
        replace(EXPERIMENT, delta_j=(0.3, 0.2))
    with pytest.raises(DomainError, match=r"^delta_j must lie in \(0, 1\)$"):
        replace(EXPERIMENT, delta_j=(0.1, 1.5))
    for bad in ((0.1,), (0.1, 0.2, 0.3), 0.1, None):
        with pytest.raises(DomainError, match=r"^delta_j must be a \[lo, hi\] pair$"):
            replace(EXPERIMENT, delta_j=bad)
    assert replace(EXPERIMENT, delta_j=[0.08, 0.25]) == EXPERIMENT
    with pytest.raises(DomainError):
        replace(EXPERIMENT, mu=-0.5)
    with pytest.raises(DomainError):
        replace(EXPERIMENT, sigma_young=0.1, sigma_mature=0.5)
    with pytest.raises(DomainError):
        replace(EXPERIMENT, T=10, eval_window=12)
    with pytest.raises(DomainError):
        replace(EXPERIMENT, eval_window=0)


@pytest.mark.parametrize("n_workers", [1, 0, 2.0])
def test_roy_experiment_rejects_fewer_than_two_workers(n_workers):
    # Dispersion needs two wages; the constructor stops this before a run.
    with pytest.raises(DomainError, match=r"n_workers must be an integer in \[2, 100000\]"):
        replace(EXPERIMENT, n_initial=3, T=6, eval_window=3, n_workers=n_workers)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_workers", 10**12, r"^n_workers must be an integer in \[2, 100000\]$"),
        ("n_initial", 10**5, r"^n_initial must be an integer in \[1, 10000\]$"),
        ("mu", 1e6, r"^mu must lie in \[0, 500\]$"),
        ("initial_k", math.inf, r"^initial_k must be finite$"),
    ],
)
def test_roy_experiment_applies_the_config_bounds(field, value, message):
    # The resource bounds and the sampler's intensity limit hold for the
    # class as for the config, so such a value never reaches a run.
    with pytest.raises(DomainError, match=message):
        replace(EXPERIMENT, **{field: value})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"replications": 10**5}, r"^replications must be an integer in \[1, 10000\]$"),
        ({"replications": 0}, r"^replications must be an integer in \[1, 10000\]$"),
        ({"mu": 300.0}, r"^factor \* mu must be <= 500 under treatment mu$"),
        ({"treatment": "sigma"}, r"^treatment must be one of mu, delta$"),
        ({"factor": 0.0}, r"^factor must be positive$"),
    ],
)
def test_roy_experiment_checks_its_treatment_factor_and_replications(changes, message):
    # The whole design is checked where it is built, so a run never starts on one it cannot finish.
    with pytest.raises(DomainError, match=message):
        replace(EXPERIMENT, **changes)


SMALL = replace(EXPERIMENT, n_initial=3, T=6, eval_window=3, n_workers=40, mu=0.4, replications=3)


def test_dispersion_factor_one_is_an_exact_null():
    # With factor 1 the two arms share every draw, so the paired
    # differences must be exactly zero, not merely small.
    for treatment in ("mu", "delta"):
        res = dispersion_experiment(replace(SMALL, treatment=treatment, factor=1.0, replications=2), seed=5)
        assert res.variance_diffs == (0.0, 0.0)
        assert res.mean_variance_diff == 0.0
        for b, t in zip(res.base, res.treated):
            assert b == t


def test_dispersion_experiment_bookkeeping():
    res = dispersion_experiment(SMALL, seed=1)
    assert len(res.base) == len(res.treated) == len(res.variance_diffs) == 3
    for b, t, d in zip(res.base, res.treated, res.variance_diffs):
        assert d == t.log_wage_variance - b.log_wage_variance
        assert t.n_families >= b.n_families
    assert res.share_positive == np.mean([d > 0 for d in res.variance_diffs])
    again = dispersion_experiment(SMALL, seed=1)
    assert again.variance_diffs == res.variance_diffs


def _bits(x):
    # Floats as their exact hex form, through dataclasses, dicts, lists and
    # tuples (records among them, named by their type).
    if isinstance(x, float):
        return x.hex()
    if is_dataclass(x):
        return [type(x).__name__, _bits(asdict(x))]
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [type(x).__name__] + [_bits(v) for v in x]
    return x


def test_experiment_does_not_depend_on_workers(cpus, pin_cpus):
    # Three replications, more than the two workers.  Each replication's
    # solves run in a forked worker at two CPUs, and the outcome matches the
    # serial one bit for bit.
    res = dispersion_experiment(SMALL, seed=1)
    pin_cpus(1)
    serial = dispersion_experiment(SMALL, seed=1)
    assert isinstance(res.base, tuple) and isinstance(res.treated, tuple)
    assert _bits(res) == _bits(serial)


def test_experiment_runs_one_forked_task_per_replication(monkeypatch, pin_cpus):
    # A task solves its replication's base arm and then its treated arm, so
    # two workers split the replications rather than the base arms from the
    # treated ones.
    pin_cpus(2)
    real, tasks = roy.forked_map, []

    def recording(task, n):
        tasks.append(n)
        return real(task, n)

    monkeypatch.setattr(roy, "forked_map", recording)
    res = dispersion_experiment(SMALL, seed=1)
    assert tasks == [3]
    assert len(res.base) == len(res.treated) == len(res.variance_diffs) == 3


def test_arms_draw_skills_once_through_generate(monkeypatch, pin_cpus):
    # Serially each arm draws its skills once, for its final roster, through
    # the classmethod the benchmark's tracer wraps as roy.skills.
    pin_cpus(1)
    generate, calls = WorkerSkillMatrix.generate, []

    def recording(cls, n_workers, portfolio, seed):
        calls.append(portfolio.size)
        return generate(n_workers, portfolio, seed)

    monkeypatch.setattr(WorkerSkillMatrix, "generate", classmethod(recording))
    res = dispersion_experiment(replace(SMALL, replications=2), seed=3)
    arms = [arm for pair in zip(res.base, res.treated) for arm in pair]
    assert len(calls) == 4
    assert calls == [arm.n_families for arm in arms]


def test_arm_newton_steps_sum_its_solves(monkeypatch, pin_cpus):
    # Serially the solves run arm by arm, base before treated.
    pin_cpus(1)
    steps = []

    def recording(a, w, tech, **kwargs):
        eq = solve_roy(a, w, tech, **kwargs)
        steps.append(eq.iterations)
        return eq

    monkeypatch.setattr(roy, "solve_roy", recording)
    res = dispersion_experiment(replace(SMALL, treatment="delta", replications=2), seed=3)
    arms = [arm for pair in zip(res.base, res.treated) for arm in pair]
    window = SMALL.eval_window
    assert len(steps) == window * len(arms)
    for k, arm in enumerate(arms):
        assert type(arm.newton_steps) is int
        assert arm.newton_steps == sum(steps[k * window : (k + 1) * window]) > 0


def test_default_experiment_newton_steps_come_back_from_workers(pin_cpus):
    # The 240 seed-0 solves take 3,961 Newton steps however they are spread.
    pin_cpus(2)
    res = dispersion_experiment(EXPERIMENT, derive_seed(0, "roy"))
    assert sum(arm.newton_steps for arm in res.base + res.treated) == 3961

