import math
import os
from dataclasses import replace

import numpy as np
import pytest

from structlabor import calibration
from structlabor.calibration import (
    _BLOCK,
    _SHIFT,
    _exact_sum,
    CalibrationResult,
    run_monte_carlo,
    sample_parameters,
    sample_shares,
    share_bounds,
)
from structlabor.core import structured_share
from structlabor.errors import DomainError
from structlabor.parallel import ordered_map
from structlabor.rng import indexed_uniforms

from defaults import DEFAULTS
from oracles import corner_share_extremes


def prior_spec(**values):
    """The config's default priors at ``values``."""
    return replace(DEFAULTS.priors, **values)


def test_prior_spec_defaults():
    p = prior_spec()
    assert p.alpha == (0.33, 0.40)
    assert p.r == (0.03, 0.05)
    assert p.delta_k == (0.08, 0.25)
    assert p.gamma == (0.02, 0.08)
    assert p.n_draws == 200_000
    assert p.seed == 0


def test_prior_spec_bounds_the_draw_count():
    # The config's bound is the class's own: a count the sample could not hold is refused when built.
    with pytest.raises(DomainError, match=r"^n_draws must be an integer in \[1, 100000000\]$"):
        prior_spec(n_draws=10**12)


def test_prior_spec_validation():
    with pytest.raises(DomainError, match=r"^alpha must have lo <= hi$"):
        prior_spec(alpha=(0.4, 0.33))
    with pytest.raises(DomainError, match=r"^gamma must lie in \(0, 1\)$"):
        prior_spec(gamma=(0.0, 0.08))
    with pytest.raises(DomainError, match=r"^gamma must lie in \(0, 1\)$"):
        prior_spec(gamma=(0.02, 1.0))
    with pytest.raises(DomainError, match=r"^r must be positive$"):
        prior_spec(r=(0.0, 0.05))
    with pytest.raises(DomainError, match=r"^delta_k must be finite$"):
        prior_spec(delta_k=(0.08, math.nan))
    for bad in ((0.3,), (0.3, 0.35, 0.4), (), 0.3, None):
        with pytest.raises(DomainError, match=r"^alpha must be a \[lo, hi\] pair$"):
            prior_spec(alpha=bad)
    with pytest.raises(DomainError):
        prior_spec(n_draws=0)
    # A degenerate (point mass) interior prior is allowed.
    prior_spec(gamma=(0.05, 0.05))
    # Any two-element sequence is stored as a tuple, so equal priors compare and hash equal.
    p = prior_spec(alpha=[0.33, 0.40], r=np.array([0.03, 0.05]))
    assert (p.alpha, p.r) == ((0.33, 0.40), (0.03, 0.05))
    assert p == prior_spec() and hash(p) == hash(prior_spec())


def test_point_mass_priors_reproduce_the_deterministic_share():
    p = prior_spec(
        alpha=(0.36, 0.36), r=(0.04, 0.04),
        delta_k=(0.15, 0.15), gamma=(0.05, 0.05),
        n_draws=64, seed=3,
    )
    shares = sample_shares(p, 0, 64)
    expected = structured_share(0.36, 0.05, 0.04, 0.15)
    assert np.all(shares == expected)


def test_sample_parameters_respects_boxes_and_column_order():
    p = prior_spec(n_draws=512, seed=11)
    alpha, r, delta, gamma = sample_parameters(p, 0, 512)
    assert alpha.shape == (512,)
    u = indexed_uniforms(11, 0, 512)
    # Columns come from the uniform block in the order alpha, r, delta_k, gamma.
    assert np.array_equal(alpha, 0.33 + (0.40 - 0.33) * u[:, 0])
    assert np.array_equal(r, 0.03 + (0.05 - 0.03) * u[:, 1])
    assert np.array_equal(delta, 0.08 + (0.25 - 0.08) * u[:, 2])
    assert np.array_equal(gamma, 0.02 + (0.08 - 0.02) * u[:, 3])
    assert alpha.min() >= 0.33 and alpha.max() <= 0.40


def test_sample_parameters_range_checks():
    p = prior_spec(n_draws=100, seed=0)
    with pytest.raises(DomainError):
        sample_parameters(p, -1, 5)
    with pytest.raises(DomainError):
        sample_parameters(p, 90, 20)


def test_sample_shares_chunking_is_invisible():
    p = prior_spec(n_draws=1000, seed=5)
    whole = sample_shares(p, 0, 1000)
    parts = np.concatenate([sample_shares(p, 0, 300), sample_shares(p, 300, 700)])
    assert np.array_equal(whole, parts)


def test_monte_carlo_frozen_summary():
    # Fully pinned run. Any change to the sampling layout shows up here.
    # The mean and std are math.fsum reductions, so they do not depend on
    # the numpy build's summation order; the mean is the correctly rounded
    # sum of the 200,000 shares divided by n.
    res = run_monte_carlo(prior_spec(seed=12345))
    assert res.mean == 5.840864558765274
    assert res.median == 5.846645927590657
    assert res.std_dev == 1.9713869074730024
    assert res.q2_5 == 2.582635240917298
    assert res.q10 == 3.1281748653443695
    assert res.q90 == 8.511558800012741
    assert res.q97_5 == 9.285661899706122
    assert res.share_min == 1.8537612548977542
    assert res.share_max == 10.534949609554474
    assert res.pr_gt_5pct == 0.62719
    assert res.pr_gt_8pct == 0.16968
    assert res.n_draws == 200_000


@pytest.mark.parametrize(
    "priors",
    [prior_spec(n_draws=n, seed=3) for n in (2, 7, 8, 9, 128, 129, 1000)]
    + [prior_spec(seed=7)],
    ids=lambda p: f"n{p.n_draws}-seed{p.seed}",
)
def test_monte_carlo_mean_and_std_are_fsum_reductions(priors):
    # The sizes cross numpy's pairwise-summation block sizes. At seed 7 with
    # 200,000 draws np.mean gives 5.849349482706091 on some builds, one ULP
    # above the fsum value 5.84934948270609.
    shares = sample_shares(priors, 0, priors.n_draws) * 100.0
    n = priors.n_draws
    mean = math.fsum(shares.tolist()) / n
    dev = shares - mean
    res = run_monte_carlo(priors)
    assert res.mean == mean
    assert res.std_dev == math.sqrt(math.fsum((dev * dev).tolist()) / (n - 1))


def _one_block_summary(priors):
    # The documented reductions over the whole sample generated at once.
    shares = sample_shares(priors, 0, priors.n_draws) * 100.0
    n = priors.n_draws
    mean = math.fsum(shares.tolist()) / n
    sd = math.sqrt(math.fsum(np.square(shares - mean).tolist()) / (n - 1)) if n > 1 else 0.0
    q = np.quantile(shares, [0.025, 0.10, 0.50, 0.90, 0.975], method="linear")
    return CalibrationResult(
        mean=mean, median=float(q[2]), std_dev=sd,
        q2_5=float(q[0]), q10=float(q[1]), q90=float(q[3]), q97_5=float(q[4]),
        share_min=float(shares.min()), share_max=float(shares.max()),
        pr_gt_5pct=np.count_nonzero(shares > 5.0) / n, pr_gt_8pct=np.count_nonzero(shares > 8.0) / n,
        n_draws=n, seed=priors.seed,
    )


@pytest.mark.parametrize("n_draws", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_streamed_monte_carlo_equals_one_block(n_draws):
    # The sample is generated in blocks of _BLOCK draws; at and across the
    # block edges every field must equal the one-block computation exactly.
    priors = prior_spec(n_draws=n_draws, seed=11)
    assert run_monte_carlo(priors) == _one_block_summary(priors)


QUANTILES = [0.025, 0.10, 0.50, 0.90, 0.975]


def assert_quantiles_are_numpys(priors):
    # Bit for bit, as numpy's linear method on the whole sample at once.
    shares = sample_shares(priors, 0, priors.n_draws) * 100.0
    want = np.quantile(shares, QUANTILES, method="linear")
    res = run_monte_carlo(priors)
    got = np.array([res.q2_5, res.q10, res.median, res.q90, res.q97_5])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert (res.share_min, res.share_max) == (shares.min(), shares.max())
    return shares


@pytest.mark.parametrize("n_draws", [*range(1, 42), 99, 100, 101, 1000])
def test_quantiles_equal_numpys_at_small_n(n_draws):
    for seed in (0, 1, 2):
        assert_quantiles_are_numpys(prior_spec(n_draws=n_draws, seed=seed))


POINT_MASS = dict(alpha=(0.36, 0.36), r=(0.04, 0.04), delta_k=(0.15, 0.15), gamma=(0.05, 0.05))


@pytest.mark.parametrize("keep", [calibration._KEEP, 0], ids=["collected", "refined"])
@pytest.mark.parametrize("n_draws", [1, 2, 3, 50, 1000])
def test_quantiles_of_point_mass_priors(monkeypatch, keep, n_draws):
    # Every draw is one share.  With no draws kept for sorting, the bins
    # are refined to single bit patterns instead, pass by pass.
    monkeypatch.setattr(calibration, "_KEEP", keep)
    shares = assert_quantiles_are_numpys(prior_spec(n_draws=n_draws, seed=4, **POINT_MASS))
    assert np.all(shares == structured_share(0.36, 0.05, 0.04, 0.15) * 100.0)


@pytest.mark.parametrize("keep", [calibration._KEEP, 0], ids=["collected", "refined"])
def test_quantiles_of_ties_across_a_bin_edge(monkeypatch, keep):
    # Draws of alpha take the two adjacent doubles of its box, whose shares
    # are 4.0 - 2**-51 and 4.0: ties on both sides of the first histogram's
    # bin edge at 4.0, so a quantile's two ranks can lie in different bins.
    monkeypatch.setattr(calibration, "_KEEP", keep)
    box = dict(POINT_MASS, alpha=(0.05263157894736842, 0.052631578947368425))
    for n_draws in (2, 3, 4, 9, 40, 41, 200):
        shares = assert_quantiles_are_numpys(prior_spec(n_draws=n_draws, seed=5, **box))
        if n_draws >= 40:
            assert np.unique(shares).tolist() == [np.nextafter(4.0, 0.0), 4.0]
            edge = int(np.float64(4.0).view(np.int64)) >> _SHIFT
            assert np.unique(shares.view(np.int64) >> _SHIFT).tolist() == [edge - 1, edge]


@pytest.mark.parametrize("keep", [calibration._KEEP, 5], ids=["collected", "refined"])
def test_quantiles_equal_numpys_when_bins_are_refined(monkeypatch, keep):
    # Few draws kept: the bins holding the quantiles are refined until they
    # hold at most five, which are then collected.
    monkeypatch.setattr(calibration, "_KEEP", keep)
    for n_draws in (7, 100, 2000):
        assert_quantiles_are_numpys(prior_spec(n_draws=n_draws, seed=6))


def record_passes(monkeypatch):
    """The number of ranges of each sampling pass, as ``run_monte_carlo``
    hands them to ``forked_map``."""
    passes = []
    real = calibration.forked_map

    def recording(task, n):
        passes.append(n)
        return real(task, n)

    monkeypatch.setattr(calibration, "forked_map", recording)
    return passes


# Two ranges of the fewest blocks a range holds.
TWO_RANGES = 2 * calibration._MIN_RANGE * _BLOCK
OUT_OF_RANGE = "^share out of range: a draw lies outside the shares of its prior box's corners$"


@pytest.mark.parametrize("n_cpus", [2, 3])
def test_forked_passes_equal_the_serial_run(monkeypatch, pin_cpus, n_cpus):
    # 25 blocks, the last ragged: ranges of 8, 8 and 9 blocks on three CPUs,
    # of 12 and 13 on two, the first drawn and summarized in this process
    # and each other in its own worker.
    priors = prior_spec(n_draws=3 * calibration._MIN_RANGE * _BLOCK + 777, seed=13)
    pin_cpus(1)
    passes = record_passes(monkeypatch)
    serial = run_monte_carlo(priors)
    pin_cpus(n_cpus)
    assert run_monte_carlo(priors) == serial
    assert passes == [1, 1, n_cpus, n_cpus]


def test_forked_passes_of_a_narrow_box_refine_its_bins(monkeypatch, pin_cpus):
    # Shares within a few first-pass bins: the bins holding the quantiles
    # hold more than _KEEP draws, so a second pass refines them and a third
    # collects, each from this process and a worker.
    priors = prior_spec(n_draws=TWO_RANGES, seed=14, **dict(POINT_MASS, alpha=(0.36, 0.3601)))
    pin_cpus(1)
    passes = record_passes(monkeypatch)
    serial = run_monte_carlo(priors)
    pin_cpus(2)
    assert run_monte_carlo(priors) == serial
    assert passes == [1, 1, 1, 2, 2, 2]


def test_a_share_out_of_range_is_raised_in_process_and_from_a_worker(monkeypatch, pin_cpus):
    # A histogram one bin too narrow for the sample: this process refuses
    # the first block of its own range and raises at once.
    priors = prior_spec(n_draws=TWO_RANGES, seed=15)
    first, last, shift = calibration._histogram_range(priors)
    monkeypatch.setattr(calibration, "_histogram_range", lambda priors: (first, first + 1, shift))
    for n_cpus in (1, 2):
        pin_cpus(n_cpus)
        with pytest.raises(DomainError, match=OUT_OF_RANGE):
            run_monte_carlo(priors)
    # A share past the box's corners drawn only in the worker of the second range.
    monkeypatch.setattr(calibration, "_histogram_range", lambda priors: (first, last, shift))
    parent, real = os.getpid(), calibration.sample_shares

    def sample_shares(priors, start, count):
        shares = real(priors, start, count)
        if os.getpid() != parent:
            shares[0] = 1.0
        return shares

    monkeypatch.setattr(calibration, "sample_shares", sample_shares)
    pin_cpus(1)
    run_monte_carlo(priors)
    pin_cpus(2)
    with pytest.raises(DomainError, match=OUT_OF_RANGE):
        run_monte_carlo(priors)


def test_the_sample_is_split_once_it_fills_two_ranges(monkeypatch, pin_cpus):
    # 15 blocks are drawn in this process alone; 16, the last holding one draw, in two ranges.
    pin_cpus(2)
    passes = record_passes(monkeypatch)
    run_monte_carlo(prior_spec(n_draws=TWO_RANGES - _BLOCK, seed=16))
    run_monte_carlo(prior_spec(n_draws=TWO_RANGES - _BLOCK + 1, seed=16))
    assert passes == [1, 1, 2, 2]


def test_a_parameter_draw_never_rounds_past_its_upper_end():
    # lo + (hi - lo) * u at the largest uniform, 1 - 2**-53, over boxes of
    # every scale: the rounded hi - lo is within half its ulp of the exact
    # difference, and the rounded product is at least an ulp below it.
    rng = np.random.Generator(np.random.Philox(key=21))
    ends = np.sort(rng.uniform(size=(100_000, 2)) * 10.0 ** rng.integers(-300, 3, size=(100_000, 1)), axis=1)
    lo, hi = ends[:, 0], ends[:, 1]
    assert np.all(lo + (hi - lo) * (1.0 - 2.0**-53) <= hi)


def test_a_share_past_its_bound_is_inside_the_histogram():
    # Rounding in the share is not monotone: a delta one ulp below the box's
    # top gives a larger share than the corner share_bounds reports, and the
    # padded histogram still holds it.
    delta = 0.4243289798047253
    box = dict(
        alpha=(0.4339781749886914, 0.4339781749886914), gamma=(0.6659113526030298, 0.6659113526030298),
        r=(0.12700369545554918, 0.12700369545554918), delta_k=(float(np.nextafter(delta, 0.0)), delta),
    )
    priors = prior_spec(n_draws=64, seed=8, **box)
    shares = assert_quantiles_are_numpys(priors)
    assert shares.max() > share_bounds(priors)[1] * 100.0


def test_non_finite_shares_are_refused(monkeypatch):
    # The largest alpha with the smallest gamma, r and delta_k: both terms
    # of the share's denominator underflow, 0/0, while both corners are finite.
    top = 1.0 - 2.0**-53
    monkeypatch.setattr(calibration, "indexed_uniforms", lambda seed, start, count: np.tile([top, 0.0, 0.0, 0.0], (count, 1)))
    priors = prior_spec(
        alpha=(0.5, 0.9999999999999999), r=(5e-324, 1.0),
        delta_k=(5e-324, 0.5), gamma=(5e-324, 0.5), n_draws=3,
    )
    assert all(np.isfinite(share_bounds(priors)))
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        run_monte_carlo(priors)


def test_share_bounds_refuse_a_corner_whose_share_is_zero_over_zero():
    priors = prior_spec(
        alpha=(0.9999999999999999, 0.9999999999999999), r=(5e-324, 5e-324),
        delta_k=(5e-324, 0.5), gamma=(5e-324, 0.5),
    )
    with pytest.raises(DomainError, match="^share bounds out of range"):
        share_bounds(priors)
    with pytest.raises(DomainError, match="^share bounds out of range"):
        run_monte_carlo(priors)


def _adversarial_arrays():
    rng = np.random.Generator(np.random.Philox(key=17))
    big = rng.uniform(1.0, 1.7, size=500) * 1e308
    cancel = np.empty(1003)
    cancel[0:1000:2], cancel[1:1000:2] = big, -big
    cancel[1000:] = [1e-300, -5e-324, 3.0]
    yield pytest.param(rng.uniform(-1.0, 1.0, size=3000) * 2.0**-1022, id="subnormals")
    yield pytest.param(np.array([5e-324, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1023)]), id="smallest-subnormals")
    yield pytest.param(cancel, id="1e308-cancellations")
    yield pytest.param(rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, size=5000), id="mixed-signs")
    yield pytest.param(np.concatenate([2.0 ** np.arange(-1074, 1023), -(2.0 ** np.arange(-1074, 1023, 3))]), id="all-magnitudes")
    # Every finite bit pattern below 2**1023, scaled so 4,000 cannot overflow.
    bits = rng.integers(0, 0x7FE << 52, size=4000).view(np.float64) * 2.0**-13
    yield pytest.param(bits * rng.choice([-1.0, 1.0], size=4000), id="random-bits")
    yield pytest.param(np.array([-1.2345e-200]), id="single")
    yield pytest.param(np.zeros(7), id="zeros")


@pytest.mark.parametrize("values", _adversarial_arrays())
def test_exact_sum_equals_fsum(cpus, values):
    # Blocks of 97 values, so the integer sums of many blocks are combined;
    # serially and from two forked workers the combined sum is the same.
    assert np.isfinite(values).all()
    expected = math.fsum(values.tolist())
    got = sum(ordered_map(lambda b: _exact_sum(values[97 * b : 97 * (b + 1)]), -(-values.shape[0] // 97))) / 2**1074
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert _exact_sum(values[:_BLOCK]) / 2**1074 == math.fsum(values[:_BLOCK].tolist())


def test_exact_sum_refuses_non_finite_values():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            _exact_sum(np.array([1.0, bad]))


def test_monte_carlo_std_dev_of_single_draw_is_zero():
    res = run_monte_carlo(prior_spec(n_draws=1, seed=2))
    assert res.std_dev == 0.0
    assert res.mean == res.median == res.share_min == res.share_max


def test_calibration_result_rejects_disordered_quantiles():
    good = run_monte_carlo(prior_spec(n_draws=100, seed=0))
    kwargs = {
        "mean": good.mean, "median": good.median, "std_dev": good.std_dev,
        "q2_5": good.q2_5, "q10": good.q10, "q90": good.q90, "q97_5": good.q97_5,
        "share_min": good.share_min, "share_max": good.share_max,
        "pr_gt_5pct": good.pr_gt_5pct, "pr_gt_8pct": good.pr_gt_8pct,
        "n_draws": good.n_draws, "seed": good.seed,
    }
    bad = dict(kwargs)
    bad["q10"] = good.q90 + 1.0
    with pytest.raises(DomainError):
        CalibrationResult(**bad)
    bad = dict(kwargs)
    bad["pr_gt_5pct"] = 1.5
    with pytest.raises(DomainError):
        CalibrationResult(**bad)


def test_share_bounds_bracket_every_sample():
    p = prior_spec(n_draws=5000, seed=9)
    lo, hi = share_bounds(p)
    shares = sample_shares(p, 0, 5000)
    assert lo <= shares.min()
    assert hi >= shares.max()


def test_share_bounds_agree_with_corner_search():
    p = prior_spec()
    lo, hi = share_bounds(p)
    ref_lo, ref_hi = corner_share_extremes(p.alpha, p.r, p.delta_k, p.gamma, structured_share)
    assert lo == pytest.approx(ref_lo, rel=1e-14)
    assert hi == pytest.approx(ref_hi, rel=1e-14)
    assert (lo, hi) == (0.018038331454340473, 0.10638297872340426)
