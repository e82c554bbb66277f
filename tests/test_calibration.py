import math

import numpy as np
import pytest

from structlabor.calibration import (
    _BLOCK,
    CalibrationResult,
    PriorSpec,
    run_monte_carlo,
    sample_parameters,
    sample_shares,
    share_bounds,
)
from structlabor.core import structured_share
from structlabor.errors import DomainError
from structlabor.rng import indexed_uniforms

from oracles import corner_share_extremes


def test_prior_spec_defaults():
    p = PriorSpec()
    assert (p.alpha_lo, p.alpha_hi) == (0.33, 0.40)
    assert (p.r_lo, p.r_hi) == (0.03, 0.05)
    assert (p.delta_lo, p.delta_hi) == (0.08, 0.25)
    assert (p.gamma_lo, p.gamma_hi) == (0.02, 0.08)
    assert p.n_draws == 200_000
    assert p.seed == 0


def test_prior_spec_validation():
    with pytest.raises(DomainError):
        PriorSpec(alpha_lo=0.4, alpha_hi=0.33)
    with pytest.raises(DomainError):
        PriorSpec(gamma_lo=0.0)
    with pytest.raises(DomainError):
        PriorSpec(gamma_hi=1.0)
    with pytest.raises(DomainError):
        PriorSpec(r_lo=0.0)
    with pytest.raises(DomainError):
        PriorSpec(n_draws=0)
    # A degenerate (point mass) interior prior is allowed.
    PriorSpec(gamma_lo=0.05, gamma_hi=0.05)


def test_point_mass_priors_reproduce_the_deterministic_share():
    p = PriorSpec(
        alpha_lo=0.36, alpha_hi=0.36, r_lo=0.04, r_hi=0.04,
        delta_lo=0.15, delta_hi=0.15, gamma_lo=0.05, gamma_hi=0.05,
        n_draws=64, seed=3,
    )
    shares = sample_shares(p, 0, 64)
    expected = structured_share(0.36, 0.05, 0.04, 0.15)
    assert np.all(shares == expected)


def test_sample_parameters_respects_boxes_and_column_order():
    p = PriorSpec(n_draws=512, seed=11)
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
    p = PriorSpec(n_draws=100, seed=0)
    with pytest.raises(DomainError):
        sample_parameters(p, -1, 5)
    with pytest.raises(DomainError):
        sample_parameters(p, 90, 20)


def test_sample_shares_chunking_is_invisible():
    p = PriorSpec(n_draws=1000, seed=5)
    whole = sample_shares(p, 0, 1000)
    parts = np.concatenate([sample_shares(p, 0, 300), sample_shares(p, 300, 700)])
    assert np.array_equal(whole, parts)


def test_monte_carlo_frozen_summary():
    # Fully pinned run. Any change to the sampling layout shows up here.
    # The mean and std are math.fsum reductions, so they do not depend on
    # the numpy build's summation order; the mean is the correctly rounded
    # sum of the 200,000 shares divided by n.
    res = run_monte_carlo(PriorSpec(seed=12345))
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
    [PriorSpec(n_draws=n, seed=3) for n in (2, 7, 8, 9, 128, 129, 1000)]
    + [PriorSpec(seed=7)],
    ids=lambda p: f"n{p.n_draws}-seed{p.seed}",
)
def test_monte_carlo_mean_and_std_are_fsum_reductions(priors):
    # The sizes cross numpy's pairwise-summation block sizes. At seed 7 with
    # 200,000 draws np.mean gives 5.849349482706091 on some builds, one ULP
    # above the fsum value 5.84934948270609.
    shares = sample_shares(priors) * 100.0
    n = priors.n_draws
    mean = math.fsum(shares.tolist()) / n
    dev = shares - mean
    res = run_monte_carlo(priors)
    assert res.mean == mean
    assert res.std_dev == math.sqrt(math.fsum((dev * dev).tolist()) / (n - 1))


def _one_block_summary(priors):
    # The documented reductions over the whole sample generated at once.
    shares = sample_shares(priors) * 100.0
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
    priors = PriorSpec(n_draws=n_draws, seed=11)
    assert run_monte_carlo(priors) == _one_block_summary(priors)


def test_monte_carlo_std_dev_of_single_draw_is_zero():
    res = run_monte_carlo(PriorSpec(n_draws=1, seed=2))
    assert res.std_dev == 0.0
    assert res.mean == res.median == res.share_min == res.share_max


def test_calibration_result_rejects_disordered_quantiles():
    good = run_monte_carlo(PriorSpec(n_draws=100, seed=0))
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
    p = PriorSpec(n_draws=5000, seed=9)
    lo, hi = share_bounds(p)
    shares = sample_shares(p, 0, 5000)
    assert lo <= shares.min()
    assert hi >= shares.max()


def test_share_bounds_agree_with_corner_search():
    p = PriorSpec()
    lo, hi = share_bounds(p)
    ref_lo, ref_hi = corner_share_extremes(
        (p.alpha_lo, p.alpha_hi),
        (p.r_lo, p.r_hi),
        (p.delta_lo, p.delta_hi),
        (p.gamma_lo, p.gamma_hi),
        structured_share,
    )
    assert lo == pytest.approx(ref_lo, rel=1e-14)
    assert hi == pytest.approx(ref_hi, rel=1e-14)
    assert (lo, hi) == (0.018038331454340473, 0.10638297872340426)
