"""Monte Carlo calibration of the long-run maintenance share.

Parameters are drawn from independent uniform priors and pushed through
the closed-form share.  Draws are addressed by index on a counter-based
generator: draw ``i`` occupies Philox counter block ``i``, so the sample
is identical whether it is generated in one block, in chunks, or in
parallel, and any sub-range can be regenerated without the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import structured_share
from .errors import require
from .rng import check_seed, indexed_uniforms
from .schema import PRIOR_RULES, PRIORS, check

# Draws per sampling and summing block; bounds the transient uniform matrix
# at 8 MB and keeps every per-exponent mantissa sum below 2**44 (see
# ``_exact_sum``).
_BLOCK = 1 << 18

# 2**1074: the reciprocal of the smallest subnormal double, the unit of
# ``_exact_sum``.
_SUBNORMAL_SCALE = 1 << 1074


@dataclass(frozen=True)
class PriorSpec:
    """Independent uniform priors over the four share parameters.

    Each parameter is uniform on [lo, hi]; ``n_draws`` draws are made
    from the stream keyed by ``seed``.  Degenerate (point-mass) priors with
    lo == hi are allowed.  ``AppConfig().priors`` is the benchmark
    calibration.
    """

    alpha_lo: float
    alpha_hi: float
    r_lo: float
    r_hi: float
    delta_lo: float
    delta_hi: float
    gamma_lo: float
    gamma_hi: float
    n_draws: int
    seed: int = 0

    def __post_init__(self) -> None:
        check(vars(self), PRIORS, PRIOR_RULES)
        check_seed(self.seed)


@dataclass(frozen=True)
class CalibrationResult:
    """Summary statistics of the simulated share distribution, in percent."""

    mean: float
    median: float
    std_dev: float
    q2_5: float
    q10: float
    q90: float
    q97_5: float
    share_min: float
    share_max: float
    pr_gt_5pct: float
    pr_gt_8pct: float
    n_draws: int
    seed: int

    def __post_init__(self) -> None:
        chain = (
            self.share_min,
            self.q2_5,
            self.q10,
            self.median,
            self.q90,
            self.q97_5,
            self.share_max,
        )
        require(not any(lo > hi for lo, hi in zip(chain, chain[1:])), "quantiles must be nondecreasing")
        require(
            all(0.0 <= p <= 1.0 for p in (self.pr_gt_5pct, self.pr_gt_8pct)),
            "exceedance probabilities must lie in [0, 1]",
        )


def sample_parameters(priors: PriorSpec, start: int, count: int) -> tuple[np.ndarray, ...]:
    """Parameter draws for indices [start, start+count).

    Returns ``(alpha, r, delta_k, gamma)`` arrays.  Draw ``i`` consumes
    the four uniforms of counter block ``i`` in that fixed order, so the
    value of a draw depends only on the prior seed and its index.
    """
    require(
        0 <= start and 0 <= count and start + count <= priors.n_draws, "draw range must lie within [0, n_draws]"
    )
    u = indexed_uniforms(priors.seed, start, count)
    alpha = priors.alpha_lo + (priors.alpha_hi - priors.alpha_lo) * u[:, 0]
    r = priors.r_lo + (priors.r_hi - priors.r_lo) * u[:, 1]
    delta = priors.delta_lo + (priors.delta_hi - priors.delta_lo) * u[:, 2]
    gamma = priors.gamma_lo + (priors.gamma_hi - priors.gamma_lo) * u[:, 3]
    return alpha, r, delta, gamma


def sample_shares(priors: PriorSpec, start: int, count: int) -> np.ndarray:
    """Long-run maintenance shares (fractions) for a range of draw indices."""
    alpha, r, delta, gamma = sample_parameters(priors, start, count)
    return structured_share(alpha, gamma, r, delta)


def _exact_sum(x: np.ndarray) -> int:
    """Exact sum of at most ``_BLOCK`` finite doubles, as an integer count of
    the smallest subnormal, 2**-1074.

    A double with biased exponent ``e`` and 52 fraction bits ``f`` is
    ``(f + 2**52) * 2**(e - 1075)``, or ``f * 2**-1074`` when ``e`` is 0
    (zeros and subnormals).  The top 12 bits, sign and exponent, key one
    ``np.bincount`` bin each; per bin the fraction's high and low 26-bit
    halves are summed in float64, exact as every partial sum is an integer
    below 2**44, and the implicit bits are counted.  The bins are combined
    in Python integers (the binned accumulator of Demmel and Hida, 2004).
    """
    bits = x.view(np.int64)
    key = bits >> 52
    key += 2048
    fraction = bits & ((1 << 52) - 1)
    high = np.bincount(key, weights=fraction >> 26)
    fraction &= (1 << 26) - 1
    low = np.bincount(key, weights=fraction)
    count = np.bincount(key)
    # Keys 2047 and 4095 hold the infinities and NaNs.
    require(not count[2047::2048].any(), "cannot sum non-finite values")
    total = 0
    for k in np.flatnonzero(count).tolist():
        e = k & 2047
        mantissa = (int(high[k]) << 26) + int(low[k]) + (int(count[k]) << 52 if e else 0)
        total += (mantissa if k >> 11 else -mantissa) << max(e - 1, 0)
    return total


def run_monte_carlo(priors: PriorSpec) -> CalibrationResult:
    """Simulate the share distribution and summarize it in percent.

    The sample is generated in blocks of ``_BLOCK`` draws written into one
    preallocated array of shares, so the ``(n, 4)`` uniform matrix never
    exists at once.  Draw ``i`` is Philox counter block ``i`` and the share
    is elementwise, so the array is bit-identical to a one-block sample.

    Every field depends only on the draws, never on the numpy build's
    summation order.  The mean is
    ``math.fsum(shares) / n``; the standard deviation is the two-pass sample
    statistic (ddof=1), ``sqrt(fsum((x - mean)**2) / (n - 1))``, with the
    deviations and squares taken elementwise, and 0 for a single draw.  Both
    sums are taken exactly, block by block, in integers (``_exact_sum``)
    and rounded once by CPython's correctly rounded int/int division,
    which is what ``fsum`` returns.  Exceedance probabilities are
    strict, Pr(s > threshold), and are exact counts divided by n.
    Quantiles use numpy's ``linear`` method, a selection plus an
    elementwise interpolation; they are taken last and in place
    (``overwrite_input``), which reorders the share array instead of
    copying it, so every reduction before them sees the draws in index
    order.
    """
    n = priors.n_draws
    shares = np.empty(n)
    total = 0
    for lo in range(0, n, _BLOCK):
        block = shares[lo : lo + _BLOCK]
        block[:] = sample_shares(priors, lo, len(block)) * 100.0
        total += _exact_sum(block)
    mean = total / _SUBNORMAL_SCALE / n
    if n > 1:
        total = sum(_exact_sum(np.square(shares[lo : lo + _BLOCK] - mean)) for lo in range(0, n, _BLOCK))
        sd = math.sqrt(total / _SUBNORMAL_SCALE / (n - 1))
    else:
        sd = 0.0
    share_min, share_max = float(np.min(shares)), float(np.max(shares))
    pr_gt_5pct, pr_gt_8pct = float(np.mean(shares > 5.0)), float(np.mean(shares > 8.0))
    # Last, as it partially sorts the sample in place instead of copying it.
    q = np.quantile(shares, [0.025, 0.10, 0.50, 0.90, 0.975], method="linear", overwrite_input=True)
    return CalibrationResult(
        mean=mean,
        median=float(q[2]),
        std_dev=sd,
        q2_5=float(q[0]),
        q10=float(q[1]),
        q90=float(q[3]),
        q97_5=float(q[4]),
        share_min=share_min,
        share_max=share_max,
        pr_gt_5pct=pr_gt_5pct,
        pr_gt_8pct=pr_gt_8pct,
        n_draws=n,
        seed=priors.seed,
    )


def share_bounds(priors: PriorSpec) -> tuple[float, float]:
    """Exact attainable range of the share (fractions) over the prior box.

    The share is monotone in every parameter: increasing in alpha, gamma,
    and delta_k, decreasing in r.  The extremes are therefore attained at
    the two opposite corners of the box.
    """
    lo = float(
        structured_share(priors.alpha_lo, priors.gamma_lo, priors.r_hi, priors.delta_lo)
    )
    hi = float(
        structured_share(priors.alpha_hi, priors.gamma_hi, priors.r_lo, priors.delta_hi)
    )
    return lo, hi
