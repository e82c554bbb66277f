"""Monte Carlo calibration of the long-run maintenance share.

Parameters are drawn from independent uniform priors and pushed through
the closed-form share.  Draws are addressed by index on a counter-based
generator: draw ``i`` occupies Philox counter block ``i``, so the sample
is identical whether it is generated in one block, in chunks, or in
parallel, and any sub-range can be regenerated without the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import structured_share
from .errors import require
from .rng import check_seed, indexed_uniforms

# Column order of the four uniforms consumed by each draw.
PARAM_ORDER = ("alpha", "r", "delta_k", "gamma")

# Draws per sampling block; bounds the transient uniform matrix at 8 MB.
_BLOCK = 1 << 18

# Draws per array handed to math.fsum; bounds the transient Python list.
# Smaller than a sampling block because ``tolist`` of a cache-sized chunk
# is faster: one pass over 5M draws took 0.20 s on a 2-vCPU host, against
# 0.29 s in chunks of ``_BLOCK``.
_SUM_CHUNK = 1 << 14


def _check_interval(lo: float, hi: float, name: str, open_lo: float, open_hi: float) -> None:
    for v, side in ((lo, "lo"), (hi, "hi")):
        require(math.isfinite(v), f"{name}_{side} must be finite")
    require(lo <= hi, f"{name} prior must have lo <= hi")
    require(open_lo < lo and hi < open_hi, f"{name} prior must stay inside ({open_lo}, {open_hi})")


@dataclass(frozen=True)
class PriorSpec:
    """Independent uniform priors over the four share parameters.

    Defaults reproduce the benchmark calibration: capital share in
    [0.33, 0.40], discount rate in [0.03, 0.05], capability decay in
    [0.08, 0.25], capability elasticity in [0.02, 0.08], with 200,000
    draws.  Degenerate (point-mass) priors with lo == hi are allowed.
    """

    alpha_lo: float = 0.33
    alpha_hi: float = 0.40
    r_lo: float = 0.03
    r_hi: float = 0.05
    delta_lo: float = 0.08
    delta_hi: float = 0.25
    gamma_lo: float = 0.02
    gamma_hi: float = 0.08
    n_draws: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_interval(self.alpha_lo, self.alpha_hi, "alpha", 0.0, 1.0)
        _check_interval(self.r_lo, self.r_hi, "r", 0.0, math.inf)
        _check_interval(self.delta_lo, self.delta_hi, "delta", 0.0, 1.0)
        _check_interval(self.gamma_lo, self.gamma_hi, "gamma", 0.0, 1.0)
        require(isinstance(self.n_draws, int) and self.n_draws >= 1, "n_draws must be an integer >= 1")
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


def sample_parameters(
    priors: PriorSpec, start: int = 0, count: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parameter draws for indices [start, start+count).

    Returns ``(alpha, r, delta_k, gamma)`` arrays.  Draw ``i`` consumes
    the four uniforms of counter block ``i`` in that fixed order, so the
    value of a draw depends only on the prior seed and its index.
    """
    if count is None:
        count = priors.n_draws - start
    require(
        0 <= start and 0 <= count and start + count <= priors.n_draws, "draw range must lie within [0, n_draws]"
    )
    u = indexed_uniforms(priors.seed, start, count)
    alpha = priors.alpha_lo + (priors.alpha_hi - priors.alpha_lo) * u[:, 0]
    r = priors.r_lo + (priors.r_hi - priors.r_lo) * u[:, 1]
    delta = priors.delta_lo + (priors.delta_hi - priors.delta_lo) * u[:, 2]
    gamma = priors.gamma_lo + (priors.gamma_hi - priors.gamma_lo) * u[:, 3]
    return alpha, r, delta, gamma


def sample_shares(priors: PriorSpec, start: int = 0, count: int | None = None) -> np.ndarray:
    """Long-run maintenance shares (fractions) for a range of draw indices."""
    alpha, r, delta, gamma = sample_parameters(priors, start, count)
    return structured_share(alpha, gamma, r, delta)


def _fsum(chunks) -> float:
    """Exactly rounded sum (``math.fsum``) of the values of an iterable of
    arrays, fed one array at a time so no list of the whole sample exists."""
    return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks))


def run_monte_carlo(priors: PriorSpec) -> CalibrationResult:
    """Simulate the share distribution and summarize it in percent.

    The sample is generated in blocks of ``_BLOCK`` draws written into one
    preallocated array of shares, so the ``(n, 4)`` uniform matrix never
    exists at once.  Draw ``i`` is Philox counter block ``i`` and the share
    is elementwise, so the array is bit-identical to a one-block sample.

    Every field depends only on the draws, never on the numpy build's
    summation order.  The mean is ``math.fsum(shares) / n``; the standard
    deviation is the two-pass sample statistic (ddof=1),
    ``sqrt(fsum((x - mean)**2) / (n - 1))``, with the deviations and
    squares taken elementwise, and 0 for a single draw.  Quantiles use
    numpy's ``linear`` method, a selection plus an elementwise
    interpolation.  Exceedance probabilities are strict, Pr(s > threshold),
    and are exact counts divided by n.
    """
    n = priors.n_draws
    shares = np.empty(n)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        shares[lo:hi] = sample_shares(priors, lo, hi - lo) * 100.0
    chunks = [shares[i : i + _SUM_CHUNK] for i in range(0, n, _SUM_CHUNK)]
    mean = _fsum(chunks) / n
    q = np.quantile(shares, [0.025, 0.10, 0.50, 0.90, 0.975], method="linear")
    if n > 1:
        sd = math.sqrt(_fsum(np.square(c - mean) for c in chunks) / (n - 1))
    else:
        sd = 0.0
    return CalibrationResult(
        mean=mean,
        median=float(q[2]),
        std_dev=sd,
        q2_5=float(q[0]),
        q10=float(q[1]),
        q90=float(q[3]),
        q97_5=float(q[4]),
        share_min=float(np.min(shares)),
        share_max=float(np.max(shares)),
        pr_gt_5pct=float(np.mean(shares > 5.0)),
        pr_gt_8pct=float(np.mean(shares > 8.0)),
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
