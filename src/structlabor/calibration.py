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
from .errors import DomainError, require
from .parallel import forked_map, split
from .rng import check_seed, indexed_uniforms
from .schema import PRIOR_RULES, PRIORS, check, pair

# Draws per sampling and summing block: a 2 MB uniform matrix.
_BLOCK = 1 << 16

# Fewest blocks a range holds (524,288 draws): a sample of fewer than two
# such ranges is drawn in this process alone.
_MIN_RANGE = 8

# 2**1074: the reciprocal of the smallest subnormal double, the unit of
# ``_exact_sum``.
_SUBNORMAL_SCALE = 1 << 1074

# The quantiles reported, in ``CalibrationResult`` field order q2_5, q10, median, q90, q97_5.
_QUANTILES = (0.025, 0.10, 0.50, 0.90, 0.975)

# Order statistics are found by radix selection over the shares' bit
# patterns (nonnegative doubles sort like their patterns): a first histogram
# of the patterns shifted right by at least ``_SHIFT`` over at most
# ``_MAX_BINS`` bins, then ``_STEP`` more bits per further pass, until the
# bins that hold the wanted ranks hold at most ``_KEEP`` draws, which one
# more pass collects and sorts.
_SHIFT = 36
_MAX_BINS = 1 << 18
_STEP = 12
_KEEP = 1 << 18


@dataclass(frozen=True)
class PriorSpec:
    """Independent uniform priors over the four share parameters.

    Each parameter is uniform on its ``(lo, hi)`` pair, named as its
    ``priors`` config key and stored as a tuple; ``n_draws`` draws are made
    from the stream keyed by ``seed``.  Degenerate (point-mass) priors with
    lo == hi are allowed.  ``AppConfig().priors`` is the benchmark
    calibration.
    """

    alpha: tuple[float, float]
    r: tuple[float, float]
    delta_k: tuple[float, float]
    gamma: tuple[float, float]
    n_draws: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "r", "delta_k", "gamma"):
            object.__setattr__(self, name, pair(name, getattr(self, name)))
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
    box = (priors.alpha, priors.r, priors.delta_k, priors.gamma)
    return tuple(lo + (hi - lo) * u[:, i] for i, (lo, hi) in enumerate(box))


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
    below 2**42, and the implicit bits are counted.  The bins are combined
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


def _share_blocks(priors: PriorSpec, blocks: range):
    """The shares in percent of the draws in ``blocks``, ``_BLOCK`` draws at a time, in draw order."""
    n = priors.n_draws
    for lo in range(blocks.start * _BLOCK, min(blocks.stop * _BLOCK, n), _BLOCK):
        shares = sample_shares(priors, lo, min(_BLOCK, n - lo))
        shares *= 100.0
        yield shares


def _each_range(priors: PriorSpec, scan):
    """``scan(blocks)`` over the sample cut into contiguous ranges of blocks,
    one per CPU (:func:`~structlabor.parallel.split`), each in a forked
    worker of its own when there are several; the results in range order,
    one at a time.  A worker regenerates its own blocks, so only its
    partial results cross a pipe."""
    ranges = split(-(-priors.n_draws // _BLOCK), _MIN_RANGE)
    return forked_map(lambda i: scan(ranges[i]), len(ranges))


def _histogram_range(priors: PriorSpec) -> tuple[int, int, int]:
    """``(first, last, shift)``: the bit pattern of every share in percent,
    shifted right by ``shift``, lies in [first, last], at most ``_MAX_BINS``
    bins.

    A parameter draw ``lo + (hi - lo) * u`` never rounds past ``hi``: with
    ``d`` the rounded ``hi - lo`` and u at most 1 - 2**-53, the rounded
    ``d * u`` is at most the double below ``d``, which is below ``hi - lo``
    as ``d`` is within half its ulp of it, and rounding is monotone.  So
    the exact shares lie between :func:`share_bounds`' corners.  A computed
    share is within a few roundings (a relative 2**-50) of the exact one
    while no step underflows, so it can land an ulp or so past a corner,
    and each end is padded by one bin of at least 2**36 ulps.  A share
    outside the range is refused, never clamped.
    """
    lo, hi = (int(np.float64(bound * 100.0).view(np.int64)) for bound in share_bounds(priors))
    shift = _SHIFT
    while (hi >> shift) - (lo >> shift) + 3 > _MAX_BINS:
        shift += 1
    return max((lo >> shift) - 1, 0), (hi >> shift) + 1, shift


def _order_statistics(priors: PriorSpec, ranks: np.ndarray, first: int, counts: np.ndarray, shift: int, mean):
    """The shares of sorted ranks ``ranks`` (0-based), and the exact sum of
    the squared deviations ``(x - mean)**2``.

    ``counts`` is the histogram of the shares' bit patterns shifted right by
    ``shift``, from key ``first`` on.  Each pass regenerates the sample:
    while the bins holding ``ranks`` hold more than ``_KEEP`` draws it
    histograms their next ``_STEP`` bits, and then it collects and sorts
    their draws.  A bin of shift 0 is one bit pattern, so a point mass needs
    no collection.  The squared deviations are summed in the first pass.
    Each range of blocks (``_each_range``) returns its part of the sum and
    its histogram or collected bits; the parts are exact and added in order.
    """
    top, keys, squares = shift, np.arange(first, first + counts.shape[0]), 0
    while True:
        # Keep only the bins holding a wanted rank; ranks then count within them.
        cum = np.cumsum(counts)
        at = np.searchsorted(cum, ranks, side="right")
        held = np.unique(at)
        slot = np.searchsorted(held, at)
        kept_below = np.cumsum(counts[held]) - counts[held]
        ranks = ranks - (cum[at] - counts[at]) + kept_below[slot]
        keys, counts = keys[held], counts[held]
        if shift == 0:
            return keys[slot].view(np.float64), squares
        collect = int(counts.sum()) <= _KEEP
        step = min(_STEP, shift)
        # The first pass's bins that hold a kept bin, so most draws are passed over with one lookup.
        coarse_keys = (keys >> (top - shift)) - first
        near = np.zeros(coarse_keys[-1] + 1, dtype=bool)
        near[coarse_keys] = True

        def scan(blocks):
            part, collected, finer = 0, [], np.zeros(keys.shape[0] << step, dtype=np.int64)
            for shares in _share_blocks(priors, blocks):
                if mean is not None:
                    part += _exact_sum(np.square(shares - mean))
                bits = shares.view(np.int64)
                coarse = bits >> top
                coarse -= first
                np.minimum(coarse, near.shape[0] - 1, out=coarse)
                bits = bits[near[coarse]]
                pos = np.searchsorted(keys, bits >> shift)
                np.minimum(pos, keys.shape[0] - 1, out=pos)
                hit = keys[pos] == bits >> shift
                if collect:
                    collected.append(bits[hit])
                else:
                    sub = (bits[hit] >> (shift - step)) & ((1 << step) - 1)
                    sub |= pos[hit] << step
                    finer += np.bincount(sub, minlength=finer.shape[0])
            return part, np.concatenate(collected) if collect else finer

        parts, counts = [], 0
        for part, found in _each_range(priors, scan):
            squares += part
            if collect:
                parts.append(found)
            else:
                counts = counts + found
        mean = None
        if collect:
            return np.sort(np.concatenate(parts).view(np.float64))[ranks], squares
        keys = ((keys[:, None] << step) | np.arange(1 << step)).ravel()
        shift -= step


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's interpolation between order statistics (``_lerp`` of its
    ``linear`` quantiles), which is exact at both ends."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _summarize(priors: PriorSpec, blocks: range, first: int, last: int, shift: int) -> tuple:
    """The first pass over the draws in ``blocks``: the exact sum of the
    shares, the counts above 5 and 8 percent, and the histogram of their bit
    patterns shifted right by ``shift``, from key ``first`` to ``last``."""
    counts = np.zeros(last - first + 1, dtype=np.int64)
    total = above_5 = above_8 = 0
    for shares in _share_blocks(priors, blocks):
        total += _exact_sum(shares)
        above_5 += int(np.count_nonzero(shares > 5.0))
        above_8 += int(np.count_nonzero(shares > 8.0))
        key = shares.view(np.int64) >> shift
        key -= first
        # A key below ``first`` is negative, so as unsigned it is past ``last`` too.
        require(
            int(key.view(np.uint64).max()) < counts.shape[0],
            "share out of range: a draw lies outside the shares of its prior box's corners",
        )
        counts += np.bincount(key, minlength=counts.shape[0])
    return total, above_5, above_8, counts


def run_monte_carlo(priors: PriorSpec) -> CalibrationResult:
    """Simulate the share distribution and summarize it in percent.

    The sample is never held.  Draw ``i`` is Philox counter block ``i`` and
    the share is elementwise, so the sample is regenerated block by block
    (``_BLOCK`` draws) as often as it is read, bit-identical each time.  The
    first pass sums the shares, counts those above 5 and 8 percent and
    histograms their bit patterns (``_summarize``); the second sums the
    squared deviations and selects the order statistics
    (``_order_statistics``), the min and max (ranks 0 and n - 1) among
    them.  Each pass cuts the blocks into contiguous ranges, one per CPU
    and each of at least ``_MIN_RANGE`` blocks, and a forked worker draws
    and summarizes each range (``_each_range``); a sample too small for two
    ranges is read in this process alone.  Memory is a block and a few
    histograms per process, whatever ``n_draws`` and the number of CPUs
    are: this process reads the workers' results one at a time.

    Every field depends only on the draws, never on the numpy build's
    summation order or the number of ranges: each range's partial results
    are exact (integer sums and counts, histograms, bit patterns) and are
    combined in range order.  The mean is
    ``math.fsum(shares) / n``; the standard deviation is the two-pass sample
    statistic (ddof=1), ``sqrt(fsum((x - mean)**2) / (n - 1))``, with the
    deviations and squares taken elementwise, and 0 for a single draw.  Both
    sums are taken exactly, block by block, in integers (``_exact_sum``)
    and rounded once by CPython's correctly rounded int/int division,
    which is what ``fsum`` returns.  Exceedance probabilities are
    strict, Pr(s > threshold), and are exact counts divided by n.
    Quantiles are numpy's ``linear`` method, ``np.quantile(shares, q)``:
    the order statistics of ranks floor((n - 1) q) and the next, and
    numpy's interpolation between them (``_lerp``).
    """
    n = priors.n_draws
    first, last, shift = _histogram_range(priors)
    # The first range's results, its histogram included, accumulate the others'.
    parts = _each_range(priors, lambda blocks: _summarize(priors, blocks, first, last, shift))
    total, above_5, above_8, counts = next(parts)
    for part_total, part_5, part_8, part_counts in parts:
        total += part_total
        above_5 += part_5
        above_8 += part_8
        counts += part_counts
    mean = total / _SUBNORMAL_SCALE / n
    # numpy's linear method: virtual index (n - 1) q, its floor and the next rank.
    at = [(n - 1) * q for q in _QUANTILES]
    below = [min(math.floor(v), n - 1) for v in at]
    ranks = sorted({0, n - 1, *(r for b in below for r in (b, min(b + 1, n - 1)))})
    stats, squares = _order_statistics(priors, np.array(ranks), first, counts, shift, mean)
    value = dict(zip(ranks, stats.tolist()))
    q = [_lerp(value[b], value[min(b + 1, n - 1)], v - b) for v, b in zip(at, below)]
    return CalibrationResult(
        mean=mean,
        median=q[2],
        std_dev=math.sqrt(squares / _SUBNORMAL_SCALE / (n - 1)) if n > 1 else 0.0,
        q2_5=q[0],
        q10=q[1],
        q90=q[3],
        q97_5=q[4],
        share_min=value[0],
        share_max=value[n - 1],
        pr_gt_5pct=above_5 / n,
        pr_gt_8pct=above_8 / n,
        n_draws=n,
        seed=priors.seed,
    )


def share_bounds(priors: PriorSpec) -> tuple[float, float]:
    """Exact attainable range of the share (fractions) over the prior box.

    The share is monotone in every parameter: increasing in alpha, gamma,
    and delta_k, decreasing in r.  The extremes are therefore attained at
    the two opposite corners of the box.
    """
    try:
        lo = float(structured_share(priors.alpha[0], priors.gamma[0], priors.r[1], priors.delta_k[0]))
        hi = float(structured_share(priors.alpha[1], priors.gamma[1], priors.r[0], priors.delta_k[1]))
    except ZeroDivisionError:
        raise DomainError(
            "share bounds out of range: at a corner of the prior box gamma * delta_k and "
            "(1 - alpha) * (r + delta_k) both underflow to 0"
        ) from None
    return lo, hi
