"""Estimators over maturity panels.

A maturity panel records family-period observations of maturity levels
together with flags for the hazard windows in force.  From it one can
flag sudden degradations, decompose the degradation hazard into ambient,
technology-window, and organization-window components, and count family
births.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DomainError, require
from .schema import DETECTION, check, real_column


@dataclass(frozen=True, eq=False)
class MaturityPanel:
    """Family-period maturity observations with hazard-window flags.

    Arrays are parallel; (family_id, period) pairs must be unique.  The
    panel holds its rows sorted by period, then family_id, whatever the
    order they were given in; the estimators rely on that order.  Input
    already in that order is held as given, without a copy, so the caller
    must not mutate those arrays afterwards; other input is sorted into
    copies.  ``blocks`` holds the row offsets of the period runs, 0 first
    and n last, so the k-th distinct period is rows blocks[k]:blocks[k + 1]
    (an empty panel has ``[0]``).  The panel may be unbalanced: families
    can enter after period zero, and gaps are tolerated (estimators only
    use consecutive-period pairs).
    """

    family_id: np.ndarray
    period: np.ndarray
    maturity: np.ndarray
    tech_window: np.ndarray
    org_window: np.ndarray
    blocks: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fam, per, mat = (
            real_column(name, getattr(self, name), dtype)
            for name, dtype in (("family_id", np.int64), ("period", np.int64), ("maturity", float))
        )
        tw = np.asarray(self.tech_window, dtype=bool)
        ow = np.asarray(self.org_window, dtype=bool)
        require(fam.ndim == 1, "family_id must be one-dimensional")
        n = fam.shape[0]
        for arr, name in ((per, "period"), (mat, "maturity"), (tw, "tech_window"), (ow, "org_window")):
            require(arr.ndim == 1 and arr.shape[0] == n, f"{name} must parallel family_id")
        require(bool(np.all(per >= 0)), "periods must be nonnegative")
        require(bool(np.all(np.isfinite(mat)) and np.all(mat >= 0.0)), "maturities must be finite and nonnegative")
        # Rows nondecreasing in (period, family_id) are kept as given.
        in_order = per[1:] > per[:-1]
        in_order |= (per[1:] == per[:-1]) & (fam[1:] >= fam[:-1])
        if not in_order.all():
            order = np.lexsort((fam, per))
            fam, per, mat, tw, ow = fam[order], per[order], mat[order], tw[order], ow[order]
        # Sorted rows repeat a pair only in adjacent rows of one period.
        new_period = per[1:] != per[:-1]
        same = fam[1:] == fam[:-1]
        same &= ~new_period
        require(not bool(same.any()), "(family_id, period) pairs must be unique")
        starts = (np.flatnonzero(new_period) + 1).tolist()
        columns = {"family_id": fam, "period": per, "maturity": mat, "tech_window": tw, "org_window": ow}
        for name, arr in columns.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "blocks", [0, *starts, n] if n else [0])

    @property
    def n_obs(self) -> int:
        return int(self.family_id.shape[0])


class DegradationFlags(NamedTuple):
    """Per-observation degradation indicators.

    ``observed`` marks, over the panel's rows, each family-period whose
    later period (t + horizon) is also observed; the other columns hold one
    entry per marked row, in the panel's (period, family_id) order, so
    ``panel.family_id[flags.observed]`` names them.  ``flag`` marks a
    relative maturity drop beyond the threshold over that transition.
    Window flags are those in force at the start of the transition.
    """

    observed: np.ndarray
    flag: np.ndarray
    tech_window: np.ndarray
    org_window: np.ndarray

    @property
    def n_obs(self) -> int:
        return int(self.flag.shape[0])


def detect_degradation(panel: MaturityPanel, rel_drop: float, horizon: int) -> DegradationFlags:
    """Flag maturity drops of at least ``rel_drop`` over ``horizon`` periods.

    An observation (j, t) is flagged when k_{j,t+h} < (1 - rel_drop) * k_{j,t}.
    Observations whose t + h is missing are skipped; a family-period with
    zero maturity cannot register a further relative drop and is kept
    unflagged.
    """
    require(panel.n_obs > 0, "panel is empty")
    check({"rel_drop": rel_drop, "horizon": horizon}, DETECTION)

    fam, per, mat, blocks = panel.family_id, panel.period, panel.maturity, panel.blocks
    # Row (j, t + h) can only lie in the block of period t + h (Python ints: no
    # overflow), whose ids are sorted, so each block finds its rows' partners in one search.
    periods = per[blocks[:-1]].tolist()
    observed = np.zeros(panel.n_obs, dtype=bool)
    drop = np.zeros(panel.n_obs, dtype=bool)
    for k, t in enumerate(periods):
        later = bisect.bisect_left(periods, t + horizon, k)
        if later == len(periods) or periods[later] != t + horizon:
            continue
        lo, hi, next_lo = blocks[k], blocks[k + 1], blocks[later]
        ids, next_ids = fam[lo:hi], fam[next_lo : blocks[later + 1]]
        pos = np.searchsorted(next_ids, ids)
        np.minimum(pos, next_ids.shape[0] - 1, out=pos)
        observed[lo:hi] = next_ids[pos] == ids
        pos += next_lo
        # Rows without a partner compare with some other row; observed drops them.
        drop[lo:hi] = mat[pos] < mat[lo:hi] * (1.0 - rel_drop)
    flag = drop[observed]
    del drop  # before the window columns are gathered: one bool column less at the peak
    return DegradationFlags(
        observed=observed,
        flag=flag,
        tech_window=panel.tech_window[observed],
        org_window=panel.org_window[observed],
    )


class CellStat(NamedTuple):
    """Empirical degradation frequency within one window cell."""

    mean: float
    count: int


class HazardEstimate(NamedTuple):
    """Additive decomposition of the degradation hazard.

    Components are marginal effects from the saturated cell-means fit on
    the window flags: ``env`` is the no-window frequency, ``tech`` and
    ``org`` are the frequency increases when the respective window is in
    force alone.  A component is None when the panel contains no cell
    that identifies it.  Standard errors are binomial.
    """

    delta_hat: float
    env: float | None
    tech: float | None
    org: float | None
    se_env: float | None
    se_tech: float | None
    se_org: float | None
    n_obs: int
    cells: Mapping[tuple[bool, bool], CellStat]


def _binomial_se(mean: float, count: int) -> float:
    return math.sqrt(mean * (1.0 - mean) / count)


def estimate_hazard_decomposition(flags: DegradationFlags) -> HazardEstimate:
    """Decompose degradation frequency into window components.

    Fits cell means on the full cross of (tech_window, org_window).  The
    ambient component is the (False, False) cell mean; window components
    are differences of the single-window cells from the ambient cell,
    clipped at zero.  Cells are exact empirical frequencies, so with
    non-overlapping windows the components are plain frequency
    differences.  The total ``delta_hat`` sums the identified components.
    """
    require(flags.n_obs > 0, "no degradation observations")
    cells: dict[tuple[bool, bool], CellStat] = {}
    for in_tech in (False, True):
        for in_org in (False, True):
            mask = (flags.tech_window == in_tech) & (flags.org_window == in_org)
            count = int(np.sum(mask))
            if count:
                cells[(in_tech, in_org)] = CellStat(mean=float(np.mean(flags.flag[mask])), count=count)

    base = cells.get((False, False))
    require(base is not None, "panel has no observations outside every window")

    env = base.mean
    se_env = _binomial_se(base.mean, base.count)

    def component(cell_key: tuple[bool, bool]) -> tuple[float | None, float | None]:
        cell = cells.get(cell_key)
        if cell is None:
            return None, None
        effect = max(0.0, cell.mean - base.mean)
        se = math.sqrt(_binomial_se(cell.mean, cell.count) ** 2 + se_env**2)
        return effect, se

    tech, se_tech = component((True, False))
    org, se_org = component((False, True))

    delta_hat = env + (tech or 0.0) + (org or 0.0)
    return HazardEstimate(
        delta_hat=delta_hat,
        env=env,
        tech=tech,
        org=org,
        se_env=se_env,
        se_tech=se_tech,
        se_org=se_org,
        n_obs=flags.n_obs,
        cells=cells,
    )


def count_births(panel: MaturityPanel) -> np.ndarray:
    """Births per period 0..T, where T is the panel's last period.

    Returns the T + 1 per-period birth counts, the empirical counterpart
    of the entry intensity; index t holds the number of families whose
    first row is at period t, so the first period counts every family it
    holds.  The counts are allocated before the walk, which merges each
    period block's new ids into the sorted ids seen so far.
    """
    require(panel.n_obs > 0, "panel is empty")
    fam, blocks = panel.family_id, panel.blocks
    periods = panel.period[blocks[:-1]].tolist()
    T = periods[-1]
    try:
        counts = np.zeros(T + 1, dtype=np.int64)
    except (MemoryError, ValueError, OverflowError):
        # numpy refuses counts beyond memory or its size limit before touching memory.
        raise DomainError(f"birth counts for periods 0..T do not fit in memory at T = {T}") from None
    seen = fam[: blocks[1]]
    counts[periods[0]] = blocks[1]
    for t, lo, hi in zip(periods[1:], blocks[1:-1], blocks[2:]):
        ids = fam[lo:hi]
        at = np.searchsorted(seen, ids)
        new = seen[np.minimum(at, seen.shape[0] - 1)] != ids
        if new.any():
            seen = np.insert(seen, at[new], ids[new])
        counts[t] = np.count_nonzero(new)
    return counts
