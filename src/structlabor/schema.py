"""Parameter domains: each constraint is one row, shared by the library and the config.

A row maps a field to a :class:`Domain`, a predicate and its wording.  The
library classes apply their rows in ``__post_init__`` (:func:`check`), and
the config table points at the same rows, so the two cannot disagree on a
value.  Constraints across fields of one class are rows too
(:class:`Rule`).  Predicates work elementwise, so one row checks a scalar,
a ``(lo, hi)`` pair or a whole numpy column.  A value that cannot be judged
(a string, ``None``, a complex number, a list where a number belongs) is
refused with the same :class:`DomainError` as one out of its domain.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, require

# Most initial families a config may ask for; per-family values are broadcast to this length.
MAX_FAMILIES = 100_000
# Most portfolio, transition and Roy periods: loading builds the drift windows, about T/5 + T/7 ints, even with
# drift off, a transition path that does not converge runs every period, about 10 us and 370 B each, and
# each Roy arm runs a portfolio scenario of T periods before its solves, about 0.2 ms each with one family.
MAX_PERIODS = 100_000
# Most calibration draws: the sample is regenerated for each of its two passes, never held, so
# the bound is on time, about 0.16 us per draw for both passes in one process and 0.08 us split
# over two CPUs (16 and 8-11 s at the bound on a 2-vCPU host).
MAX_DRAWS = 100_000_000
# Most rows of a portfolio scenario's panel (sum over periods of the families present), which grows
# with T**2 under entry: `portfolio` and `estimate` peak at about 44 and 47 bytes per row (0.9 GB
# at the bound), and every Roy arm runs such a scenario.
MAX_PANEL_ROWS = 20_000_000
# Most Roy workers: the skill matrix and every solve hold one row per worker.
MAX_WORKERS = 100_000
# Most initial Roy families: each Newton step of a solve builds J x J matrices
# over the J families, and one such matrix takes 0.8 GB at the bound.
MAX_INITIAL = 10_000
# Most Roy replications: the experiment holds every arm's evaluated panel rows
# before its solves start, about 5 KB per arm at the defaults (100 MB at the bound).
MAX_REPLICATIONS = 10_000
# Longest degradation horizon: the largest int64, as periods are.
MAX_HORIZON = 2**63 - 1
# Inverse-CDF Poisson sampling walks the pmf term by term; beyond this
# intensity the leading term exp(-lam) underflows and the walk degrades.
POISSON_MAX_INTENSITY = 500.0
SEED_MAX = 2**64 - 1


class Domain(NamedTuple):
    """Where a field's values may lie: a predicate and its wording.  A
    ``real`` field must also be finite; an ``array`` field holds several
    such values, a ``(lo, hi)`` pair (:func:`pair`) or a numpy column, and
    any other field a single one."""

    holds: Callable[[Any], Any]
    wording: str
    real: bool = True
    array: bool = False


class Rule(NamedTuple):
    """A constraint across fields: the field it reports, a predicate over
    the values by field name, and its wording."""

    field: str
    holds: Callable[[Mapping[str, Any]], bool]
    wording: str


def count(lo: int, hi: float = math.inf) -> Domain:
    """Integers from ``lo`` to ``hi``."""
    return Domain(
        lambda x: isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi,
        f"must be an integer >= {lo}" if hi == math.inf else f"must be an integer in [{lo}, {hi}]",
        real=False,
    )


def one_of(*choices: str) -> Domain:
    """One of the strings ``choices``."""
    return Domain(lambda x: x in choices, f"must be one of {', '.join(choices)}", real=False)


def ordered(name: str) -> Rule:
    """The rule that the ``(lo, hi)`` pair ``name`` has ``lo <= hi``."""
    return Rule(name, lambda c: c[name][0] <= c[name][1], "must have lo <= hi")


def array_of(domain: Domain) -> Domain:
    """The row of a ``(lo, hi)`` pair or a numpy column of values in ``domain``."""
    return domain._replace(array=True)


def pair(name: str, value: Any) -> tuple:
    """``value`` as a ``(lo, hi)`` tuple; a :class:`DomainError` naming ``name`` unless it holds two single values."""
    require(
        isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2 and all(np.ndim(v) == 0 for v in value),
        f"{name} must be a [lo, hi] pair",
    )
    return tuple(value)


def real_column(name: str, value: Any, dtype: type = float) -> np.ndarray:
    """``value`` as an array of ``dtype``; a :class:`DomainError` naming ``name`` unless it holds real numbers."""
    try:
        column = np.asarray(value)
    except ValueError:  # a ragged nesting
        column = None
    require(column is not None and column.dtype.kind in "iuf", f"{name} must hold real numbers")
    return column.astype(dtype, copy=False)


def _fault(value: Any, domain: Domain) -> str | None:
    """How ``value`` breaks ``domain``, or None; ``TypeError`` or
    ``ValueError`` where it cannot be judged."""
    column = domain.array
    if column:
        value = np.asarray(value)
    elif np.ndim(value) != 0:
        raise TypeError("not a single number")
    # A boolean is no number here, as in the config.
    if domain.real and (value.dtype.kind not in "iuf" if column else isinstance(value, (bool, np.bool_))):
        raise TypeError("not a real number")
    if domain.real and not (np.isfinite(value).all() if column else math.isfinite(value)):
        return "must be finite"
    return None if (np.all(domain.holds(value)) if column else domain.holds(value)) else domain.wording


def check(values: Mapping[str, Any], rows: Mapping[str, Domain], rules: tuple[Rule, ...] = ()) -> None:
    """Raise a :class:`DomainError` naming the first field of ``rows`` whose
    value is out of its domain, or else the field of the first broken rule.

    An array row's value is judged elementwise.  A value that raises
    ``TypeError`` or ``ValueError`` as it is judged, an array on any other
    row among them, is refused as ``must be a real number`` (a row's own
    wording where the row is not real, such as an integer row), and a rule
    that raises as broken.
    """
    for name, domain in rows.items():
        try:
            wrong = _fault(values[name], domain)
        except (TypeError, ValueError):
            wrong = "must be a real number" if domain.real else domain.wording
        if wrong is not None:
            raise DomainError(f"{name} {wrong}")
    for rule in rules:
        try:
            holds = bool(rule.holds(values))
        except (TypeError, ValueError):
            holds = False
        if not holds:
            raise DomainError(f"{rule.field} {rule.wording}")


POSITIVE = Domain(lambda x: x > 0, "must be positive")
NONNEGATIVE = Domain(lambda x: x >= 0, "must be nonnegative")
OPEN_UNIT = Domain(lambda x: (0 < x) & (x < 1), "must lie in (0, 1)")
CLOSED_UNIT = Domain(lambda x: (0 <= x) & (x <= 1), "must lie in [0, 1]")
STEP = Domain(lambda x: (0 < x) & (x <= 1), "must lie in (0, 1]")
RHO = Domain(lambda x: (x <= 1) & (x != 0), "must satisfy rho <= 1, rho != 0")
INTENSITY = Domain(lambda x: (0 <= x) & (x <= POISSON_MAX_INTENSITY), f"must lie in [0, {POISSON_MAX_INTENSITY:g}]")
COUNT = count(1)
SEED = Domain(lambda x: 0 <= x <= SEED_MAX, "must lie in [0, 2**64 - 1]", real=False)
NONEMPTY = Domain(lambda x: x != "", "must be a nonempty path", real=False)

# The rows of each library class, by field.
BASELINE = {
    "alpha": OPEN_UNIT, "gamma": OPEN_UNIT, "r": POSITIVE, "delta_k": OPEN_UNIT,
    "eta": POSITIVE, "A_bar": POSITIVE, "K": POSITIVE, "L_bar": POSITIVE,
}
PRIORS = {
    "alpha": array_of(OPEN_UNIT), "r": array_of(POSITIVE), "delta_k": array_of(OPEN_UNIT), "gamma": array_of(OPEN_UNIT),
    "n_draws": count(1, MAX_DRAWS),
}
PRIOR_RULES = tuple(map(ordered, ("alpha", "r", "delta_k", "gamma")))
CODIFICATION = {"beta": OPEN_UNIT}
AGGREGATOR = {"kind": one_of("additive", "ces"), "rho": RHO, "epsilon_floor": POSITIVE}
PORTFOLIO = {"omega": array_of(POSITIVE), "delta": array_of(OPEN_UNIT), "k": array_of(NONNEGATIVE), "Lambda": POSITIVE}
ENTRY = {
    "mu": INTENSITY, "k_seed": NONNEGATIVE, "omega_median": POSITIVE, "omega_sigma": NONNEGATIVE,
    "delta_j": array_of(OPEN_UNIT),
}
DELTA_ORDER = ordered("delta_j")
DRIFT = {"env_hazard": CLOSED_UNIT, "tech_hazard": CLOSED_UNIT, "org_hazard": CLOSED_UNIT, "drop_frac": OPEN_UNIT}
HAZARD_SUM = Rule(
    "env_hazard", lambda c: c["env_hazard"] + c["tech_hazard"] + c["org_hazard"] <= 1.0,
    "+ tech_hazard + org_hazard must be <= 1",
)
ROY = {
    "n_initial": count(1, MAX_INITIAL), "initial_k": NONNEGATIVE, "omega": POSITIVE,
    "delta_j": array_of(OPEN_UNIT), "rho": RHO, "beta": OPEN_UNIT, "Lambda": POSITIVE,
    "epsilon_floor": POSITIVE, "labor_budget": NONNEGATIVE, "T": count(1, MAX_PERIODS), "mu": INTENSITY,
    "k_seed": NONNEGATIVE, "omega_sigma": NONNEGATIVE, "n_workers": count(2, MAX_WORKERS),
    "sigma_young": NONNEGATIVE, "sigma_mature": NONNEGATIVE, "k_ref": POSITIVE, "eval_window": COUNT,
    "tol": POSITIVE,
}
EVAL_WINDOW = Rule("eval_window", lambda c: c["eval_window"] <= c["T"] + 1, "must be <= T + 1")
SIGMA_ORDER = Rule("sigma_mature", lambda c: c["sigma_mature"] <= c["sigma_young"], "must be <= sigma_young")
# The arguments of the functions that read the other config fields.
TRANSITION = {"k0": POSITIVE, "L_S0": NONNEGATIVE, "T": count(1, MAX_PERIODS), "damping": STEP, "tol": POSITIVE}
SCENARIO = {"labor_budget": NONNEGATIVE, "T": COUNT}
WINDOWS = {"start": count(0), "every": COUNT}
DETECTION = {"rel_drop": OPEN_UNIT, "horizon": count(1, MAX_HORIZON)}
# The arguments of a dispersion experiment beside the experiment itself; the
# rule reads the experiment's ``mu``.
EXPERIMENT = {"treatment": one_of("mu", "delta"), "factor": POSITIVE, "replications": count(1, MAX_REPLICATIONS)}
TREATED_INTENSITY = Rule(
    "factor", lambda c: c["treatment"] != "mu" or c["mu"] * c["factor"] <= POISSON_MAX_INTENSITY,
    f"* mu must be <= {POISSON_MAX_INTENSITY:g} under treatment mu",
)
