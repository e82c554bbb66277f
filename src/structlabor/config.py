"""Run configuration: one field table drives parsing, validation and serialization.

Unknown keys and bad values are reported with the dotted path of the one
field at fault.  ``serialize`` returns the resolved mapping behind the run
manifest's config digest; parsing it reproduces the configuration exactly.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from types import SimpleNamespace
from typing import Any

import numpy as np
import yaml

from .calibration import PriorSpec
from .core import BaselineParams
from .errors import ConfigError, DomainError
from .estimators import MAX_HORIZON
from .portfolio import (
    AggregatorSpec,
    DriftConfig,
    EntryConfig,
    Portfolio,
    PowerCodification,
    periodic_windows,
)
from .rng import POISSON_MAX_INTENSITY
from .roy import RoyExperiment

FORMATS = ("csv", "json", "both")
# Most initial families a config may ask for; per-family values are broadcast to this length.
MAX_FAMILIES = 100_000
# Most portfolio periods: loading builds the drift windows, about T/5 + T/7 ints, even with drift off.
MAX_PERIODS = 100_000
# Most calibration draws: the sample is held as one 8-byte share per draw, 800 MB at the bound.
MAX_DRAWS = 100_000_000
# Most Roy workers: the skill matrix and every solve hold one row per worker.
MAX_WORKERS = 100_000
# Most initial Roy families: each Newton step of a solve builds J x J matrices
# over the J families, and one such matrix takes 0.8 GB at the bound.
MAX_INITIAL = 10_000
# Most Roy replications: the experiment holds every arm's evaluated panel rows
# before its solves start, about 5 KB per arm at the defaults (100 MB at the bound).
MAX_REPLICATIONS = 10_000

# Kinds beyond Python types: a [lo, hi] pair with lo <= hi, and one number per
# family (a scalar is broadcast).
PAIR = "pair"
PER_FAMILY = "per-family"

# Constraints as (predicate, wording), applied to every entry of a list.
POSITIVE = (lambda x: x > 0, "must be positive")
NONNEGATIVE = (lambda x: x >= 0, "must be nonnegative")
OPEN_UNIT = (lambda x: 0 < x < 1, "must lie in (0, 1)")
CLOSED_UNIT = (lambda x: 0 <= x <= 1, "must lie in [0, 1]")
STEP = (lambda x: 0 < x <= 1, "must lie in (0, 1]")
COUNT = (lambda x: x >= 1, "must be an integer >= 1")
FAMILY_COUNT = (lambda x: 1 <= x <= MAX_FAMILIES, f"must be an integer in [1, {MAX_FAMILIES}]")
PERIOD_COUNT = (lambda x: 1 <= x <= MAX_PERIODS, f"must be an integer in [1, {MAX_PERIODS}]")
DRAW_COUNT = (lambda x: 1 <= x <= MAX_DRAWS, f"must be an integer in [1, {MAX_DRAWS}]")
WORKER_COUNT = (lambda x: 2 <= x <= MAX_WORKERS, f"must be an integer in [2, {MAX_WORKERS}]")
INITIAL_COUNT = (lambda x: 1 <= x <= MAX_INITIAL, f"must be an integer in [1, {MAX_INITIAL}]")
REPLICATION_COUNT = (lambda x: 1 <= x <= MAX_REPLICATIONS, f"must be an integer in [1, {MAX_REPLICATIONS}]")
HORIZON = (lambda x: 1 <= x <= MAX_HORIZON, f"must be an integer in [1, {MAX_HORIZON}]")
RHO = (lambda x: x <= 1 and x != 0, "must satisfy rho <= 1, rho != 0")
INTENSITY = (lambda x: 0 <= x <= POISSON_MAX_INTENSITY, f"must lie in [0, {POISSON_MAX_INTENSITY:g}]")
SEED = (lambda x: 0 <= x <= 2**64 - 1, "must lie in [0, 2**64 - 1]")
NONEMPTY = (lambda x: x != "", "must be a nonempty path")

# One row per leaf: dotted path, kind (float, int, bool, str, PAIR, PER_FAMILY or a
# tuple of choices), default and constraint.  Null is accepted only where the default is null.
Field = namedtuple("Field", "path kind default check", defaults=(None,))

FIELDS = (
    Field("run.seed", int, 0, SEED),
    Field("run.out", str, "out", NONEMPTY),
    Field("run.format", FORMATS, "csv"),
    Field("baseline.alpha", float, 0.36, OPEN_UNIT),
    Field("baseline.gamma", float, 0.05, OPEN_UNIT),
    Field("baseline.r", float, 0.04, POSITIVE),
    Field("baseline.delta_k", float, 0.15, OPEN_UNIT),
    Field("baseline.eta", float, 0.2, POSITIVE),
    Field("baseline.A_bar", float, 1.0, POSITIVE),
    Field("baseline.K", float, 1.0, POSITIVE),
    Field("baseline.L_bar", float, 1.0, POSITIVE),
    Field("priors.alpha", PAIR, [0.33, 0.40], OPEN_UNIT),
    Field("priors.r", PAIR, [0.03, 0.05], POSITIVE),
    Field("priors.delta_k", PAIR, [0.08, 0.25], OPEN_UNIT),
    Field("priors.gamma", PAIR, [0.02, 0.08], OPEN_UNIT),
    Field("priors.n_draws", int, 200_000, DRAW_COUNT),
    Field("transition.k0", float, None, POSITIVE),  # null: half the long-run stock
    Field("transition.L_S0", float, None, NONNEGATIVE),  # null: half the long-run labor
    Field("transition.T", int, 500, COUNT),
    Field("transition.damping", float, None, STEP),  # null: the model-implied stable factor
    Field("transition.tol", float, 1e-10, POSITIVE),
    Field("portfolio.n_families", int, 8, FAMILY_COUNT),
    Field("portfolio.omega", PER_FAMILY, 1.0, POSITIVE),
    Field("portfolio.delta_j", PER_FAMILY, 0.15, OPEN_UNIT),
    Field("portfolio.k0", PER_FAMILY, 1.0, NONNEGATIVE),
    Field("portfolio.aggregator", ("additive", "ces"), "ces"),
    Field("portfolio.rho", float, 0.5, RHO),
    Field("portfolio.epsilon_floor", float, 1e-6, POSITIVE),
    Field("portfolio.beta", float, 0.5, OPEN_UNIT),
    Field("portfolio.Lambda", float, 1.0, POSITIVE),
    Field("portfolio.labor_budget", float, 1.0, NONNEGATIVE),
    Field("portfolio.T", int, 100, PERIOD_COUNT),
    Field("portfolio.entry.mu", float, 0.2, INTENSITY),
    Field("portfolio.entry.k_seed", float, 1e-3, NONNEGATIVE),
    Field("portfolio.entry.omega_median", float, 1.0, POSITIVE),
    Field("portfolio.entry.omega_sigma", float, 0.5, NONNEGATIVE),
    Field("portfolio.entry.delta_j", PAIR, [0.08, 0.25], OPEN_UNIT),
    Field("portfolio.drift.enabled", bool, False),
    Field("portfolio.drift.env_hazard", float, 0.05, CLOSED_UNIT),
    Field("portfolio.drift.tech_hazard", float, 0.10, CLOSED_UNIT),
    Field("portfolio.drift.org_hazard", float, 0.03, CLOSED_UNIT),
    Field("portfolio.drift.tech_start", int, 1, NONNEGATIVE),
    Field("portfolio.drift.tech_every", int, 5, COUNT),
    Field("portfolio.drift.org_start", int, 3, NONNEGATIVE),
    Field("portfolio.drift.org_every", int, 7, COUNT),
    Field("portfolio.drift.drop_frac", float, 0.5, OPEN_UNIT),
    Field("roy.n_initial", int, 6, INITIAL_COUNT),
    Field("roy.initial_k", float, 1.0, NONNEGATIVE),
    Field("roy.omega", float, 1.0, POSITIVE),
    Field("roy.delta_j", PAIR, [0.08, 0.25], OPEN_UNIT),
    Field("roy.rho", float, 0.5, RHO),
    Field("roy.beta", float, 0.5, OPEN_UNIT),
    Field("roy.Lambda", float, 1.0, POSITIVE),
    Field("roy.epsilon_floor", float, 0.25, POSITIVE),
    Field("roy.labor_budget", float, 1.0, NONNEGATIVE),
    Field("roy.T", int, 40, COUNT),
    Field("roy.mu", float, 0.25, INTENSITY),
    Field("roy.k_seed", float, 1e-3, NONNEGATIVE),
    Field("roy.omega_sigma", float, 0.5, NONNEGATIVE),
    Field("roy.n_workers", int, 400, WORKER_COUNT),
    Field("roy.sigma_young", float, 1.5, NONNEGATIVE),
    Field("roy.sigma_mature", float, 0.2, NONNEGATIVE),
    Field("roy.k_ref", float, 1.0, POSITIVE),
    Field("roy.tol", float, 1e-9, POSITIVE),
    Field("roy.eval_window", int, 12, COUNT),
    Field("roy.treatment", ("mu", "delta"), "mu"),
    Field("roy.factor", float, 2.0, POSITIVE),
    Field("roy.replications", int, 10, REPLICATION_COUNT),
    Field("estimate.panel", str, None, NONEMPTY),  # null simulates the panel
    Field("estimate.rel_drop", float, 0.2, OPEN_UNIT),
    Field("estimate.horizon", int, 1, HORIZON),
)

# Cross-field rules as (reported path, predicate over resolved values, wording).
RULES = (
    ("transition.L_S0", lambda c: (c["transition.L_S0"] or 0.0) <= c["baseline.L_bar"], "must be <= L_bar"),
    ("roy.eval_window", lambda c: c["roy.eval_window"] <= c["roy.T"] + 1, "must be <= T + 1"),
    ("roy.sigma_mature", lambda c: c["roy.sigma_mature"] <= c["roy.sigma_young"], "must be <= sigma_young"),
    (
        "portfolio.drift.env_hazard",
        lambda c: sum(c[f"portfolio.drift.{k}_hazard"] for k in ("env", "tech", "org")) <= 1.0,
        "+ tech_hazard + org_hazard must be <= 1",
    ),
    (
        "roy.factor",
        lambda c: c["roy.treatment"] != "mu" or c["roy.mu"] * c["roy.factor"] <= POISSON_MAX_INTENSITY,
        f"* mu must be <= {POISSON_MAX_INTENSITY:g} under treatment mu",
    ),
)

_PATHS = {f.path for f in FIELDS}
_SECTIONS = {f.path.rpartition(".")[0] for f in FIELDS}
_WANTED = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _flatten(value: Any, path: str = "") -> dict:
    """The leaves of a config mapping by dotted path; a null section is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, "must be a mapping")
    flat = {}
    for key, item in value.items():
        sub = f"{path}.{key}" if path else str(key)
        if sub not in _PATHS and sub not in _SECTIONS:
            raise ConfigError(sub, "unknown key")
        flat.update(_flatten(item, sub) if sub in _SECTIONS else {sub: item})
    return flat


def _typed(value: Any, path: str, kind: type) -> Any:
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(path, f"expected {_WANTED[kind]}, got {type(value).__name__}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(path, "must be finite")
    return value


def _coerce(f: Field, value: Any, resolved: dict) -> Any:
    """Check one value against its row; pairs and per-family values become lists."""
    if value is None and f.default is None:
        return None
    if isinstance(f.kind, tuple):
        if value not in f.kind:
            raise ConfigError(f.path, f"must be one of {', '.join(f.kind)}")
    elif f.kind in (PAIR, PER_FAMILY):
        n = 2 if f.kind is PAIR else resolved["portfolio.n_families"]
        if f.kind is PER_FAMILY and not isinstance(value, (list, tuple)):
            value = [value] * n
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ConfigError(f.path, f"expected a list of {n} numbers")
        value = [_typed(v, f.path, float) for v in value]
        if f.kind is PAIR and value[0] > value[1]:
            raise ConfigError(f.path, "must have lo <= hi")
    else:
        value = _typed(value, f.path, f.kind)
    if f.check is not None and not all(map(f.check[0], value if isinstance(value, list) else [value])):
        raise ConfigError(f.path, f"{f.path.rpartition('.')[2]} {f.check[1]}")
    return value


def _resolve(data: Any, overrides: Any = None) -> dict:
    """Validate a config mapping into the nested mapping of every resolved field.

    Leaves of ``overrides`` replace those of ``data``; a replaced value is still checked.
    """
    given, over = _flatten(data), _flatten(overrides)
    flat, nested = {}, {}
    for f in FIELDS:
        *sections, key = f.path.split(".")
        node = nested
        for name in sections:
            node = node.setdefault(name, {})
        value = _coerce(f, given.get(f.path, f.default), flat)
        node[key] = flat[f.path] = _coerce(f, over[f.path], flat) if f.path in over else value
    for path, holds, wording in RULES:
        if not holds(flat):
            raise ConfigError(path, f"{path.rpartition('.')[2]} {wording}")
    return nested


def _split_delta(section: dict, drop: tuple[str, ...] = ()) -> dict:
    """Keyword arguments from a section, its ``delta_j`` pair split into ``delta_lo``, ``delta_hi``."""
    kwargs = {k: v for k, v in section.items() if k != "delta_j" and k not in drop}
    kwargs["delta_lo"], kwargs["delta_hi"] = section["delta_j"]
    return kwargs


class AppConfig:
    """A validated configuration whose section keys read as attributes; ``AppConfig()`` is all defaults."""

    def __init__(self, data: Any = None, overrides: Any = None) -> None:
        self._resolved = c = _resolve(data, overrides)
        pr, p, r = c["priors"], c["portfolio"], c["roy"]
        self.run = SimpleNamespace(**c["run"])
        self.transition = SimpleNamespace(**c["transition"])
        self.estimate = SimpleNamespace(**c["estimate"])
        # Every object a command builds is built here.  The table covers every
        # check these classes make, so the handler fires only if the two diverge.
        try:
            self.baseline = BaselineParams(**c["baseline"])
            self.priors = PriorSpec(*pr["alpha"], *pr["r"], *pr["delta_k"], *pr["gamma"], pr["n_draws"])
            entry = EntryConfig(**_split_delta(p["entry"]))
            n, agg, d = p["n_families"], p["aggregator"], p["drift"]
            initial = Portfolio(
                np.arange(n), p["omega"], p["delta_j"], p["k0"], np.zeros(n, dtype=np.int64),
                AggregatorSpec(agg, p["rho"] if agg == "ces" else None, p["epsilon_floor"]),
                PowerCodification(p["beta"]), p["Lambda"],
            )
            # Built even when disabled, so its values are checked either way.
            drift = DriftConfig(
                **{k: d[k] for k in ("env_hazard", "tech_hazard", "org_hazard", "drop_frac")},
                tech_windows=periodic_windows(d["tech_start"], d["tech_every"], p["T"]),
                org_windows=periodic_windows(d["org_start"], d["org_every"], p["T"]),
            )
            self.portfolio = SimpleNamespace(
                **{**p, "entry": entry, "initial": initial, "drift": drift if d["enabled"] else None}
            )
            experiment = RoyExperiment(**_split_delta(r, drop=("treatment", "factor", "replications")))
            self.roy = SimpleNamespace(**r, experiment=experiment)
        except DomainError as exc:
            raise ConfigError("", str(exc)) from None


def load_config(path: str | None, overrides: Any = None) -> AppConfig:
    """Load a configuration file (YAML or JSON), None meaning all defaults, with ``overrides`` laid over it."""
    data = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = yaml.safe_load(handle)
        except OSError as exc:
            raise ConfigError("", f"cannot read config file {path}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError("", f"invalid config syntax: {exc}") from None
    return AppConfig(data, overrides)


def serialize(cfg: AppConfig) -> dict:
    """Fully resolved configuration mapping; parsing it reproduces ``cfg``."""
    return copy.deepcopy(cfg._resolved)
