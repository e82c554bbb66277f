"""Run configuration: one field table drives parsing, validation and serialization.

Unknown keys and bad values are reported with the dotted path of the one
field at fault.  ``serialize`` returns the resolved mapping behind the run
manifest's config digest; parsing it reproduces the configuration exactly.
"""

from __future__ import annotations

import copy
import json
import math
from collections import namedtuple
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import schema
from .calibration import PriorSpec
from .core import BaselineParams
from .errors import ConfigError
from .portfolio import (
    AggregatorSpec,
    DriftConfig,
    EntryConfig,
    Portfolio,
    PowerCodification,
    periodic_windows,
)
from .roy import RoyExperiment
from .schema import MAX_FAMILIES, MAX_PERIODS

FORMATS = ("csv", "json", "both")

# Kinds beyond Python types: a [lo, hi] pair (lo <= hi is a rule), and one
# number per family (a scalar is broadcast).
PAIR = "pair"
PER_FAMILY = "per-family"

# One row per leaf: dotted path, kind (float, int, bool, str, PAIR or PER_FAMILY),
# default and domain; a library class's field points at that class's row.  The
# library states no defaults: these are the only ones.  Null is accepted only
# where the default is null.
Field = namedtuple("Field", "path kind default check", defaults=(None,))

FIELDS = (
    Field("run.seed", int, 0, schema.SEED),
    Field("run.out", str, "out", schema.NONEMPTY),
    Field("run.format", str, "csv", schema.one_of(*FORMATS)),
    Field("baseline.alpha", float, 0.36, schema.BASELINE["alpha"]),
    Field("baseline.gamma", float, 0.05, schema.BASELINE["gamma"]),
    Field("baseline.r", float, 0.04, schema.BASELINE["r"]),
    Field("baseline.delta_k", float, 0.15, schema.BASELINE["delta_k"]),
    Field("baseline.eta", float, 0.2, schema.BASELINE["eta"]),
    Field("baseline.A_bar", float, 1.0, schema.BASELINE["A_bar"]),
    Field("baseline.K", float, 1.0, schema.BASELINE["K"]),
    Field("baseline.L_bar", float, 1.0, schema.BASELINE["L_bar"]),
    Field("priors.alpha", PAIR, [0.33, 0.40], schema.PRIORS["alpha"]),
    Field("priors.r", PAIR, [0.03, 0.05], schema.PRIORS["r"]),
    Field("priors.delta_k", PAIR, [0.08, 0.25], schema.PRIORS["delta_k"]),
    Field("priors.gamma", PAIR, [0.02, 0.08], schema.PRIORS["gamma"]),
    Field("priors.n_draws", int, 200_000, schema.PRIORS["n_draws"]),
    Field("transition.k0", float, None, schema.TRANSITION["k0"]),  # null: half the long-run stock
    Field("transition.L_S0", float, None, schema.TRANSITION["L_S0"]),  # null: half the long-run labor
    Field("transition.T", int, 500, schema.TRANSITION["T"]),
    Field("transition.damping", float, None, schema.TRANSITION["damping"]),  # null: the model-implied stable factor
    Field("transition.tol", float, 1e-10, schema.TRANSITION["tol"]),
    Field("portfolio.n_families", int, 8, schema.count(1, MAX_FAMILIES)),
    Field("portfolio.omega", PER_FAMILY, 1.0, schema.PORTFOLIO["omega"]),
    Field("portfolio.delta_j", PER_FAMILY, 0.15, schema.PORTFOLIO["delta"]),
    Field("portfolio.k0", PER_FAMILY, 1.0, schema.PORTFOLIO["k"]),
    Field("portfolio.rho", float, 0.5, schema.AGGREGATOR["rho"]),
    Field("portfolio.epsilon_floor", float, 1e-6, schema.AGGREGATOR["epsilon_floor"]),
    Field("portfolio.beta", float, 0.5, schema.CODIFICATION["beta"]),
    Field("portfolio.Lambda", float, 1.0, schema.PORTFOLIO["Lambda"]),
    Field("portfolio.labor_budget", float, 1.0, schema.SCENARIO["labor_budget"]),
    Field("portfolio.T", int, 100, schema.count(1, MAX_PERIODS)),
    Field("portfolio.entry.mu", float, 0.2, schema.ENTRY["mu"]),
    Field("portfolio.entry.k_seed", float, 1e-3, schema.ENTRY["k_seed"]),
    Field("portfolio.entry.omega_median", float, 1.0, schema.ENTRY["omega_median"]),
    Field("portfolio.entry.omega_sigma", float, 0.5, schema.ENTRY["omega_sigma"]),
    Field("portfolio.entry.delta_j", PAIR, [0.08, 0.25], schema.ENTRY["delta_j"]),
    Field("portfolio.drift.enabled", bool, False),
    Field("portfolio.drift.env_hazard", float, 0.05, schema.DRIFT["env_hazard"]),
    Field("portfolio.drift.tech_hazard", float, 0.10, schema.DRIFT["tech_hazard"]),
    Field("portfolio.drift.org_hazard", float, 0.03, schema.DRIFT["org_hazard"]),
    Field("portfolio.drift.tech_start", int, 1, schema.WINDOWS["start"]),
    Field("portfolio.drift.tech_every", int, 5, schema.WINDOWS["every"]),
    Field("portfolio.drift.org_start", int, 3, schema.WINDOWS["start"]),
    Field("portfolio.drift.org_every", int, 7, schema.WINDOWS["every"]),
    Field("portfolio.drift.drop_frac", float, 0.5, schema.DRIFT["drop_frac"]),
    Field("roy.n_initial", int, 6, schema.ROY["n_initial"]),
    Field("roy.initial_k", float, 1.0, schema.ROY["initial_k"]),
    Field("roy.omega", float, 1.0, schema.ROY["omega"]),
    Field("roy.delta_j", PAIR, [0.08, 0.25], schema.ROY["delta_j"]),
    Field("roy.rho", float, 0.5, schema.ROY["rho"]),
    Field("roy.beta", float, 0.5, schema.ROY["beta"]),
    Field("roy.Lambda", float, 1.0, schema.ROY["Lambda"]),
    Field("roy.epsilon_floor", float, 0.25, schema.ROY["epsilon_floor"]),
    Field("roy.labor_budget", float, 1.0, schema.ROY["labor_budget"]),
    Field("roy.T", int, 40, schema.ROY["T"]),
    Field("roy.mu", float, 0.25, schema.ROY["mu"]),
    Field("roy.k_seed", float, 1e-3, schema.ROY["k_seed"]),
    Field("roy.omega_sigma", float, 0.5, schema.ROY["omega_sigma"]),
    Field("roy.n_workers", int, 400, schema.ROY["n_workers"]),
    Field("roy.sigma_young", float, 1.5, schema.ROY["sigma_young"]),
    Field("roy.sigma_mature", float, 0.2, schema.ROY["sigma_mature"]),
    Field("roy.k_ref", float, 1.0, schema.ROY["k_ref"]),
    Field("roy.tol", float, 1e-9, schema.ROY["tol"]),
    Field("roy.eval_window", int, 12, schema.ROY["eval_window"]),
    Field("roy.treatment", str, "mu", schema.ROY["treatment"]),
    Field("roy.factor", float, 2.0, schema.ROY["factor"]),
    Field("roy.replications", int, 10, schema.ROY["replications"]),
    Field("estimate.panel", str, None, schema.NONEMPTY),  # null simulates the panel
    Field("estimate.rel_drop", float, 0.2, schema.DETECTION["rel_drop"]),
    Field("estimate.horizon", int, 1, schema.DETECTION["horizon"]),
)

# Rules across fields as (section, rule): the classes' rules over a section's
# values, and one over the whole config.
RULES = (
    ("", schema.Rule(
        "transition.L_S0", lambda c: (c["transition"]["L_S0"] or 0) <= c["baseline"]["L_bar"], "must be <= L_bar"
    )),
    *(("priors", rule) for rule in schema.PRIOR_RULES),
    ("portfolio.entry", schema.DELTA_ORDER),
    ("portfolio.drift", schema.HAZARD_SUM),
    ("roy", schema.DELTA_ORDER),
    ("roy", schema.EVAL_WINDOW),
    ("roy", schema.SIGMA_ORDER),
    ("roy", schema.TREATED_INTENSITY),
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
    if f.kind in (PAIR, PER_FAMILY):
        n = 2 if f.kind is PAIR else resolved["portfolio.n_families"]
        if f.kind is PER_FAMILY and not isinstance(value, (list, tuple)):
            value = [value] * n
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ConfigError(f.path, f"expected a list of {n} numbers")
        value = [_typed(v, f.path, float) for v in value]
    else:
        value = _typed(value, f.path, f.kind)
    if f.check is not None and not all(map(f.check.holds, value if isinstance(value, list) else [value])):
        raise ConfigError(f.path, f"{f.path.rpartition('.')[2]} {f.check.wording}")
    return value


def _node(nested: dict, sections: list[str]) -> dict:
    """The mapping at the path ``sections`` in ``nested``, made where missing."""
    for name in sections:
        nested = nested.setdefault(name, {})
    return nested


def _resolve(data: Any, overrides: Any = None) -> dict:
    """Validate a config mapping into the nested mapping of every resolved field.

    Leaves of ``overrides`` replace those of ``data``; a replaced value is still checked.
    """
    given, over = _flatten(data), _flatten(overrides)
    flat, nested = {}, {}
    for f in FIELDS:
        *sections, key = f.path.split(".")
        value = _coerce(f, given.get(f.path, f.default), flat)
        _node(nested, sections)[key] = flat[f.path] = _coerce(f, over[f.path], flat) if f.path in over else value
    for section, rule in RULES:
        if not rule.holds(_node(nested, section.split(".") if section else [])):
            path = f"{section}.{rule.field}" if section else rule.field
            raise ConfigError(path, f"{path.rpartition('.')[2]} {rule.wording}")
    return nested


class AppConfig:
    """A validated configuration whose section keys read as attributes; ``AppConfig()`` is all defaults."""

    def __init__(self, data: Any = None, overrides: Any = None) -> None:
        self._resolved = c = _resolve(data, overrides)
        p = c["portfolio"]
        self.run = SimpleNamespace(**c["run"])
        self.transition = SimpleNamespace(**c["transition"])
        self.estimate = SimpleNamespace(**c["estimate"])
        # Every object a command builds is built here, from values the table
        # has checked against the same rows the classes apply.
        self.baseline = BaselineParams(**c["baseline"])
        self.priors = PriorSpec(**c["priors"])
        entry = EntryConfig(**p["entry"])
        n, d = p["n_families"], p["drift"]
        initial = Portfolio(
            p["omega"], p["delta_j"], p["k0"], np.zeros(n, dtype=np.int64),
            AggregatorSpec(p["rho"], p["epsilon_floor"]),
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
        self.roy = RoyExperiment(**c["roy"])


def load_config(path: str | None, overrides: Any = None) -> AppConfig:
    """Load a configuration file (YAML or JSON), None meaning all defaults, with ``overrides`` laid over it."""
    data = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            data = json.loads(text)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("", f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError:  # JSON first: YAML 1.1 reads the 1e-10 that json.dumps writes as a string
            import yaml  # only here, so that a JSON config never loads the module

            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ConfigError("", f"invalid config syntax: {exc}") from None
    return AppConfig(data, overrides)


def serialize(cfg: AppConfig) -> dict:
    """Fully resolved configuration mapping; parsing it reproduces ``cfg``."""
    return copy.deepcopy(cfg._resolved)
