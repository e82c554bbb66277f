"""The benchmark's workloads: which CLI commands each runs, with which config.

Every workload passes the benchmark's seed to each command as ``--seed``.
Configs are written as JSON (a YAML subset, so the CLI's ``--config``
reads them).  The values under ``baseline`` and ``priors`` equal the
program's defaults; they are spelled out so that the output checks can
recompute the closed-form share from the config itself.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BASELINE = {"alpha": 0.36, "gamma": 0.05, "r": 0.04, "delta_k": 0.15, "eta": 0.2}
PRIORS = {
    "alpha": [0.33, 0.40],
    "r": [0.03, 0.05],
    "delta_k": [0.08, 0.25],
    "gamma": [0.02, 0.08],
    "n_draws": 200_000,
}

CONFIGS = {
    # The default config: every command is a few tenths of a second, most
    # of it interpreter start, import, config parsing and output emission.
    "small": {"baseline": BASELINE, "priors": PRIORS},
    # The default Roy experiment: 10 replications x 2 arms x 12 evaluated
    # periods = 240 Roy solves over 400 workers each.
    "roy": {"baseline": BASELINE, "priors": PRIORS, "roy": {"replications": 10, "eval_window": 12}},
    # The large config: 200 families over 1000 periods with entry and
    # drift, about 667k panel rows, and 5M Monte Carlo draws.
    "large": {
        "baseline": BASELINE,
        "priors": {**PRIORS, "n_draws": 5_000_000},
        "portfolio": {
            "n_families": 200,
            "T": 1000,
            "entry": {"mu": 1.0},
            "drift": {"enabled": True},
        },
    },
}

# (label, CLI command) in the order one pass runs them.  "estimate-panel"
# is the estimate command reading the panel CSV that "portfolio" wrote in
# the same pass; "estimate" rebuilds the panel from the scenario.
COMMANDS = {
    "small": [
        ("steady-state", "steady-state"),
        ("calibrate", "calibrate"),
        ("simulate", "simulate"),
        ("portfolio", "portfolio"),
        ("estimate", "estimate"),
    ],
    "roy": [("roy", "roy")],
    "large": [
        ("portfolio", "portfolio"),
        ("estimate-panel", "estimate"),
        ("estimate", "estimate"),
        ("calibrate", "calibrate"),
    ],
}

FORMATS = {"small": "both", "roy": "csv", "large": "csv"}

# Output invariants pinned at seed 0: the number of data rows in panel.csv.
PINNED_PANEL_ROWS = {("large", 0): 667_047}

# Counts that the traced run read at seed 0 when the benchmark was written.
# They are printed beside the measured counts for reference; a change to
# the Roy solver is expected to move them, so they are not checks.
SEED0_BASELINE_COUNTS = {
    "roy": {
        "roy.solves": 240,
        "roy.iterations": 120_000,
        "roy.converged_ratio": 0.0,
    },
    "large": {"portfolio.rows": 2 * 667_047, "estimators.indices.calls": 1001, "calibration.draws": 5_000_000},
}

# Modules whose spans a traced run must record on each workload: the
# layers that do the work there.
ACTIVE_LAYERS = {
    "small": ["cli", "config", "core", "calibration", "portfolio", "estimators", "io"],
    "roy": ["cli", "roy", "portfolio", "rng"],
    "large": ["cli", "config", "portfolio", "io", "estimators", "calibration", "rng"],
}

# Seeds 0-10 were used while the benchmark was written and its spread
# measured.  A claimed gain must also hold on this seed, used by neither.
HELD_OUT_SEED = 20261017

NAMES = tuple(COMMANDS)


@dataclass(frozen=True)
class Step:
    """One CLI invocation inside a pass."""

    label: str
    command: str
    config: dict
    config_path: Path
    out: Path
    fmt: str

    def cli_args(self, seed: int) -> list[str]:
        """Arguments after ``python -m structlabor.cli``."""
        args = [
            self.command,
            "--config", str(self.config_path),
            "--seed", str(seed),
            "--out", str(self.out),
            "--quiet",
        ]
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        return args

    def argv(self, seed: int) -> list[str]:
        return [sys.executable, "-m", "structlabor.cli", *self.cli_args(seed)]


def write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def plan(workload: str, pass_dir: Path) -> list[Step]:
    """Write one pass's configs under ``pass_dir`` and return its steps."""
    base = CONFIGS[workload]
    config_path = write_config(pass_dir / "config.json", base)
    steps = []
    for label, command in COMMANDS[workload]:
        config, path = base, config_path
        if label == "estimate-panel":
            panel = pass_dir / "portfolio" / "panel.csv"
            config = {**base, "estimate": {"panel": str(panel)}}
            path = write_config(pass_dir / "config-estimate-panel.json", config)
        steps.append(Step(label, command, config, path, pass_dir / label, FORMATS[workload]))
    return steps
