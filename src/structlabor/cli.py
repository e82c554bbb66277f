"""Command-line interface.

Every subcommand reads one configuration file, derives all randomness
from the run seed, writes its outputs atomically into the output
directory, and finishes with a run manifest listing the SHA-256 digest
of every file it wrote.  Repeated runs with the same configuration and
seed produce byte-identical outputs (the manifest's timing fields are
the one documented exception).  Errors are machine-readable JSON on
stderr; exit codes are 0 (success), 2 (configuration), 3 (runtime), 143 (SIGTERM).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .calibration import run_monte_carlo, share_bounds
from .config import FORMATS, AppConfig, load_config, serialize
from .core import comparative_statics, simulate_transition, steady_state
from .errors import ConfigError, DomainError, require
from .estimators import MaturityPanel, count_births, detect_degradation, estimate_hazard_decomposition
from .io import (
    PANEL_COLUMNS,
    PATH_COLUMNS,
    config_digest,
    read_panel_csv,
    write_csv,
    write_json,
    write_manifest,
)
from .portfolio import run_portfolio_scenario
from .rng import derive_seed
from .roy import dispersion_experiment


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage errors follow the JSON error contract."""

    def error(self, message: str) -> None:
        _emit_error("config", "", message)
        raise SystemExit(2)


def _emit_error(kind: str, path: str, message: str) -> None:
    record = {"error": {"kind": kind, "path": path, "message": message}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structlabor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None, help="YAML or JSON configuration file")
    common.add_argument("--seed", type=int, default=None, help="override run.seed (64-bit unsigned)")
    common.add_argument(
        "--out",
        metavar="DIR",
        default=os.environ.get("STRUCTLABOR_OUT") or None,
        help="override run.out output directory (default from STRUCTLABOR_OUT)",
    )
    common.add_argument("--format", choices=FORMATS, default=None, help="series output format")
    common.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, summary) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=summary)
    return parser


def _write_series(out: str, name: str, fmt: str, header, columns) -> list[dict]:
    entries = []
    if fmt in ("csv", "both"):
        entries.append(write_csv(os.path.join(out, f"{name}.csv"), header, columns))
    if fmt in ("json", "both"):
        rows = [list(r) for r in zip(*(np.asarray(c).tolist() for c in columns))]
        entries.append(write_json(os.path.join(out, f"{name}.json"), {"columns": list(header), "rows": rows}))
    return entries


def _cmd_steady_state(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    ss = steady_state(cfg.baseline)
    ds_dgamma, ds_dr, ds_ddelta = comparative_statics(cfg.baseline)
    payload = {
        "params": serialize(cfg)["baseline"],
        "steady_state": ss,
        "comparative_statics": {
            "ds_dgamma": ds_dgamma,
            "ds_dr": ds_dr,
            "ds_ddelta_k": ds_ddelta,
        },
    }
    entry = write_json(os.path.join(cfg.run.out, "steady_state.json"), payload)
    lines = [
        f"long-run maintenance share s* = {ss.s_star:.6f}",
        f"capability stock k* = {ss.k_star:.6f}, wage = {ss.wage:.6f}",
    ]
    return [entry], lines


def _cmd_calibrate(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    priors = replace(cfg.priors, seed=derive_seed(cfg.run.seed, "calibration"))
    result = run_monte_carlo(priors)
    lo, hi = share_bounds(priors)
    stats = {name: value for name, value in asdict(result).items() if name not in ("n_draws", "seed")}
    stats["min"], stats["max"] = stats.pop("share_min"), stats.pop("share_max")
    payload = {
        "priors": serialize(cfg)["priors"],
        "stats": stats,
        "attainable_range_pct": [lo * 100.0, hi * 100.0],
        "n_draws": result.n_draws,
        "stream_seed": result.seed,
    }
    entry = write_json(os.path.join(cfg.run.out, "calibration.json"), payload)
    lines = [
        f"share distribution over {result.n_draws} draws: "
        f"mean {result.mean:.2f}%, sd {result.std_dev:.2f}pp, "
        f"P10-P90 [{result.q10:.2f}%, {result.q90:.2f}%]",
    ]
    return [entry], lines


def _cmd_simulate(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    ss, tr = steady_state(cfg.baseline), cfg.transition
    k0 = tr.k0 if tr.k0 is not None else 0.5 * ss.k_star
    l_s0 = tr.L_S0 if tr.L_S0 is not None else 0.5 * ss.L_S_star
    path = simulate_transition(cfg.baseline, k0=k0, L_S0=l_s0, T=tr.T, damping=tr.damping, tol=tr.tol)
    columns = [getattr(path, name) for name in PATH_COLUMNS]
    files = _write_series(cfg.run.out, "path", cfg.run.format, PATH_COLUMNS, columns)
    payload = {
        "params": serialize(cfg)["baseline"],
        "initial": {"k0": k0, "L_S0": l_s0},
        "damping": path.damping,
        "converged": path.converged,
        "periods_to_converge": path.periods_to_converge,
        "final": {name: getattr(path, name)[-1] for name in ("t", "k", "L_S", "Y")},
        "steady_state": {"s_star": ss.s_star, "k_star": ss.k_star},
    }
    files.append(write_json(os.path.join(cfg.run.out, "transition.json"), payload))
    status = f"converged in {path.periods_to_converge} periods" if path.converged else "did not converge"
    lines = [f"transition with damping {path.damping:.4f}: {status}"]
    return files, lines


def _run_configured_scenario(cfg: AppConfig):
    seed = derive_seed(cfg.run.seed, "portfolio")
    return run_portfolio_scenario(
        cfg.portfolio.initial,
        cfg.portfolio.labor_budget,
        cfg.portfolio.entry,
        cfg.portfolio.T,
        seed=seed,
        drift=cfg.portfolio.drift,
    )


def _cmd_portfolio(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    scenario = _run_configured_scenario(cfg)
    panel = [getattr(scenario, name) for name in PANEL_COLUMNS]
    files = _write_series(cfg.run.out, "panel", cfg.run.format, PANEL_COLUMNS, panel)
    files += _write_series(
        cfg.run.out,
        "capability",
        cfg.run.format,
        ("t", "capability", "labor_budget"),
        (scenario.periods, scenario.capability, scenario.labor_budget),
    )
    # Entrants are the roster rows after the initial families.
    entrants = scenario.final.size - cfg.portfolio.initial.size
    events = scenario.event_period.size
    payload = {
        "T": cfg.portfolio.T,
        "n_families_initial": cfg.portfolio.n_families,
        "n_families_final": scenario.final.size,
        "births_after_start": entrants,
        "degradation_events": events,
        "capability_final": float(scenario.capability[-1]),
    }
    files.append(write_json(os.path.join(cfg.run.out, "portfolio.json"), payload))
    lines = [
        f"{cfg.portfolio.T} transitions: {scenario.final.size} families "
        f"({entrants} entrants), {events} degradation events",
    ]
    return files, lines


def _cmd_roy(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    exp = cfg.roy
    result = dispersion_experiment(exp, derive_seed(cfg.run.seed, "roy"))
    payload = {
        "treatment": exp.treatment,
        "factor": exp.factor,
        "replications": exp.replications,
        "mean_variance_diff": result.mean_variance_diff,
        "share_positive": result.share_positive,
        "per_replication": [
            {"base": b, "treated": t, "variance_diff": d}
            for b, t, d in zip(result.base, result.treated, result.variance_diffs)
        ],
    }
    entry = write_json(os.path.join(cfg.run.out, "roy.json"), payload)
    lines = [
        f"{exp.treatment} x{exp.factor:g} over {exp.replications} replications: "
        f"mean log-wage variance diff {result.mean_variance_diff:+.4f} "
        f"(positive in {result.share_positive:.0%})",
    ]
    return [entry], lines


def indices(scenario, L_bar: float) -> tuple[np.ndarray, ...]:
    """The columns of ``indices.csv``: (t, capability, maintenance_share, n_families).

    Each is the scenario's own per-period series: the capability index it
    recorded, its labor budget over ``L_bar`` (a share that overflows is a
    domain error) and its panel's row count.
    """
    with np.errstate(over="ignore"):
        share = scenario.labor_budget / L_bar
    require(bool(np.all(np.isfinite(share))), "maintenance share out of range: labor_total / L_bar overflows")
    return scenario.periods, scenario.capability, share, np.bincount(scenario.period)


def _cmd_estimate(cfg: AppConfig) -> tuple[list[dict], list[str]]:
    if cfg.estimate.panel is not None:
        panel, index_columns = MaturityPanel(**read_panel_csv(cfg.estimate.panel)), None
    else:
        scenario = _run_configured_scenario(cfg)
        index_columns = indices(scenario, cfg.baseline.L_bar)
        panel = MaturityPanel(**{f.name: getattr(scenario, f.name) for f in fields(MaturityPanel) if f.init})
        # Frees the scenario's labor and effective-weight columns before the estimators run.
        del scenario

    births = count_births(panel)
    flags = detect_degradation(panel, rel_drop=cfg.estimate.rel_drop, horizon=cfg.estimate.horizon)
    est = estimate_hazard_decomposition(flags)
    payload = {
        "delta_hat": est.delta_hat,
        "components": {"env": est.env, "tech": est.tech, "org": est.org},
        "standard_errors": {"env": est.se_env, "tech": est.se_tech, "org": est.se_org},
        "n_obs": est.n_obs,
        "cells": {
            f"tech={int(k[0])},org={int(k[1])}": {"mean": v.mean, "count": v.count}
            for k, v in sorted(est.cells.items())
        },
        "rel_drop": cfg.estimate.rel_drop,
        "horizon": cfg.estimate.horizon,
    }
    files = [write_json(os.path.join(cfg.run.out, "hazard.json"), payload)]
    files += _write_series(
        cfg.run.out,
        "births",
        cfg.run.format,
        ("t", "births"),
        (np.arange(births.shape[0]), births),
    )
    if index_columns is not None:
        files += _write_series(
            cfg.run.out,
            "indices",
            cfg.run.format,
            ("t", "capability", "maintenance_share", "n_families"),
            index_columns,
        )

    def show(x: float | None) -> str:
        return "n/a" if x is None else f"{x:.4f}"

    lines = [
        f"degradation hazard {est.delta_hat:.4f} over {est.n_obs} family-periods "
        f"(env {show(est.env)}, tech {show(est.tech)}, org {show(est.org)})",
    ]
    return files, lines


# Each command's function and its help line, in the order the help lists them.
_COMMANDS = {
    "steady-state": (_cmd_steady_state, "long-run allocation, prices, and sensitivities"),
    "calibrate": (_cmd_calibrate, "Monte Carlo distribution of the long-run share"),
    "simulate": (_cmd_simulate, "transition path toward the long-run allocation"),
    "portfolio": (_cmd_portfolio, "task-family scenario and maturity panel"),
    "roy": (_cmd_roy, "paired wage-dispersion experiment"),
    "estimate": (_cmd_estimate, "hazard decomposition and counts from a panel"),
}


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds as an exception does, to exit status 143: a partly
    # written file's temporary is removed and forked workers are killed.
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        flags = {"seed": args.seed, "out": args.out, "format": args.format}
        cfg = load_config(args.config, {"run": {k: v for k, v in flags.items() if v is not None}})
    except ConfigError as exc:
        _emit_error("config", exc.path, exc.message)
        return 2

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    clock = time.monotonic()
    try:
        os.makedirs(cfg.run.out, exist_ok=True)
        outputs, lines = _COMMANDS[args.command][0](cfg)
        settings = serialize(cfg)
        del settings["run"]["out"]  # where the outputs go is not what they are
        manifest = write_manifest(
            out_dir=cfg.run.out,
            command=args.command,
            seed=cfg.run.seed,
            digest=config_digest(settings),
            outputs=outputs,
            started_utc=started,
            elapsed_seconds=round(time.monotonic() - clock, 6),
            version=__version__,
        )
    except ConfigError as exc:
        _emit_error("config", exc.path, exc.message)
        return 2
    except DomainError as exc:
        _emit_error("runtime", "", str(exc))
        return 3
    except OSError as exc:
        _emit_error("io", "", str(exc))
        return 3

    if not args.quiet:
        try:
            for line in lines:
                print(line)
            for entry in outputs:
                print(f"wrote {os.path.join(cfg.run.out, entry['path'])}")
            print(f"wrote {manifest}")
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout after the run was complete; the summary
            # is dropped, and stdout points at the null device so that the
            # interpreter's last flush finds nothing to fail on.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
