"""Output checks for one CLI command run, and the digest of its outputs.

Every check returns a list of problems (empty when the run is correct).
A command whose run has a problem counts as failed in ``error_rate``.
Only the standard library is used, so the checks never share code with
the program they check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import PINNED_PANEL_ROWS, Step

# Files each command must list in its manifest; "{series}" expands to one
# file per output format.
EXPECTED = {
    "steady-state": ["steady_state.json"],
    "calibrate": ["calibration.json"],
    "simulate": ["path.{series}", "transition.json"],
    "portfolio": ["panel.{series}", "capability.{series}", "portfolio.json"],
    "estimate": ["hazard.json", "births.{series}", "indices.{series}"],
    "estimate-panel": ["hazard.json", "births.{series}"],
    "roy": ["roy.json"],
}

# Relative tolerance for values the benchmark recomputes in closed form.
REL_TOL = 1e-12


def share(alpha: float, gamma: float, r: float, delta_k: float) -> float:
    """s* = gamma*delta / (gamma*delta + (1 - alpha)(r + delta))."""
    num = gamma * delta_k
    return num / (num + (1.0 - alpha) * (r + delta_k))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_data_rows(path: Path) -> int:
    """Lines after the header of a CSV file."""
    lines = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _expected_files(label: str, fmt: str) -> set[str]:
    exts = ("csv", "json") if fmt == "both" else (fmt,)
    return {name.format(series=ext) for name in EXPECTED[label] for ext in exts}


def check_manifest(step: Step, seed: int) -> tuple[list, list[str]]:
    """Verify every manifest entry against the file on disk.

    Returns the digest (path, sha256, bytes) of each output, sorted by
    path, and the problems found.
    """
    try:
        manifest = json.loads((step.out / "run.manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [], [f"run.manifest.json unreadable: {exc}"]
    problems = []
    if manifest.get("command") != step.command:
        problems.append(f"manifest command {manifest.get('command')!r} != {step.command!r}")
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')!r} != {seed}")
    digest = []
    for entry in manifest.get("outputs", []):
        path = step.out / entry["path"]
        if not path.is_file():
            problems.append(f"{entry['path']}: listed in manifest but missing")
            continue
        size = path.stat().st_size
        if size != entry["bytes"]:
            problems.append(f"{entry['path']}: {size} bytes on disk, manifest says {entry['bytes']}")
        if sha256(path) != entry["sha256"]:
            problems.append(f"{entry['path']}: sha256 differs from manifest")
        digest.append([entry["path"], entry["sha256"], entry["bytes"]])
    listed = {d[0] for d in digest}
    expected = _expected_files(step.label, step.fmt)
    if listed != expected:
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(expected)}")
    return sorted(digest), problems


def _check_share(step: Step, s_star: float, where: str) -> list[str]:
    b = step.config["baseline"]
    want = share(b["alpha"], b["gamma"], b["r"], b["delta_k"])
    if not _close(s_star, want):
        return [f"{where}: s_star {s_star!r} != closed form {want!r}"]
    return []


def _check_calibration(step: Step) -> list[str]:
    data = json.loads((step.out / "calibration.json").read_text(encoding="utf-8"))
    priors = step.config["priors"]
    problems = []
    lo = share(priors["alpha"][0], priors["gamma"][0], priors["r"][1], priors["delta_k"][0]) * 100.0
    hi = share(priors["alpha"][1], priors["gamma"][1], priors["r"][0], priors["delta_k"][1]) * 100.0
    got_lo, got_hi = data["attainable_range_pct"]
    if not (_close(got_lo, lo) and _close(got_hi, hi)):
        problems.append(f"attainable_range_pct {[got_lo, got_hi]} != closed form {[lo, hi]}")
    s = data["stats"]
    ordered = [s["min"], s["q2_5"], s["q10"], s["median"], s["q90"], s["q97_5"], s["max"]]
    if ordered != sorted(ordered):
        problems.append(f"quantiles out of order: {ordered}")
    if not all(got_lo <= q <= got_hi for q in ordered + [s["mean"]]):
        problems.append(f"quantiles outside attainable range [{got_lo}, {got_hi}]")
    if data["n_draws"] != priors["n_draws"]:
        problems.append(f"n_draws {data['n_draws']} != config {priors['n_draws']}")
    return problems


def _check_portfolio(step: Step, workload: str, seed: int) -> list[str]:
    problems = []
    section = step.config.get("portfolio", {})
    T, n0 = section.get("T", 100), section.get("n_families", 8)
    summary = json.loads((step.out / "portfolio.json").read_text(encoding="utf-8"))
    if summary["T"] != T or summary["n_families_initial"] != n0:
        problems.append(f"portfolio.json T/n_families {summary['T']}/{summary['n_families_initial']} != {T}/{n0}")
    rows = count_data_rows(step.out / "panel.csv")
    # Families never exit, so every period has at least the initial ones.
    if rows < (T + 1) * n0:
        problems.append(f"panel.csv has {rows} rows, fewer than (T+1)*n_families = {(T + 1) * n0}")
    pinned = PINNED_PANEL_ROWS.get((workload, seed))
    if pinned is not None and rows != pinned:
        problems.append(f"panel.csv has {rows} rows, pinned value at seed {seed} is {pinned}")
    if step.fmt == "both":
        panel = json.loads((step.out / "panel.json").read_text(encoding="utf-8"))
        if len(panel["rows"]) != rows:
            problems.append(f"panel.json has {len(panel['rows'])} rows, panel.csv {rows}")
    return problems


def _check_estimate(step: Step) -> list[str]:
    problems = []
    T = step.config.get("portfolio", {}).get("T", 100)
    hazard = json.loads((step.out / "hazard.json").read_text(encoding="utf-8"))
    if not hazard["n_obs"] > 0 or not 0.0 <= hazard["delta_hat"] <= 1.0:
        problems.append(f"hazard.json n_obs {hazard['n_obs']}, delta_hat {hazard['delta_hat']}")
    names = ["births.csv"] + (["indices.csv"] if step.label == "estimate" else [])
    for name in names:
        rows = count_data_rows(step.out / name)
        if rows != T + 1:
            problems.append(f"{name} has {rows} rows, expected T+1 = {T + 1}")
    return problems


def _check_roy(step: Step) -> list[str]:
    data = json.loads((step.out / "roy.json").read_text(encoding="utf-8"))
    want = step.config["roy"]["replications"]
    problems = []
    if data["replications"] != want or len(data["per_replication"]) != want:
        problems.append(
            f"roy.json has {data['replications']} replications "
            f"({len(data['per_replication'])} listed), config says {want}"
        )
    if not 0.0 <= data["share_positive"] <= 1.0:
        problems.append(f"share_positive {data['share_positive']} outside [0, 1]")
    return problems


def check_step(step: Step, workload: str, seed: int, returncode: int) -> tuple[list, list[str]]:
    """Check one finished command: exit code, manifest, and content.

    Returns the output digest (see ``check_manifest``) and the problems.
    """
    if returncode != 0:
        return [], [f"exit code {returncode}"]
    digest, problems = check_manifest(step, seed)
    if problems:
        return digest, problems
    try:
        if step.label == "steady-state":
            data = json.loads((step.out / "steady_state.json").read_text(encoding="utf-8"))
            problems += _check_share(step, data["steady_state"]["s_star"], "steady_state.json")
        elif step.label == "simulate":
            data = json.loads((step.out / "transition.json").read_text(encoding="utf-8"))
            problems += _check_share(step, data["steady_state"]["s_star"], "transition.json")
        elif step.label == "calibrate":
            problems += _check_calibration(step)
        elif step.label == "portfolio":
            problems += _check_portfolio(step, workload, seed)
        elif step.command == "estimate":
            problems += _check_estimate(step)
        elif step.label == "roy":
            problems += _check_roy(step)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return digest, problems


def check_pass(digests: dict[str, list]) -> list[tuple[str, str]]:
    """Cross-command checks within one pass; returns (label, problem) pairs.

    The estimate that reads panel.csv must give the same hazard.json and
    births.csv as the estimate that rebuilds the panel from the scenario.
    """
    if "estimate-panel" not in digests or "estimate" not in digests:
        return []
    problems = []
    panel = {d[0]: d[1] for d in digests["estimate-panel"]}
    scenario = {d[0]: d[1] for d in digests["estimate"]}
    for name in ("hazard.json", "births.csv"):
        if panel.get(name) is None or panel.get(name) != scenario.get(name):
            problems.append(("estimate-panel", f"{name} differs from the scenario-mode estimate"))
    return problems
