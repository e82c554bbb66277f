"""Traced in-process run: spans around the calls into each structlabor module.

The benchmark's own files do the tracing.  Each span wraps a module
attribute where the caller looks it up (``structlabor.roy.solve_roy`` is
looked up by ``_run_arm`` in the roy module's globals, ``write_csv`` by
the CLI in ``structlabor.cli``), so the program itself is unchanged.
Spans are kept in memory (name, start, end, parent, thread-CPU time) and
written out when the run ends.

Run as a script, this module is the traced child process: it imports
the CLI once and alternates traced and untraced passes over the
workload's commands, calling ``structlabor.cli.main`` in-process, and
writes one JSON summary for the parent (``run.py``) to aggregate.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import shutil
import sys
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402


def _add_bytes(key):
    """Post hook adding the size of the file named by the call's ``path`` argument."""

    def post(counters, args, kwargs, result):
        counters[key] += os.path.getsize(args[0] if args else kwargs["path"])

    return post


def _post_solve(counters, args, kwargs, eq):
    counters["roy.solves"] += 1
    counters["roy.iterations"] += eq.iterations
    counters["roy.converged"] += int(eq.converged)
    counters["roy.residual_max"] = max(counters["roy.residual_max"], eq.residual)


def _post_allocate(counters, args, kwargs, alloc):
    counters["portfolio.kkt_residual_max"] = max(counters["portfolio.kkt_residual_max"], alloc.kkt_residual)


def _post_scenario(counters, args, kwargs, scenario):
    counters["portfolio.rows"] += len(scenario.family_id)


def _post_read_panel(counters, args, kwargs, arrays):
    counters["io.read_panel_csv.rows"] += len(arrays["family_id"])


def _post_monte_carlo(counters, args, kwargs, result):
    counters["calibration.draws"] += result.n_draws


def _post_transition(counters, args, kwargs, path):
    counters["core.periods_to_converge"] += (
        path.periods_to_converge if path.converged else len(path.points) - 1
    )


# (module, attribute, span name, post hook).  "Class.method" wraps the
# method on the class, where instances and the class look it up.
SPANS = [
    ("structlabor.cli", "main", "cli.main", None),
    ("structlabor.cli", "load_config", "config.load", None),
    ("structlabor.cli", "steady_state", "core.steady_state", None),
    ("structlabor.cli", "simulate_transition", "core.simulate_transition", _post_transition),
    ("structlabor.cli", "run_monte_carlo", "calibration.monte_carlo", _post_monte_carlo),
    ("structlabor.calibration", "sample_shares", "calibration.sample", None),
    ("structlabor.cli", "run_portfolio_scenario", "portfolio.scenario", _post_scenario),
    ("structlabor.roy", "run_portfolio_scenario", "portfolio.scenario", _post_scenario),
    ("structlabor.portfolio", "allocate_labor", "portfolio.allocate", _post_allocate),
    ("structlabor.portfolio", "step_portfolio", "portfolio.step", None),
    ("structlabor.portfolio", "effective_weights", "portfolio.effective_weights", None),
    ("structlabor.portfolio", "ScenarioResult.portfolio_at", "portfolio.portfolio_at", None),
    ("structlabor.cli", "dispersion_experiment", "roy.experiment", None),
    ("structlabor.roy", "solve_roy", "roy.solve", _post_solve),
    ("structlabor.roy", "family_prices", "roy.family_prices", None),
    ("structlabor.roy", "WorkerSkillMatrix.generate", "roy.skills", None),
    ("structlabor.roy", "wage_stats", "roy.wage_stats", None),
    ("structlabor.cli", "write_csv", "io.write_csv", _add_bytes("io.write_csv.bytes")),
    ("structlabor.cli", "write_json", "io.write_json", _add_bytes("io.write_json.bytes")),
    ("structlabor.cli", "read_panel_csv", "io.read_panel_csv", _post_read_panel),
    ("structlabor.cli", "write_manifest", "io.manifest", None),
    ("structlabor.io", "sha256_file", "io.sha256_file", _add_bytes("io.bytes_hashed")),
    ("structlabor.estimators", "MaturityPanel.__post_init__", "estimators.panel_build", None),
    ("structlabor.cli", "detect_degradation", "estimators.detect", None),
    ("structlabor.cli", "estimate_hazard_decomposition", "estimators.hazard", None),
    ("structlabor.cli", "indices", "estimators.indices", None),
    ("structlabor.cli", "count_births", "estimators.births", None),
    ("structlabor.rng", "derive_seed", "rng.derive_seed", None),
    ("structlabor.roy", "derive_seed", "rng.derive_seed", None),
    ("structlabor.cli", "derive_seed", "rng.derive_seed", None),
]

# Per-layer metrics, in report order, with units.  "<span>_s" is the
# inclusive wall time of that span, "<span>.calls" its count, "<module>.self_s"
# the module's spans minus their child spans, ".wait_s" wall minus CPU.
PER_LAYER = {
    "roy.solve_s": "s",
    "roy.solves": "count",
    "roy.iterations": "count",
    "roy.converged_ratio": "ratio",
    "roy.residual_max": "1",
    "roy.family_prices.calls": "count",
    "roy.skills_s": "s",
    "roy.wage_stats_s": "s",
    "roy.self_s": "s",
    "portfolio.scenario_s": "s",
    "portfolio.allocate_s": "s",
    "portfolio.allocate.calls": "count",
    "portfolio.step_s": "s",
    "portfolio.step.calls": "count",
    "portfolio.effective_weights.calls": "count",
    "portfolio.portfolio_at_s": "s",
    "portfolio.portfolio_at.calls": "count",
    "portfolio.rows": "count",
    "portfolio.kkt_residual_max": "1",
    "portfolio.self_s": "s",
    "io.write_csv_s": "s",
    "io.write_csv.bytes": "B",
    "io.write_csv.wait_s": "s",
    "io.write_json_s": "s",
    "io.write_json.bytes": "B",
    "io.read_panel_csv_s": "s",
    "io.read_panel_csv.rows": "count",
    "io.manifest_s": "s",
    "io.bytes_hashed": "B",
    "io.self_s": "s",
    "io.wait_s": "s",
    "estimators.panel_build_s": "s",
    "estimators.detect_s": "s",
    "estimators.hazard_s": "s",
    "estimators.indices_s": "s",
    "estimators.indices.calls": "count",
    "estimators.births_s": "s",
    "estimators.self_s": "s",
    "calibration.sample_s": "s",
    "calibration.summary_s": "s",
    "calibration.draws": "count",
    "calibration.uniform_bytes": "B",
    "calibration.self_s": "s",
    "config.load_s": "s",
    "core.steady_state_s": "s",
    "core.simulate_transition_s": "s",
    "core.periods_to_converge": "count",
    "core.self_s": "s",
    "rng.derive_seed.calls": "count",
    "rng.derive_seed_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must read the same in every traced pass of one run.
COUNTS = [name for name, unit in PER_LAYER.items() if unit != "s"]


class Tracer:
    """Installs span wrappers and records spans in flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, name: str, post):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end, cpu = self.name_of, self.parent, self.start, self.end, self.cpu
        stack, counters = self.stack, self.counters
        perf, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            cpu.append(0.0)
            stack.append(idx)
            c0 = thread_time()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = thread_time()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                cpu[idx] = c1 - c0
            if post is not None:
                post(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every attribute in SPANS; attributes that no longer exist are listed in ``missing``."""
        for module_name, attr, name, post in SPANS:
            owner = importlib.import_module(module_name)
            *cls, attr_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            raw = vars(owner).get(attr_name) if owner is not None else None
            if raw is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, post))
            else:
                wrapped = self._wrap(raw, name, post)
            setattr(owner, attr_name, wrapped)
            self._installed.append((owner, attr_name, raw))

    def restore(self) -> None:
        while self._installed:
            owner, attr_name, raw = self._installed.pop()
            setattr(owner, attr_name, raw)

    def summarize(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics over spans [lo, hi) and the current counters.

        Also returns the number of spans recorded per module.
        """
        n = hi - lo
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child_dur = [0.0] * n
        child_cpu = [0.0] * n
        for k in range(n):
            p = self.parent[lo + k]
            if p >= lo:
                child_dur[p - lo] += dur[k]
                child_cpu[p - lo] += self.cpu[lo + k]
        total: defaultdict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = {}
        for k in range(n):
            name = self.names[self.name_of[lo + k]]
            module = name.split(".", 1)[0]
            self_wall = dur[k] - child_dur[k]
            self_cpu = self.cpu[lo + k] - child_cpu[k]
            total[f"{name}_s"] += dur[k]
            total[f"{name}.calls"] += 1
            total[f"{name}.wait_s"] += dur[k] - self.cpu[lo + k]
            total[f"{name}.self_s"] += self_wall
            total[f"{module}.self_s"] += self_wall
            total[f"{module}.wait_s"] += self_wall - self_cpu
            layer_calls[module] = layer_calls.get(module, 0) + 1
        c = self.counters
        derived = {
            "calibration.summary_s": total["calibration.monte_carlo.self_s"],
            "roy.converged_ratio": c["roy.converged"] / c["roy.solves"] if c["roy.solves"] else 0.0,
            "calibration.uniform_bytes": c["calibration.draws"] * 32,
            "trace.spans": n,
        }
        out = {}
        for metric in PER_LAYER:
            if metric.startswith("trace.") and metric != "trace.spans":
                continue
            if metric in derived:
                out[metric] = derived[metric]
            elif metric in c:
                out[metric] = c[metric]
            else:
                out[metric] = total.get(metric, 0.0)
            if PER_LAYER[metric] in ("count", "B"):
                out[metric] = int(out[metric])
        return out, layer_calls

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as CSV; ``request`` is the root span's index."""
        request = array("i", [0]) * len(self)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,request,parent,name,start,end,cpu\n")
            for i in range(len(self)):
                p = self.parent[i]
                request[i] = i if p < 0 else request[p]
                handle.write(
                    f"{i},{request[i]},{p},{self.names[self.name_of[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.cpu[i]!r}\n"
                )


def _call_main(cli, args: list[str]) -> tuple[int, list[str]]:
    """Run ``structlabor.cli.main`` in-process the way ``python -m`` would."""
    try:
        return cli.main(args), []
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else int(exc.code is not None)), []
    except Exception:
        return 1, [traceback.format_exc(limit=3)]


def run_passes(workload: str, seed: int, seconds: float, budget: float, work: Path) -> dict:
    """Alternate traced and untraced passes: T, U, T, then U, T, ... until ``seconds``.

    A pass is not started when the previous pass's duration would take
    the run past ``budget`` seconds.
    """
    import structlabor.cli as cli

    tracer = Tracer()
    passes = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        last = passes[-1]["wall_s"] * 1.2 if passes else 0.0
        if len(passes) >= 3 and elapsed >= seconds or passes and elapsed + last > budget:
            break
        traced = len(passes) % 2 == 0
        pass_dir = work / f"trace-pass-{len(passes)}"
        steps = workloads.plan(workload, pass_dir)
        lo = len(tracer)
        tracer.counters.clear()
        if traced:
            tracer.install()
        results = []
        try:
            for step in steps:
                t0 = time.perf_counter()
                rc, errors = _call_main(cli, step.cli_args(seed))
                results.append((step, rc, time.perf_counter() - t0, errors))
        finally:
            tracer.restore()
        record = {"traced": traced, "wall_s": sum(r[2] for r in results), "steps": []}
        if traced:
            record["metrics"], record["layer_calls"] = tracer.summarize(lo, len(tracer))
        for step, rc, wall, errors in results:
            digest, problems = checks.check_step(step, workload, seed, rc)
            record["steps"].append({"label": step.label, "wall_s": wall, "digest": digest, "problems": errors + problems})
        passes.append(record)
        if len(passes) > 1:
            shutil.rmtree(work / f"trace-pass-{len(passes) - 2}", ignore_errors=True)
    tracer.write_spans(work / "spans.csv")
    return {"passes": passes, "missing_spans": tracer.missing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    summary = run_passes(args.workload, args.seed, args.seconds, args.budget, args.work)
    args.result.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
