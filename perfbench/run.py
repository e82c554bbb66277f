"""structlabor benchmark: runs the CLI the way users do and checks every output.

    python3 perfbench/run.py --workload {small,roy,large} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout; nothing is installed.

With ``--trace 0`` one client runs the workload's commands in a closed
loop, one ``python -m structlabor.cli`` process at a time, until
``--seconds`` have passed and at least two passes are done.  It reports
the end-to-end metrics: wall time per pass and per command, set-up time
(a fresh interpreter that imports the CLI and loads the config) and peak
RSS.  With ``--trace 1`` a child process calls the CLI in-process,
alternating traced and untraced passes, and reports per-layer metrics.

Every command's outputs are checked (see checks.py), and repeated passes
of one seed must give identical output digests.  The report lists every
metric with its unit as median, quartiles and sample count; the last
line of stdout is one JSON object with the headline metrics.  Everything
the run writes goes under ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# A run must finish within three minutes; no pass starts that would end
# later than this many seconds after the run began.
RUN_BUDGET_S = 165.0
SETUP_PROBES = 5
SETUP_CODE = "import sys, structlabor.cli as cli; cli.load_config(sys.argv[1])"
# Host-speed reference (ReferenceClock).
REF_CODE = "import numpy"
REF_NOMINAL_S = 0.15
REF_WINDOW = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process to completion; return (exit code, start, end, peak RSS MB).

    Start and end are ``perf_counter`` readings just before the process
    is created and just after it has been reaped; peak RSS is the
    child's own ``ru_maxrss``.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def log_tail(log: Path) -> str:
    try:
        return log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1][:300]
    except (OSError, IndexError):
        return ""


def summary(values: list[float]) -> dict:
    """Median, quartiles and count; a high percentile only with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    out["q1"], out["q3"] = q1, q3
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
            break
    return out


def host_snapshot() -> dict:
    """Load average and cumulative CPU steal ticks, when the host exposes them."""
    snap = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        snap["steal_ticks"] = int(fields[8])
    except (OSError, IndexError, ValueError):
        pass
    return snap


class Tally:
    """Attempted and failed operations, with the problems that failed them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list] = {}

    def record(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{where}: {p}" for p in problems]

    def same_digest(self, label: str, digest: list) -> list[str]:
        """Compare a command's output digest with its first run in this benchmark run."""
        first = self.digests.setdefault(label, digest)
        return [] if digest == first else ["output digests differ from the first pass of this seed"]


class ReferenceClock:
    """Wall times scaled by interleaved host-speed references.

    The host's speed drifts by up to a factor of two within tens of
    seconds (other tenants share the physical machine), which moves the
    raw wall time of the same command by 10-25% between runs.  Reference
    processes, fresh interpreters that import numpy and exit, run between
    the timed processes; they do not depend on the program under test.
    A time is reported as ``raw * REF_NOMINAL_S / median(nearby
    references)``, the REF_WINDOW references before the process and up to
    REF_WINDOW after it (one per two seconds it ran): seconds on a host
    where the reference takes REF_NOMINAL_S.
    """

    def __init__(self, work: Path, tally: Tally) -> None:
        self.env = dict(os.environ)
        self.log = work / "reference.log"
        self.tally = tally
        self.samples: list[float] = []

    def reference(self) -> None:
        rc, start, end, _ = spawn([sys.executable, "-c", REF_CODE], self.env, self.log, 60.0)
        if rc != 0:
            self.tally.problems.append(f"reference process failed with exit code {rc}: {log_tail(self.log)}")
        self.samples.append(end - start)

    def run(self, argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float, float]:
        """(exit code, raw wall s, scaled wall s, peak RSS MB) of one process."""
        if not self.samples:
            self.reference()
        before = self.samples[-REF_WINDOW:]
        rc, start, end, peak = spawn(argv, env, log, timeout)
        raw = end - start
        first_after = len(self.samples)
        for _ in range(min(REF_WINDOW, 1 + int(raw / 2.0))):
            self.reference()
        nearby = before + self.samples[first_after:]
        return rc, raw, raw * REF_NOMINAL_S / statistics.median(nearby), peak


def run_end_to_end(args, env: dict, work: Path, began: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    clock = ReferenceClock(work, tally)
    config = workloads.write_config(work / "config.json", workloads.CONFIGS[args.workload])
    setup, setup_raw = [], []
    for i in range(SETUP_PROBES):
        log = work / f"setup-{i}.log"
        rc, raw, wall, _ = clock.run([sys.executable, "-c", SETUP_CODE, str(config)], env, log, RUN_BUDGET_S)
        tally.record(f"setup probe {i}", [] if rc == 0 else [f"exit code {rc}: {log_tail(log)}"])
        if rc == 0:
            setup.append(wall)
            setup_raw.append(raw)

    per_command: dict[str, list[float]] = {}
    pass_walls, pass_raw, rss = [], [], []
    measuring = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(pass_walls) >= 2 and now - measuring >= args.seconds:
            break
        if pass_walls and now - began + 1.2 * (now - measuring) / len(pass_walls) > RUN_BUDGET_S:
            break
        k = len(pass_walls)
        pass_dir = work / f"pass-{k}"
        digests = {}
        total = total_raw = peak_pass = 0.0
        for step in workloads.plan(args.workload, pass_dir):
            log = pass_dir / f"{step.label}.log"
            timeout = RUN_BUDGET_S - (time.perf_counter() - began)
            rc, raw, wall, peak = clock.run(step.argv(args.seed), env, log, timeout)
            total += wall
            total_raw += raw
            peak_pass = max(peak_pass, peak)
            per_command.setdefault(f"wall.{step.label}_s", []).append(wall)
            digest, problems = checks.check_step(step, args.workload, args.seed, rc)
            if rc != 0:
                problems.append(log_tail(log))
            elif not problems:
                problems = tally.same_digest(step.label, digest)
            digests[step.label] = digest
            tally.record(f"pass {k} {step.label}", problems)
        for label, problem in checks.check_pass(digests):
            tally.problems.append(f"pass {k} {label}: {problem}")
        pass_walls.append(total)
        pass_raw.append(total_raw)
        rss.append(peak_pass)
        if k > 0:
            shutil.rmtree(work / f"pass-{k - 1}", ignore_errors=True)

    metrics = {"wall_s": pass_walls, "setup_s": setup, "peak_rss_mb": rss}
    details = {**per_command, "raw.wall_s": pass_raw, "raw.setup_s": setup_raw, "reference_s": clock.samples}
    return metrics, tally, details


def run_traced(args, env: dict, work: Path, began: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    result = work / "trace-result.json"
    log = work / "trace.log"
    budget = RUN_BUDGET_S - (time.perf_counter() - began)
    argv = [
        sys.executable, str(HERE / "tracer.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--budget", str(budget - 10.0),
        "--work", str(work),
        "--result", str(result),
    ]
    rc, _, _, _ = spawn(argv, env, log, budget)
    if rc != 0:
        tally.record("traced run", [f"exit code {rc}: {log_tail(log)}"])
        return {name: [0.0] for name in tracer.PER_LAYER}, tally, {}
    data = json.loads(result.read_text(encoding="utf-8"))
    traced = [p for p in data["passes"] if p["traced"]]
    untraced = [p for p in data["passes"] if not p["traced"]]
    for k, record in enumerate(data["passes"]):
        kind = "traced" if record["traced"] else "untraced"
        for step in record["steps"]:
            problems = step["problems"] or tally.same_digest(step["label"], step["digest"])
            tally.record(f"{kind} pass {k} {step['label']}", problems)
        digests = {step["label"]: step["digest"] for step in record["steps"]}
        for label, problem in checks.check_pass(digests):
            tally.problems.append(f"{kind} pass {k} {label}: {problem}")
    for name in tracer.COUNTS:
        seen = sorted({p["metrics"][name] for p in traced})
        if len(seen) > 1:
            tally.problems.append(f"count {name} differs between traced passes: {seen}")
    for layer in workloads.ACTIVE_LAYERS[args.workload]:
        if not traced[0]["layer_calls"].get(layer):
            tally.problems.append(f"layer {layer} recorded no spans")
    for missing in data["missing_spans"]:
        tally.problems.append(f"span target {missing} not found")

    metrics = {}
    for name, unit in tracer.PER_LAYER.items():
        if name.startswith("trace.") and name != "trace.spans":
            continue
        values = [p["metrics"][name] for p in traced]
        metrics[name] = values if unit == "s" else values[:1]
    t_walls = [p["wall_s"] for p in traced]
    u_walls = [p["wall_s"] for p in untraced]
    metrics["trace.wall_s"] = t_walls
    metrics["trace.untraced_wall_s"] = u_walls
    if u_walls:
        metrics["trace.overhead_s"] = [statistics.median(t_walls) - statistics.median(u_walls)]
    else:
        tally.problems.append("no untraced pass ran, so tracing overhead is unknown")
    details = {"trace.passes": [len(traced), len(untraced)]}
    return metrics, tally, details


def report(args, metrics: dict, units: dict, tally: Tally, details: dict, began: float, host: dict) -> dict:
    stats = {name: {**summary(values), "unit": units[name]} for name, values in metrics.items() if values}
    detail_stats = {
        name: {**summary(values), "unit": "s"} for name, values in details.items() if name.endswith("_s") and values
    }
    print(f"structlabor benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} (held-out seed for claims: {workloads.HELD_OUT_SEED})")
    print(f"closed loop, one client, one command at a time; python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, s in {**stats, **detail_stats}.items():
        high = "".join(f"  p{p}={s[f'p{p}']:.6g}" for p in (99, 90) if f"p{p}" in s)
        print(f"{name:36} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:4d}  {s['unit']}{high}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'error_rate':36} {rate:14.6g}   ({tally.failed} failed of {tally.attempted} attempted)  ratio")
    baseline = workloads.SEED0_BASELINE_COUNTS.get(args.workload, {}) if args.trace and args.seed == 0 else {}
    for name, want in baseline.items():
        print(f"seed-0 baseline {name}: {want} when written, {stats[name]['median']} now")
    for problem in tally.problems:
        print(f"PROBLEM {problem}")
    end = host_snapshot()
    host_info = {"start": host, "end": end, "python": platform.python_version(), "cpus": os.cpu_count()}
    if "steal_ticks" in host and "steal_ticks" in end:
        print(f"host: CPU steal {end['steal_ticks'] - host['steal_ticks']} ticks, "
              f"load average {end['loadavg'][0]:.2f} at end")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "elapsed_s": time.perf_counter() - began,
        "metrics": stats,
        "detail_metrics": detail_stats,
        "details": {k: v for k, v in details.items() if k not in detail_stats},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": rate,
        "problems": tally.problems,
        "host": host_info,
    }
    out = WORK / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed <= 2**64 - 1:
        parser.error("--seed must lie in [0, 2**64 - 1]")

    src = ROOT / "src"
    if not (src / "structlabor" / "cli.py").is_file():
        print(f"error: no structlabor sources at {src}; run from a source checkout", file=sys.stderr)
        return 2

    began = time.perf_counter()
    host = host_snapshot()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Byte-compile once so that no timed process pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, check=False)

    if args.trace:
        metrics, tally, details = run_traced(args, env, work, began)
        units = dict(tracer.PER_LAYER)
    else:
        metrics, tally, details = run_end_to_end(args, env, work, began)
        units = dict(END_TO_END)
    stats = report(args, metrics, units, tally, details, began, host)
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
