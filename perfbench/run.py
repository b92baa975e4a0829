#!/usr/bin/env python3
"""freqbin benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload {design,analysis,cli_chain} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src, and temporary files go to ./.perfbench_work, which is removed again.
The seed generates the inputs (workloads.py); the run sets up, runs tasks
one after another until S seconds have passed (finishing the current
block of tasks), then checks every task's output (tasks.py). The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. BENCHMARK.json lists the
workloads and metrics. Exit status 0 on a completed run, 2 when ./src
holds no freqbin package, 1 when set-up fails.
"""
from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("design", "analysis", "cli_chain")
# every task runs on one thread: BLAS may not start its own pool
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15

END_TO_END_UNITS = {"setup_s": "s", "task_p50_s": "s", "task_p90_s": "s",
                    "tasks_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}
# span name -> per-layer fields reported for it
SPAN_METRICS = (
    ("qpm.crossing_temperature", ("total_s", "self_s", "pair_solves")),
    ("qpm.tuning_curve", ("total_s", "pair_solves")),
    ("qpm.solve_signal_idler", ("calls", "self_s")),
    ("biphoton.joint_spectrum", ("total_s", "self_s", "points")),
    ("biphoton.segment_amplitude", ("calls", "self_s", "points")),
    ("biphoton.reduce_to_bins", ("self_s", "scan_bytes_computed")),
    ("hom.synthesize_scan", ("self_s",)),
    ("hom.fit_homi", ("calls", "self_s", "iterations", "points", "failed")),
    ("entanglement.simulate_counts", ("self_s",)),
    ("entanglement.mle_tomography", ("calls", "self_s", "iterations",
                                     "iterations_max", "failed")),
    ("dispersion.group_index", ("calls", "self_s")),
)
SETUP_LOADS = ("dispersion.load_sellmeier", "qpm.load_crystal",
               "entanglement.load_projectors")
NOTES = {"biphoton.reduce_to_bins.scan_bytes_computed":
         "computed from array shapes: 801 x N x 16 B (52.5 MB at N=4097)"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        top, _, head = git.stdout.partition("\n")
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    numba = importlib.util.find_spec("numba") is not None and subprocess.run(
        [sys.executable, "-c", "import numba"], capture_output=True,
        timeout=120).returncode == 0
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in SINGLE_THREAD},
            "numba_imports": numba, "git_commit": commit,
            "loadavg_start": os.getloadavg()}


def measure_setup(workload: str, trace: bool, env: dict):
    """Ready times of fresh interpreters, and the set-up probes' reports.

    design and analysis (and every traced run) time perfbench/setup_child.py
    up to its ready line; cli_chain times ``python -m freqbin.cli
    --version`` to its exit."""
    from workloads import SELLMEIER_SETS
    times, reports = [], []
    for _ in range(SETUP_REPEATS):
        if workload == "cli_chain" and not trace:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "freqbin.cli", "--version"], cwd=ROOT,
                env=env, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0 or "freqbin" not in proc.stdout:
                raise RuntimeError(f"freqbin.cli --version failed: "
                                   f"{proc.stderr[-500:]}")
            continue
        cmd = [sys.executable, str(ROOT / "perfbench" / "setup_child.py"),
               *(["--trace"] if trace else []), *SELLMEIER_SETS]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                _, err = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err[-500:]}")
        reports.append(json.loads(line))
    return times, reports


def set_tracing(workload, tracer, on: bool) -> None:
    import tasks
    if isinstance(workload, tasks.CliChain):
        workload.traced = on
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def timed_phase(workload, seconds: float, tracer):
    """Run blocks of tasks until ``seconds`` have passed. Each block's
    inputs are taken from the seeded stream before its tasks are timed
    (for design that includes two ``solve_period`` calls, under a
    millisecond a case, which stays inside the phase's wall time). With a tracer, each block runs
    twice, traced and untraced, in alternating order, so that both halves
    see the same inputs. Returns the records (case, output, task seconds,
    traced) and the phase's wall time."""
    records = []
    k = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        block = list(itertools.islice(workload.cases, workload.block))
        passes = [False] if tracer is None else [k % 2 == 0, k % 2 == 1]
        for traced in passes:
            if traced:
                set_tracing(workload, tracer, True)
            try:
                for case in block:
                    t0 = time.perf_counter()
                    out = workload.run(case)
                    records.append((case, out, time.perf_counter() - t0,
                                    traced))
            finally:
                if traced:
                    set_tracing(workload, tracer, False)
        k += 1
    return records, time.perf_counter() - t_start


def end_to_end(records, wall, setup_times, peak_rss_mb, failed) -> dict:
    import numpy as np
    durations = np.array([r[2] for r in records])
    p50, p90 = np.percentile(durations, [50.0, 90.0])
    n = len(records)
    return {
        "setup_s": (float(np.median(setup_times)),
                    f"median of {len(setup_times)} fresh interpreters"),
        "task_p50_s": (float(p50), f"n={n}"),
        "task_p90_s": (float(p90), f"n={n}, "
                       f"{int(np.sum(durations > p90))} samples above"),
        "tasks_per_s": (n / wall, f"{n} tasks in {wall:.2f} s"),
        "peak_rss_mb": (peak_rss_mb, "largest resident set"),
        "ok_frac": ((n - failed) / n,
                    f"fail_frac {failed / n:.6g} = {failed}/{n}"),
    }


def _per_task(row: dict, field: str, n: int) -> tuple:
    if field == "iterations_max":
        return row["max"].get("iterations", 0), "count"
    if field in ("calls", "failed", "total_s", "self_s"):
        value = row[field]
    elif field == "pair_solves":
        value = row["children"].get("qpm.solve_signal_idler", 0)
    else:
        value = row["sum"].get(field, 0.0)
    unit = ("s/task" if field.endswith("_s") else
            "B/task" if field.endswith("bytes_computed") else "1/task")
    return value / n, unit


def per_layer(records, summary, absent, reports, cli) -> dict:
    """Per-layer metrics of a traced run; see BENCHMARK.json."""
    from numpy import median
    traced = [r for r in records if r[3]]
    plain = [r for r in records if not r[3]]
    n = max(len(traced), 1)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0,
             "sum": {}, "max": {}, "children": {}}
    out = {}
    for name, fields in SPAN_METRICS:
        if name in absent:
            continue
        for field in fields:
            value, unit = _per_task(summary.get(name, empty), field, n)
            metric = f"{name}.{field}"
            out[metric] = (value, unit, NOTES.get(metric, ""))
    for name in SETUP_LOADS:
        if name not in absent:
            out[f"{name}.total_s"] = (float(median(
                [r["totals"].get(name, 0.0) for r in reports])), "s",
                f"median of {len(reports)} set-ups")
    out["freqbin.import_s"] = (float(median([r["import_s"]
                                             for r in reports])),
                               "s", f"median of {len(reports)} set-ups")
    out.update(cli)
    t_traced = sum(r[2] for r in traced) / max(len(traced), 1)
    t_plain = sum(r[2] for r in plain) / max(len(plain), 1)
    out["trace.overhead_frac"] = (
        t_traced / t_plain - 1.0 if plain and traced else 0.0, "frac",
        f"{len(traced)} traced vs {len(plain)} untraced runs of one input set")
    selfs = sum(row["self_s"] for row in summary.values())
    out["trace.coverage_frac"] = (
        selfs / max(sum(r[2] for r in traced), 1e-300), "frac",
        "summed span self time over traced task time")
    return out


def cli_layers(workload, records) -> tuple:
    """Spans of the traced CLI children merged into one list (ids made
    unique), absent functions, and the cli.* metrics (zero without
    records). ``process_s`` comes from the untraced launches only."""
    import tasks
    from numpy import median
    from spans import Span, self_times
    spans, absent = [], set()
    imports, self_s, process_s = [], {}, {}
    written, read = 0, 0
    for case, out, seconds, traced in records:
        sub = tasks.CHAIN[case["step"]][0]
        w, r = workload.io_bytes(case)
        written, read = written + w, read + r
        if not traced:
            process_s.setdefault(sub, []).append(seconds)
            continue
        path = workload.spans_file(case)
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        off = len(spans)
        own = [Span(d["id"] + off, None if d["parent"] is None
                    else d["parent"] + off, d["name"], d["start"], d["end"],
                    d["counters"], d["error"]) for d in payload["spans"]]
        selfs = self_times(own)
        self_s.setdefault(sub, []).extend(
            selfs[s.id] for s in own if s.name == "cli.main")
        spans.extend(own)
        imports.append(payload["import_s"])
        absent.update(payload["absent"])
    n = max(len(records), 1)
    metrics = {"cli.import_s": (float(median(imports)) if imports else 0.0,
                                "s", f"median of {len(imports)} launches")}
    for sub in tasks.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.process_s"] = (
            float(median(process_s[sub])) if sub in process_s else 0.0, "s",
            f"median of {len(process_s.get(sub, []))} untraced launches")
        metrics[f"cli.{sub}.self_s"] = (
            float(median(self_s[sub])) if sub in self_s else 0.0, "s",
            "cli.main minus library spans")
    metrics["cli.bytes_written"] = (written / n, "B/task", "from file sizes")
    metrics["cli.bytes_read"] = (read / n, "B/task", "from file sizes")
    return spans, absent, metrics


def run(args) -> dict:
    env = child_env()
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    import freqbin
    if Path(freqbin.__file__).resolve().parent != SRC / "freqbin":
        raise RuntimeError(f"freqbin imported from {freqbin.__file__}, "
                           f"not from {SRC}")
    import tasks
    from spans import Tracer, summarize

    setup_times, reports = measure_setup(args.workload, bool(args.trace),
                                         env)
    if args.workload == "design":
        workload = tasks.Design(args.seed)
    elif args.workload == "analysis":
        workload = tasks.Analysis(args.seed)
    else:
        workload = tasks.CliChain(args.seed, ROOT, WORK, env)
    tracer = Tracer() if args.trace else None
    records, wall = timed_phase(workload, args.seconds, tracer)

    failures = []
    for case, out, _, _ in records:
        reason = workload.check(case, out)
        if reason is not None:
            failures.append(reason)
    attempted, failed = len(records), len(failures)
    for reason in failures[:10]:
        print(f"failed: {reason}")
    correct = failed == 0

    if not args.trace:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_chain" \
            else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        rows = {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in
                end_to_end(records, wall, setup_times, peak_mb,
                           failed).items()}
    else:
        absent = set(tracer.absent)
        if args.workload == "cli_chain":
            spans, child_absent, cli = cli_layers(workload, records)
            absent |= child_absent
        else:
            spans, cli = tracer.spans, cli_layers(workload, [])[2]
        for r in reports:
            absent.update(r["absent"])
        for name in sorted(absent):
            print(f"absent: {name} is not exported; its metrics are omitted")
        rows = per_layer(records, summarize(spans), absent, reports, cli)
        over = rows["trace.overhead_frac"][0]
        cover = rows["trace.coverage_frac"][0]
        print(f"span self times cover {cover:.4f} of traced task time; "
              f"tracing overhead {over:+.4f}; uncovered share within the "
              f"overhead's size: {abs(1.0 - cover) <= abs(over)}"
              + ("; the rest is interpreter start and import (cli.import_s)"
                 if args.workload == "cli_chain" else ""))

    for name, (value, unit, note) in rows.items():
        print(f"{name:48s} {value:14.6g} {unit:8s} {note}")
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in rows.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freqbin" / "__init__.py").is_file():
        print(f"error: no freqbin package under {SRC}; run from the root "
              "of a freqbin source checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)      # before numpy is first imported
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
