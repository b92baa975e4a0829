#!/usr/bin/env python3
"""In-process A/B by CPU time: a base commit against the working tree.

    python3 benchmarks/inprocess.py --workload design \\
        [--base HEAD] [--seed 4242] [--tasks 200] [--rounds 3] \\
        [--json PATH]

Both trees' ``src/freqbin`` are imported into one interpreter, the base
from a clean export of its commit (``git archive``, as ``paired.py``
does), each under its own package name. Each side builds the workload of
``perfbench/tasks.py`` on ``--seed`` and takes the same first ``--tasks``
cases of ``perfbench/workloads.py``. In every round the two sides run
those cases in alternating blocks of the workload's block size, the side
that runs first alternating from block to block, and each task is timed
with ``time.process_time``. Case inputs are built before the timing.

The report gives each side's per-task CPU time (median, quartiles and
mean over every timed run), the blocks the working tree ran in less CPU
time, the share of tasks whose outputs passed ``tasks.py``'s check, a
SHA-256 of each side's outputs (floats by their hex form, so equal hashes
mean bit-identical outputs), and for outputs that differ the largest
relative difference of each numeric field. Start-up and peak memory stay
subprocess metrics: see ``paired.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from paired import ROOT, export, git, quartiles

PERFBENCH = ROOT / "perfbench"
LAYERS = ("errors", "dispersion", "qpm", "biphoton", "hom", "entanglement")
WORKLOADS = {"design": "Design", "analysis": "Analysis"}


def load_package(src: Path, name: str):
    """The package in directory ``src``, imported as ``name`` with all of
    its layers; its relative imports resolve inside ``src``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for layer in LAYERS:
        importlib.import_module(f"{name}.{layer}")
    return package


@contextlib.contextmanager
def as_freqbin(name: str):
    """Make package ``name`` and its modules answer to ``freqbin`` while
    the block runs: ``tasks.py`` imports ``freqbin`` by that name."""
    saved = {k: sys.modules.pop(k) for k in list(sys.modules)
             if k == "freqbin" or k.startswith("freqbin.")}
    alias = {"freqbin" + k[len(name):]: m for k, m in list(sys.modules.items())
             if k == name or k.startswith(name + ".")}
    sys.modules.update(alias)
    try:
        yield
    finally:
        for k in alias:
            sys.modules.pop(k, None)
        sys.modules.update(saved)


def load_workload(package: str, workload: str, seed: int):
    """``tasks.py``'s workload object of ``package``, its tasks module
    loaded afresh so that its ``freqbin`` is that package."""
    with as_freqbin(package):
        spec = importlib.util.spec_from_file_location(
            f"tasks_{package}", PERFBENCH / "tasks.py")
        tasks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tasks)
        return getattr(tasks, WORKLOADS[workload])(seed)


def leaves(value, path=""):
    """(path, leaf) of every scalar in a task's output, in order."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from leaves(value[k], f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from leaves(v, f"{path}[{k}]")
    elif isinstance(value, np.ndarray):
        yield from leaves(value.tolist(), path)
    elif hasattr(value, "__dataclass_fields__"):
        yield from leaves({k: getattr(value, k)
                           for k in value.__dataclass_fields__}, path)
    else:
        yield path, value


def token(leaf) -> str:
    """A leaf's exact text: floats and complexes by their hex form."""
    if isinstance(leaf, complex):
        return f"{leaf.real.hex()}{leaf.imag.hex()}j"
    if isinstance(leaf, float):
        return float(leaf).hex()
    return repr(leaf)


def compare(base_out, work_out, worst: dict) -> bool:
    """Whether two outputs are bit-identical; records each differing
    numeric field's relative difference in ``worst``."""
    same = True
    for (path, b), (_, w) in zip(leaves(base_out), leaves(work_out)):
        if token(b) == token(w):
            continue
        same = False
        try:
            rel = abs(w - b) / max(abs(b), abs(w))
        except TypeError:
            rel = math.inf
        worst[path] = max(worst.get(path, 0.0), float(rel))
    return same


def timed_rounds(sides: dict, rounds: int) -> tuple:
    """Run every side's cases ``rounds`` times in alternating blocks,
    appending each task's CPU time to its side's ``times`` and the first
    round's outputs to its ``outputs``; the blocks run and the blocks in
    which the working tree spent less CPU time."""
    block = sides["work"]["workload"].block
    n = len(sides["work"]["cases"])
    blocks = wins = 0
    for r in range(rounds):
        for start in range(0, n, block):
            order = ("base", "work") if blocks % 2 == 0 else ("work", "base")
            spent = {}
            for side in order:
                s = sides[side]
                spent[side] = 0.0
                with as_freqbin(s["name"]):
                    for case in s["cases"][start:start + block]:
                        t0 = time.process_time()
                        out = s["workload"].run(case)
                        dt = time.process_time() - t0
                        s["times"].append(dt)
                        spent[side] += dt
                        if r == 0:
                            s["outputs"].append(out)
            wins += spent["work"] < spent["base"]
            blocks += 1
    return blocks, wins


def side_report(s: dict) -> dict:
    """One side's CPU-time statistics, check pass share and output hash."""
    times = np.array(s["times"])
    digest = hashlib.sha256()
    for out in s["outputs"]:
        for path, leaf in leaves(out):
            digest.update(f"{path}={token(leaf)};".encode())
    with as_freqbin(s["name"]):
        failed = sum(s["workload"].check(case, out) is not None
                     for case, out in zip(s["cases"], s["outputs"]))
    return {"task_cpu_s": quartiles(times),
            "task_cpu_mean_s": float(times.mean()),
            "ok_frac": 1.0 - failed / len(s["cases"]),
            "output_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--tasks", type=int, default=200)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--json", type=Path, help="also write the report here")
    args = ap.parse_args(argv)
    if args.tasks < 1 or args.rounds < 1:
        ap.error("--tasks and --rounds must be at least 1")

    sys.path.insert(0, str(PERFBENCH))
    scratch = Path(tempfile.mkdtemp(prefix="freqbin-inprocess-"))
    try:
        export(git("rev-parse", args.base), scratch / "base")
        sides = {}
        for side, tree in (("base", scratch / "base"), ("work", ROOT)):
            name = f"freqbin_{side}"
            load_package(tree / "src" / "freqbin", name)
            workload = load_workload(name, args.workload, args.seed)
            sides[side] = {"name": name, "workload": workload,
                           "cases": [next(workload.cases)
                                     for _ in range(args.tasks)],
                           "times": [], "outputs": []}
        blocks, wins = timed_rounds(sides, args.rounds)
        report = {"workload": args.workload, "seed": args.seed,
                  "tasks": args.tasks, "rounds": args.rounds,
                  "base": git("rev-parse", args.base),
                  "work": f"working tree on {git('rev-parse', 'HEAD')}",
                  "blocks": blocks, "work_faster_blocks": wins,
                  **{side: side_report(s) for side, s in sides.items()}}
        worst = {}
        report["identical_outputs"] = sum(
            compare(b, w, worst) for b, w in zip(sides["base"]["outputs"],
                                                 sides["work"]["outputs"]))
        report["max_rel_diff"] = worst
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for side in ("base", "work"):
        q = report[side]["task_cpu_s"]
        print(f"{side}: task CPU median {q['median'] * 1e3:.3f} ms "
              f"(IQR {q['iqr'] * 1e3:.3f}), mean "
              f"{report[side]['task_cpu_mean_s'] * 1e3:.3f} ms, ok_frac "
              f"{report[side]['ok_frac']:.4g}, outputs "
              f"{report[side]['output_sha256'][:16]}")
    base, work = (report[s]["task_cpu_s"]["median"] for s in ("base", "work"))
    print(f"median change {100.0 * (work / base - 1.0):+.1f}%; work faster "
          f"in {wins} of {blocks} blocks; {report['identical_outputs']} of "
          f"{args.tasks} outputs bit-identical")
    for path, rel in sorted(worst.items()):
        print(f"  {path}: largest relative difference {rel:.3g}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
