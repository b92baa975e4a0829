#!/usr/bin/env python3
"""Interleaved benchmark pairs: a base commit against the working tree.

    python3 benchmarks/paired.py --workload design --pairs 10 \\
        [--base HEAD] [--seed 4242] [--out-dir .]

Each pair runs ``perfbench/run.py`` once on a clean export of the base
commit's files (``git archive``, in a temporary directory) and once on the
working tree, with the same seed; the side that runs first alternates from
pair to pair, and pair k uses seed ``--seed`` + k. Every run lasts
BENCHMARK.json's ``run_seconds``. The export, not a ``git worktree``,
keeps the repository's metadata untouched when a run is interrupted.

The result goes to ``BENCH_<short base sha>.json`` in ``--out-dir``: every
run's end-to-end metrics, each metric's median and quartiles per side, the
pairs the working tree wins on each metric (ties count for neither side),
and the ``env`` line of every run, with the ``PYTHONDONTWRITEBYTECODE``
setting the runs inherit. A run that fails or reports incorrect outputs
is recorded with its exit status and stops the script.

The export never holds a bytecode cache, so the script refuses to start
while a ``__pycache__`` exists under the working tree's ``src/``: such a
cache would speed up only the working tree's imports.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its env line,
    exit status and final JSON report."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")),
               None)
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"returncode": proc.returncode, "env": env, "report": report,
            "stderr_tail": proc.stderr[-2000:]}


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def summarize(pairs, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    working tree wins (higher or lower is better, per BENCHMARK.json)."""
    out = {}
    for name, sense in better.items():
        base = [p["base"][name] for p in pairs]
        work = [p["work"][name] for p in pairs]
        sign = 1.0 if sense == "higher" else -1.0
        out[name] = {
            "base": quartiles(base), "work": quartiles(work),
            "work_wins": sum(sign * (w - b) > 0.0
                             for b, w in zip(base, work)),
            "base_wins": sum(sign * (b - w) > 0.0
                             for b, w in zip(base, work))}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    caches = sorted((ROOT / "src").rglob("__pycache__"))
    if caches:
        print(f"{caches[0]} exists: a bytecode cache speeds up only the "
              "working tree's runs; remove it first", file=sys.stderr)
        return 2

    base_sha = git("rev-parse", args.base)
    short = git("rev-parse", "--short", args.base)
    result = {"workload": args.workload, "seconds": spec["run_seconds"],
              "base": base_sha,
              "work": f"working tree on {git('rev-parse', 'HEAD')}",
              "dirty_files": git("status", "--porcelain").splitlines(),
              "PYTHONDONTWRITEBYTECODE":
                  os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "pairs": []}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"BENCH_{short}.json"
    scratch = Path(tempfile.mkdtemp(prefix="freqbin-paired-"))
    try:
        base_tree = scratch / "base"
        export(base_sha, base_tree)
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("base", "work") if k % 2 == 0 else ("work", "base")
            runs = {}
            for side in order:
                tree = base_tree if side == "base" else ROOT
                runs[side] = run_once(tree, args.workload, seed,
                                      spec["run_seconds"])
                rep = runs[side]["report"]
                if runs[side]["returncode"] != 0 or not rep.get("correct"):
                    result["failed_run"] = {"pair": k, "side": side,
                                            **runs[side]}
                    out_path.write_text(json.dumps(result, indent=1))
                    print(f"pair {k} {side}: run failed; see {out_path}",
                          file=sys.stderr)
                    return 1
            pair = {"seed": seed, "first": order[0]}
            for side in ("base", "work"):
                metrics = runs[side]["report"]["metrics"]
                pair[side] = {name: metrics[name]["value"]
                              for name in better}
                pair[f"{side}_env"] = runs[side]["env"]
            result["pairs"].append(pair)
            print(f"pair {k} seed {seed} first {order[0]}: "
                  + ", ".join(f"{n} {pair['base'][n]:.4g} -> "
                              f"{pair['work'][n]:.4g}"
                              for n in ("tasks_per_s", "peak_rss_mb")),
                  flush=True)
        result["summary"] = summarize(result["pairs"], better)
        out_path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out_path}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
