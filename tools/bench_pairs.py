#!/usr/bin/env python3
"""Alternated benchmark pairs: a base revision against this checkout.

    python3 tools/bench_pairs.py --base HEAD~1 --workloads certify-design \\
        --pairs 10 --seconds 20 --out BENCH.json

The base revision is exported with ``git archive`` into a scratch
directory (nothing is registered in the repository, so an interrupted run
leaves no worktree behind); the change is the checkout this script sits in,
uncommitted edits included. Each pair runs ``bench/run.py`` once on each
side for each workload, one after the other, base first in even pairs and
last in odd ones, so a drift of the host shifts both sides alike. The output JSON holds the
revisions, the versions the bench records, every run's end-to-end metrics
with its pair index and order, its per-kind medians and the CPU time of its
process tree, the median and quartiles of each metric per side, and the
per-pair relative deltas. Nothing is gated: the numbers are reported.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, directory: Path) -> Path:
    """The tree of `rev`, written out under `directory`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory / "base", filter="data")
    return directory / "base"


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_side(checkout: Path, workload: str, args) -> dict:
    """One `bench/run.py` run in `checkout`: its metrics, per-kind medians,
    versions, wall time and the CPU time of its process tree."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    cpu0, t0 = _children_cpu_s(), time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall, cpu = time.perf_counter() - t0, _children_cpu_s() - cpu0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {cmd} failed with code {res.returncode}:\n{res.stderr}")
    result = json.loads(lines[-1])
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{args.seed}-trace0"
                         / "record.json").read_text())
    return {
        "correct": result["correct"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "by_kind_median_s": {k: v["median_s"] for k, v in record["by_kind"].items()},
        "experiments": len(record["latencies_s"]),
        "versions": {k: record[k] for k in ("python", "numpy", "scipy", "blas", "nproc")},
        "wall_s": wall,
        "cpu_s": cpu,
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list[dict]) -> dict:
    """Per metric, and for the process tree's CPU time per timed experiment
    (set-up probes included): each side's median and quartiles and the
    per-pair relative deltas, change over base minus 1."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[i] for i in sorted(by_pair)]
    out = {name: _compare(pairs, lambda run, name=name: run["metrics"][name])
           for name in runs[0]["metrics"]}
    out["cpu_s_per_experiment"] = _compare(pairs, lambda run: run["cpu_s"] / run["experiments"])
    return out


def _compare(pairs: list[dict], value) -> dict:
    base = [value(p["base"]) for p in pairs]
    head = [value(p["change"]) for p in pairs]
    return {"base": _spread(base), "change": _spread(head),
            "pair_deltas": [h / b - 1.0 if b else None for b, h in zip(base, head)]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workloads", nargs="+", default=["certify-design", "mc-sampling"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir", type=Path, default=None,
                   help="scratch directory for the exported base (default: a temporary one)")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sides = {"base": _export(args.base, Path(tmp)), "change": ROOT}
        runs = []
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in args.workloads:
                for position, side in enumerate(order):
                    run = {"workload": workload, "pair": pair, "order": position, "side": side,
                           **run_side(sides[side], workload, args)}
                    runs.append(run)
                    print(f"{workload} pair {pair} {side:6s} " + " ".join(
                        f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "base": {"rev": args.base, "sha": _git("rev-parse", args.base)},
        "change": {"sha": _git("rev-parse", "HEAD"),
                   "uncommitted": bool(_git("status", "--porcelain", "--", "src", "bench"))},
        "versions": runs[0]["versions"],
        "runs": [{k: v for k, v in run.items() if k != "versions"} for run in runs],
        "summary": {w: summarise([r for r in runs if r["workload"] == w])
                    for w in args.workloads},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
