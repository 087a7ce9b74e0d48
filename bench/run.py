#!/usr/bin/env python3
"""decouplab benchmark: seeded experiment mixes run through the CLI.

    python3 bench/run.py --workload mc-sampling --seed 3 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # the benchmarked workloads in turn

Each experiment runs in this process through
``decouplab.cli.main(["run", <config>, "--output-dir", <dir>])``, one after
another: a closed loop with one client. A run

1. imports decouplab from ``src/`` of the checkout and writes the configs;
2. runs the configs recorded in ``reference.json`` for the workload (or
   for each of its parts) and compares their
   outputs with values recorded from the seed commit (untimed; also warms
   up lazy imports);
3. runs whole rotations of the workload until ``--seconds`` have passed and
   at least MIN_EXPERIMENTS experiments are done, checking every output.
   With ``--trace 0`` it also measures set-up (a fresh interpreter importing
   decouplab and generating the workload's configs) SETUP_PROBES times in
   child processes, spread evenly over the phase between rotations.

With ``--trace 1`` step 3 runs for half of ``--seconds`` untraced and then
for the other half with spans around every public function of each module
(``spans.py``), followed by a dimension ladder of ``prepare`` and per-draw
cost. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the run record and spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, whatever the caller's environment says: matrices here are
# at most 256x256, and on a small shared machine a second spinning BLAS thread
# makes timings depend on what else runs there. The count used is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import checks  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_EXPERIMENTS = 100  # so that at least ten lie beyond the p90
PHASE_LIMIT_S = 90.0  # a timed phase stops at the next cycle boundary after this
POOL_CYCLES = 40  # configs generated up front; a longer run reuses them
SETUP_PROBES = 9
LADDER_DIMS = (8, 16, 32)
LADDER_DRAWS = 20

NAMED = {
    "decoupling": ("prepare", "f_value", "g_value", "thermalization_check",
                   "dupuis_expectation_bound"),
    "ensembles": ("sample", "moment_operator", "haar_moment_projector",
                  "qtpe_lambda"),
    "entropy": ("h2_with_witness", "h2_prime", "hmax_prime",
                "conj_by_inverse_quarter"),
    "quantum": ("choi_state", "povm_completion", "apply_matrix", "validate"),
    "linalg": ("spectral", "schatten_norm", "partial_trace", "permute_systems",
               "random_unitary"),
    "stats": ("moment_transfer_check",),
    "typicality": ("typical_report",),
    "cli": ("run_experiment",),
}
DRAW_SPANS = ("ensembles.sample", "decoupling.f_value", "decoupling.g_value")
MOMENT_SPANS = ("ensembles.moment_operator", "ensembles.haar_moment_projector")
LADDER_LEFT_OUT = {
    "a64": "prepare takes about 29 s (153 s with eps=0.05, delta=0.1) at the "
           "seed commit; add once prepare() avoids its dense detours",
    "a128": "prepare is OOM-killed on a 7 GB machine at the seed commit",
}


def _import_decouplab():
    """Import decouplab from this checkout's src/, or exit with an error."""
    if not (SRC / "decouplab" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC}/decouplab not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import decouplab
    import decouplab.cli

    if Path(decouplab.__file__).resolve().parent != SRC / "decouplab":
        sys.exit(f"bench: imported decouplab from {decouplab.__file__}, "
                 f"not from {SRC}")
    return decouplab.cli


def _generate(workload: str, seed: int, directory: Path):
    return workloads.write(workloads.configs(workload, seed, POOL_CYCLES), directory)


def setup_probe(args, i: int) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    decouplab and generated the workload."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-dir", str(args.workdir / f"probe{i}")]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe failed with code {proc.returncode}")
    return t1 - t0


def run_one(cli, cfg: dict, path: Path, out_dir: Path):
    """Run one config; return (latency_s, problems, stat flags, outputs)."""
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(["run", str(path), "--output-dir", str(out_dir)])
    except Exception as exc:  # a traceback is a failed experiment, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if code != 0:
        return latency, [error or f"exit code {code}"], {}, None
    try:
        manifest, summary, series = checks.read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        return latency, [f"unreadable artifacts: {exc}"], {}, None
    problems = checks.check(cfg, manifest, summary, series)
    return latency, problems, checks.stat_flags(summary), (summary, series)


def reference_phase(cli, workload: str, workdir: Path) -> list[dict]:
    ref = json.loads((BENCH / "reference.json").read_text())
    rows = []
    items = [item for part in workloads.parts(workload)
             for item in ref[part]["experiments"]]
    for i, item in enumerate(items):
        path = workdir / "configs" / f"ref{i:03d}.json"
        path.write_text(json.dumps(item["config"], sort_keys=True))
        out = workdir / f"ref{i:03d}"
        _, problems, _, outputs = run_one(cli, item["config"], path, out)
        if outputs is not None:
            problems += checks.compare(item["digest"], checks.digest(*outputs))
        shutil.rmtree(out, ignore_errors=True)
        rows.append({"kind": item["kind"], "problems": problems})
    return rows


def timed_phase(cli, items, cycle_len: int, seconds: float, min_experiments: int,
                workdir: Path, tracer=None, probe=None) -> tuple[list[dict], list[float]]:
    """Whole rotations until `seconds` and `min_experiments` are both reached.

    `probe(k)`, if given, runs SETUP_PROBES times at rotation boundaries, the
    k-th once k/SETUP_PROBES of `seconds` have passed, so that set-up is
    sampled across the phase rather than in one burst.
    """
    rows, setup = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if i % cycle_len == 0:
            while (probe is not None and len(setup) < SETUP_PROBES and
                   time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES):
                setup.append(probe(len(setup)))
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_experiments) or elapsed >= PHASE_LIMIT_S:
                break
        kind, cfg, path = items[i % len(items)]
        out = workdir / f"run{i:05d}"
        if tracer is not None:
            tracer.experiment = i
        latency, problems, flags, _ = run_one(cli, cfg, path, out)
        shutil.rmtree(out, ignore_errors=True)
        rows.append({"kind": kind, "latency_s": latency, "problems": problems,
                     "flags": flags})
        i += 1
    return rows, setup


def end_to_end(rows: list[dict], ref_rows: list[dict], setup: list[float]) -> dict:
    lat = [r["latency_s"] for r in rows]
    passed = sum(not r["problems"] for r in rows)
    attempted = len(rows) + len(ref_rows)
    failed = sum(bool(r["problems"]) for r in rows + ref_rows)
    metrics = {
        "experiments_per_s": {"value": passed / sum(lat), "unit": "1/s", "n": len(rows)},
        "experiment_p50_s": {"value": statistics.median(lat), "unit": "s", "n": len(lat)},
        "experiment_p90_s": {"value": statistics.quantiles(lat, n=10)[8],
                             "unit": "s", "n": len(lat)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1},
        "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac",
                      "n": attempted},
    }
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                              "n": len(setup)}
    return metrics


def per_layer(tracer, n_exp: int, overhead: float, ladder: dict,
              groups: dict) -> tuple[dict, dict]:
    """Per-module metrics (per experiment) and the share table.

    `groups` maps each part of the workload to its experiment ids (None for
    all of them); the group shares are given per part."""
    agg = tracer.aggregate()
    labels = agg["labels"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes_in": 0}
    m = {}
    for mod in NAMED:
        rows = [r for lab, r in labels.items() if lab.split(".")[0] == mod]
        m[f"{mod}.calls"] = (sum(r["calls"] for r in rows) / n_exp, "calls/exp")
        m[f"{mod}.self_s"] = (sum(r["self_s"] for r in rows) / n_exp, "s/exp")
    for mod, names in NAMED.items():
        for name in names:
            r = labels.get(f"{mod}.{name}", zero)
            m[f"{mod}.{name}.calls"] = (r["calls"] / n_exp, "calls/exp")
            m[f"{mod}.{name}.s"] = (r["s"] / n_exp, "s/exp")
    draws = labels.get("ensembles.sample", zero)["calls"]
    prepares = labels.get("decoupling.prepare", zero)["calls"]
    in_prep = agg["in_prepare_calls"]
    m["decoupling.draw_s"] = (tracer.covered_s(DRAW_SPANS) / draws if draws else 0.0,
                              "s/draw")
    m["quantum.choi_state.per_experiment"] = (
        labels.get("quantum.choi_state", zero)["calls"] / n_exp, "calls/exp")
    for lab in ("linalg.spectral", "quantum.validate"):
        m[f"{lab}.per_prepare"] = (in_prep.get(lab, 0) / prepares if prepares else 0.0,
                                   "calls/prepare")
    m["linalg.bytes_in"] = (sum(r["bytes_in"] for lab, r in labels.items()
                                if lab.startswith("linalg.")) / n_exp, "B/exp")
    m["trace.overhead"] = (overhead, "ratio")
    for name, value in ladder.items():
        m[name] = (value, "s")

    total = agg["root_s"]
    shares = {f"{mod}.self": m[f"{mod}.self_s"][0] * n_exp / total for mod in NAMED}
    entropy = [lab for lab in labels if lab.startswith("entropy.")]
    for part, exps in groups.items():
        prefix = f"{part}: " if len(groups) > 1 else ""
        part_s = tracer.covered_s(labels, exps)
        for name, members in (("draws(sample+f+g)", DRAW_SPANS),
                              ("prepare", ("decoupling.prepare",)),
                              ("prepare+entropy", ["decoupling.prepare", *entropy]),
                              ("moment functions", MOMENT_SPANS)):
            shares[prefix + name] = tracer.covered_s(members, exps) / part_s
    return m, shares


def run_ladder(seed: int) -> dict:
    """prepare() time at eps=0 and smoothed, and per-draw time, by |A|."""
    import numpy as np
    from decouplab import decoupling, ensembles, linalg, quantum
    from decouplab.entropy import SmoothingConfig

    def instance(a, eps, delta, s):
        rng = np.random.default_rng((seed, a, s))
        rho = quantum.random_state(linalg.shape(("A", a), ("R", 4)), rng)
        return decoupling.DecouplingInstance(
            rho=rho, channel=quantum.trace_out_channel(4, a // 4),
            cfg=SmoothingConfig(epsilon=eps, delta=delta), a_labels=("A",))

    out = {}
    for a in LADDER_DIMS:
        reps = 3 if a < 32 else 1
        for tag, eps, delta in (("eps0", 0.0, 0.0), ("smooth", 0.05, 0.1)):
            times = []
            for s in range(reps):
                inst = instance(a, eps, delta, s)
                t0 = time.perf_counter()
                decoupling.prepare(inst)
                times.append(time.perf_counter() - t0)
            out[f"ladder.prepare_s.a{a}.{tag}"] = statistics.median(times)
        inst = instance(a, 0.0, 0.0, 0)
        w = decoupling.prepare(inst)
        ens = ensembles.haar_ensemble(a, seed=seed)
        choi_b = w.choi.marginal(["B"]).matrix
        t0 = time.perf_counter()
        for i in range(LADDER_DRAWS):
            u = ens.sample(i)
            decoupling.f_value(inst, u, choi_b=choi_b)
            decoupling.g_value(inst, u, w)
        out[f"ladder.draw_s.a{a}"] = (time.perf_counter() - t0) / LADDER_DRAWS
    return out


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(args, seconds_used: dict) -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "phases_s": seconds_used,
        "loop": "closed, one client, one process",
        "queueing": "none: experiments run back to back, so there is no "
                    "waiting time to report",
    }


def bench(args) -> int:
    cli = _import_decouplab()
    args.workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    phases = {}
    items = _generate(args.workload, args.seed, args.workdir / "configs")
    cycle_len = len(workloads.cycle(args.workload))

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        ref_rows = reference_phase(cli, args.workload, args.workdir)
        phases["reference"] = time.perf_counter() - t0
        # A traced run splits its time between an untraced and a traced phase;
        # it reports per-experiment figures, so it needs no percentile minimum.
        phase_s = args.seconds / 2 if args.trace else args.seconds
        min_exp = cycle_len if args.trace else MIN_EXPERIMENTS
        t0 = time.perf_counter()
        probe = None if args.trace else lambda k: setup_probe(args, k)
        rows, setup = timed_phase(cli, items, cycle_len, phase_s, min_exp,
                                  args.workdir, probe=probe)
        phases["timed"] = time.perf_counter() - t0
        traced_rows, layer, shares = [], {}, {}
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_rows, _ = timed_phase(cli, items, cycle_len, phase_s,
                                             min_exp, args.workdir, tracer)
                phases["traced"] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            t0 = time.perf_counter()
            ladder = run_ladder(args.seed)
            phases["ladder"] = time.perf_counter() - t0
            groups = _groups(args.workload, traced_rows)
            layer, shares = per_layer(tracer, len(traced_rows),
                                      _rate(traced_rows) / _rate(rows), ladder,
                                      groups)
            tracer.write(args.workdir / "spans.csv.gz")

    e2e = end_to_end(rows, ref_rows, setup)
    all_rows = ref_rows + rows + traced_rows
    failed = [r for r in all_rows if r["problems"]]
    record = run_record(args, phases)
    record["end_to_end"] = e2e
    record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    record["shares_of_traced_time"] = shares
    if args.trace:
        record["span_counts"] = {"total": len(tracer.start)}
        for part, exps in groups.items():
            record["span_counts"][f"{part}: decoupling+entropy"] = sum(
                1 for i, nid in enumerate(tracer.name)
                if (exps is None or tracer.exp[i] in exps)
                and tracer.labels[nid].startswith(("decoupling.", "entropy.")))
        record["ladder_left_out"] = LADDER_LEFT_OUT
    record["stat_flags_false"] = {
        flag: sum(r["flags"].get(flag) is False for r in rows + traced_rows)
        for flag in checks.STAT_FLAGS}
    record["by_kind"] = _by_kind(rows)
    record["setup_probes_s"] = setup
    record["latencies_s"] = [[r["kind"], r["latency_s"]] for r in rows]
    record["failures"] = [{"kind": r["kind"], "problems": r["problems"]} for r in failed]
    (args.workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(rows)} timed experiments, "
          f"{len(ref_rows)} reference experiments, {len(failed)} failed; "
          f"record in {args.workdir / 'record.json'}")
    for r in failed[:5]:
        print(f"  FAILED {r['kind']}: {'; '.join(r['problems'])}")
    for name, m in e2e.items():
        print(f"  {name:20s} {m['value']:.6g} {m['unit']} (n={m['n']})")
    for name, share in shares.items():
        print(f"  share {name:26s} {share:.3f}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in e2e.items()}
    print(json.dumps({"correct": not failed, "attempted": len(all_rows),
                      "failed": len(failed), "metrics": metrics}))
    shutil.rmtree(args.workdir / "configs", ignore_errors=True)
    return 0


def _groups(workload: str, rows: list[dict]) -> dict:
    """Experiment ids of each part of a composed workload; None means all."""
    parts = workloads.parts(workload)
    if len(parts) == 1:
        return {workload: None}
    return {part: {i for i, r in enumerate(rows)
                   if r["kind"] in {k for k, _, _ in workloads.WORKLOADS[part]}}
            for part in parts}


def _rate(rows: list[dict]) -> float:
    return len(rows) / sum(r["latency_s"] for r in rows)


def _by_kind(rows: list[dict]) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in rows:
        kinds.setdefault(r["kind"], []).append(r["latency_s"])
    return {k: {"n": len(v), "median_s": statistics.median(v), "min_s": min(v),
                "max_s": max(v)} for k, v in kinds.items()}


def run_all(args) -> int:
    """Each benchmarked workload in its own process, printing its metrics."""
    code = 0
    for name in workloads.BENCHMARKED:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            code = 1
            continue
        result = json.loads(lines[-1])
        code |= int(not result["correct"])
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _import_decouplab()
        _generate(args.workload, args.seed, args.probe_dir)
        print("ready", flush=True)
        shutil.rmtree(args.probe_dir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
