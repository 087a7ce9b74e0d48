"""The benchmark's workloads: rotations of `decouplab run` configs.

A workload is a cycle of experiment kinds, each repeated `weight` times in
the cycle. Every experiment in a run gets its own config seed drawn from the
workload seed, so one run averages over many random instances and the same
workload seed always yields the same configs. The program only ever sees the
generated JSON files.

Weights place the p50 and the p90 of each mix inside one kind's latency
band rather than on the boundary between two kinds (see README.md).

`certify-design` is the `certify` rotation followed by the `design` one.
It and `mc-sampling` are the workloads in BENCHMARK.json: two workloads
leave room for long runs, which a shared machine's drift needs. `certify`
and `design` still run on their own, for a per-part breakdown.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_MC = {"dims": {"a": 8, "r": 4, "b": 2}, "samples": 100}
_CERT = {"epsilon": 0.05, "delta": 0.1}
_CLIFFORD_1 = {"kind": "enumerated", "name": "clifford", "n_qubits": 1}

# name -> [(kind label, config template, weight)]
WORKLOADS: dict[str, list[tuple[str, dict, int]]] = {
    "mc-sampling": [
        ("decouple-expect", {"experiment": "decouple-expect", **_MC}, 1),
        ("decouple-tail", {"experiment": "decouple-tail", **_MC}, 2),
        ("lipschitz", {"experiment": "lipschitz", **_MC}, 2),
        ("moments", {"experiment": "moments", **_MC}, 1),
        ("fqsw", {"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 4},
                  "samples": 100}, 2),
        ("thermalize", {"experiment": "thermalize",
                        "dims": {"s": 2, "e": 4, "r": 4}, "samples": 100}, 1),
    ],
    "certify": [
        ("decouple-tail-a16", {"experiment": "decouple-tail",
                               "dims": {"a": 16, "r": 4, "b": 4}, "samples": 4,
                               **_CERT}, 3),
        ("entropy-2x2", {"experiment": "entropy", "dims": {"a": 2, "b": 2},
                         **_CERT}, 1),
        ("entropy-4x2", {"experiment": "entropy", "dims": {"a": 4, "b": 2},
                         **_CERT}, 1),
        ("typicality", {"experiment": "typicality", "dims": {"x": 3},
                        "n": 120}, 1),
    ],
    "design": [
        ("haar-d4-t2", {"experiment": "design-verify", "t": 2, "samples": 200,
                        "ensemble": {"kind": "haar", "dim": 4}}, 1),
        ("circuit-2q-t2", {"experiment": "design-verify", "t": 2,
                           "samples": 200,
                           "ensemble": {"kind": "circuit", "n_qubits": 2,
                                        "depth": 3}}, 2),
        ("haar-d2-t3", {"experiment": "design-verify", "t": 3, "samples": 200,
                        "ensemble": {"kind": "haar", "dim": 2}}, 2),
        ("clifford1-t3", {"experiment": "design-verify", "t": 3,
                          "ensemble": _CLIFFORD_1}, 1),
        ("pauli2-t2", {"experiment": "design-verify", "t": 2,
                       "ensemble": {"kind": "enumerated", "name": "pauli",
                                    "n_qubits": 2}}, 1),
        ("clifford1sq-t2", {"experiment": "design-verify", "t": 2,
                            "ensemble": {"kind": "iterated", "base": _CLIFFORD_1,
                                         "iterations": 2}}, 1),
    ],
}
PARTS = {"certify-design": ("certify", "design")}
for _name, _parts in PARTS.items():
    WORKLOADS[_name] = [k for part in _parts for k in WORKLOADS[part]]
BENCHMARKED = ("mc-sampling", "certify-design")


def parts(workload: str) -> tuple[str, ...]:
    """The workloads whose rotations make up `workload`."""
    return PARTS.get(workload, (workload,))


def cycle(workload: str) -> list[tuple[str, dict]]:
    return [(kind, tmpl) for kind, tmpl, weight in WORKLOADS[workload]
            for _ in range(weight)]


def configs(workload: str, seed: int, cycles: int) -> list[tuple[str, dict]]:
    """`cycles` rotations of the workload with per-experiment seeds."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(cycles):
        for kind, tmpl in cycle(workload):
            cfg = json.loads(json.dumps(tmpl))
            cfg["seed"] = rng.randrange(1, 2**31)
            if cfg.get("ensemble", {}).get("kind") in ("haar", "circuit"):
                cfg["ensemble"]["seed"] = rng.randrange(2**31)
            out.append((kind, cfg))
    return out


def write(items: list[tuple[str, dict]], directory: Path) -> list[tuple[str, dict, Path]]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (kind, cfg) in enumerate(items):
        path = directory / f"{i:05d}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        out.append((kind, cfg, path))
    return out
