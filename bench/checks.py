"""Output checks for one `decouplab run`, and the reference comparison.

An experiment passes when the CLI exits 0, the manifest says `complete`,
every `results.csv` series has one finite, in-range value per requested
sample, and the deterministic certificates in `summary.json` hold. The 3-sigma
statistical flags are collected but never fail an experiment.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9
CERT_TOL = 1e-9

# series name -> allowed closed range; g and Lipschitz ratios are only >= 0
RANGES = {
    "decouple-expect:f": (0.0, 2.0),
    "decouple-tail:f": (0.0, 2.0),
    "fqsw:f": (0.0, 2.0),
    "thermalize:distance": (0.0, 2.0),
    "design-verify:lambda": (0.0, 2.0),
    "decouple-tail:g": (0.0, math.inf),
    "fqsw:g": (0.0, math.inf),
    "lipschitz:g": (0.0, math.inf),
    "lipschitz:ratio": (0.0, math.inf),
    "moments:g": (0.0, math.inf),
}

STAT_FLAGS = ("bound_holds", "closed_form_matches")


def expected_series(cfg: dict) -> dict[str, int]:
    n = cfg.get("samples", 200)
    kind = cfg["experiment"]
    return {
        "decouple-expect": {"decouple-expect:f": n},
        "decouple-tail": {"decouple-tail:f": n, "decouple-tail:g": n},
        "fqsw": {"fqsw:f": n, "fqsw:g": n},
        "thermalize": {"thermalize:distance": n},
        "design-verify": {"design-verify:lambda": 1},
        "lipschitz": {"lipschitz:ratio": n, "lipschitz:g": n},
        "moments": {"moments:g": n},
    }.get(kind, {})


def read_outputs(out_dir: Path) -> tuple[dict, dict, dict[str, list[float]]]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    series: dict[str, list[float]] = {}
    with (out_dir / "results.csv").open(newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["experiment", "seed", "sample_index", "value"]:
            raise ValueError("results.csv header changed")
        for name, _seed, _idx, value in rows:
            series.setdefault(name, []).append(float(value))
    return manifest, summary, series


def check(cfg: dict, manifest: dict, summary: dict,
          series: dict[str, list[float]]) -> list[str]:
    """Problems found in one experiment's artifacts; empty when it passes."""
    problems = []
    if manifest.get("status") != "complete":
        problems.append(f"manifest status {manifest.get('status')!r}")
    want = expected_series(cfg)
    if sorted(series) != sorted(want):
        problems.append(f"series {sorted(series)} != {sorted(want)}")
    for name, values in series.items():
        if name in want and len(values) != want[name]:
            problems.append(f"{name}: {len(values)} rows, expected {want[name]}")
        lo, hi = RANGES.get(name, (-math.inf, math.inf))
        bad = [v for v in values if not (math.isfinite(v) and lo <= v <= hi)]
        if bad:
            problems.append(f"{name}: {len(bad)} values not finite in [{lo}, {hi}]")
    kind = cfg["experiment"]
    if kind in ("decouple-tail", "fqsw") and cfg.get("epsilon", 0) == 0:
        f, g = series.get(f"{kind}:f", []), series.get(f"{kind}:g", [])
        if any(fv > gv + CERT_TOL for fv, gv in zip(f, g)):
            problems.append("f > g + 1e-9 at epsilon = 0")
    if kind == "lipschitz":
        for key in ("ratio_ok", "max_g_ok"):
            if summary.get(key) is not True:
                problems.append(f"{key} is not true")
    if kind == "entropy":
        for key in ("minimized_at_least_fixed", "hmax_sandwich_ok"):
            if summary.get(key) is not True:
                problems.append(f"{key} is not true")
    ens = cfg.get("ensemble") or {}
    if (kind == "design-verify" and ens.get("name") == "clifford"
            and ens.get("n_qubits") == 1 and cfg.get("t", 2) <= 3):
        lam = series.get("design-verify:lambda", [math.inf])[0]
        if not lam <= CERT_TOL:
            problems.append(f"exact Clifford-1 lambda {lam} > 1e-9")
    return problems


def stat_flags(summary: dict) -> dict[str, bool]:
    return {k: summary[k] for k in STAT_FLAGS if isinstance(summary.get(k), bool)}


def flatten(x, prefix: str = "") -> dict:
    """Numeric leaves of a JSON value by path. Booleans are left to `check`
    and `stat_flags`; strings (formulas, notes, labels) are not compared."""
    if isinstance(x, dict):
        out = {}
        for k in sorted(x):
            out.update(flatten(x[k], f"{prefix}{k}/"))
        return out
    if isinstance(x, list):
        out = {}
        for i, v in enumerate(x):
            out.update(flatten(v, f"{prefix}{i}/"))
        return out
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return {prefix.rstrip("/"): x}
    return {}


def digest(summary: dict, series: dict[str, list[float]]) -> dict:
    return {"series": series, "summary": flatten(summary)}


def _close(a, b) -> bool:
    return abs(a - b) <= REFERENCE_ATOL + REFERENCE_RTOL * max(abs(a), abs(b))


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches of `got` against a recorded digest. Keys the reference
    lacks are ignored, so outputs may grow; keys it has must match."""
    problems = []
    for name, values in ref["series"].items():
        other = got["series"].get(name)
        if other is None or len(other) != len(values):
            problems.append(f"reference series {name} missing or resized")
            continue
        bad = [i for i, (a, b) in enumerate(zip(values, other)) if not _close(a, b)]
        if bad:
            problems.append(f"reference series {name}: {len(bad)} values differ, "
                            f"first at {bad[0]}: {values[bad[0]]!r} vs {other[bad[0]]!r}")
    for key, value in ref["summary"].items():
        if key not in got["summary"]:
            problems.append(f"reference summary key {key} missing")
        elif not _close(value, got["summary"][key]):
            problems.append(f"reference summary {key}: {value!r} vs "
                            f"{got['summary'][key]!r}")
    return problems
