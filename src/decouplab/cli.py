"""Command-line front end: seeded experiments with reproducible artifacts.

Every run writes three files into the output directory: manifest.json
(config echo plus status, written before compute and finalised after),
results.csv (one row per sampled value, stable formatting), and
summary.json (derived quantities, sorted keys). Identical config and seed
give byte-identical results.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, decoupling, ensembles, entropy, linalg, quantum, stats, typicality
from .entropy import SmoothingConfig
from .errors import ConfigError, DecouplabError


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dims: dict = field(default_factory=dict)
    ensemble: dict | None = None
    samples: int = 200
    seed: int = 0
    epsilon: float = 0.0
    delta: float = 0.0
    kappa: float = 0.5
    output_dir: str = ""
    t: int = 2
    n: int = 8
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.experiment not in DRIVERS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; pick one of "
                f"{', '.join(DRIVERS)}", field="experiment",
            )
        # bool is an int subclass, so JSON true would otherwise pass as 1
        for name in ("samples", "seed", "t", "n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{name} must be an integer, got {v!r}", field=name)
        for name in ("epsilon", "delta", "kappa"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{name} must be a number, got {v!r}", field=name)
        if self.samples < 1:
            raise ConfigError("samples must be a positive integer", field="samples")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative", field="seed")
        if not 0 <= self.epsilon < 1:
            raise ConfigError("epsilon must sit in [0, 1)", field="epsilon")
        if not 0 <= self.delta:
            raise ConfigError("delta must be nonnegative", field="delta")
        if not self.kappa > 0:
            raise ConfigError("kappa must be positive", field="kappa")
        if self.t < 1:
            raise ConfigError("moment order t must be at least 1", field="t")
        if self.n < 1:
            raise ConfigError("copy count n must be at least 1", field="n")
        if not isinstance(self.dims, dict):
            raise ConfigError("dims must be an object", field="dims")
        for k, v in self.dims.items():
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"dims[{k!r}] must be a positive integer",
                                  field="dims")
        if self.probs is not None:
            object.__setattr__(self, "probs", _distribution(self.probs))

    @property
    def out_path(self) -> Path:
        return Path(self.output_dir or f"runs/{self.experiment}")


ALLOWED_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _distribution(probs) -> tuple[float, ...]:
    """`probs` as floats; a ConfigError unless it is a list of nonnegative
    numbers summing to 1 within 1e-9, the tolerance of `TypicalSpec`."""
    if isinstance(probs, (list, tuple)) and all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs):
        try:
            p = np.asarray(probs, dtype=float)
        except OverflowError:  # an integer too large for a float
            pass
        else:
            if (p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9:
                return tuple(float(x) for x in p)
    raise ConfigError(f"probs must be a list of nonnegative numbers summing to 1, "
                      f"got {probs!r}", field="probs")


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}", field="",
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object", field="")
    unknown = sorted(set(raw) - ALLOWED_KEYS)
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {', '.join(unknown)}; allowed keys are "
            f"{', '.join(sorted(ALLOWED_KEYS))}", field=unknown[0],
        )
    if "experiment" not in raw:
        raise ConfigError(f"{path}: missing required key 'experiment'",
                          field="experiment")
    return ExperimentConfig(**raw)


def _checked_ensemble(cfg: ExperimentConfig) -> ensembles.UnitaryEnsemble | None:
    """Every check a run makes before it computes; returns the ensemble its
    driver draws from, built: the descriptor's, else Haar on the drawn
    dimension, and None for an experiment that draws nothing."""
    _, needs, optional, drawn, at_least_two = DRIVERS[cfg.experiment]
    for key in needs:
        if key not in cfg.dims:
            raise ConfigError(f"experiment {cfg.experiment!r} needs dims[{key!r}]",
                              field="dims")
    unread = sorted(set(cfg.dims) - set(needs) - set(optional))
    if unread:
        raise ConfigError(f"experiment {cfg.experiment!r} does not read "
                          f"{', '.join(f'dims[{k!r}]' for k in unread)}", field="dims")
    for group in at_least_two:
        if math.prod(cfg.dims[k] for k in group) < 2:
            raise ConfigError(f"experiment {cfg.experiment!r} needs "
                              f"{' * '.join(f'dims[{k!r}]' for k in group)} >= 2",
                              field="dims")
    # a config's epsilon sits below 1, so only thermalize's default gets here
    if _smoothing(cfg).epsilon >= 1:
        raise ConfigError(f"thermalize without epsilon or delta smooths at epsilon "
                          f"= kappa^2 / 60, which kappa = {cfg.kappa} takes to 1 "
                          f"or more", field="kappa")
    # the random instance, drawn on A, traces A down to dims["b"]
    if drawn == ("a",) and cfg.dims["a"] % cfg.dims.get("b", 1):
        raise ConfigError("dims['b'] must divide dims['a']", field="dims")
    if drawn is None:
        if cfg.ensemble is not None:
            raise ConfigError(f"{cfg.experiment} draws no unitaries, so it takes no "
                              f"ensemble descriptor", field="ensemble")
        return None
    if cfg.ensemble is None and not drawn:
        raise ConfigError(f"{cfg.experiment} needs an ensemble descriptor",
                          field="ensemble")
    dim = math.prod(cfg.dims[k] for k in drawn)
    if cfg.ensemble is None:
        return ensembles.haar_ensemble(dim, seed=cfg.seed)
    ens = ensembles.ensemble_from_json(cfg.ensemble)
    if drawn and ens.dim != dim:
        raise ConfigError(f"ensemble dimension {ens.dim} does not match the "
                          f"instance dimension {dim}", field="ensemble")
    return ens


def _smoothing(cfg: ExperimentConfig) -> SmoothingConfig:
    """The config's smoothing radii, or thermalize's default when it sets neither."""
    if cfg.experiment == "thermalize" and cfg.epsilon == cfg.delta == 0:
        return decoupling.thermal_smoothing(cfg.kappa)
    return SmoothingConfig(epsilon=cfg.epsilon, delta=cfg.delta)


def _hmin_readings(marg, eps: float) -> dict:
    """`entropy.hmin_smooth` on both readings of its source definition: the
    -log2 of the clip level it returns, and the clip level itself."""
    hmin_log = entropy.hmin_smooth(marg, eps)
    return {"hmin_minus_log_reading": hmin_log, "hmin_printed_reading": 2.0 ** (-hmin_log)}


def _random_instance(cfg: ExperimentConfig):
    """Seeded random state on (A, R); the channel traces A down to dims["b"], else is I."""
    a, r = cfg.dims["a"], cfg.dims["r"]
    rng = np.random.default_rng(cfg.seed)
    rho = quantum.random_state(linalg.shape(("A", a), ("R", r)), rng)
    if "b" in cfg.dims:
        channel = quantum.trace_out_channel(cfg.dims["b"], a // cfg.dims["b"])
    else:
        channel = quantum.identity_channel(a)
    return decoupling.DecouplingInstance(
        rho=rho, channel=channel, cfg=_smoothing(cfg), a_labels=("A",)
    )


# ---------------------------------------------------------------------------
# experiment drivers: each takes the config and its checked ensemble (None
# when it draws nothing) and returns (summary dict, {series name: float
# array}). Sampling experiments run the same stages in order: instance,
# `prepare` where needed, one `sample_batch`, f and/or g over the stack,
# `stats`, then the bounds.


def run_decouple_expect(cfg: ExperimentConfig, ens):
    inst = _random_instance(cfg)
    us = ens.sample_batch(range(cfg.samples))
    f = decoupling.f_values(inst, us)
    mean_f, se = stats.mean_and_se(f)
    bound = decoupling.dupuis_expectation_bound(inst)
    summary = {
        "mean_f": mean_f,
        "std_error": se,
        "expectation_bound": bound,
        "bound_holds": bool(mean_f <= bound + 3.0 * se),
        "anchors": {
            "expectation_bound": "2^(-h2(A|R)/2 - h2(Ap|B)/2)",
        },
    }
    return summary, {"decouple-expect:f": f}


def run_decouple_tail(cfg: ExperimentConfig, ens):
    inst = _random_instance(cfg)
    w = decoupling.prepare(inst)
    us = ens.sample_batch(range(cfg.samples))
    f = decoupling.f_values(inst, us)
    g = decoupling.g_values(inst, us, w)
    mu = decoupling.haar_expected_g_squared(inst, w).mu_upper
    tail = decoupling.applicable_tail(inst, w, cfg.kappa, mu)
    hmin = _hmin_readings(inst.rho.marginal(["A"]), cfg.epsilon)
    summary = {
        "mean_f": float(f.mean()),
        "mean_g": float(g.mean()),
        "mu_closed_form": mu,
        "h2_eps": w.h2_eps,
        "h2_prime": w.h2_prime_val,
        "hmax_prime": w.hmax_prime_val,
        "tail": None if tail is None else tail.to_json(),
        "empirical_tail": None if tail is None
        else stats.empirical_tail(f, tail.threshold),
        **hmin,
        "hmin_note": (
            "printed definition reads as the clipped sup-norm itself; both "
            "readings are reported and the -log2 one feeds the alternate "
            "concentration denominator"
        ),
        "alt_concentration_denominator_minus_log":
            2.0 ** (hmin["hmin_minus_log_reading"] + 4.0),
        "alt_concentration_denominator_printed":
            2.0 ** (hmin["hmin_printed_reading"] + 4.0),
        "anchors": {
            "tail_a": "|A| 2^(-(1+delta) hmaxp + h2 - 9)",
            "threshold": "2^(-h2/2 - h2p/2 + 1) + 14 sqrt(eps) + 2 kappa",
            "bound": "5 * 2^(-a kappa^2)",
        },
    }
    return summary, {"decouple-tail:f": f, "decouple-tail:g": g}


def run_fqsw(cfg: ExperimentConfig, ens):
    a1, a2, r = cfg.dims["a1"], cfg.dims["a2"], cfg.dims["r"]
    inst, w, report = decoupling.fqsw_instance(a1, a2, r, cfg=_smoothing(cfg),
                                               seed=cfg.seed)
    us = ens.sample_batch(range(cfg.samples))
    f = decoupling.f_values(inst, us)
    g = decoupling.g_values(inst, us, w)
    mean_g2, se = stats.mean_and_se(g * g)
    mean_f, f_se = stats.mean_and_se(f)
    moments = decoupling.haar_expected_g_squared(inst, w)
    tail = decoupling.applicable_tail(inst, w, cfg.kappa, moments.mu_upper)
    window_t = tail.t if tail is not None else 1.0
    log2_window = decoupling.fqsw_log2_lambda_sandwich(a1, a2, w.h2_eps, window_t)
    exp_bound = decoupling.dupuis_expectation_bound(inst, w)
    summary = {
        "closed_form": report,
        "mean_g_squared": mean_g2,
        "g_squared_std_error": se,
        "closed_form_matches": bool(
            abs(mean_g2 - moments.expected_g_squared) <= 3.0 * se + 1e-12
        ),
        "expected_g_squared": moments.expected_g_squared,
        "alpha": moments.alpha,
        "beta": moments.beta,
        "eta": moments.eta,
        "mean_f": mean_f,
        "expectation_bound": exp_bound,
        "expectation_bound_holds": bool(mean_f <= exp_bound + 3.0 * f_se),
        "tail": None if tail is None else tail.to_json(),
        "lambda_window": [entropy._pow2(x) for x in log2_window],
        "log2_lambda_window": list(log2_window),
        "anchors": {
            "alpha": "(a1^2 a2^2 - a1^2) / (a1^2 a2^2 - 1)",
            "beta": "(a1/a2) (a1^2 a2^2 - a2^2) / (a1^2 a2^2 - 1)",
            "tail_a": "a2 2^(h2 - 9)",
            "lambda_window": "(0.008 a2^-9 a1^-13 2^-h2)^t .. (a2^-9 a1^-13 2^-h2)^t",
        },
    }
    return summary, {"fqsw:f": f, "fqsw:g": g}


def run_thermalize(cfg: ExperimentConfig, ens):
    s, e, r = cfg.dims["s"], cfg.dims["e"], cfg.dims["r"]
    rng = np.random.default_rng(cfg.seed)
    rho = quantum.random_state(linalg.shape(("Om", s * e), ("R", r)), rng)
    us = ens.sample_batch(range(cfg.samples))
    report = decoupling.thermalization_check(rho, s, e, cfg.kappa, us, cfg=_smoothing(cfg))
    distances = report.pop("distances")
    report["anchors"] = {
        "epsilon_default": "kappa^2 / 60",
        "tail_a": "(|Om|/|S|) 2^(h2 - 9)",
    }
    return report, {"thermalize:distance": distances}


def run_design_verify(cfg: ExperimentConfig, ens):
    report = ensembles.qtpe_lambda(ens, cfg.t, samples=cfg.samples)
    summary = {
        "design": report.to_json(),
        "anchors": {
            "lambda": "||moment operator - Haar projector||_inf at order t",
            "moment_deviation": "max over degrees k <= t of d^k entrywise gap",
        },
    }
    return summary, {"design-verify:lambda": np.array([report.lambda_value])}


def run_entropy(cfg: ExperimentConfig, ens):
    a, b = cfg.dims["a"], cfg.dims["b"]
    rng = np.random.default_rng(cfg.seed)
    rho = quantum.random_state(linalg.shape(("A", a), ("B", b)), rng)
    scfg = _smoothing(cfg)
    eps = cfg.epsilon
    b_marg = rho.marginal(["B"])
    h2_fixed = entropy.h2_conditional(rho, scfg, "fixed_marginal", given="B")
    h2_min = entropy.h2_conditional(rho, scfg, "minimized", given="B")
    hmax = entropy.hmax_smooth(b_marg, eps)
    hmaxp, _ = entropy.hmax_prime(b_marg, eps)
    h2p = entropy.h2_prime(linalg.spectral(rho.matrix), rho.shape, eps, cfg.delta).value
    rows = [
        ("shannon_joint", entropy.shannon(rho), "exact", "exact"),
        ("shannon_conditional", entropy.shannon(rho, given="B"), "exact", "exact"),
        ("h2_conditional", h2_fixed, "fixed_marginal", "lower"),
        ("h2_conditional_minimized", h2_min, "minimized", "lower"),
        ("hmax_b", hmax, "truncation", "upper"),
        ("hmax_prime_b", hmaxp, "truncation", "upper"),
        ("h2_prime_conditional", h2p, "canonical_point", "lower"),
    ]
    summary: dict = {
        "dims": {"a": a, "b": b},
        "epsilon": eps,
        "delta": cfg.delta,
        "values": [{"name": name, "value_bits": float(value), "mode": mode,
                    "certified_side": side} for name, value, mode, side in rows],
        "minimized_at_least_fixed": bool(h2_min >= h2_fixed - 1e-9),
        "hmax_sandwich_ok": bool(hmax <= hmaxp + 1e-9),
        "anchors": {
            "h2": "-2 log2 || (xi (x) I)^(-1/4) sigma (xi (x) I)^(-1/4) ||_2",
            "hmax": "2 log2 tr sqrt(sigma)",
            "hmax_prime": "-log2 (smallest kept eigenvalue)",
        },
    }
    if eps > 0:
        summary["hmax_prime_dimension_bound"] = math.log2(b / eps)
        summary["hmax_prime_dimension_ok"] = bool(
            hmaxp <= math.log2(b / eps) + 1e-9
        )
        summary["h2_upper_bound"] = entropy.h2_upper_bound_check(rho, scfg, h2_fixed,
                                                                 given="B")
        rough = 4.0 * math.sqrt(eps)
        if rough < 1.0:
            h2_rough = entropy.h2_conditional(
                rho, SmoothingConfig(epsilon=rough), "fixed_marginal", given="B"
            )
            summary["h2_prime_sandwich"] = {
                "h2_at_4_sqrt_eps": h2_rough,
                "h2_prime": h2p,
                "ok": bool(h2_rough >= h2p - 1e-9),
            }
        summary.update(_hmin_readings(b_marg, eps))
    return summary, {}


def run_typicality(cfg: ExperimentConfig, ens):
    if cfg.probs is not None:
        probs = tuple(cfg.probs)
    else:
        x = cfg.dims.get("x", 2)
        probs = tuple(1.0 / x for _ in range(x))
    eps = cfg.epsilon if cfg.epsilon > 0 else 0.5
    delta = cfg.delta if cfg.delta > 0 else 0.49
    spec = typicality.TypicalSpec(probs=probs, n=cfg.n, delta=delta)
    report = typicality.typical_report(spec, eps)
    hmaxp = typicality.hmax_prime_iid_check(np.array(probs), cfg.n, eps, delta)
    summary = {
        "probs": list(probs),
        "typical": report,
        "hmax_prime_iid": hmaxp,
        "anchors": {
            "n_threshold": "4 / (p_min delta^2) log2(|X|/eps)",
            "sandwich": "n(1-delta)H <= hmax_prime(n copies) <= n(1+delta)H",
        },
    }
    return summary, {}


def run_lipschitz(cfg: ExperimentConfig, ens):
    inst = _random_instance(cfg)
    w = decoupling.prepare(inst)
    # pair i is (draw 2i, draw 2i + 1)
    us = ens.sample_batch(range(2 * cfg.samples))
    both = decoupling.g_values(inst, us, w)
    g, gv = both[0::2], both[1::2]
    dist = np.linalg.norm(us[0::2] - us[1::2], axis=(1, 2))
    ratios = np.zeros(cfg.samples)
    np.divide(np.abs(g - gv), dist, out=ratios, where=dist > 1e-12)
    lip = decoupling.lipschitz_bound(inst, w)
    gmax = decoupling.max_g_bound(inst, w)
    summary = {
        "lipschitz_bound": lip,
        "max_ratio": float(ratios.max()),
        "ratio_ok": bool(ratios.max() <= lip + 1e-9),
        "max_g_bound": gmax,
        "max_g_observed": float(g.max()),
        "max_g_ok": bool(g.max() - gmax <= 1e-9),
        "anchors": {
            "lipschitz": "2 * 2^((1+delta)/2 hmaxp - h2/2)",
            "max_g": "sqrt(2|A|) 2^((1+delta)/2 hmaxp - h2/2)",
        },
    }
    return summary, {"lipschitz:ratio": ratios, "lipschitz:g": g}


def run_moments(cfg: ExperimentConfig, ens):
    inst = _random_instance(cfg)
    w = decoupling.prepare(inst)
    us = ens.sample_batch(range(cfg.samples))
    g = decoupling.g_values(inst, us, w)
    moments = decoupling.haar_expected_g_squared(inst, w)
    mu_emp = float(g.mean())
    da = inst.a_dim
    dlt = inst.cfg.delta
    base = 2.0 ** ((1.0 + dlt) * w.hmax_prime_val - w.h2_eps + 4.0) / da
    moment_rows = []
    for m in (1, 2, 3):
        emp = stats.centralized_moment(g, mu_emp, 2 * m)
        moment_rows.append({
            "m": m,
            "empirical": emp,
            "bound": 2.0 * (m * base) ** m,
            "ok": bool(emp <= 2.0 * (m * base) ** m + 1e-12),
        })
    lip = decoupling.lipschitz_bound(inst, w)
    levy_a = da / (4.0 * lip * lip)
    clause = decoupling.mu_squared_clause(
        levy_a, moments.expected_g_squared, da, w.hmax_prime_val, w.h2_eps,
        mu_emp,
    )
    transfer = {
        "large_mu": stats.moment_transfer_check(2.0, 1.0, 10.0, 1,
                                                samples=200_000, seed=cfg.seed),
        "small_mu": stats.moment_transfer_check(2.0, 1.0, 0.1, 4,
                                                samples=200_000, seed=cfg.seed),
    }
    markov = stats.tail_from_moment(g, mu_emp, 2, cfg.kappa)
    levy = stats.levy_consistency(g, da, lip,
                                  [0.25 * lip, 0.5 * lip, lip])
    summary = {
        "mean_g": mu_emp,
        "expected_g_squared": moments.expected_g_squared,
        "haar_moment_bounds": moment_rows,
        "mu_squared_clause": clause,
        "moment_transfer": transfer,
        "markov_tail": markov,
        "levy": levy,
        "lipschitz_bound": lip,
        "anchors": {
            "haar_moment_bound": "2 (m 2^((1+delta) hmaxp - h2 + 4) / |A|)^m",
            "levy_bound": "2 exp(-|A| kappa^2 / (4 L^2))",
        },
    }
    return summary, {"moments:g": g}


# experiment: (driver, the dims it needs, the other dims it may read, the
# dims whose product is the dimension it draws on, the groups of dims whose
# product must be at least 2). The drawn dims are () for any, which needs a
# descriptor, and None for no draws; the groups keep the Haar second moment
# on the drawn dimension and fqsw's two registers in their closed forms.
DRIVERS = {
    "decouple-expect": (run_decouple_expect, ("a", "r"), ("b",), ("a",), ()),
    "decouple-tail": (run_decouple_tail, ("a", "r"), ("b",), ("a",), (("a",),)),
    "fqsw": (run_fqsw, ("a1", "a2", "r"), (), ("a1", "a2"), (("a1",), ("a2",))),
    "thermalize": (run_thermalize, ("s", "e", "r"), (), ("s", "e"), (("s", "e"),)),
    "design-verify": (run_design_verify, (), (), (), ()),
    "entropy": (run_entropy, ("a", "b"), (), None, ()),
    "typicality": (run_typicality, (), ("x",), None, ()),
    "lipschitz": (run_lipschitz, ("a", "r"), ("b",), ("a",), ()),
    "moments": (run_moments, ("a", "r"), ("b",), ("a",), (("a",),)),
}


# ---------------------------------------------------------------------------
# artifact writing


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    # bool subclasses int, so it must be matched first
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Every config field but the output directory."""
    return _jsonable({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                      if f.name != "output_dir"})


def _write_manifest(out: Path, cfg: ExperimentConfig, status: str,
                    error: str | None = None):
    manifest = {"config": _config_echo(cfg), "status": status, "version": __version__,
                "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                # BLAS sums can move in their last bits with the thread count
                "threads": {k: os.environ.get(k) for k in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    if error is not None:
        manifest["error"] = error
    out.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _write_results(out: Path, cfg: ExperimentConfig, series: dict):
    # one write; the series names hold no comma, quote or line break, so this
    # is what csv.writer's minimal quoting would write
    lines = ["experiment,seed,sample_index,value\n"]
    for name in sorted(series):
        lines += ["%s,%d,%d,%.17g\n" % (name, cfg.seed, i, v)
                  for i, v in enumerate(np.asarray(series[name], dtype=float).tolist())]
    out.joinpath("results.csv").write_text("".join(lines), newline="")


def _write_summary(out: Path, summary: dict):
    out.joinpath("summary.json").write_text(
        json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n"
    )


def run_experiment(cfg: ExperimentConfig) -> Path:
    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, "running")
    try:
        ens = _checked_ensemble(cfg)
        summary, series = DRIVERS[cfg.experiment][0](cfg, ens)
    except Exception as exc:
        _write_manifest(out, cfg, "failed", error=f"{type(exc).__name__}: {exc}")
        raise
    if ens is not None:
        summary["ensemble"] = ensembles.ensemble_to_json(ens)
    _write_results(out, cfg, series)
    _write_summary(out, summary)
    _write_manifest(out, cfg, "complete")
    return out


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="decouplab",
        description="Seeded decoupling experiments with reproducible artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to the experiment config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            _checked_ensemble(cfg)
            print(f"ok: {args.config} describes a valid "
                  f"{cfg.experiment!r} experiment")
            return 0
        if args.output_dir:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        out = run_experiment(cfg)
    except ConfigError as exc:
        field_note = f" (key: {exc.field})" if exc.field else ""
        print(f"config error{field_note}: {exc}", file=sys.stderr)
        return 2
    except DecouplabError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"computation error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:  # reading the config, writing the output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out}/manifest.json, results.csv, summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
