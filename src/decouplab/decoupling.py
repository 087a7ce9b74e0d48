"""Decoupling functionals and their concentration parameters.

The objects here follow one construction. A state on A (x) R is pushed
through a channel on A after a random unitary; the 1-norm deviation from
the product of the channel's fixed output with the reference marginal is
the decoupling error f. A weighted 2-norm surrogate g dominates f (exactly
when no smoothing is used, up to explicit slack otherwise), concentrates at
Lipschitz speed on the unitary group, and has closed-form Haar moments.
All entropic inputs are certified one-sided values from the entropy module,
so every derived bound stays a true bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg, quantum, typicality
from .entropy import SmoothingConfig
from .errors import ComputationError, DimensionError, DomainError
from .quantum import ChannelStinespring, DensitySystem

# working memory for one chunk of draws in f_values / g_values
BATCH_BYTES = 1 << 21


@dataclass(frozen=True, eq=False)
class DecouplingInstance:
    """A state on A (x) R plus a channel acting on the A block.

    The labels forming A must be a prefix of the state's shape; everything
    after them is the reference R.
    """

    rho: DensitySystem
    channel: ChannelStinespring
    cfg: SmoothingConfig
    a_labels: tuple[str, ...] = ("A",)

    def __post_init__(self):
        names = self.rho.shape.names
        if names[: len(self.a_labels)] != tuple(self.a_labels):
            raise DimensionError(
                f"a_labels {self.a_labels} must be a prefix of {names}"
            )
        if len(self.a_labels) == len(names):
            raise DimensionError("instance needs at least one reference label")
        if self.rho.shape.dim_of_all(self.a_labels) != self.channel.a_dim:
            raise DimensionError("channel input does not match the A block")
        if abs(self.rho.mass - 1.0) > 1e-9:
            raise DomainError("instance state must be normalised")

    @property
    def r_labels(self) -> tuple[str, ...]:
        return tuple(n for n in self.rho.shape.names if n not in self.a_labels)

    @property
    def a_dim(self) -> int:
        return self.channel.a_dim

    @property
    def r_dim(self) -> int:
        return self.rho.shape.dim_of_all(self.r_labels)


@dataclass(frozen=True, eq=False)
class Weights:
    """Precomputed smoothing witnesses and weighted operators for g.

    rho_tilde is the input's collision witness, weighted on R. Of eta, the
    channel side's feasible point, g reads omega_tilde_b, its B marginal weighted
    by omega3_inv_quarter (omega''' of the Choi state's B marginal, to the -1/4).
    povm, on the environment Z, steers the maximally entangled input to eta; it
    is None at epsilon = 0. choi (bench ladder, tests) is built on first read.
    """

    rho_tilde: np.ndarray
    rho_tilde_r: np.ndarray
    channel: ChannelStinespring
    omega3_inv_quarter: np.ndarray
    povm: np.ndarray | None
    omega_tilde_b: np.ndarray
    h2_eps: float
    h2_prime_val: float
    hmax_prime_val: float
    n_r: float
    n_ar: float
    n_b: float
    n_ab: float
    warnings: tuple[str, ...]

    @functools.cached_property
    def choi(self) -> DensitySystem:
        return quantum.choi_state(self.channel)


def prepare(inst: DecouplingInstance) -> Weights:
    """The certified weights, the channel side off `quantum._thin_choi`'s m = U S Wh.
    If eta keeps the pairs K, Q = m^+ eta m^+dag = Wh_K^dag Wh_K, and the POVM
    (Q^T)^(1/2) of `quantum.povm_completion` is the projector Wh_K^T Wh_K^*."""
    cfg = inst.cfg
    wit_in = entropy.h2_with_witness(inst.rho, cfg, given=list(inst.r_labels))
    rho_tilde_r = linalg.partial_trace(wit_in.tilde, inst.rho.shape, list(inst.a_labels))

    spec, shp, wh = quantum._thin_choi(inst.channel)
    wit_ch = entropy.h2_prime(spec, shp, cfg.epsilon, cfg.delta)

    povm = None
    if cfg.epsilon > 0:
        kept = wit_ch.kept
        povm = wh[kept].T @ wh[kept].conj()
        # F = U_K S_K Wh_K has F F^dag = eta and P^T is a Hermitian projector: for
        # D = m P^T - F with largest row norm r, ||m P^T P^T m^dag - eta||_max =
        # ||F D^dag + D F^dag + D D^dag||_max <= 2 r + r^2, as ||F_i||^2 = eta_ii <= 1.
        # A projector meeting eta also shows eta <= omega
        f = (spec.vectors[:, kept] * np.sqrt(spec.values[kept])) @ wh[kept]
        r = float(np.linalg.norm(quantum.choi_amplitudes(inst.channel) @ povm.T - f, axis=1).max())
        if 2.0 * r + r * r > 1e-7:
            raise ComputationError(f"steering projector missed eta by up to {2.0 * r + r * r:.2e}")

    n_r = linalg.schatten_norm(rho_tilde_r, 2) ** 2
    n_ar = linalg.schatten_norm(wit_in.tilde, 2) ** 2
    n_b = linalg.schatten_norm(wit_ch.tilde_marginal, 2) ** 2
    return Weights(
        rho_tilde=wit_in.tilde, rho_tilde_r=rho_tilde_r, channel=inst.channel,
        omega3_inv_quarter=wit_ch.omega3_inv_quarter, povm=povm,
        omega_tilde_b=wit_ch.tilde_marginal, h2_eps=wit_in.value,
        h2_prime_val=wit_ch.value, hmax_prime_val=wit_ch.hmax_prime, n_r=n_r,
        n_ar=n_ar, n_b=n_b, n_ab=wit_ch.tilde_norm_sq, warnings=wit_in.warnings,
    )


def f_value(inst: DecouplingInstance, u: np.ndarray,
            choi_b: np.ndarray | None = None) -> float:
    """1-norm decoupling error of the true state under the true channel."""
    return float(f_values(inst, np.asarray(u, dtype=complex)[None], choi_b)[0])


def g_value(inst: DecouplingInstance, u: np.ndarray, w: Weights) -> float:
    """Weighted 2-norm surrogate evaluated with the prepared witnesses."""
    return float(g_values(inst, np.asarray(u, dtype=complex)[None], w)[0])


def f_values(inst: DecouplingInstance, us: np.ndarray,
             choi_b: np.ndarray | None = None) -> np.ndarray:
    """f for each unitary of an (n, |A|, |A|) stack; choi_b, the channel's fixed
    output, defaults to `quantum.fixed_output`."""
    if choi_b is None:
        choi_b = quantum.fixed_output(inst.channel)
    rho_r = linalg.partial_trace(inst.rho.matrix, inst.rho.shape, inst.a_labels)
    # the difference is Hermitian: its trace norm is the sum of |eigenvalues|
    return _draw_norms(inst, us, inst.channel.v, inst.rho.matrix,
                       np.kron(choi_b, rho_r),
                       lambda d: np.abs(np.linalg.eigvalsh(d)).sum(axis=-1))


def g_values(inst: DecouplingInstance, us: np.ndarray, w: Weights) -> np.ndarray:
    """g for each unitary of an (n, |A|, |A|) stack."""
    z_op = np.eye(inst.channel.z_dim) if w.povm is None else w.povm
    kraus = np.kron(w.omega3_inv_quarter, z_op) @ inst.channel.v
    return _draw_norms(inst, us, kraus, w.rho_tilde,
                       np.kron(w.omega_tilde_b, w.rho_tilde_r),
                       lambda d: np.linalg.norm(d, axis=(-2, -1)))


def _chunk_draws(inst: DecouplingInstance) -> int:
    """Draws per chunk: BATCH_BYTES over the bytes one draw's intermediates take."""
    da, db, ds = inst.a_dim, inst.channel.b_dim, inst.r_dim
    k = db * inst.channel.z_dim
    per_draw = 16 * (2 * k * da + 2 * k * ds * ds * da + 3 * (db * ds) ** 2)
    return max(1, BATCH_BYTES // per_draw)


def _draw_norms(inst: DecouplingInstance, us: np.ndarray, kraus: np.ndarray,
                state: np.ndarray, offset: np.ndarray, norm) -> np.ndarray:
    """norm(Tr_Z[(K U (x) I_R) state (K U (x) I_R)^dag] - offset) for each U.

    K maps A to B (x) Z. Draws are evaluated in chunks whose intermediates
    fit in BATCH_BYTES, with two GEMMs and one batched norm per chunk.
    """
    us = np.asarray(us, dtype=complex)
    step = _chunk_draws(inst)
    out = np.empty(len(us))
    for lo in range(0, len(us), step):
        y = quantum.conjugate_trace_z(kraus @ us[lo:lo + step], state,
                                      inst.channel.b_dim)
        out[lo:lo + len(y)] = norm(y - offset)
    return out


@dataclass(frozen=True)
class HaarMoments:
    """Closed-form second moment of g over the Haar measure."""

    alpha: float
    beta: float
    eta: float
    expected_g_squared: float
    mu_upper: float


def haar_expected_g_squared(inst: DecouplingInstance, w: Weights) -> HaarMoments:
    da = float(inst.a_dim)
    if da < 2:
        raise DomainError("the Haar second moment needs |A| >= 2")
    eta_ratio = w.n_ab / w.n_b
    denom = da * da - 1.0
    alpha = w.n_b * (da * da - da * eta_ratio) / denom
    beta = w.n_ab * (da * da - da / eta_ratio) / denom
    e_g2 = alpha * w.n_r + beta * w.n_ar - w.n_b * w.n_r
    if e_g2 < -1e-9:
        raise ComputationError(f"closed-form second moment {e_g2:.3e} is negative")
    return HaarMoments(
        alpha=alpha, beta=beta, eta=eta_ratio,
        expected_g_squared=float(e_g2),
        mu_upper=float(math.sqrt(max(e_g2, 0.0))),
    )


def dupuis_expectation_bound(inst: DecouplingInstance, w: Weights | None = None) -> float:
    """Upper bound on the Haar mean of f from the two collision entropies.

    Evaluated at epsilon = 0 with fixed marginal weights; those certified
    values can only enlarge the bound, so it stays valid. The channel side is
    h2' at (0, 0) on the Choi state's thin spectrum, where its point is the
    state and its weight the B marginal; w prepared at epsilon = 0 holds both."""
    if w is not None and inst.cfg.epsilon == 0:
        return 2.0 ** (-0.5 * w.h2_eps - 0.5 * w.h2_prime_val)
    h2_in = entropy.h2_conditional(inst.rho, SmoothingConfig(), "fixed_marginal",
                                   given=list(inst.r_labels))
    spec, shp, _ = quantum._thin_choi(inst.channel)
    h2_ch = entropy.h2_prime(spec, shp, 0.0, 0.0).value
    return 2.0 ** (-0.5 * h2_in - 0.5 * h2_ch)


def lipschitz_bound(inst: DecouplingInstance, w: Weights) -> float:
    """Lipschitz constant of g in the Schatten 2-norm on the unitary group."""
    d = inst.cfg.delta
    return 2.0 * 2.0 ** (0.5 * (1.0 + d) * w.hmax_prime_val - 0.5 * w.h2_eps)


def max_g_bound(inst: DecouplingInstance, w: Weights) -> float:
    """Uniform bound on g over the whole unitary group."""
    return math.sqrt(inst.a_dim / 2.0) * lipschitz_bound(inst, w)


@dataclass(frozen=True)
class TailParameters:
    """Everything needed to state the expander tail bound for one instance.
    lambda_required, the bound 5 * 2^(-a kappa^2) and its vacuity derive from
    the fields; log2_lambda_required stays finite where lambda underflows."""

    mu: float
    a: float
    t: float
    log2_lambda_required: float
    kappa: float
    epsilon: float
    delta: float
    threshold: float
    eps_prime: float | None = None
    threshold_exponent: float | None = None

    @property
    def lambda_required(self) -> float:
        return entropy._pow2(self.log2_lambda_required)

    @property
    def bound(self) -> float:
        return 5.0 * 2.0 ** (-self.a * self.kappa * self.kappa)

    @property
    def vacuous(self) -> bool:
        return bool(self.a * self.kappa * self.kappa < math.log2(5.0))

    def to_json(self) -> dict:
        out = {
            "mu": self.mu, "a": self.a, "t": self.t,
            "lambda_required": self.lambda_required, "kappa": self.kappa,
            "epsilon": self.epsilon, "delta": self.delta,
            "threshold": self.threshold, "bound": self.bound,
            "vacuous": self.vacuous,
            "log2_lambda_required": self.log2_lambda_required,
        }
        if self.eps_prime is not None:
            out["eps_prime"] = self.eps_prime
            out["threshold_exponent"] = self.threshold_exponent
        return out


def tail_parameters(inst: DecouplingInstance, w: Weights, kappa: float,
                    mu: float) -> TailParameters:
    """Expander-ensemble tail: failure probability 5 * 2^(-a kappa^2) once the
    ensemble is a (|A|, s, lambda, 4t)-expander with lambda at most the
    reported requirement."""
    if mu >= 1.0:
        raise DomainError(f"mean bound mu = {mu} must be below one")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    if not inst.cfg.delta < 1.0 / 3.0:
        raise DomainError("tail arithmetic requires delta < 1/3")
    da, db = float(inst.a_dim), float(inst.channel.b_dim)
    eps, dlt = inst.cfg.epsilon, inst.cfg.delta
    a = da * 2.0 ** (-(1.0 + dlt) * w.hmax_prime_val + w.h2_eps - 9.0)
    t = 8.0 * a * kappa * kappa
    t = math.ceil(t) if math.isfinite(t) else t
    log2_lam = 0.0  # x^0 = 1 at t = 0, even at mu = 0 where 0 * -inf is nan
    if t:
        log2_lam = t * (-8.0 * math.log2(da) - 6.0 * math.log2(db)
                        + 2.0 * (math.log2(mu) if mu > 0 else -math.inf))
    threshold = (
        2.0 ** (-0.5 * w.h2_eps - 0.5 * w.h2_prime_val + 1.0)
        + 14.0 * math.sqrt(eps) + 2.0 * kappa
    )
    return TailParameters(mu=mu, a=a, t=t, log2_lambda_required=log2_lam,
                          kappa=kappa, epsilon=eps, delta=dlt, threshold=threshold)


def applicable_tail(inst: DecouplingInstance, w: Weights, kappa: float,
                    mu: float) -> TailParameters | None:
    """`tail_parameters` at the mean bound mu, or None when mu >= 1 or
    delta >= 1/3, where the tail statement says nothing."""
    applies = mu < 1.0 and inst.cfg.delta < 1.0 / 3.0
    return tail_parameters(inst, w, kappa, mu) if applies else None


def mu_squared_clause(a: float, e_g2: float, da: int, hmax_prime_val: float,
                      h2_eps: float, mu_estimate: float) -> dict:
    """Evaluate (never assume) the condition letting the second moment be
    replaced by eight times the squared mean."""
    lhs = a * e_g2 + math.log2(e_g2) if e_g2 > 0 else -math.inf
    rhs = math.log2(da) + hmax_prime_val - h2_eps
    return {
        "condition_lhs": lhs,
        "condition_rhs": rhs,
        "condition_active": bool(lhs > rhs),
        "second_moment": e_g2,
        "eight_mu_squared": 8.0 * mu_estimate * mu_estimate,
        "replacement_valid": bool(e_g2 <= 8.0 * mu_estimate * mu_estimate + 1e-12),
    }


def fqsw_instance(a1: int, a2: int, r: int, rho: DensitySystem | None = None,
                  cfg: SmoothingConfig | None = None,
                  seed: int = 0) -> tuple[DecouplingInstance, Weights, dict]:
    """Mother-protocol specialisation: trace out A2 from A = A1 (x) A2.

    Returns the instance, its prepared weights, and a report with the
    closed-form Haar moment coefficients and the promise inequalities
    (reported, not enforced).
    """
    if a1 < 2 or a2 < 2:
        raise DomainError("both subsystem dimensions must be at least 2")
    shp = linalg.shape(("A1", a1), ("A2", a2), ("R", r))
    if rho is None:
        rho = quantum.random_state(shp, np.random.default_rng(seed))
    elif rho.shape.names != ("A1", "A2", "R"):
        raise DimensionError("fqsw state must carry labels A1, A2, R")
    channel = quantum.trace_out_channel(a1, a2)
    inst = DecouplingInstance(rho=rho, channel=channel,
                              cfg=cfg or SmoothingConfig(),
                              a_labels=("A1", "A2"))
    w = prepare(inst)
    denom = float(a1 * a1 * a2 * a2 - 1)
    alpha_closed = (a1 * a1 * a2 * a2 - a1 * a1) / denom
    beta_closed = (a1 / a2) * (a1 * a1 * a2 * a2 - a2 * a2) / denom
    e_g2_closed = (-(a1 * a1 - 1) / denom) * w.n_r + beta_closed * w.n_ar
    h2 = w.h2_eps
    gap = a2 * 2.0 ** (h2 - 8.0) - 4.0
    report = {
        "alpha_closed": alpha_closed,
        "beta_closed": beta_closed,
        "eta_closed": a1 / a2,
        "expected_g_squared_closed": e_g2_closed,
        "second_moment_window": (0.07 * (a1 / a2) * w.n_ar, (a1 / a2) * w.n_ar),
        "tail_a": a2 * 2.0 ** (h2 - 9.0),
        "promises": {
            "reference_norm_ratio": bool(w.n_r < 0.9 * a1 * a2 * w.n_ar),
            "a1_at_least_two": bool(a1 >= 2),
            "a2_exceeds_a1": bool(a2 > a1),
            "log_gap_strict": bool(gap > -h2 + math.log2(a1) + 2.0 * math.log2(a2)),
            "log_gap_loose": bool(gap > 2.0 * math.log2(a1) + 3.0 * math.log2(a2)),
        },
    }
    return inst, w, report


def fqsw_log2_lambda_sandwich(a1: int, a2: int, h2: float,
                              t: float) -> tuple[float, float]:
    """log2 of the expander-quality window implied by the second-moment
    window, (0.008 b)^t .. b^t with b = a2^-9 a1^-13 2^-h2; finite where
    the window's ends underflow."""
    log2_base = -9.0 * math.log2(a2) - 13.0 * math.log2(a1) - h2
    return (t * (math.log2(0.008) + log2_base), t * log2_base)


def thermal_smoothing(kappa: float) -> SmoothingConfig:
    """The thermalisation statement's smoothing, epsilon = kappa^2 / 60."""
    return SmoothingConfig(epsilon=kappa * kappa / 60.0, delta=0.0)


def thermalization_check(rho: DensitySystem, s_dim: int, e_dim: int,
                         kappa: float, us: np.ndarray,
                         cfg: SmoothingConfig | None = None,
                         embed: np.ndarray | None = None) -> dict:
    """Fraction of the global unitaries in the stack us after which the small
    subsystem is close to its fixed output alongside the untouched reference.

    The evolving system is the first label of rho; embed, when given, is an
    isometry from it into S (x) E (defaults to the identity, requiring the
    dimensions to factor exactly). The smoothing default follows the
    kappa-squared-over-sixty rule of the statement.
    """
    omega_label = rho.shape.names[0]
    d_omega = rho.shape.dim_of(omega_label)
    if embed is None:
        if d_omega != s_dim * e_dim:
            raise DimensionError("system dimension must equal |S| |E| without an embedding")
        channel = quantum.trace_out_channel(s_dim, e_dim)
    else:
        embed = np.asarray(embed, dtype=complex)
        if embed.shape[0] != s_dim * e_dim:
            raise DimensionError("embedding output dimension must equal |S| |E|")
        channel = quantum.ChannelStinespring(v=embed, b_dim=s_dim)
        if channel.a_dim != d_omega:
            raise DimensionError("embedding does not match the system dimension")
    if np.ndim(us) != 3 or not len(us) or np.shape(us)[1:] != (d_omega, d_omega):
        raise DimensionError(f"us must be a nonempty stack of {d_omega} x {d_omega} unitaries")
    if cfg is None:
        cfg = thermal_smoothing(kappa)
    inst = DecouplingInstance(rho=rho, channel=channel, cfg=cfg,
                              a_labels=(omega_label,))
    w = prepare(inst)
    moments = haar_expected_g_squared(inst, w)
    distances = f_values(inst, us)
    fraction = float((distances <= kappa).mean())
    tail = applicable_tail(inst, w, kappa, moments.mu_upper)
    h2, h2p = w.h2_eps, w.h2_prime_val
    report = {
        "samples": len(us),
        "kappa": kappa,
        "distances": [float(d) for d in distances],
        "thermalized_fraction": fraction,
        "predicted_fraction_lower": None if tail is None else max(0.0, 1.0 - tail.bound),
        "mean_distance": float(distances.mean()),
        "max_distance": float(distances.max()),
        "h2_input": h2,
        "h2_prime_channel": h2p,
        "hmax_prime_subsystem": w.hmax_prime_val,
        "tail": None if tail is None else tail.to_json(),
        "promises": {
            "mean_within_quarter_kappa": bool(2.0 ** (-0.5 * h2 - 0.5 * h2p) <= kappa / 4.0),
            "channel_entropy_dominated": bool(h2p <= math.log2(d_omega / s_dim) + 1e-12),
            "subsystem_large_enough": bool(s_dim > 2),
            "subsystem_weight_logarithmic": float(
                w.hmax_prime_val / max(math.log2(s_dim), 1e-12)
            ),
            "reference_norm_ratio": bool(w.n_r < 0.9 * d_omega * w.n_ar),
            "log_gap": bool(
                (d_omega / s_dim) * 2.0 ** (h2 - h2p - 14.0) > 2.0 * math.log2(d_omega)
            ),
        },
    }
    return report


def iid_parameters(inst: DecouplingInstance, n: int, kappa: float) -> TailParameters:
    """Many-copy tail parameters from single-copy Shannon quantities.

    Pure arithmetic: no operator on the n-fold space is ever formed. The
    reported t follows the many-copy statement's own display rather than
    the single-shot ceiling rule.
    """
    if n < 1:
        raise DomainError("copy count must be positive")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    eps, dlt = inst.cfg.epsilon, inst.cfg.delta
    if not dlt < 1.0 / 3.0:
        raise DomainError("tail arithmetic requires delta < 1/3")
    if eps <= 0:
        # eps' enters as log2(1/eps'), so a zero budget has no finite reading
        raise DomainError("many-copy parameters require epsilon > 0")
    da, db = float(inst.a_dim), float(inst.channel.b_dim)
    h_ar = entropy.shannon(inst.rho)
    h_r = entropy.shannon(inst.rho.marginal(list(inst.r_labels)))
    h_a_r = h_ar - h_r
    h_apb = entropy.shannon(quantum._thin_choi(inst.channel)[0].values)
    h_b = entropy.shannon(quantum.fixed_output(inst.channel))

    dab = da * db
    eps_prime = typicality.many_copy_eps_prime(n, dab, eps)
    exponent = (
        -(n / 2.0) * (h_a_r - dlt * (3.0 * h_ar + 7.0 * h_r))
        - (n / 2.0) * (h_apb - h_b - dlt * (3.0 * h_apb + 7.0 * h_b))
    )
    # many-copy exponents overflow floats at modest n, so stay in log2 space
    mu = entropy._pow2(exponent)
    threshold = mu + 28.0 * eps_prime**0.25 + 2.0 * kappa
    a = entropy._pow2(
        n * math.log2(da)
        + n * (h_a_r - dlt * (3.0 * h_ar + 7.0 * h_r))
        - n * h_b * (1.0 + 7.0 * dlt) - 9.0
    )
    t_raw = entropy._pow2(
        n * math.log2(da) + 2.0 * math.log2(kappa)
        + n * (h_a_r + 32.0 * math.sqrt(eps_prime))
        + math.log2(1.0 / eps_prime) - n * h_b * (1.0 - 5.0 * dlt) - 6.0
    )
    t = math.ceil(t_raw) if math.isfinite(t_raw) else t_raw
    log2_lam = -math.inf  # an unbounded t leaves only an exact design
    if math.isfinite(t):
        log2_lam = t * (-8.0 * n * math.log2(da) - 6.0 * n * math.log2(db) + 2.0 * exponent)
    return TailParameters(
        mu=mu, a=a, t=t, log2_lambda_required=log2_lam, kappa=kappa,
        epsilon=eps, delta=dlt, threshold=threshold, eps_prime=eps_prime,
        threshold_exponent=exponent,
    )


def channel_swap_norm_check(channel: ChannelStinespring) -> dict:
    """Two-sided flip identity: pushing the swap through the doubled channel
    or its adjoint gives equal 2-norms, both at most ||v||_2^4 for the
    Stinespring operator v (Hoelder: ||Tr_Z[(v (x) v) F (v (x) v)^dag]||_2
    <= ||v||_2^4 ||F||_inf)."""
    da, db = channel.a_dim, channel.b_dim
    f_a = linalg.swap_operator(da)
    shp_a = linalg.shape(("X1", da), ("X2", da))
    y1, s1 = channel.apply_matrix(f_a, shp_a, block=("X1",), out_label="Y1")
    y2, _ = channel.apply_matrix(y1, s1, block=("X2",), out_label="Y2")
    forward = linalg.schatten_norm(y2, 2)

    f_b = linalg.swap_operator(db)
    shp_b = linalg.shape(("N1", db), ("N2", db))
    z1, t1 = channel.apply_adjoint_matrix(f_b, shp_b, block=("N1",), out_label="M1")
    z2, _ = channel.apply_adjoint_matrix(z1, t1, block=("N2",), out_label="M2")
    adjoint = linalg.schatten_norm(z2, 2)

    bound = linalg.schatten_norm(channel.v, 2) ** 4
    return {
        "norm_forward": forward,
        "norm_adjoint": adjoint,
        "dilation_bound": bound,
        "equality_gap": abs(forward - adjoint),
        "ok": bool(abs(forward - adjoint) <= 1e-8 * max(1.0, forward)
                   and forward <= bound + 1e-8),
    }
