"""Method of types and asymptotic equipartition checks at exact-sum scale.

Sums over typical sets are evaluated by enumerating type classes with exact
integer multiplicities, never by sampling sequences, so every inequality
verified here is an exact statement about the finite-n distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg
from .errors import CapError, DimensionError, DomainError
from .quantum import DensitySystem

TYPE_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class TypeVector:
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TypicalSpec:
    probs: tuple[float, ...]
    n: int
    delta: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise DomainError("probs must be a distribution")
        if self.n < 1:
            raise DomainError("n must be positive")
        if not 0 < self.delta:
            raise DomainError("delta must be positive")


@functools.lru_cache(maxsize=1)
def enumerate_types(n: int, alphabet: int) -> tuple[TypeVector, ...]:
    """All compositions of n into `alphabet` parts, lexicographically sorted.
    The last enumeration is kept, so a typicality run's report and its
    aggregated max-entropy share it."""
    if alphabet < 1 or n < 0:
        raise DimensionError("need alphabet >= 1 and n >= 0")
    total = math.comb(n + alphabet - 1, alphabet - 1)
    if total > TYPE_ENUM_CAP:
        raise CapError(f"{total} types exceed the enumeration cap {TYPE_ENUM_CAP}")
    out: list[TypeVector] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(TypeVector(tuple(prefix + [remaining])))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, alphabet)
    return tuple(out)


def multinomial_count(tv: TypeVector) -> int:
    """Exact number of sequences of this type."""
    total = tv.n
    out = 1
    for c in tv.counts:
        out *= math.comb(total, c)
        total -= c
    return out


def _sequence_prob(tv: TypeVector, probs) -> float:
    q = 1.0
    for c, p in zip(tv.counts, probs):
        if c == 0:
            continue
        if p == 0.0:
            return 0.0
        q *= p**c
    return q


def _is_typical(tv: TypeVector, probs, delta: float) -> bool:
    n = tv.n
    for c, p in zip(tv.counts, probs):
        if not (n * p * (1 - delta) <= c <= n * p * (1 + delta)):
            return False
    return True


def aep_threshold(probs, eps: float, delta: float) -> float:
    """Smallest n the equipartition statement asks for at this (eps, delta)."""
    value, _ = entropy.hmax_prime_values(np.asarray(probs, dtype=float), eps / 2.0)
    p_min = 2.0 ** (-value)
    return 4.0 / (p_min * delta * delta) * math.log2(len(probs) / eps)


def typical_report(spec: TypicalSpec, eps: float) -> dict:
    """Exact verification of the three equipartition displays.

    Checks typical mass >= 1 - eps, the per-sequence probability sandwich
    2^(-nH(1+delta)) <= q <= 2^(-nH(1-delta)), and the typical-set count
    window [2^(nH(1-delta)) (1-eps), 2^(nH(1+delta))]. When n sits below the
    sufficient threshold the report flags it and verifies anyway; the
    displays may still hold, they are just no longer guaranteed.
    """
    if not 0 < eps < 1:
        raise DomainError("eps must sit in (0, 1)")
    probs = tuple(float(p) for p in spec.probs)
    h = entropy.shannon(np.asarray(probs))
    n, delta = spec.n, spec.delta
    types = enumerate_types(n, len(probs))
    mass = 0.0
    count_total = 0
    q_lo, q_hi = math.inf, -math.inf
    typical = []
    for tv in types:
        if not _is_typical(tv, probs, delta):
            continue
        typical.append(tv)
        cnt = multinomial_count(tv)
        q = _sequence_prob(tv, probs)
        mass += cnt * q
        count_total += cnt
        q_lo, q_hi = min(q_lo, q), max(q_hi, q)
    threshold = aep_threshold(probs, eps, delta)
    lower_q = 2.0 ** (-n * h * (1 + delta))
    upper_q = 2.0 ** (-n * h * (1 - delta))
    count_low = 2.0 ** (n * h * (1 - delta)) * (1 - eps)
    count_high = 2.0 ** (n * h * (1 + delta))
    return {
        "n": n, "delta": delta, "eps": eps, "entropy": h,
        "n_threshold": threshold,
        "sub_threshold": bool(n < threshold),
        "typical_types": len(typical),
        "typical_mass": mass,
        "typical_count": count_total,
        "seq_prob_min": q_lo if typical else None,
        "seq_prob_max": q_hi if typical else None,
        "mass_ok": bool(mass >= 1.0 - eps),
        "sandwich_ok": bool(
            typical and lower_q <= q_lo * (1 + 1e-12)
            and q_hi <= upper_q * (1 + 1e-12)
        ),
        "count_ok": bool(count_low <= count_total <= count_high),
    }


def quantum_typical_report(state, n: int, delta: float, eps: float) -> dict:
    """Equipartition on the eigenvalues: projector mass, eigenvalue sandwich
    and projector rank reduce exactly to the classical statements."""
    vals = np.linalg.eigvalsh(linalg.hermitianize(state.matrix)) \
        if isinstance(state, DensitySystem) else np.asarray(state, dtype=float)
    vals = np.clip(vals, 0.0, None)
    vals = vals / vals.sum()
    spec = TypicalSpec(probs=tuple(float(v) for v in vals), n=n, delta=delta)
    classical = typical_report(spec, eps)
    return {
        "n": n, "delta": delta, "eps": eps,
        "entropy": classical["entropy"],
        "projector_mass": classical["typical_mass"],
        "projector_rank": classical["typical_count"],
        "eigenvalue_min": classical["seq_prob_min"],
        "eigenvalue_max": classical["seq_prob_max"],
        "mass_ok": classical["mass_ok"],
        "sandwich_ok": classical["sandwich_ok"],
        "rank_ok": classical["count_ok"],
        "sub_threshold": classical["sub_threshold"],
    }


def hmax_prime_iid_aggregated(probs, n: int, eps: float) -> float:
    """Alternate max-entropy of the n-fold product spectrum via type classes.

    Eigenvalues of the product state come in classes of equal value indexed
    by types; the truncation rule zeroes the smallest first and may stop
    partway through a class, which exactly matches the dense rule with
    index tie-breaking.
    """
    if not 0 <= eps < 1:
        raise DomainError(f"epsilon must sit in [0, 1), got {eps}")
    p = np.asarray(probs, dtype=float)
    classes = []
    for tv in enumerate_types(n, p.size):
        lam = _sequence_prob(tv, p)
        if lam > 0:
            classes.append((lam, multinomial_count(tv)))
    if not classes:
        raise DomainError("product spectrum has no positive mass")
    classes.sort(key=lambda c: c[0])
    budget = eps
    for lam, size in classes:
        class_mass = lam * size
        if class_mass <= budget + 1e-15:
            budget -= class_mass
            continue
        # the class fits only partly, so its value is the smallest survivor
        return float(-math.log2(lam))
    # every class consumed: the largest eigenvalue survives by construction
    return float(-math.log2(classes[-1][0]))


def hmax_prime_iid_check(state_or_probs, n: int, eps: float, delta: float) -> dict:
    """Sandwich n(1-delta) H <= alternate max-entropy of n copies <= n(1+delta) H."""
    if isinstance(state_or_probs, DensitySystem):
        vals = np.linalg.eigvalsh(linalg.hermitianize(state_or_probs.matrix))
        vals = np.clip(vals, 0.0, None)
    else:
        vals = np.asarray(state_or_probs, dtype=float)
    vals = vals / vals.sum()
    h = entropy.shannon(vals)
    value = hmax_prime_iid_aggregated(vals, n, eps)
    qv, _ = entropy.hmax_prime_values(vals, eps / 2.0)
    q_min = 2.0 ** (-qv)
    n_req = 4.0 / (q_min * delta * delta) * math.log2(vals.size / eps)
    return {
        "value_bits": value,
        "lower": n * (1 - delta) * h,
        "upper": n * (1 + delta) * h,
        "sandwich_ok": bool(n * (1 - delta) * h - 1e-9 <= value <= n * (1 + delta) * h + 1e-9),
        "n_threshold": n_req,
        "sub_threshold": bool(n < n_req),
        "q_min": q_min,
    }


FULL_MODE_DIM_CAP = 4096


def h2_prime_iid_bound_check(omega: DensitySystem, n: int, eps: float,
                             delta: float) -> dict:
    """Many-copy window for the alternate conditional collision entropy.

    Arithmetic mode always evaluates the window endpoints and the statement's
    own n threshold from single-copy data. Full mode additionally builds the
    n-fold state and evaluates the canonical feasible point, which needs the
    joint eigenstructure and is therefore capped at tiny sizes
    (n <= 8, |A||B| <= 4, and total dimension <= 4096).
    """
    if len(omega.shape.labels) != 2:
        raise DimensionError("expected a bipartite single-copy state")
    (a_name, da), (b_name, db) = omega.shape.labels
    dab = da * db
    h_cond = entropy.shannon(omega, given=b_name)
    h_joint = entropy.shannon(omega)
    h_b = entropy.shannon(omega.marginal([b_name]))
    eps_prime = 8.0 * (n + dab) ** dab * eps**0.25
    lower = n * h_cond - n * delta * (3.0 * h_joint + 7.0 * h_b)
    upper = (
        n * h_cond + 32.0 * n * math.sqrt(eps_prime) * math.log2(da)
        + math.log2(1.0 / eps_prime)
    )
    spec = linalg.spectral(omega.matrix)
    qv, _ = entropy.hmax_prime_values(spec.values, eps / 2.0)
    q_min = 2.0 ** (-qv)
    b_marg = omega.marginal([b_name]).matrix
    b_spec = linalg.spectral(b_marg)
    p_min = math.inf
    lmax = float(spec.values.max(initial=0.0))
    for j, lam in enumerate(spec.values):
        if lam <= 1e-12 * max(lmax, 1.0):
            continue
        w = spec.vectors[:, j]
        theta = linalg.partial_trace(np.outer(w, w.conj()), omega.shape, [a_name])
        pj = np.real(np.einsum("ib,ij,jb->b", b_spec.vectors.conj(), theta,
                               b_spec.vectors))
        pj = np.clip(pj, 0.0, None)
        pv, _ = entropy.hmax_prime_values(pj, eps / 2.0)
        p_min = min(p_min, 2.0 ** (-pv))
    n_req = 32.0 / (q_min * p_min * delta * delta) * math.log2(dab / eps)
    report = {
        "mode": "arithmetic",
        "n": n,
        "eps_prime": eps_prime,
        "lower": lower,
        "upper": upper,
        "n_threshold": n_req,
        "sub_threshold": bool(n < n_req),
        "q_min": q_min,
        "p_min": p_min,
    }
    if n <= 8 and dab <= 4 and dab**n <= FULL_MODE_DIM_CAP and 0 < eps_prime < 1:
        big = _tensor_power_bipartite(omega, n)
        value, _ = entropy.h2_prime(big, eps_prime, 5.0 * delta, given="B")
        report.update({
            "mode": "full",
            "value_bits": value,
            "lower_holds": bool(value >= lower - 1e-9),
            "upper_holds": bool(value <= upper + 1e-9),
        })
    return report


def _tensor_power_bipartite(omega: DensitySystem, n: int) -> DensitySystem:
    (a_name, da), (b_name, db) = omega.shape.labels
    m = omega.matrix
    big = m
    labels = [(f"{a_name}0", da), (f"{b_name}0", db)]
    for i in range(1, n):
        big = np.kron(big, m)
        labels += [(f"{a_name}{i}", da), (f"{b_name}{i}", db)]
    shp = linalg.SystemShape(tuple(labels))
    order = [f"{a_name}{i}" for i in range(n)] + [f"{b_name}{i}" for i in range(n)]
    big = linalg.permute_systems(big, shp, order)
    grouped = linalg.shape(("A", da**n), ("B", db**n))
    return DensitySystem.from_matrix(big, grouped)
