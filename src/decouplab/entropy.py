"""Smooth one-shot entropies via explicitly certified feasible points.

Every smoothed quantity here is evaluated at a concrete operator inside the
trace-norm ball around the state (positive semidefinite, subnormalised
allowed, distance measured by the full 1-norm). That makes each reported
number a one-sided certificate: collision-type quantities are lower bounds
on the true optimum, max-type quantities are upper bounds. No claim of
tightness is made for the truncation family used to pick the points.

The collision search tries rho, its deepest spectral truncation within
the ball and rho projected onto the weight's support. The shallower
truncations never do better: for a fixed weight, dropping one more
positive eigenvalue removes only nonnegative terms from the weighted
2-norm and from the support leak (see `_truncation_candidates`). Every
weight the search considers is diagonal in the conditioning marginal's
eigenbasis, so each is scored by a closed form over tables of these points
built once per call. The minimized weight is a fixed point with a certified
gap (`_collision_fixed_point`). Only the winner is weighed: its point is
conjugated by the weight's -1/4 power through a contraction on the
conditioning labels, and the value reported is that dense point's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError
from .linalg import SystemShape
from .quantum import DensitySystem

RANK_FLOOR = 1e-12
# marginal mass off the weight's support that a feasible point may carry
LEAK_TOLERANCE = 1e-10
# certified gap, in bits, at which a minimized weight's fixed point stops
GAP_TOLERANCE = 1e-14


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing radii.

    delta below 1/3 is required by the tail-bound arithmetic; that is
    enforced where the tail parameters are assembled, not here.
    """

    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or self.delta < 0:
            raise DomainError("smoothing parameters must be nonnegative")


def _pow2(x: float) -> float:
    """2^x as a float, mapping overflow to inf instead of raising."""
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _above_rank_floor(values: np.ndarray) -> np.ndarray:
    """The mask of values that count as nonzero: above RANK_FLOOR times the
    largest value, or times 1 when that is smaller."""
    return values > RANK_FLOOR * max(float(values.max(initial=0.0)), 1.0)


def _eigenvalues(x) -> np.ndarray:
    if isinstance(x, DensitySystem):
        vals = np.linalg.eigvalsh(linalg.hermitianize(x.matrix))
    else:
        arr = np.asarray(x)
        if arr.ndim == 1:
            vals = arr.astype(float)
        else:
            vals = np.linalg.eigvalsh(linalg.hermitianize(arr.astype(complex)))
    if vals.size and float(vals.min()) < -1e-9 * max(1.0, float(np.abs(vals).max())):
        raise DomainError("negative eigenvalue beyond tolerance")
    return np.clip(vals, 0.0, None)


def shannon(x, given=None) -> float:
    """Entropy in bits; with `given` labels, the conditional H(rest | given)."""
    if given is None:
        vals = _eigenvalues(x)
        vals = vals[vals > 0]
        return float(-(vals * np.log2(vals)).sum()) if vals.size else 0.0
    if not isinstance(x, DensitySystem):
        raise DimensionError("conditional entropy needs a labelled state")
    return shannon(x) - shannon(x.marginal(given))


def _apply_on_labels(op: np.ndarray, m: np.ndarray, shp: SystemShape, labels) -> np.ndarray:
    """(I (x) op) m, op acting on the named labels of m's row index in the
    given order; m has shp.dim rows and any number of columns."""
    axes = [shp.axis(n) for n in labels]
    k = len(axes)
    dims = tuple(shp.dim_of(n) for n in labels)
    out = np.tensordot(op.reshape(dims + dims), m.reshape(shp.dims + (-1,)),
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(m.shape)


def _conj_on_labels(m: np.ndarray, op: np.ndarray, shp: SystemShape, labels) -> np.ndarray:
    """(I (x) op) m (I (x) op) by contraction on the named labels, without
    the (|rest| |labels|)^2 embedding of op."""
    left = _apply_on_labels(op, m, shp, labels)
    # m (I (x) op) = ((I (x) op^T) m^T)^T
    return _apply_on_labels(op.T, left.T, shp, labels).T.copy()


def _drop_smallest(values: np.ndarray, limit: float, spent: float = 0.0) -> np.ndarray:
    """Running dropped mass, from `spent`, after each of `values` that goes
    while it stays at or below `limit`; its length is the number dropped.

    `values` is nonnegative and in drop order (the caller's order, tie-break
    and filter). np.cumsum adds left to right, so every total, and with it
    the cut, is the plain running sum.
    """
    totals = np.cumsum(np.concatenate(([spent], values)))[1:]
    return totals[:np.searchsorted(totals, limit, side="right")]


def _truncation_candidates(rho: DensitySystem, eps: float) -> list[np.ndarray]:
    """rho and, when eps > 0 and some positive eigenvalue other than the
    largest fits the budget, its deepest spectral truncation sigma_K: every
    nonpositive eigenvalue and the K smallest positive ones dropped, their
    mass within eps. The largest positive eigenvalue always stays: dropping
    it too would leave the zero operator, which has no collision value.

    The shallower truncations sigma_1 .. sigma_{K-1} never beat sigma_K. Fix
    a weight W, let v_i be rho's eigenvectors, X = V^dag (I (x) W^{-1/2}) V
    and l_i = 1 - <v_i| I (x) P |v_i> >= 0 with P the weight's support
    projector. Then ||w sigma_k w||_2^2 = sum_{i,j kept} lambda_i lambda_j
    |X_ij|^2 and the leak of sigma_k is sum_{i kept} lambda_i l_i. For k >= 1
    every kept lambda is positive, so both sums only shrink as k grows:
    sigma_K has the best value and the smallest leak of sigma_1 .. sigma_K.
    rho itself stays, since it may carry eigenvalues down to
    -1e-9 lambda_max that the argument does not cover.
    """
    out = [rho.matrix]
    if eps <= 0:
        return out
    spec = linalg.spectral(rho.matrix)
    order = np.argsort(spec.values)  # ascending
    positive = order[spec.values[order] > 0][:-1]  # all but the largest
    dropped = positive[:_drop_smallest(spec.values[positive], eps + 1e-15).size]
    if dropped.size:
        vals = np.where(spec.values > 0, spec.values, 0.0)
        vals[dropped] = 0.0
        out.append((spec.vectors * vals) @ spec.vectors.conj().T)
    return out


class H2Witness(NamedTuple):
    """value = -2 log2 ||tilde||_2 with tilde = (I (x) weight^{-1/4}) sigma (same),
    sigma in the epsilon-ball around rho and weight the conditioning operator used."""

    value: float
    sigma: np.ndarray
    weight: np.ndarray
    tilde: np.ndarray
    warnings: tuple[str, ...]


def h2_with_witness(rho: DensitySystem, cfg: SmoothingConfig,
                    weight_mode: str = "fixed_marginal", given=None) -> H2Witness:
    """Certified lower bound on the smoothed conditional collision entropy.

    "minimized" adds to the marginal weight, for each point's table on each
    support K (the marginal's less its k smallest directions, k < rank), the
    weight on K that `_collision_fixed_point` finds best for that table; the
    projection of rho onto K shares rho's table.
    """
    if weight_mode not in ("fixed_marginal", "minimized"):
        raise DomainError(f"unknown weight mode {weight_mode!r}")
    given = rho.shape.names[-1] if given is None else given
    given_list = linalg._label_list(given)
    warnings: list[str] = []

    marg = rho.marginal(given_list).matrix
    marg_spec = linalg.spectral(marg)
    rank = int(_above_rank_floor(marg_spec.values).sum())
    if rank < marg.shape[0]:
        warnings.append("conditioning marginal is rank deficient; "
                        "weights restricted to its support")
    vecs = marg_spec.vectors
    points = _truncation_candidates(rho, cfg.epsilon)
    score, tables = _closed_form_score(rho, cfg.epsilon, given_list, vecs, points)
    candidates: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []

    def consider(weight: np.ndarray, p: np.ndarray):
        """Record the weight vecs diag(p) vecs^dag at its best point."""
        value, sigma = score(p)
        if sigma is not None:
            candidates.append((value, sigma, weight, p))

    consider(marg, marg_spec.values)

    if weight_mode == "minimized":
        # spectral sorts descending: the support is the leading `rank`
        # directions, and dropping the k smallest keeps the leading rank - k
        for n in range(rank, 0, -1):
            start = marg_spec.values[:n] / marg_spec.values[:n].sum()
            for table in tables:
                probs, gap = _collision_fixed_point(table[:n, :n], start)
                if gap > GAP_TOLERANCE:
                    warnings.append(f"a minimized weight is certified to {gap:.3e} bits only")
                p = np.zeros_like(marg_spec.values)
                p[:n] = probs
                consider((vecs[:, :n] * probs) @ vecs[:, :n].conj().T, p)

    if not candidates:
        raise DomainError("no feasible smoothing point found inside the ball")
    _, sigma, weight, p = max(candidates, key=lambda c: c[0])
    w = (vecs * linalg._power_above_cutoff(p, -0.25)) @ vecs.conj().T
    tilde = _conj_on_labels(sigma, w, rho.shape, given_list)
    value = float(-2.0 * math.log2(linalg.schatten_norm(tilde, 2)))
    return H2Witness(value, sigma, weight, tilde, tuple(warnings))


def _collision_fixed_point(s: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """The p on the simplex minimising f = q^T s q, q = p^{-1/2}, from the
    positive start p, and its certified gap in bits.

    A point's collision table s is PSD (Schur product theorem) with
    nonnegative entries, so f is convex and (q' - q)^T s (q' - q) >= 0 gives
    f(p') >= 2 c.q' - f, c = s q, on the whole simplex. The right side is
    least, at bound = 2 (sum c^{2/3})^{3/2} - f, for p' proportional to
    c^{2/3}: that is the next iterate, and f is within a factor 2^gap,
    gap = log2(f / bound), of the minimum. q -> (s q)^{-1/3} contracts
    Hilbert's projective metric by 1/3, so the gap falls geometrically; if
    rounding stops it above GAP_TOLERANCE, the best iterate is returned. A
    direction the table carries nothing on gets c_k = 0, so p_k = q_k = 0.
    """
    best_p, best_gap = p, math.inf
    while best_gap > GAP_TOLERANCE:
        q = linalg._power_above_cutoff(p, -0.5)
        c = s @ q
        f = float(q @ c)
        if f <= 0:  # the table carries nothing on this support: every p is optimal
            return p, 0.0
        r = c ** (2.0 / 3.0)
        z = float(r.sum())
        bound = 2.0 * z ** 1.5 - f
        gap = math.log2(f / bound) if bound > 0 else math.inf
        if gap < best_gap:
            best_p, best_gap = p, gap
        elif best_gap < math.inf:
            break
        p = r / z
    return best_p, best_gap


def _collision_table(sigma: np.ndarray, shp: SystemShape, given_list: list[str],
                     basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(S, d, t) of sigma in the weight basis with columns b_k:
    S[k, l] = sum_{x,y} |<x, b_k| sigma |y, b_l>|^2, d[k] = <b_k| m |b_k>
    and t = tr m, where m is sigma's marginal on the conditioning labels."""
    rest = [n for n in shp.names if n not in given_list]
    if rest + given_list != list(shp.names):
        sigma = linalg.permute_systems(sigma, shp, rest + given_list)
    d_rest, d_given = shp.dim_of_all(rest), shp.dim_of_all(given_list)
    blocks = sigma.reshape(d_rest, d_given, d_rest, d_given) @ basis
    blocks = np.einsum("gk,xgyl->xkyl", basis.conj(), blocks)
    return ((np.abs(blocks) ** 2).sum(axis=(0, 2)), np.einsum("xkxk->k", blocks).real,
            float(np.trace(sigma).real))


def _closed_form_score(rho: DensitySystem, eps: float, given_list: list[str],
                       basis: np.ndarray, points: list[np.ndarray]):
    """Score of the weight basis diag(p) basis^dag over `points` (rho first)
    and, when eps > 0, the projection of rho onto the weight's support, from
    tables built once: (value, point) at the best feasible point, the
    earliest on a tie, or (-1e6, None) when no point is feasible.

    With q_k = p_k^{-1/2} above the power cutoff (0 below it), a point
    scores -log2(q^T S q) = -2 log2 ||(I (x) w^{-1/4}) point (same)||_2 when
    its marginal's mass off the support K = {p_k above the rank floor},
    t - sum_{k in K} d[k], is at most LEAK_TOLERANCE. The projection
    op rho op (op = I (x) P_K) keeps rho's S on K x K and leaks nothing; it
    is built, and its ball test run, once per support whose dropped mass fits
    eps. Where rho is feasible and K holds every q_k > 0 it scores as rho
    does, so it is skipped. The m points' tables are stacked once, as S
    (m, r, r), d (m, r) and t (m,): one product scores them all; S is returned.
    """
    s, d, t = (np.array(part) for part in zip(
        *(_collision_table(sig, rho.shape, given_list, basis) for sig in points)))
    projected: dict[bytes, np.ndarray | None] = {}

    def projection(keep: np.ndarray) -> np.ndarray | None:
        """rho projected onto the support K when it lies in the eps-ball."""
        key = keep.tobytes()
        # the dropped mass Tr(rho - sig) <= ||rho - sig||_1: past eps, sig is outside
        if key not in projected and t[0] - d[0, keep].sum() <= eps + 1e-12 + LEAK_TOLERANCE:
            cols = basis[:, keep]
            sig = _conj_on_labels(rho.matrix, cols @ cols.conj().T, rho.shape, given_list)
            # rho - sig is Hermitian: its trace norm is the sum of |eigenvalues|
            dist = float(np.abs(np.linalg.eigvalsh(rho.matrix - sig)).sum())
            projected[key] = sig if dist <= eps + 1e-12 else None
        return projected.get(key)

    def score(p: np.ndarray) -> tuple[float, np.ndarray | None]:
        keep = _above_rank_floor(p)
        q = linalg._power_above_cutoff(p, -0.5)
        feasible = t - d[:, keep].sum(axis=1) <= LEAK_TOLERANCE
        norms = np.where(feasible, q @ s @ q, 0.0)
        found = points
        if eps > 0 and not (feasible[0] and keep[q > 0].all()):
            sig = projection(keep)
            if sig is not None:
                q_kept = np.where(keep, q, 0.0)
                norms = np.append(norms, q_kept @ s[0] @ q_kept)
                found = points + [sig]
        # the best value is the smallest positive norm; argmin takes the earliest
        live = np.flatnonzero(norms > 0)
        if not live.size:
            return -1e6, None
        best = live[np.argmin(norms[live])]
        return -math.log2(norms[best]), found[best]

    return score, s


def h2_conditional(rho: DensitySystem, cfg: SmoothingConfig,
                   weight_mode: str = "fixed_marginal", given=None) -> float:
    return h2_with_witness(rho, cfg, weight_mode, given).value


def hmax_smooth(x, eps: float) -> float:
    """Certified upper bound on the smooth max-entropy of the spectrum.

    Feasible family: drop the k smallest eigenvalues and renormalise, which
    sits at 1-norm distance 2 * (dropped mass) from the state; keep the best.
    """
    if eps < 0:
        raise DomainError("epsilon must be nonnegative")
    vals = _eigenvalues(x)
    vals = vals[_above_rank_floor(vals)]
    if vals.size == 0:
        raise DomainError("state has no mass above the rank floor")
    asc = np.sort(vals)
    # drop k = 0, 1, ... of the smallest while 2 * dropped <= eps + 1e-15 and
    # dropped < 1 - 1e-12 (at most the float below it), always keeping one
    limit = min(np.nextafter(1.0 - 1e-12, 0.0), (eps + 1e-15) / 2.0)
    dropped = np.concatenate(([0.0], _drop_smallest(asc[:-1], limit)))
    return min(2.0 * math.log2(float(np.sqrt(asc[k:]).sum()) / math.sqrt(1.0 - d))
               for k, d in enumerate(dropped))


def hmin_smooth(x, eps: float) -> float:
    """Min-entropy-style quantity, reported on the -log2 reading.

    The printed optimisation asks for the smallest operator-norm inside the
    ball; the ceiling-clip point (largest eigenvalues flattened to a common
    level, excess mass exactly eps) realises it, and we return -log2 of the
    clipped level. The sign reading is ambiguous in the source definition;
    this module standardises on -log2 and flags it in reports.
    """
    if eps < 0:
        raise DomainError("epsilon must be nonnegative")
    vals = np.sort(_eigenvalues(x))[::-1]
    total = float(vals.sum())
    if eps >= total:
        raise DomainError("epsilon at least the total mass leaves an empty ball point")
    # the level of clipping the j largest eigenvalues, and the first j whose
    # level sits between the j-th and the (j+1)-th
    levels = (np.cumsum(vals) - eps) / np.arange(1, vals.size + 1)
    below = np.append(vals[1:], 0.0)
    fits = np.flatnonzero((below - 1e-15 <= levels) & (levels <= vals + 1e-15))
    if not fits.size:
        raise DomainError("no valid clip level found")
    c = levels[fits[0]]
    if c <= 0:
        raise DomainError("clip level collapsed to zero")
    return float(-math.log2(c))


def hmax_prime_values(values: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Alternate smooth max-entropy on a spectrum: zero out the largest set of
    smallest eigenvalues with total mass <= eps, return -log2 of the smallest
    survivor and the kept mask. Ties break by eigenvalue, then by index.
    Entries at or below the relative rank floor are treated as exact zeros.
    """
    if not 0 <= eps < 1:
        raise DomainError(f"epsilon must sit in [0, 1), got {eps}")
    vals = np.asarray(values, dtype=float)
    lmax = float(vals.max(initial=0.0))
    if lmax <= 0:
        raise DomainError("spectrum has no positive mass")
    keep = vals > RANK_FLOOR * lmax
    order = np.lexsort((np.arange(vals.size), vals))
    live = order[keep[order]]
    keep[live[:_drop_smallest(vals[live], eps + 1e-15).size]] = False
    if not keep.any():
        raise DomainError("smoothing removed every eigenvalue")
    smallest = float(vals[keep].min())
    return float(-math.log2(smallest)), keep


def hmax_prime(state: DensitySystem, eps: float) -> tuple[float, DensitySystem]:
    spec = linalg.spectral(state.matrix)
    value, keep = hmax_prime_values(spec.values, eps)
    vals = np.where(keep, spec.values, 0.0)
    omega2 = (spec.vectors * vals) @ spec.vectors.conj().T
    return value, DensitySystem._derived(omega2, state.shape)


def _omega_triple_prime(values: np.ndarray, eps: float, delta: float) -> tuple[float, np.ndarray]:
    """The alternate max-entropy of a spectrum and the eigenvalues of omega''' on its vectors."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    value, _ = hmax_prime_values(values, eps)
    tau = 2.0 ** (-(1.0 + delta) * value)
    return value, np.where(values >= tau * (1.0 - 1e-9), values, 0.0)


class H2Prime(NamedTuple):
    """h2' = -log2 ||tilde||_2^2 with hmax' of omega's marginal on the given label,
    the indices of the spectrum's pairs that eta keeps, omega''' of that marginal
    to the -1/4, and tilde's marginal on the label and its squared 2-norm."""

    value: float
    hmax_prime: float
    kept: np.ndarray
    omega3_inv_quarter: np.ndarray
    tilde_marginal: np.ndarray
    tilde_norm_sq: float


def h2_prime(spec: linalg.Spectrum, shp: SystemShape, eps: float, delta: float,
             given: str = "B") -> H2Prime:
    """Conditional collision entropy against the truncated marginal weight of
    omega = V Lambda V^dag on `shp`, from its spectrum `spec` (descending; a
    thin one leaves out zero eigenvalues).

    The canonical feasible point eta = V_K Lambda_K V_K^dag keeps the
    eigenvectors whose overlap with the truncated-marginal support is at least
    1 - eps, dropping the offenders first and then the smallest eigenvalues
    while the removed mass stays within eps. No shp.dim-square matrix is
    formed: the marginal comes from the factor V Lambda^{1/2}, and tilde from
    Z = (I (x) omega'''^{-1/4}) V_K Lambda_K^{1/2}, ||Z Z^dag||_2 = ||Z^dag Z||_2.
    omega''' shares the marginal's eigenvectors, so both use one eigh."""
    factor = spec.vectors * np.sqrt(np.clip(spec.values, 0.0, None))
    b_spec = linalg.spectral(linalg.factor_marginal(factor, shp, given))
    hmax_value, w3_vals = _omega_triple_prime(b_spec.values, eps, delta)
    cols = b_spec.vectors[:, _above_rank_floor(w3_vals)]

    # <v_i| I (x) P |v_i> for every eigenvector at once, P omega'''s support projector
    overlaps = np.einsum("ri,ri->i", spec.vectors.conj(), _apply_on_labels(
        cols @ cols.conj().T, spec.vectors, shp, [given])).real
    live = spec.values > RANK_FLOOR * float(spec.values.max(initial=0.0))
    off = live & (overlaps < 1.0 - eps - 1e-12)
    removed = sum(spec.values[off], 0.0)  # left to right, in index order
    if removed > eps + 1e-12:
        raise DomainError(f"support condition forces out mass {removed:.3e} beyond epsilon {eps}")
    keep = np.flatnonzero(live & ~off)
    keep = keep[np.lexsort((keep, spec.values[keep]))]  # by value, then index
    keep = keep[_drop_smallest(spec.values[keep], eps + 1e-15, removed).size:]
    if not keep.size:
        raise DomainError("smoothing removed every eigenvector")
    w3_iq = linalg.Spectrum(w3_vals, b_spec.vectors).power(-0.25)
    z = _apply_on_labels(w3_iq, factor[:, keep], shp, [given])
    norm_sq = float((np.abs(z.conj().T @ z) ** 2).sum())
    return H2Prime(-math.log2(norm_sq), hmax_value, keep, w3_iq,
                   linalg.factor_marginal(z, shp, given), norm_sq)


def h2_upper_bound_check(rho: DensitySystem, cfg: SmoothingConfig, value: float,
                         given=None) -> dict:
    """Compare the certified collision value, `value` =
    h2_conditional(rho, cfg, "fixed_marginal", given), against its dimension
    bound: it may not exceed H(A|B) + 8 eps log|A| + 2 + 2 log(1/eps).
    """
    if cfg.epsilon <= 0:
        raise DomainError("the dimension bound needs epsilon > 0")
    given = rho.shape.names[-1] if given is None else given
    given_list = linalg._label_list(given)
    a_labels = [n for n in rho.shape.names if n not in given_list]
    dim_a = rho.shape.dim_of_all(a_labels)
    rhs = (
        shannon(rho, given=given_list)
        + 8.0 * cfg.epsilon * math.log2(dim_a)
        + 2.0
        + 2.0 * math.log2(1.0 / cfg.epsilon)
    )
    return {
        "value_bits": value,
        "bound_bits": rhs,
        "ok": bool(value <= rhs + 1e-9),
    }
