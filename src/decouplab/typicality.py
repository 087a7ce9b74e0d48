"""Method of types and asymptotic equipartition checks at exact-sum scale.

The type classes of length-n sequences over |X| letters are built once per
(n, |X|) as one read-only table: an (N, |X|) array of letter counts in
lexicographic order and each class's exact sequence count as a Python int.
Typical sets are array masks over its rows, and the n-copy max-entropy cuts
its class masses with the spectral truncation rule of `entropy`. Sums run
over exact integer multiplicities, never over sampled sequences, so every
inequality verified here is an exact statement about the finite-n
distribution.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import entropy, linalg
from .errors import CapError, DimensionError, DomainError
from .quantum import DensitySystem

TYPE_ENUM_CAP = 1_000_000


class TypeTable(NamedTuple):
    """The type classes of length-n sequences: `counts` holds one class per
    row (letter counts, lexicographic order, read-only) and `sizes` each
    class's exact number of sequences."""

    counts: np.ndarray
    sizes: tuple[int, ...]


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


def _type_count(n: int, alphabet: int) -> int:
    """The number of type classes, or a CapError past TYPE_ENUM_CAP."""
    if alphabet < 1 or n < 0:
        raise DimensionError("need alphabet >= 1 and n >= 0")
    total = math.comb(n + alphabet - 1, alphabet - 1)
    if total > TYPE_ENUM_CAP:
        raise CapError(f"{total} types exceed the enumeration cap {TYPE_ENUM_CAP}")
    return total


@functools.lru_cache(maxsize=1)
def enumerate_types(n: int, alphabet: int) -> TypeTable:
    """All compositions of n into `alphabet` parts, lexicographically sorted.
    The last table is kept, so a typicality run's report and its aggregated
    max-entropy share it."""
    total = _type_count(n, alphabet)
    # stars and bars: the bars' slots among n + alphabet - 1, taken in
    # lexicographic order, give the counts in lexicographic order
    slots = n + alphabet - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), alphabet - 1)),
        dtype=np.int64, count=total * (alphabet - 1),
    ).reshape(total, alphabet - 1)
    edges = np.hstack([np.full((total, 1), -1), bars, np.full((total, 1), slots)])
    counts = np.diff(edges, axis=1) - 1
    counts.flags.writeable = False
    return TypeTable(counts, tuple(map(_class_size, counts.tolist())))


def _class_size(counts) -> int:
    """n! / prod_j c_j!, the number of sequences of one type, as the product
    of the binomials C(c_1 + ... + c_j, c_j)."""
    size, total = 1, 0
    for c in counts:
        total += c
        size *= math.comb(total, c)
    return size


def _type_probs(counts: np.ndarray, probs: tuple[float, ...]) -> np.ndarray:
    """The probability prod_j p_j^(c_j) of one sequence of each row's type,
    letter by letter from tables of Python's own powers: numpy's vectorised
    ** can move the last bit."""
    q = np.ones(len(counts))
    for c, p in zip(counts.T, probs):
        powers = np.array([p**k for k in range(int(c.max(initial=0)) + 1)])
        q = q * powers[c]
    return q


def _class_masses(sizes, qs) -> list[float]:
    """size * q for each type class, or a CapError once a size passes the float range."""
    try:
        return [size * q for size, q in zip(sizes, qs)]
    except OverflowError as exc:
        raise _float_range_error(max(sizes).bit_length() - 1) from exc


def _float_range_error(bits: int) -> CapError:
    return CapError(f"a type class of about 2^{bits} sequences passes the float range")


def _largest_typical_counts(n: int, probs, delta: float) -> list[int] | None:
    """The letter counts of the largest typical type class, None if no class
    is typical, found without the table.

    n! / prod c_j! grows as the counts draw together, so the largest class
    fills every letter's window [n p (1 - delta), n p (1 + delta)] up to one
    level t, the highest that keeps the total within n, and hands the units
    left over to letters at t that can still grow.
    """
    lo = [max(0, math.ceil(n * p * (1 - delta))) for p in probs]
    hi = [min(n, math.floor(n * p * (1 + delta))) for p in probs]
    if any(a > b for a, b in zip(lo, hi)) or not sum(lo) <= n <= sum(hi):
        return None

    def level(t):
        return [min(max(t, a), b) for a, b in zip(lo, hi)]

    t, top = 0, n  # level(0) sums to sum(lo) <= n
    while t < top:
        mid = (t + top + 1) // 2
        t, top = (mid, top) if sum(level(mid)) <= n else (t, mid - 1)
    counts = level(t)
    spare = n - sum(counts)
    for j, b in enumerate(hi):
        if spare and counts[j] == t < b:
            counts[j] += 1
            spare -= 1
    return counts


def _check_float_range(counts: list[int]):
    """The CapError that `_class_masses` raises for a class of these counts,
    decided without its exact size unless that sits near 2^1024: below the
    enumeration cap n < 10^6, where lgamma's error is far below the one-bit
    margin."""
    bits = (math.lgamma(sum(counts) + 1)
            - sum(math.lgamma(c + 1) for c in counts)) / math.log(2)
    if bits < 1023:
        return
    if bits <= 1025:
        size = _class_size(counts)
        try:
            float(size)
            return
        except OverflowError:
            bits = size.bit_length() - 1
    raise _float_range_error(int(bits))


def _survivor_floor(probs, eps: float) -> float:
    """Smallest eigenvalue that survives the eps/2 alternate max-entropy cut."""
    value, _ = entropy.hmax_prime_values(np.asarray(probs, dtype=float), eps / 2.0)
    return 2.0 ** (-value)


def aep_threshold(probs, eps: float, delta: float) -> float:
    """Smallest n the equipartition statement asks for at this (eps, delta)."""
    p_min = _survivor_floor(probs, eps)
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
    # the masses below convert every typical class size to a float; the
    # largest one decides, before the table is built, whether they all can
    _type_count(n, len(probs))
    largest = _largest_typical_counts(n, probs, delta)
    if largest is not None:
        _check_float_range(largest)
    counts, sizes = enumerate_types(n, len(probs))
    typical = np.ones(len(sizes), dtype=bool)
    for c, p in zip(counts.T, probs):
        typical &= (n * p * (1 - delta) <= c) & (c <= n * p * (1 + delta))
    rows = np.flatnonzero(typical)
    qs = _type_probs(counts[rows], probs)
    typical_sizes = [sizes[i] for i in rows.tolist()]
    # one class at a time in row order: a pairwise sum would move the last bits
    mass = functools.reduce(operator.add, _class_masses(typical_sizes, qs.tolist()), 0.0)
    count_total = sum(typical_sizes)
    threshold = aep_threshold(probs, eps, delta)
    lower_q = entropy._pow2(-n * h * (1 + delta))
    upper_q = entropy._pow2(-n * h * (1 - delta))
    count_low = entropy._pow2(n * h * (1 - delta)) * (1 - eps)
    count_high = entropy._pow2(n * h * (1 + delta))
    q_lo = float(qs.min()) if rows.size else None
    q_hi = float(qs.max()) if rows.size else None
    return {
        "n": n, "delta": delta, "eps": eps, "entropy": h,
        "n_threshold": threshold,
        "sub_threshold": bool(n < threshold),
        "typical_types": int(rows.size),
        "typical_mass": mass,
        "typical_count": count_total,
        "seq_prob_min": q_lo,
        "seq_prob_max": q_hi,
        "mass_ok": bool(mass >= 1.0 - eps),
        "sandwich_ok": bool(
            rows.size and lower_q <= q_lo * (1 + 1e-12)
            and q_hi <= upper_q * (1 + 1e-12)
        ),
        "count_ok": bool(count_low <= count_total <= count_high),
    }


def quantum_typical_report(state, n: int, delta: float, eps: float) -> dict:
    """Equipartition on the eigenvalues: projector mass, eigenvalue sandwich
    and projector rank reduce exactly to the classical statements."""
    vals = entropy._eigenvalues(state)
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
    by types. The class masses, smallest eigenvalue first and ties in table
    order, go through `entropy`'s truncation rule, which zeroes the smallest
    first and may stop partway through a class: this exactly matches the
    dense rule with index tie-breaking.
    """
    if not 0 <= eps < 1:
        raise DomainError(f"epsilon must sit in [0, 1), got {eps}")
    probs = tuple(float(p) for p in np.asarray(probs, dtype=float))
    counts, sizes = enumerate_types(n, len(probs))
    lam = _type_probs(counts, probs)
    live = np.flatnonzero(lam > 0)
    if not live.size:
        raise DomainError("product spectrum has no positive mass")
    order = live[np.argsort(lam[live], kind="stable")].tolist()
    masses = np.array(_class_masses([sizes[i] for i in order], lam[order].tolist()))
    # the first class that does not fit whole holds the smallest survivor;
    # if every class fits, the largest eigenvalue survives by construction
    cut = min(entropy._drop_smallest(masses, eps + 1e-15).size, len(order) - 1)
    return float(-math.log2(lam[order[cut]]))


def hmax_prime_iid_check(state_or_probs, n: int, eps: float, delta: float) -> dict:
    """Sandwich n(1-delta) H <= alternate max-entropy of n copies <= n(1+delta) H."""
    vals = entropy._eigenvalues(state_or_probs)
    vals = vals / vals.sum()
    h = entropy.shannon(vals)
    value = hmax_prime_iid_aggregated(vals, n, eps)
    threshold = aep_threshold(vals, eps, delta)
    return {
        "value_bits": value,
        "lower": n * (1 - delta) * h,
        "upper": n * (1 + delta) * h,
        "sandwich_ok": bool(n * (1 - delta) * h - 1e-9 <= value <= n * (1 + delta) * h + 1e-9),
        "n_threshold": threshold,
        "sub_threshold": bool(n < threshold),
        "q_min": _survivor_floor(vals, eps),
    }


FULL_MODE_DIM_CAP = 4096


def h2_prime_iid_bound_check(omega: DensitySystem, n: int, eps: float,
                             delta: float) -> dict:
    """Many-copy window for the alternate conditional collision entropy.

    Arithmetic mode always evaluates the window endpoints and the statement's
    own n threshold from single-copy data. Full mode additionally evaluates the
    canonical feasible point of the n-fold state, on `_product_spectrum`, which
    needs the joint eigenstructure and is therefore capped at tiny sizes
    (n <= 8, |A||B| <= 4, and total dimension <= 4096).
    """
    if len(omega.shape.labels) != 2:
        raise DimensionError("expected a bipartite single-copy state")
    (_, da), (b_name, db) = omega.shape.labels
    dab = da * db
    spec = linalg.spectral(omega.matrix)
    b_spec = linalg.spectral(omega.marginal([b_name]).matrix)
    h_joint, h_b = entropy.shannon(spec.values), entropy.shannon(b_spec.values)
    h_cond = h_joint - h_b
    eps_prime = 8.0 * (n + dab) ** dab * eps**0.25
    lower = n * h_cond - n * delta * (3.0 * h_joint + 7.0 * h_b)
    upper = (
        n * h_cond + 32.0 * n * math.sqrt(eps_prime) * math.log2(da)
        + math.log2(1.0 / eps_prime)
    )
    q_min = _survivor_floor(spec.values, eps)
    live = spec.vectors[:, entropy._above_rank_floor(spec.values)]
    # column j: the B-diagonal of tr_A |w_j><w_j| in the marginal's eigenbasis,
    # sum_a |<a, b_k|w_j>|^2, for every live eigenvector w_j at once
    overlaps = np.einsum("bk,abj->akj", b_spec.vectors.conj(), live.reshape(da, db, -1))
    diagonals = (np.abs(overlaps) ** 2).sum(axis=0)
    p_min = min((_survivor_floor(p, eps) for p in diagonals.T), default=math.inf)
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
        value = entropy.h2_prime(_product_spectrum(spec, da, db, n), linalg.shape(
            ("A", da**n), ("B", db**n)), eps_prime, 5.0 * delta).value
        report.update({
            "mode": "full",
            "value_bits": value,
            "lower_holds": bool(value >= lower - 1e-9),
            "upper_holds": bool(value <= upper + 1e-9),
        })
    return report


def _product_spectrum(spec: linalg.Spectrum, da: int, db: int, n: int) -> linalg.Spectrum:
    """omega^(x)n's spectrum on (A^n, B^n), sorted descending, stably: products of
    omega's eigenvalues, and Kronecker products of its eigenvectors with rows
    (A_0 B_0 A_1 B_1 ...) regrouped to (A_0 ... A_n-1, B_0 ... B_n-1)."""
    vals = functools.reduce(np.multiply.outer, [spec.values] * n).ravel()
    order = np.argsort(-vals, kind="stable")
    single = spec.vectors.reshape(da, db, -1)
    vecs = np.ones((1, 1, len(order)))
    for d in np.unravel_index(order, (da * db,) * n):  # one factor per copy, sorted columns
        vecs = np.einsum("xyc,abc->xaybc", vecs, single[:, :, d]).reshape(
            vecs.shape[0] * da, vecs.shape[1] * db, -1)
    return linalg.Spectrum(vals[order], vecs.reshape(len(vals), -1))
