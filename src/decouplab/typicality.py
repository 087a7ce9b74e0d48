"""Method of types and asymptotic equipartition checks at exact-sum scale.

The type classes of length-n sequences over |X| letters are built once per
(n, |X|) as one read-only table: an (N, |X|) array of letter counts in
lexicographic order, each class's exact sequence count as a Python int,
and the float values of those counts, inf past the float range, for the
class masses.
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

TYPE_TABLE_BYTES = 2**29


class TypeTable(NamedTuple):
    """The type classes of length-n sequences: `counts` holds one class per
    row (letter counts, lexicographic order, read-only), `sizes` each
    class's exact number of sequences and `float_sizes` those numbers as
    read-only floats, inf where one passes the float range."""

    counts: np.ndarray
    sizes: tuple[int, ...]
    float_sizes: np.ndarray


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
def enumerate_types(n: int, alphabet: int) -> TypeTable:
    """All compositions of n into `alphabet` parts, lexicographically sorted.
    The last table is kept, so a typicality run's report and its aggregated
    max-entropy share it."""
    if alphabet < 1 or n < 0:
        raise DimensionError("need alphabet >= 1 and n >= 0")
    total = math.comb(n + alphabet - 1, alphabet - 1)
    # per row: the counts and the bars they come from as int64, Python's object
    # headers, and a size of at most n log2|X| bits in 30-bit digits of 4 bytes;
    # total is compared, not multiplied, as it can pass the float range
    row_bytes = 16 * alphabet + 128 + n * math.log2(alphabet) * 4 / 30
    if total > TYPE_TABLE_BYTES / row_bytes:
        raise CapError(f"a table of about 2^{math.log2(total):.1f} types at {row_bytes:.0f} "
                       f"bytes each passes the enumeration cap of {TYPE_TABLE_BYTES >> 20} MiB")
    # stars and bars: the bars' slots among n + alphabet - 1, taken in
    # lexicographic order, give the counts in lexicographic order
    slots = n + alphabet - 1
    edges = np.empty((total, alphabet + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, slots
    edges[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), alphabet - 1)),
        dtype=np.int64, count=total * (alphabet - 1),
    ).reshape(total, alphabet - 1)
    counts = edges[:, 1:] - edges[:, :-1]
    del edges
    counts -= 1
    counts.flags.writeable = False
    # n! / prod_j c_j! as prod_j C(m_j, c_j), m_j the count left before letter
    # j: one (size so far, count left) pair per prefix, expanded letter by
    # letter in the same order, stepping C(m, c) to C(m, c + 1) exactly
    level = [(1, n)]
    for _ in range(alphabet - 1):
        grown = []
        for size, left in level:
            for c in range(left + 1):
                grown.append((size, left - c))
                size = size * (left - c) // (c + 1)
        level = grown
    sizes = tuple(size for size, _ in level)
    level.clear()  # the pairs go before the floats are built
    floats = np.fromiter(map(_float_or_inf, sizes), dtype=float, count=len(sizes))
    floats.flags.writeable = False
    return TypeTable(counts, sizes, floats)


def _type_probs(counts: np.ndarray, probs: tuple[float, ...]) -> np.ndarray:
    """The probability prod_j p_j^(c_j) of one sequence of each row's type,
    letter by letter from tables of Python's own powers: numpy's vectorised
    ** can move the last bit."""
    q = np.ones(len(counts))
    for c, p in zip(counts.T, probs):
        powers = np.array([p**k for k in range(int(c.max(initial=0)) + 1)])
        q = q * powers[c]
    return q


def _float_or_inf(size: int) -> float:
    try:
        return float(size)
    except OverflowError:
        return math.inf


def _class_masses(table: TypeTable, rows: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """size * q for the type classes `rows` of `table`, as Python's int * float
    rounds it; a CapError if one of their sizes passes the float range."""
    sizes = table.float_sizes[rows]
    over = np.isinf(sizes)
    if over.any():
        largest = max(table.sizes[i] for i in rows[over].tolist())
        raise CapError(f"a type class of about 2^{largest.bit_length() - 1} "
                       "sequences passes the float range")
    return sizes * qs


def _survivor_floor(probs, eps: float) -> float:
    """Smallest eigenvalue that survives the eps/2 alternate max-entropy cut."""
    value, _ = entropy.hmax_prime_values(np.asarray(probs, dtype=float), eps / 2.0)
    return 2.0 ** (-value)


def aep_threshold(probs, eps: float, delta: float) -> float:
    """Smallest n the equipartition statement asks for at this (eps, delta)."""
    return _threshold_at(_survivor_floor(probs, eps), len(probs), eps, delta)


def _threshold_at(p_min: float, letters: int, eps: float, delta: float) -> float:
    """`aep_threshold` of an alphabet of `letters` whose survivor floor is p_min."""
    return 4.0 / (p_min * delta * delta) * math.log2(letters / eps)


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
    table = enumerate_types(n, len(probs))
    typical = np.ones(len(table.sizes), dtype=bool)
    for c, p in zip(table.counts.T, probs):
        typical &= (n * p * (1 - delta) <= c) & (c <= n * p * (1 + delta))
    rows = np.flatnonzero(typical)
    qs = _type_probs(table.counts[rows], probs)
    # one class at a time in row order: a pairwise sum would move the last bits
    mass = functools.reduce(operator.add, _class_masses(table, rows, qs).tolist(), 0.0)
    count_total = sum(table.sizes[i] for i in rows.tolist())
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
    table = enumerate_types(n, len(probs))
    lam = _type_probs(table.counts, probs)
    live = np.flatnonzero(lam > 0)
    if not live.size:
        raise DomainError("product spectrum has no positive mass")
    order = live[np.argsort(lam[live], kind="stable")]
    masses = _class_masses(table, order, lam[order])
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
    q_min = _survivor_floor(vals, eps)
    threshold = _threshold_at(q_min, len(vals), eps, delta)
    return {
        "value_bits": value,
        "lower": n * (1 - delta) * h,
        "upper": n * (1 + delta) * h,
        "sandwich_ok": bool(n * (1 - delta) * h - 1e-9 <= value <= n * (1 + delta) * h + 1e-9),
        "n_threshold": threshold,
        "sub_threshold": bool(n < threshold),
        "q_min": q_min,
    }


FULL_MODE_DIM_CAP = 4096


def many_copy_eps_prime(n: int, dab, eps: float) -> float:
    """The many-copy smoothing eps' = 8 (n + |A||B|)^(|A||B|) eps^(1/4)."""
    return 8.0 * (n + dab) ** dab * eps**0.25


def h2_prime_iid_bound_check(omega: DensitySystem, n: int, eps: float,
                             delta: float) -> dict:
    """Many-copy window for the alternate conditional collision entropy.

    Arithmetic mode always evaluates the window endpoints and the statement's
    own n threshold from single-copy data. Full mode additionally evaluates the
    canonical feasible point of the n-fold state, on `_product_spectrum`, which
    needs the joint eigenstructure and is therefore capped at tiny sizes
    (n <= 8, |A||B| <= 4, and total dimension <= 4096). Where the support
    condition leaves no feasible point, full mode reports null values and the
    reason under `no_value`.
    """
    if len(omega.shape.labels) != 2:
        raise DimensionError("expected a bipartite single-copy state")
    (_, da), (b_name, db) = omega.shape.labels
    dab = da * db
    spec = linalg.spectral(omega.matrix)
    b_spec = linalg.spectral(omega.marginal([b_name]).matrix)
    h_joint, h_b = entropy.shannon(spec.values), entropy.shannon(b_spec.values)
    h_cond = h_joint - h_b
    eps_prime = many_copy_eps_prime(n, dab, eps)
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
        report["mode"] = "full"
        try:
            value = entropy.h2_prime(_product_spectrum(spec, da, db, n), linalg.shape(
                ("A", da**n), ("B", db**n)), eps_prime, 5.0 * delta).value
        except DomainError as exc:  # no feasible point: report why, with no value
            report.update(value_bits=None, lower_holds=None, upper_holds=None,
                          no_value=str(exc))
        else:
            report.update(value_bits=value, lower_holds=bool(value >= lower - 1e-9),
                          upper_holds=bool(value <= upper + 1e-9))
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
