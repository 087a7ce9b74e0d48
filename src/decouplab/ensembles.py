"""Unitary ensembles: Haar, structured groups, layered circuits, and their
moment operators, with tensor-product-expander diagnostics.

Sampling is counter-based: each draw seeds its own generator from
(root seed, stream index), so runs are reproducible regardless of order
and safe to parallelise. `sample_batch(streams)` is the one sampler; a
draw depends only on its stream, so the stack is the same, bit for bit,
however the streams are split into batches, and `sample(i)` is the
batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapError, DomainError

KINDS = ("enumerated", "haar", "circuit", "iterated")
MOMENT_DIM_CAP = 4096  # largest dim**(2t), the superoperator dimension
# working memory for one stack of flattened U^(x)t in moment_operator
MOMENT_BATCH_BYTES = 1 << 21


def _strip_phase(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    flat = m.ravel()
    idx = np.flatnonzero(np.abs(flat) > tol)
    pivot = flat[idx[0]]
    return m * (abs(pivot) / pivot)


_PAULI_1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_group(n_qubits: int) -> list[np.ndarray]:
    """Phase-stripped Pauli tensor products, 4^n members."""
    if n_qubits not in (1, 2):
        raise DomainError("pauli_group supports 1 or 2 qubits")
    singles = [_PAULI_1[k] for k in ("I", "X", "Y", "Z")]
    if n_qubits == 1:
        return [_strip_phase(p) for p in singles]
    return [_strip_phase(np.kron(p, q)) for p in singles for q in singles]


def _canonical_key(m: np.ndarray) -> bytes:
    stripped = _strip_phase(m)
    # adding 0.0 maps IEEE negative zeros to positive zeros before hashing
    return (np.round(stripped, 9) + 0.0).tobytes()


def clifford_group(n_qubits: int) -> list[np.ndarray]:
    """Closure of the standard generators modulo global phase.

    Sizes are 24 for one qubit and 11520 for two. Closure is a breadth-first
    multiplication sweep with phase-canonical dedup keys.
    """
    if n_qubits not in (1, 2):
        raise DomainError("clifford_group supports 1 or 2 qubits")
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    if n_qubits == 1:
        gens = [h, s]
    else:
        eye = np.eye(2, dtype=complex)
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        gens = [np.kron(h, eye), np.kron(eye, h),
                np.kron(s, eye), np.kron(eye, s), cnot]
    dim = 2**n_qubits
    seen = {_canonical_key(np.eye(dim, dtype=complex)): np.eye(dim, dtype=complex)}
    frontier = [np.eye(dim, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                w = g @ u
                key = _canonical_key(w)
                if key not in seen:
                    seen[key] = _strip_phase(w)
                    nxt.append(w)
        frontier = nxt
    members = list(seen.values())
    expected = {1: 24, 2: 11520}[n_qubits]
    if len(members) != expected:
        raise DomainError(f"clifford closure found {len(members)} members, expected {expected}")
    return members


@dataclass(frozen=True, eq=False)
class UnitaryEnsemble:
    """A distribution over unitaries with a reproducible stream sampler."""

    kind: str  # enumerated | haar | circuit | iterated
    dim: int
    seed: int = 0
    members: tuple = ()
    n_qubits: int = 0
    circuit_depth: int = 0
    name: str = ""
    base: "UnitaryEnsemble | None" = None
    iterations: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "enumerated" and not self.members:
            raise DomainError("enumerated ensemble needs members")
        if self.dim < 1:
            raise DomainError(f"ensemble dimension must be positive, got {self.dim}")
        if self.kind == "enumerated":
            if any(np.shape(m) != (self.dim, self.dim) for m in self.members):
                raise DomainError(f"enumerated members must all be {self.dim}x{self.dim}")
            us = np.stack(self.members)
            gap = np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(self.dim)).max()
            if not gap <= 1e-9:
                raise DomainError(f"enumerated members must be unitary, |U U^dag - I| = {gap:.3g}")
        if self.kind == "circuit":
            if self.n_qubits < 2:
                raise DomainError("circuit ensembles need at least two qubits")
            if self.dim != 2**self.n_qubits:
                raise DomainError(f"a {self.n_qubits}-qubit circuit has dimension "
                                  f"{2**self.n_qubits}, not {self.dim}")
            if self.circuit_depth < 0:
                raise DomainError("depth must be nonnegative")
        if self.kind == "iterated":
            if self.base is None:
                raise DomainError("iterated ensemble needs a base")
            if self.base.dim != self.dim:
                raise DomainError(f"iterated ensemble of dimension {self.dim} has a "
                                  f"base of dimension {self.base.dim}")
            if self.iterations < 1:
                raise DomainError("iteration count must be at least 1")

    def sample(self, stream: int) -> np.ndarray:
        return self.sample_batch([stream])[0]

    def sample_batch(self, streams) -> np.ndarray:
        """The draws of `streams`, in order, as an (n, dim, dim) stack."""
        streams = list(streams)
        if not streams:
            return np.empty((0, self.dim, self.dim), dtype=complex)
        if self.kind == "iterated":
            # draw s is the product of base draws s*k .. s*k + k - 1, latest on the left
            k = self.iterations
            draws = self.base.sample_batch([s * k + j for s in streams for j in range(k)])
            u = np.eye(self.dim, dtype=complex)
            for j in range(k):
                u = draws[j::k] @ u
            return u
        rngs = [np.random.default_rng((self.seed, s)) for s in streams]
        if self.kind == "enumerated":
            return np.stack([self.members[int(rng.integers(len(self.members)))]
                             for rng in rngs])
        if self.kind == "haar":
            return linalg.random_unitaries(self.dim, rngs)
        return _circuit_unitaries(self.n_qubits, self.circuit_depth, rngs)


def enumerated_ensemble(members, seed: int = 0, name: str = "") -> UnitaryEnsemble:
    members = tuple(np.asarray(m, dtype=complex) for m in members)
    return UnitaryEnsemble(kind="enumerated", dim=members[0].shape[0] if members else 0,
                           seed=seed, members=members, name=name)


def haar_ensemble(dim: int, seed: int = 0) -> UnitaryEnsemble:
    return UnitaryEnsemble(kind="haar", dim=dim, seed=seed, name="haar")


def random_circuit_ensemble(n_qubits: int, depth: int, seed: int = 0) -> UnitaryEnsemble:
    """Alternating brickwork of Haar two-qubit gates on a ring of qubits."""
    return UnitaryEnsemble(kind="circuit", dim=2**n_qubits, seed=seed,
                           n_qubits=n_qubits, circuit_depth=depth, name="circuit")


def _ring_pairs(n: int, layer: int) -> list[tuple[int, int]]:
    start = layer % 2
    pairs = [(i, i + 1) for i in range(start, n - 1, 2)]
    if start == 1 and n % 2 == 0:
        pairs.append((n - 1, 0))
    return pairs


def _circuit_unitaries(n: int, depth: int, rngs) -> np.ndarray:
    """One brickwork circuit per generator, as an (len(rngs), 2**n, 2**n) stack.

    Each generator draws its gates' Ginibre matrices in gate order. A gate on
    qubits (a, b) acts on the whole stack by one batched matmul over the row
    axes a and b of the (m, 2, ..., 2, 2**n) tensor, with a first.
    """
    m, dim = len(rngs), 2**n
    u = np.tile(np.eye(dim, dtype=complex), (m, 1, 1))
    pairs = [p for layer in range(depth) for p in _ring_pairs(n, layer)]
    if not pairs:
        return u
    gates = linalg.random_unitaries(4, [rng for rng in rngs for _ in pairs])
    gates = gates.reshape(m, len(pairs), 4, 4)
    u = u.reshape((m,) + (2,) * n + (dim,))
    for k, (a, b) in enumerate(pairs):
        v = np.moveaxis(u, (1 + a, 1 + b), (1, 2))
        v = (gates[:, k] @ v.reshape(m, 4, -1)).reshape(v.shape)
        u = np.moveaxis(v, (1, 2), (1 + a, 1 + b))
    return u.reshape(m, dim, dim)


def iterate_ensemble(e: UnitaryEnsemble, k: int) -> UnitaryEnsemble:
    """Products of k independent draws; moment operators compose as powers."""
    return UnitaryEnsemble(kind="iterated", dim=e.dim, seed=e.seed,
                           base=e, iterations=k, name=f"{e.name}^{k}")


def _check_moment_cap(dim: int, t: int):
    if dim ** (2 * t) > MOMENT_DIM_CAP:
        raise CapError(
            f"moment operator needs dim**(2t) = {dim ** (2 * t)} <= {MOMENT_DIM_CAP}"
        )


def _tensor_powers(us: np.ndarray, t: int) -> np.ndarray:
    """U^(x)t for each U of an (n, d, d) stack."""
    n, d, _ = us.shape
    w = us
    for _ in range(t - 1):
        w = (w[:, :, None, :, None] * us[:, None, :, None, :]).reshape(
            n, w.shape[1] * d, w.shape[2] * d)
    return w


def moment_operator(e: UnitaryEnsemble, t: int, samples: int = 2000) -> np.ndarray:
    """The averaged t-fold twirl as a matrix on vectorised operators.

    Acts on column-stacked M as G vec(M) = E[ vec(U^t M U^-t) ]; exact for
    enumerated ensembles and their iterates, Monte Carlo with `samples` draws
    otherwise.
    G = E[kron(conj W, W)] with W = U^(x)t is one Gram matrix: with the rows
    of Y the flattened W, conj(Y)^T Y holds conj W[a, c] W[b, d] at
    ((a, c), (b, d)), which a transpose regroups to ((a, b), (c, d)).
    """
    if t < 1:
        raise DomainError("moment order t must be at least 1")
    _check_moment_cap(e.dim, t)
    if e.kind == "iterated" and e.base.kind == "enumerated":
        # a product of independent draws twirls by the product of their twirls
        return np.linalg.matrix_power(moment_operator(e.base, t), e.iterations)
    if e.kind == "enumerated":
        members = np.stack(e.members)
        count, draw = len(members), lambda lo, hi: members[lo:hi]
    else:
        count, draw = samples, lambda lo, hi: e.sample_batch(range(lo, hi))
    d_t = e.dim**t
    step = max(1, MOMENT_BATCH_BYTES // (16 * d_t * d_t))
    gram = np.zeros((d_t * d_t, d_t * d_t), dtype=complex)
    for lo in range(0, count, step):
        y = _tensor_powers(draw(lo, min(lo + step, count)), t).reshape(-1, d_t * d_t)
        gram += y.conj().T @ y
    gram /= count
    return gram.reshape(d_t, d_t, d_t, d_t).transpose(0, 2, 1, 3).reshape(
        d_t * d_t, d_t * d_t)


def haar_moment_projector(dim: int, t: int) -> np.ndarray:
    """Exact Haar twirl at order t via the permutation commutant.

    The Gram matrix of permutation operators is inverted by pseudo-inverse,
    which also covers the rank-deficient regime t >= dim.
    """
    if t < 1:
        raise DomainError("moment order t must be at least 1")
    _check_moment_cap(dim, t)
    d_t = dim**t
    # P_pi |i_1 .. i_t> = |i_pi(1) .. i_pi(t)> is the identity with its input
    # axes permuted; rows are vec(P_pi), and the projector is
    # sum_ij ginv[i, j] |v_i><v_j| with ginv the inverse Gram matrix
    eye = np.eye(d_t, dtype=complex).reshape((dim,) * (2 * t))
    vecs = np.array([
        eye.transpose(list(range(t)) + [t + k for k in np.argsort(pi)])
        .reshape(d_t, d_t).ravel(order="F")
        for pi in itertools.permutations(range(t))
    ])
    ginv = np.linalg.pinv((vecs.conj() @ vecs.T).real)
    return vecs.T @ ginv @ vecs.conj()


@dataclass(frozen=True)
class DesignReport:
    t: int
    dim: int
    lambda_value: float
    moment_deviation: float
    samples_used: int
    kind: str

    def __post_init__(self):
        if not -1e-9 <= self.lambda_value <= 2.0 + 1e-9:
            raise DomainError(f"lambda {self.lambda_value} outside [0, 2]")

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "dim": self.dim,
            "lambda": float(self.lambda_value),
            "moment_deviation": float(self.moment_deviation),
            "samples_used": self.samples_used,
            "kind": self.kind,
        }


def qtpe_lambda(e: UnitaryEnsemble, t: int, samples: int = 2000) -> DesignReport:
    """Expander gap ||G - Haar projector||_inf plus the balanced-monomial check.

    Every entry of the degree-k moment gap is the expectation error of one
    balanced monomial of degree k; the deviation column reports dim^k times
    the largest such error over all degrees k <= t (the approximate-design
    normalisation). That maximum sits at k = t, so only degree t is built:
    summing a degree-(k+1) entry over one matched row/column index pair
    gives the degree-k entry, because sum_x |U_xy|^2 = 1 for every draw and
    for Haar, so d^k max|gap_k| <= d^(k+1) max|gap_(k+1)|.
    """
    g_t = moment_operator(e, t, samples=samples)
    gap = g_t - haar_moment_projector(e.dim, t)
    deviation = (e.dim**t) * float(np.abs(gap).max())
    lam = linalg.schatten_norm(gap, np.inf)
    used = samples if e.kind not in ("enumerated",) else len(e.members)
    return DesignReport(t=t, dim=e.dim, lambda_value=float(lam),
                        moment_deviation=float(deviation),
                        samples_used=used, kind=e.kind)


def ensemble_to_json(e: UnitaryEnsemble) -> dict:
    """Descriptor only; named groups are regenerated rather than inlined."""
    out = {"kind": e.kind, "dim": e.dim, "seed": e.seed, "name": e.name}
    if e.kind == "circuit":
        out["n_qubits"] = e.n_qubits
        out["depth"] = e.circuit_depth
    if e.kind == "iterated":
        out["iterations"] = e.iterations
        out["base"] = ensemble_to_json(e.base)
    if e.kind == "enumerated" and e.name not in ("pauli", "clifford"):
        out["members"] = [linalg.matrix_to_json(m) for m in e.members]
    if e.kind == "enumerated" and e.name in ("pauli", "clifford"):
        out["n_qubits"] = int(math.log2(e.dim))
    return out


def ensemble_from_json(d: dict) -> UnitaryEnsemble:
    kind = d.get("kind")
    if kind == "haar":
        return haar_ensemble(int(d["dim"]), seed=int(d.get("seed", 0)))
    if kind == "circuit":
        return random_circuit_ensemble(int(d["n_qubits"]), int(d["depth"]),
                                       seed=int(d.get("seed", 0)))
    if kind == "iterated":
        return iterate_ensemble(ensemble_from_json(d["base"]), int(d["iterations"]))
    if kind == "enumerated":
        name = d.get("name", "")
        if name == "pauli":
            return enumerated_ensemble(pauli_group(int(d["n_qubits"])),
                                       seed=int(d.get("seed", 0)), name="pauli")
        if name == "clifford":
            return enumerated_ensemble(clifford_group(int(d["n_qubits"])),
                                       seed=int(d.get("seed", 0)), name="clifford")
        members = [linalg.matrix_from_json(m) for m in d["members"]]
        return enumerated_ensemble(members, seed=int(d.get("seed", 0)), name=name)
    raise DomainError(f"unknown ensemble descriptor kind {kind!r}")
