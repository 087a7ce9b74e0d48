"""Unitary ensembles: Haar, structured groups, layered circuits, and the
tensor-product-expander check of their t-th moments.

Sampling is counter-based: draw s comes from the stream that
`np.random.default_rng((seed, s))` would start, so runs are reproducible
regardless of order and safe to parallelise. `sample_batch(streams)` is
the one sampler, and it seeds in bulk: numpy's SeedSequence hash, which
is most of what building a generator costs, runs once for all streams as
uint32 array arithmetic, PCG64's seeding follows in Python ints, and one
generator is reset to each stream's state in turn. Each stream's normals
then come from one `standard_normal` call into a preallocated buffer. A
draw depends only on its stream, so the stack is the same, bit for bit,
however the streams are split into batches, and `sample(i)` is the batch
of one.

`qtpe_lambda` reads the moment operator E[conj W (x) W], W = U^(x)t, and
its Haar twirl without building either dim^(2t)-square matrix: lambda from
the blocks of the isotypic parts Q_k^T W Q_k, the deviation from the Gram
matrix of the distinct degree-t monomials of U and their Weingarten values.
One pass over the draws (or an enumerated ensemble's members) gives both;
iterates of enumerated ensembles take block powers. The dense route is the
test oracle in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapError, ConfigError, DecouplabError, DomainError

KINDS = ("enumerated", "haar", "circuit", "iterated")
MOMENT_DIM_CAP = 4096  # largest max(dim, 2)**(2t) of a design check's tables
# working memory for one stack of per-draw monomials and isotypic parts in
# qtpe_lambda: 200 draws fit in one stack up to dim 8 at t = 2
MOMENT_BATCH_BYTES = 1 << 25


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier) for the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, count: int):
    """The (xor, multiplier) columns of `count` successive hashmix
    calls: each call xors with the running constant, advances it, then
    multiplies by the new one."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    c = np.array(consts, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_words(entropy: np.ndarray) -> list[list[int]]:
    """`SeedSequence(e).generate_state(4, np.uint64)` for every column e of an
    (L, m) uint32 entropy array, as m lists of four ints.

    The hash constants do not depend on the data, so each step of the
    sequential pool mixing runs on all m pools at once, in uint32 arithmetic
    that wraps as the reference does.
    """
    length, m = entropy.shape
    xor, mul = _hash_constants(*_HASH_A, 16 + 4 * max(0, length - 4))
    pool = np.zeros((4, m), dtype=np.uint32)
    pool[:length] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    k = 4
    for src in range(4):
        # every other pool word absorbs its own hash of word src
        dst = [j for j in range(4) if j != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[k:k + 4], mul[k:k + 4]))
        k += 4
    xor, mul = _hash_constants(*_HASH_B, 8)
    state = _hashmix(np.concatenate([pool, pool]), xor, mul)
    # consecutive uint32 words pair up little-endian into the uint64 words
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0 ([0] for zero), as SeedSequence splits it."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _stream_states(seed: int, streams: list[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) at which `np.random.default_rng((seed, s))`
    starts, for each stream s.

    The entropy is the words of seed then those of s. Streams with the same
    number of words hash together; PCG64 then takes (state, inc) from the two
    halves of the four generated words and steps twice, adding the state half
    in between.
    """
    if seed < 0 or min(streams) < 0:
        raise DomainError("seeds and stream indices must be nonnegative")
    head = _words(seed)
    sizes = [len(_words(s)) for s in streams]
    out = [None] * len(streams)
    for size in set(sizes):
        rows = [i for i, n in enumerate(sizes) if n == size]
        entropy = np.empty((len(head) + size, len(rows)), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        for j in range(size):
            entropy[len(head) + j] = [streams[i] >> 32 * j & _MASK32 for i in rows]
        for i, (s_hi, s_lo, i_hi, i_lo) in zip(rows, _seed_words(entropy)):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            out[i] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc
    return out


def _stream_generators(seed: int, streams: list[int]):
    """A generator at the start of each stream's `np.random.default_rng((seed, s))`,
    in order: one generator, reset before each yield."""
    rng = np.random.Generator(np.random.PCG64(0))
    start = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": start, "has_uint32": 0, "uinteger": 0}
    for start["state"], start["inc"] in _stream_states(seed, streams):
        rng.bit_generator.state = state
        yield rng


def _strip_phase(m: np.ndarray) -> np.ndarray:
    flat = m.ravel()
    idx = np.flatnonzero(np.abs(flat) > 1e-8)
    pivot = flat[idx[0]]
    return m * (abs(pivot) / pivot)


_PAULI_1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _frozen(members) -> np.ndarray:
    out = np.stack(members)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2)  # a group has one or two qubits
def pauli_group(n_qubits: int) -> np.ndarray:
    """Phase-stripped Pauli tensor products, 4^n members, as one read-only
    (4^n, 2^n, 2^n) stack."""
    if n_qubits not in GROUPS["pauli"][1]:
        raise DomainError("pauli_group supports 1 or 2 qubits")
    return _frozen([_strip_phase(functools.reduce(np.kron, ps))
                    for ps in itertools.product(_PAULI_1.values(), repeat=n_qubits)])


def _canonical_key(m: np.ndarray) -> bytes:
    stripped = _strip_phase(m)
    # adding 0.0 maps IEEE negative zeros to positive zeros before hashing
    return (np.round(stripped, 9) + 0.0).tobytes()


@functools.lru_cache(maxsize=2)
def clifford_group(n_qubits: int) -> np.ndarray:
    """Closure of the standard generators modulo global phase, as one
    read-only (size, 2^n, 2^n) stack whose size `GROUPS` gives: a
    breadth-first multiplication sweep with phase-canonical dedup keys."""
    sizes = GROUPS["clifford"][1]
    if n_qubits not in sizes:
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
    members, expected = list(seen.values()), sizes[n_qubits]
    if len(members) != expected:
        raise DomainError(f"clifford closure found {len(members)} members, expected {expected}")
    return _frozen(members)


# the named groups a descriptor regenerates from its qubit count, each with
# its size at every qubit count it supports
GROUPS = {"pauli": (pauli_group, {1: 4, 2: 16}),
          "clifford": (clifford_group, {1: 24, 2: 11520})}


@dataclass(frozen=True, eq=False)
class UnitaryEnsemble:
    """A distribution over unitaries with a reproducible stream sampler."""

    kind: str  # enumerated | haar | circuit | iterated
    dim: int
    seed: int = 0
    members: np.ndarray | None = None  # enumerated: the read-only (n, dim, dim) stack
    n_qubits: int = 0
    circuit_depth: int = 0
    name: str = ""
    base: "UnitaryEnsemble | None" = None
    iterations: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "enumerated" and (self.members is None or not len(self.members)):
            raise DomainError("enumerated ensemble needs members")
        if self.dim < 1:
            raise DomainError(f"ensemble dimension must be positive, got {self.dim}")
        if self.kind == "enumerated":
            us = self.members
            if us.shape[1:] != (self.dim, self.dim):
                raise DomainError(f"enumerated members must all be {self.dim}x{self.dim}")
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
        streams = [operator.index(s) for s in streams]
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
        if self.kind == "enumerated":
            return self.members[[int(rng.integers(len(self.members)))
                                 for rng in _stream_generators(self.seed, streams)]]
        if self.kind == "haar":
            block = (2, self.dim, self.dim)
        else:
            pairs = [p for layer in range(self.circuit_depth)
                     for p in _ring_pairs(self.n_qubits, layer)]
            block = (len(pairs), 2, 4, 4)  # each gate's Ginibre parts, in gate order
        normals = np.empty((len(streams),) + block)
        for out, rng in zip(normals, _stream_generators(self.seed, streams)):
            rng.standard_normal(out=out)
        unitaries = linalg.haar_from_normals(normals)
        if self.kind == "haar":
            return unitaries
        return _apply_gates(self.n_qubits, pairs, unitaries)


def enumerated_ensemble(members, seed: int = 0, name: str = "") -> UnitaryEnsemble:
    """Uniform draws from `members`: a read-only complex stack, such as a named
    group's, is kept as it is, anything else is stacked once, read-only."""
    if not (isinstance(members, np.ndarray) and members.dtype == complex
            and members.ndim == 3 and not members.flags.writeable):
        mats = [np.asarray(m, dtype=complex) for m in members]
        dim = mats[0].shape[0] if mats and mats[0].ndim else 0
        if any(m.shape != (dim, dim) for m in mats):
            raise DomainError(f"enumerated members must all be {dim}x{dim}")
        members = _frozen(mats) if mats else np.empty((0, 0, 0), dtype=complex)
    return UnitaryEnsemble(kind="enumerated", dim=members.shape[1], seed=seed,
                           members=members, name=name)


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


def _apply_gates(n: int, pairs: list[tuple[int, int]], gates: np.ndarray) -> np.ndarray:
    """One brickwork circuit per row of an (m, len(pairs), 4, 4) gate stack,
    as an (m, 2**n, 2**n) stack.

    A gate on qubits (a, b) acts on the whole stack by one batched matmul
    over the row axes a and b of the (m, 2, ..., 2, 2**n) tensor, with a first.
    """
    m, dim = len(gates), 2**n
    u = np.tile(np.eye(dim, dtype=complex), (m, 1, 1)).reshape((m,) + (2,) * n + (dim,))
    for k, (a, b) in enumerate(pairs):
        v = np.moveaxis(u, (1 + a, 1 + b), (1, 2))
        v = (gates[:, k] @ v.reshape(m, 4, -1)).reshape(v.shape)
        u = np.moveaxis(v, (1, 2), (1 + a, 1 + b))
    return u.reshape(m, dim, dim)


def iterate_ensemble(e: UnitaryEnsemble, k: int) -> UnitaryEnsemble:
    """Products of k independent draws; moment operators compose as powers."""
    return UnitaryEnsemble(kind="iterated", dim=e.dim, seed=e.seed,
                           base=e, iterations=k, name=f"{e.name}^{k}")


def _exact(e: UnitaryEnsemble) -> bool:
    """Whether qtpe_lambda reads e's moments without drawing: an
    enumerated ensemble, or an iterate of one at any depth."""
    return e.kind == "enumerated" or (e.kind == "iterated" and _exact(e.base))


def _check_moment_cap(dim: int, t: int):
    # the (t!)^2 t permutation entries grow with t alone, so dim 1 counts as 2
    size = max(dim, 2) ** (2 * t)
    if size > MOMENT_DIM_CAP:
        raise CapError(f"design tables need max(dim, 2)**(2t) = {size} <= {MOMENT_DIM_CAP}")


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


def _isotypic(dim: int, t: int) -> tuple[np.ndarray, ...]:
    """Real orthonormal bases Q_k, each (dim^t, n_k), of the
    eigenspaces of the transposition class sum C = sum_(i<j) P_(ij) on
    (C^dim)^(x)t.

    C is central in the algebra of S_t, so it acts on each isotypic
    component as the content sum of its Young diagram, an integer: every
    eigenspace is a sum of isotypic components, and U^(x)t, which commutes
    with every P_(ij), leaves each one invariant. At t = 1 there is one group.
    """
    d_t = dim**t
    idx = np.arange(d_t).reshape((dim,) * t)
    c = np.zeros((d_t, d_t))
    for i, j in itertools.combinations(range(t), 2):
        axes = list(range(t))
        axes[i], axes[j] = j, i
        c[np.arange(d_t), idx.transpose(axes).ravel()] += 1.0
    vals, vecs = np.linalg.eigh(c)
    keys = np.round(vals)
    return tuple(np.ascontiguousarray(vecs[:, keys == key]) for key in np.unique(keys))


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """The integers whose base-`base` digits, most significant first, run
    along the last axis of `digits`."""
    return digits @ base ** np.arange(digits.shape[-1] - 1, -1, -1)


def _weingarten(dim: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of t, one row each in lexicographic order (the
    identity first), and the pseudo-inverse of their Gram matrix
    tr(P_s^T P_u) = dim^(cycles of s^-1 u) on (C^dim)^(x)t.

    The pseudo-inverse is the Weingarten function, also where t > dim makes
    the Gram matrix singular. Like the Gram matrix it depends on s^-1 u
    only through its cycle type. The cut is 1e-10 of the largest singular
    value: at dim 2, t = 6 the nonzero ones run from 5040 down to 144, but
    LAPACK leaves a zero one at 5.7e-12, past numpy's default cut of
    1e-15 of the largest, whose inverse would swamp the sum.
    """
    perms = np.array(list(itertools.permutations(range(t))))
    # the rows of comp are the s^-1 u; a position starts a cycle when it is
    # the least of its first t - 1 images
    comp = np.argsort(perms, axis=1)[:, perms].reshape(-1, t)
    x = low = np.tile(np.arange(t), (len(comp), 1))
    for _ in range(t - 1):
        x = np.take_along_axis(comp, x, axis=1)
        low = np.minimum(low, x)
    cycles = (low == np.arange(t)).sum(axis=1).reshape(len(perms), len(perms))
    return perms, np.linalg.pinv(float(dim) ** cycles, rcond=1e-10)


@dataclass(frozen=True)
class _DesignTables:
    """The per-(dim, t) tables of qtpe_lambda, built by array operations
    once per (dim, t): `_design_tables` keeps the two most recent, so every
    array is read-only. M = C(dim^2 + t - 1, t) distinct monomials
    z = prod_j U[r_j, c_j] of degree t; T = t! permutations."""

    dim: int
    groups: tuple  # the `_isotypic` bases Q_k
    sizes: tuple  # their widths n_k
    perms: np.ndarray  # (T, t), the identity first
    moved: np.ndarray  # (T, dim^t), where P_s sends each basis index
    ginv: np.ndarray  # (T, T), the Weingarten function on perms
    factors: np.ndarray  # (M, t), each monomial's sorted factor codes r*dim + c
    fixers: np.ndarray  # (M,), the reorderings that leave each factor tuple as it is
    at: tuple  # the (M,) row and column of W = U^(x)t that hold each monomial
    parts: np.ndarray  # (sum n_k^2, M), the stacked vec(Q_k^T W Q_k) as a map of z

    def __post_init__(self):
        for x in (*self.groups, self.perms, self.moved, self.ginv, self.factors,
                  self.fixers, *self.at, self.parts):
            x.flags.writeable = False


# a design rotation alternates a few (dim, t); at the moment cap one table's
# `parts` reaches 4096 x 4096 floats (134 MB at dim 64, t = 1), hence two
@functools.lru_cache(maxsize=2)
def _design_tables(dim: int, t: int) -> _DesignTables:
    groups = _isotypic(dim, t)
    perms, ginv = _weingarten(dim, t)
    factors = np.array(list(itertools.combinations_with_replacement(range(dim * dim), t)))
    # position j's place in its run of equal factors; the product over j
    # counts the reorderings that fix the tuple
    run = np.ones_like(factors)
    for j in range(1, t):
        run[:, j] = np.where(factors[:, j] == factors[:, j - 1], run[:, j - 1] + 1, 1)
    fixers = run.prod(axis=1)
    # the row and column of W under every reordering of the factors: each of
    # a monomial's entries in W is met fixers times
    rows, cols = (_codes(x[:, perms], dim) for x in np.divmod(factors, dim))
    parts = [np.einsum("mpa,mpc->acm", q[rows], q[cols]).reshape(-1, len(factors)) / fixers
             for q in groups]
    digits = np.arange(dim**t)[:, None] // dim ** np.arange(t - 1, -1, -1) % dim
    # the first columns are copied, so that the kept tables hold no (M, T) array
    return _DesignTables(dim, groups, tuple(q.shape[1] for q in groups), perms,
                         _codes(digits[:, perms], dim).T, ginv, factors, fixers,
                         (rows[:, 0].copy(), cols[:, 0].copy()), np.vstack(parts))


def _realign(x: np.ndarray, p: int, q: int, r: int, s: int) -> np.ndarray:
    """x as a (p, q, r, s) array with its middle axes swapped, flattened to
    (p r, q s). A block's Gram form E[conj vec W_k vec W_l^T] and its
    operator form E[conj W_k (x) W_l] are each other's realignment."""
    return x.reshape(p, q, r, s).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def _draw_grams(e: UnitaryEnsemble, samples: int, tab: _DesignTables, monomials: bool):
    """One pass over the members of an enumerated e, or over its first
    `samples` draws otherwise.

    Returns the Gram blocks E[conj vec W_k vec W_l^T], k <= l, of the
    isotypic parts W_k = Q_k^T W Q_k of W = U^(x)t, read off each draw's
    monomials z, and, if `monomials`, the Gram matrix E[conj z z^T]
    (else None).
    """
    if e.kind == "enumerated":
        count, draw = len(e.members), lambda lo, hi: e.members[lo:hi]
    else:
        count, draw = samples, lambda lo, hi: e.sample_batch(range(lo, hi))
    if count < 1:
        raise DomainError("a sampled design check needs at least one draw")
    cuts = [slice(a - n * n, a) for a, n in zip(np.cumsum([n * n for n in tab.sizes]), tab.sizes)]
    # per draw: the gathered factors, z, its parts and their conjugates
    width = tab.factors.size + len(tab.factors) + 2 * len(tab.parts)
    step = max(1, MOMENT_BATCH_BYTES // (16 * width))
    sums = {}

    def add(key, x):
        # the first chunk's products are kept, not copied into a zero array
        if key in sums:
            sums[key] += x
        else:
            sums[key] = x

    for lo in range(0, count, step):
        us = draw(lo, min(lo + step, count))
        z = us.reshape(len(us), -1)[:, tab.factors].prod(axis=2)
        # z @ parts^T in two real products, with no complex copy of the map
        parts = np.empty((len(z), len(tab.parts)), dtype=complex)
        parts.real, parts.imag = z.real @ tab.parts.T, z.imag @ tab.parts.T
        conj = parts.conj()
        for k, a in enumerate(cuts):
            for l, b in enumerate(cuts[k:], start=k):
                add((k, l), conj[:, a].T @ parts[:, b])
        if monomials:
            add("monomials", z.conj().T @ z)
    for x in sums.values():
        x /= count
    return sums, sums.pop("monomials", None)


def _exact_grams(e: UnitaryEnsemble, tab: _DesignTables) -> dict:
    """The Gram blocks of an enumerated e, or of an iterate of one at any
    depth: a product of independent draws twirls by the product of their
    twirls, and the twirl is block diagonal, so each block's operator form
    is a power."""
    if e.kind == "enumerated":
        return _draw_grams(e, 0, tab, monomials=False)[0]
    out, sizes = {}, tab.sizes
    for (k, l), g in _exact_grams(e.base, tab).items():
        n_k, n_l = sizes[k], sizes[l]
        b = np.linalg.matrix_power(_realign(g, n_k, n_k, n_l, n_l), e.iterations)
        out[k, l] = _realign(b, n_k, n_l, n_k, n_l)
    return out


def _monomial_gram(grams: dict, tab: _DesignTables) -> np.ndarray:
    """The Gram matrix E[conj z z^T] of the monomials, read back from the
    Gram blocks (k <= l).

    W = sum_k Q_k W_k Q_k^T, so z = W[tab.at] is the sum over k of
    R_k vec(W_k), with R_k the rows tab.at of Q_k (x) Q_k; Gram block (l, k)
    is the conjugate transpose of block (k, l).
    """
    rows, cols = tab.at
    r = [(q[rows][:, :, None] * q[cols][:, None, :]).reshape(len(rows), -1) for q in tab.groups]
    diag, upper = 0.0, 0.0
    for (k, l), g in grams.items():
        x = r[k] @ g @ r[l].T
        if k == l:
            diag = diag + x
        else:
            upper = upper + x
    return diag + upper + np.conj(upper).T


def _monomial_deviation(gram: np.ndarray, tab: _DesignTables) -> float:
    """dim^t max |gram - Haar| for the monomials' Gram matrix
    E[conj z_a z_b]; the Haar values are subtracted from gram in place.

    The Haar value of entry (a, b) sums ginv[s, u] over the s that permute
    a's row indices r into b's and the u that permute a's column indices c
    into b's. Pairing r_j with c_(p(j)) for p = u s^-1 gives b's factors in
    some order, and ginv[s, u] depends on s^-1 u, conjugate to p, only
    through the cycle type: so each p adds ginv[id, p] to the monomial its
    pairing makes, once for each reordering that fixes b's factor tuple.
    """
    m, t = tab.factors.shape
    rows, cols = np.divmod(tab.factors, tab.dim)
    partners = np.sort(rows[:, None, :] * tab.dim + cols[:, tab.perms], axis=2)
    base = tab.dim * tab.dim
    b = np.searchsorted(_codes(tab.factors, base), _codes(partners, base))
    np.add.at(gram, (np.arange(m)[:, None], b), -tab.ginv[0] * tab.fixers[b])
    return tab.dim**t * float(np.abs(gram, out=gram).real.max())


def _haar_block(q: np.ndarray, tab: _DesignTables) -> np.ndarray:
    """Block (k, k) of the Haar twirl in operator form, for q = Q_k:
    sum_(s,u) ginv[s, u] vec(S_s) vec(S_u)^T with S_s = Q_k^T P_s Q_k."""
    v = np.matmul(q.T, q[tab.moved]).reshape(len(tab.moved), -1)
    return v.T @ tab.ginv @ v


def _upper_blocks(grams: dict, tab: _DesignTables):
    """The operator-form gap blocks (k, l), k <= l, one at a time: each Gram
    block realigned, less the Haar twirl's block where k = l."""
    sizes = tab.sizes
    for (k, l), g in grams.items():
        b = _realign(g, sizes[k], sizes[k], sizes[l], sizes[l])
        if k == l:
            b -= _haar_block(tab.groups[k], tab)
        yield (k, l), b


def qtpe_lambda(e: UnitaryEnsemble, t: int, samples: int = 2000) -> DesignReport:
    """Expander gap ||G - Haar twirl||_inf plus the balanced-monomial check,
    with G = E[conj W (x) W] and W = U^(x)t, neither built whole.

    Q^T W Q is block diagonal over the `_isotypic` groups, so G is block
    diagonal in the basis Q (x) Q with blocks E[conj W_k (x) W_l]; the Haar
    twirl's blocks vanish off k = l. Block (l, k) is block (k, l)
    conjugated with its factors swapped, so lambda is the largest top
    singular value over k <= l. One pass over the draws (or the members of
    an enumerated ensemble) gives the blocks; iterates of exact ensembles
    take block powers instead.

    Every entry of the degree-k moment gap is the expectation error of one
    balanced monomial of degree k; the deviation column reports dim^k times
    the largest such error over all degrees k <= t (the approximate-design
    normalisation). That maximum sits at k = t, so only degree t is read:
    summing a degree-(k+1) entry over one matched row/column index pair
    gives the degree-k entry, because sum_x |U_xy|^2 = 1 for every draw and
    for Haar, so d^k max|gap_k| <= d^(k+1) max|gap_(k+1)|. Entries that
    differ only in the order of their factors are equal, so the Gram matrix
    of the C(dim^2 + t - 1, t) distinct monomials holds them all; it is
    gathered from the draws, or read back from the block powers.
    """
    if t < 1:
        raise DomainError("moment order t must be at least 1")
    _check_moment_cap(e.dim, t)
    tab = _design_tables(e.dim, t)
    if e.kind == "iterated" and _exact(e.base):
        grams = _exact_grams(e, tab)
        gram = _monomial_gram(grams, tab)
    else:
        grams, gram = _draw_grams(e, samples, tab, monomials=True)
    deviation = _monomial_deviation(gram, tab)
    del gram
    lam = max(float(np.linalg.svd(b, compute_uv=False)[0]) for _, b in _upper_blocks(grams, tab))
    used = samples if e.kind != "enumerated" else len(e.members)
    return DesignReport(t=t, dim=e.dim, lambda_value=lam, moment_deviation=deviation,
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
    if e.kind == "enumerated":
        n = e.dim.bit_length() - 1
        build, sizes = GROUPS.get(e.name, (None, {}))
        # a name stands only for its group's own members; the size comes
        # first, so that no group is built for an ensemble that cannot be it
        named = (e.dim == 2**n and sizes.get(n) == len(e.members)
                 and np.array_equal(e.members, build(n)))
        out.update({"n_qubits": n} if named else
                   {"members": [linalg.matrix_to_json(m) for m in e.members]})
    return out


def ensemble_from_json(d) -> UnitaryEnsemble:
    """The ensemble a descriptor builds, checked level by level on the way
    down an `iterated` chain: a malformed level is a ConfigError, and so is a
    key its kind does not read, unless it restates what the kind derives (a
    `dim`, a `name`, an iterate's `seed`) as the built ensemble's own value.
    The constructors' DomainErrors pass."""
    if not isinstance(d, dict) or d.get("kind") not in KINDS:
        raise ConfigError(f"malformed ensemble descriptor: kind must be one of "
                          f"{', '.join(KINDS)}", field="ensemble")
    for key in ("dim", "n_qubits", "depth", "iterations", "seed"):
        v = d.get(key, 0)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"ensemble {key} must be an integer, got {v!r}",
                              field="ensemble")
    kind, seed = d["kind"], d.get("seed", 0)
    if seed < 0:
        raise ConfigError("ensemble seed must be nonnegative", field="ensemble")
    try:
        if kind == "haar":
            read, built = {"dim", "seed"}, haar_ensemble(d["dim"], seed=seed)
        elif kind == "circuit":
            read = {"n_qubits", "depth", "seed"}
            built = random_circuit_ensemble(d["n_qubits"], d["depth"], seed=seed)
        elif kind == "iterated":
            read = {"base", "iterations"}
            built = iterate_ensemble(ensemble_from_json(d["base"]), d["iterations"])
        else:
            name = d.get("name", "")
            if name in GROUPS and "n_qubits" in d:
                read, members = {"name", "n_qubits", "seed"}, GROUPS[name][0](d["n_qubits"])
            else:
                read = {"name", "members", "seed"}
                members = [linalg.matrix_from_json(m) for m in d["members"]]
            built = enumerated_ensemble(members, seed=seed, name=name)
    except DecouplabError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed ensemble descriptor: {exc!r}",
                          field="ensemble") from exc
    derived = {"dim": built.dim, "name": built.name, "seed": built.seed}
    for key in sorted(set(d) - read - {"kind"}):
        if key not in derived:
            raise ConfigError(f"{kind} ensemble descriptor has a key it does not "
                              f"read: {key}", field="ensemble")
        if d[key] != derived[key]:
            raise ConfigError(f"ensemble {key} {d[key]!r} does not match its {kind} "
                              f"ensemble's {derived[key]!r}", field="ensemble")
    return built
