"""States, Stinespring channels and the operator lemmas the decoupling chain rests on.

A channel is stored as its Stinespring operator v: A -> B (x) Z, the
|B||Z| x |A| matrix with T(M) = Tr_Z[v M v^dag], together with |B|. A
trace-preserving channel carries an isometry (v^dag v = I_A); a completely
positive trace-non-increasing map carries a contraction. The Kraus
operators are the blocks K_z = (I_B (x) <z|) v, so a Kraus list stacks
into v with one environment level per operator.

A pure state on X (x) Z is passed around as its |X| x |Z| amplitude
matrix m, with |psi> = sum m[x, z] |x>|z>: `choi_amplitudes` returns the
channel's purified Choi state in this form, and `povm_completion` takes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ComputationError, DimensionError, DomainError
from .linalg import SystemShape

STATE_EIG_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensitySystem:
    """A positive semidefinite operator with a declared trace (mass).

    Normalised states have mass 1; smoothing steps produce subnormalised
    ones, so the mass is stored explicitly and checked against the matrix.
    Only the constructor and `from_matrix` check; what the package derives
    from checked operators is PSD by construction and built by `_derived`.
    """

    matrix: np.ndarray
    shape: SystemShape
    mass: float = 1.0

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        self.shape.check_matrix(m)
        if not linalg.is_hermitian(m, tol=linalg.HERM_TOL):
            raise DomainError("density matrix is not Hermitian within tolerance")
        low = float(np.linalg.eigvalsh(linalg.hermitianize(m)).min()) if m.size else 0.0
        if low < -STATE_EIG_TOL:
            raise DomainError(f"density matrix has eigenvalue {low:.3e} below -1e-10")
        tr = float(np.real(np.trace(m)))
        if abs(tr - self.mass) > TRACE_TOL:
            raise DomainError(
                f"trace {tr:.12f} differs from declared mass {self.mass:.12f}"
            )

    @classmethod
    def from_matrix(cls, m: np.ndarray, shape: SystemShape) -> "DensitySystem":
        """Build with the mass read off from the matrix itself."""
        return cls(m, shape, mass=float(np.real(np.trace(m))))

    @classmethod
    def _derived(cls, m: np.ndarray, shape: SystemShape,
                 mass: float | None = None) -> "DensitySystem":
        """The three fields set without the checks; mass defaults to the trace."""
        if mass is None:
            mass = float(np.real(np.trace(m)))
        out = object.__new__(cls)
        out.__dict__.update(matrix=m, shape=shape, mass=mass)
        return out

    @property
    def dim(self) -> int:
        return self.shape.dim

    def partial_trace(self, traced) -> "DensitySystem":
        out = linalg.partial_trace(self.matrix, self.shape, traced)
        return DensitySystem._derived(out, self.shape.drop(traced), self.mass)

    def marginal(self, kept) -> "DensitySystem":
        kept = linalg._label_list(kept)
        traced = [n for n in self.shape.names if n not in kept]
        return self.partial_trace(traced)

    def permute(self, order) -> "DensitySystem":
        out = linalg.permute_systems(self.matrix, self.shape, order)
        labels = tuple((n, self.shape.dim_of(n)) for n in order)
        return DensitySystem._derived(out, SystemShape(labels), self.mass)


def maximally_mixed(d: int, label: str = "A") -> DensitySystem:
    return DensitySystem._derived(np.eye(d, dtype=complex) / d,
                                  linalg.shape((label, d)), 1.0)


def epr_state(d: int, labels: tuple[str, str] = ("A", "Ap")) -> DensitySystem:
    """Maximally entangled state (1/sqrt d) sum_a |aa> as a density operator."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    shp = linalg.shape((labels[0], d), (labels[1], d))
    return DensitySystem._derived(np.outer(v, v.conj()), shp, 1.0)


@dataclass(frozen=True, eq=False)
class ChannelStinespring:
    """CP map T(M) = Tr_Z[v M v^dag] with v: A -> B (x) Z, a |B||Z| x |A| matrix.

    v is an isometry when trace_preserving, a contraction otherwise.
    """

    v: np.ndarray
    b_dim: int
    trace_preserving: bool = True

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        if v.ndim != 2 or self.b_dim < 1 or v.shape[0] % self.b_dim:
            raise DimensionError(
                f"stinespring operator of shape {v.shape} needs a row count "
                f"|B||Z| divisible by |B| = {self.b_dim}"
            )
        object.__setattr__(self, "v", v)
        if self.trace_preserving:
            err = float(np.abs(v.conj().T @ v - np.eye(v.shape[1])).max())
            if err > 1e-9:
                raise DomainError(
                    f"trace-preserving channel needs an isometry, defect {err:.2e}"
                )
        else:
            top = linalg.schatten_norm(v, np.inf)
            if top > 1.0 + 1e-9:
                raise DomainError(f"contraction required: ||v||_inf = {top:.12f} > 1")

    @property
    def a_dim(self) -> int:
        return self.v.shape[1]

    @property
    def z_dim(self) -> int:
        return self.v.shape[0] // self.b_dim

    def apply_matrix(
        self,
        m: np.ndarray,
        shp: SystemShape,
        block: tuple[str, ...] | None = None,
        out_label: str = "B",
    ) -> tuple[np.ndarray, SystemShape]:
        """Apply to the named block of an arbitrary matrix on shp."""
        return _apply_on_block(self.v, self.b_dim, m, shp, block, out_label)

    def apply(self, state: DensitySystem, block=None, out_label: str = "B") -> DensitySystem:
        out, new_shape = self.apply_matrix(state.matrix, state.shape, block, out_label)
        return DensitySystem._derived(out, new_shape)

    def apply_adjoint_matrix(
        self,
        m: np.ndarray,
        shp: SystemShape,
        block: tuple[str, ...] | None = None,
        out_label: str = "A",
    ) -> tuple[np.ndarray, SystemShape]:
        """Adjoint map T^dag(N) = v^dag (N (x) I^Z) v."""
        # the Kraus operators K_z = <z| v taken as one map B -> A (x) Z, daggered
        da, db, dz = self.a_dim, self.b_dim, self.z_dim
        w = self.v.reshape(db, dz, da).transpose(2, 1, 0).conj().reshape(da * dz, db)
        return _apply_on_block(w, da, m, shp, block, out_label)


def _apply_on_block(w, out_dim, m, shp, block, out_label):
    """Tr_Z[w m w^dag] on the block of m that w: block -> out (x) Z acts on; the
    output label comes first, then the untouched labels in their order."""
    block = _resolve_block(shp, w.shape[1], block)
    rest = [n for n in shp.names if n not in block]
    ordered = linalg.permute_systems(m, shp, list(block) + rest)
    out = conjugate_trace_z(w[None], ordered, out_dim)[0]
    labels = ((out_label, out_dim),) + tuple((n, shp.dim_of(n)) for n in rest)
    return out, SystemShape(labels)


def conjugate_trace_z(ms: np.ndarray, x: np.ndarray, b_dim: int) -> np.ndarray:
    """Tr_Z[(M (x) I_S) x (M (x) I_S)^dag] for each M: A -> B (x) Z of a stack.

    ms has shape (n, |B||Z|, |A|) and x is an operator on A (x) S; the n
    results are on B (x) S. Two GEMMs for the whole stack, no kron embedding.
    """
    n, k, da = ms.shape
    dz, ds = k // b_dim, x.shape[0] // da
    # (M (x) I) x with rows (b, z) and columns (s, s', a'), for every M at once
    x = x.reshape(da, ds, da, ds).transpose(0, 1, 3, 2).reshape(da, ds * ds * da)
    t = (ms.reshape(n * k, da) @ x).reshape(n, b_dim, dz, ds * ds, da)
    t = t.transpose(0, 1, 3, 2, 4).reshape(n, b_dim * ds * ds, dz * da)
    mh = ms.reshape(n, b_dim, dz * da).conj().transpose(0, 2, 1)
    y = (t @ mh).reshape(n, b_dim, ds, ds, b_dim)
    return y.transpose(0, 1, 2, 4, 3).reshape(n, b_dim * ds, b_dim * ds)


def _resolve_block(shp: SystemShape, in_dim: int, block) -> tuple[str, ...]:
    if block is not None:
        block = tuple(block)
        if shp.dim_of_all(block) != in_dim:
            raise DimensionError(
                f"block {block} has dimension {shp.dim_of_all(block)}, channel wants {in_dim}"
            )
        return block
    prod = 1
    take = []
    for name, d in shp.labels:
        prod *= d
        take.append(name)
        if prod == in_dim:
            return tuple(take)
        if prod > in_dim:
            break
    raise DimensionError(
        f"no label prefix of {shp.names} matches channel input dimension {in_dim}"
    )


def choi_amplitudes(t: ChannelStinespring) -> np.ndarray:
    """The (|B||A'|) x |Z| amplitude matrix m of (v (x) I)|Phi>.

    |Phi> is the normalised maximally entangled state on A (x) A', so
    m[(b, a'), z] = v[(b, z), a'] / sqrt(|A|), and the Choi state is m m^dag
    (Watrous, The Theory of Quantum Information, ch. 2).
    """
    da, db, dz = t.a_dim, t.b_dim, t.z_dim
    return t.v.reshape(db, dz, da).transpose(0, 2, 1).reshape(db * da, dz) / np.sqrt(da)


def choi_state(t: ChannelStinespring) -> DensitySystem:
    """(T (x) id) applied to the maximally entangled state, on labels (B, Ap)."""
    m = choi_amplitudes(t)
    return DensitySystem._derived(
        m @ m.conj().T, linalg.shape(("B", t.b_dim), ("Ap", t.a_dim)))


def fixed_output(t: ChannelStinespring) -> np.ndarray:
    """T(pi_A) = Tr_Z[v v^dag] / |A|, `choi_state`'s B marginal, without building it."""
    return linalg.factor_marginal(choi_amplitudes(t), linalg.shape(
        ("B", t.b_dim), ("Ap", t.a_dim)), "B")


def _thin_choi(t: ChannelStinespring) -> tuple[linalg.Spectrum, SystemShape,
                                              np.ndarray, np.ndarray]:
    """`choi_state`'s nonzero spectrum (S^2, U) and shape, Wh, and the Choi
    amplitudes m, from the thin SVD m = U S Wh (m m^dag has rank at most |Z|)."""
    m = choi_amplitudes(t)
    u, s, wh = np.linalg.svd(m, full_matrices=False)
    return linalg.Spectrum(s * s, u), linalg.shape(("B", t.b_dim), ("Ap", t.a_dim)), wh, m


def identity_channel(d: int) -> ChannelStinespring:
    return ChannelStinespring(v=np.eye(d, dtype=complex), b_dim=d)


def trace_out_channel(d_keep: int, d_traced: int) -> ChannelStinespring:
    """Tr over the second factor of A = keep (x) traced; B = keep, Z = traced."""
    return ChannelStinespring(v=np.eye(d_keep * d_traced, dtype=complex), b_dim=d_keep)


def channel_from_kraus(kraus: list[np.ndarray], a_dim: int, b_dim: int) -> ChannelStinespring:
    """The channel with the given Kraus operators, stacked into v with |Z| = len(kraus)."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    if not ks:
        raise DomainError("a channel needs at least one kraus operator")
    for k in ks:
        if k.shape != (b_dim, a_dim):
            raise DimensionError(f"kraus operator has shape {k.shape}, expected {(b_dim, a_dim)}")
    # row (b, z) of v is row b of K_z
    v = np.stack(ks, axis=1).reshape(b_dim * len(ks), a_dim)
    return ChannelStinespring(v=v, b_dim=b_dim)


def purification_vector(rho: np.ndarray, env_dim: int | None = None) -> np.ndarray:
    """|rho> = sum_i sqrt(l_i) |v_i>|i> on A (x) E, E = computational basis."""
    spec = linalg.spectral(rho)
    d = rho.shape[0]
    env_dim = d if env_dim is None else env_dim
    lmax = float(spec.values.max(initial=0.0))
    # eigenvalues come sorted descending, so the kept ones lead
    rank = int((spec.values > 1e-14 * max(lmax, 1.0)).sum())
    if rank > env_dim:
        raise DimensionError(f"rank {rank} state cannot purify into dimension {env_dim}")
    m = np.zeros((d, env_dim), dtype=complex)
    m[:, :rank] = spec.vectors[:, :rank] * np.sqrt(spec.values[:rank])
    return m.reshape(-1)


def povm_completion(m: np.ndarray, rho_target: np.ndarray) -> np.ndarray:
    """Measurement operator P on Z steering the pure state with amplitudes m.

    m is the |X| x |Z| amplitude matrix of |psi> = sum m[x, z] |x>|z>, so
    psi^X = m m^dag. For rho_target <= psi^X, the returned P satisfies
    0 <= P <= I and Tr_Z[(I (x) P) psi (I (x) P)] = m (P^T)^2 m^dag =
    rho_target. The closed form is P = (Q^T)^(1/2) with Q = m^+ rho m^+dag,
    which lies between 0 and the projector m^+ m because rho <= m m^dag.
    """
    m = np.asarray(m, dtype=complex)
    rho_target = np.asarray(rho_target, dtype=complex)
    gap = linalg.hermitianize(m @ m.conj().T - rho_target)
    low = float(np.linalg.eigvalsh(gap).min())
    if low < -1e-9:
        raise DomainError(f"target is not dominated by the marginal, gap {low:.3e}")
    m_inv = np.linalg.pinv(m)
    q = linalg.hermitianize(m_inv @ rho_target @ m_inv.conj().T)
    p = linalg.pseudo_inverse_power(q.T, 0.5)
    if linalg.schatten_norm(p, np.inf) > 1.0 + 1e-8:
        raise ComputationError("steering operator is not a contraction")
    err = float(np.abs(m @ (p.T @ p.T) @ m.conj().T - rho_target).max())
    if err > 1e-7:
        raise ComputationError(f"povm completion missed the target by {err:.2e}")
    return p


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2)
    return g @ g.conj().T


def random_density(dim: int, rng: np.random.Generator,
                   rank: int | None = None) -> np.ndarray:
    m = random_psd(dim, rng, rank)
    return m / np.real(np.trace(m))


def random_state(shape: SystemShape, rng: np.random.Generator,
                 rank: int | None = None) -> DensitySystem:
    return DensitySystem._derived(random_density(shape.dim, rng, rank), shape, 1.0)


def random_pure_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random operator with singular values in (0, 1]."""
    u1 = linalg.random_unitary(dim, rng)
    u2 = linalg.random_unitary(dim, rng)
    s = rng.uniform(0.2, 1.0, size=dim)
    return (u1 * s) @ u2


def random_channel(a_dim: int, b_dim: int, rng: np.random.Generator,
                   trace_preserving: bool = True) -> ChannelStinespring:
    """Random channel A -> B with environment Z = A.

    v keeps the columns (a, 0) of a random unitary (or contraction) on
    A (x) B, so it is an isometry (or contraction) A -> B (x) Z.
    """
    d = a_dim * b_dim
    if trace_preserving:
        u = linalg.random_unitary(d, rng)
    else:
        u = random_contraction(d, rng)
    return ChannelStinespring(v=u[:, ::b_dim], b_dim=b_dim,
                              trace_preserving=trace_preserving)


def dominance_lemmas_check(instances: int = 500, seed: int = 0) -> dict:
    """Numerically exercise the two operator dominance facts on random data.

    First fact: rho' >= rho and Tr rho' <= Tr sigma imply
    ||rho' - sigma||_1 <= 2 ||rho - sigma||_1. Second fact: for 0 <= P <= I
    on B, Tr_B[(I (x) P) rho^{AB} (I (x) P)] <= rho^A.
    """
    rng = np.random.default_rng(seed)
    worst1 = worst2 = -np.inf
    for _ in range(instances):
        d = int(rng.integers(2, 5))
        rho = random_psd(d, rng)
        rho = rho / np.real(np.trace(rho)) * rng.uniform(0.3, 1.0)
        rho_p = rho + random_psd(d, rng, rank=int(rng.integers(1, d + 1))) * rng.uniform(0.0, 0.5)
        sigma = random_psd(d, rng)
        sigma = sigma / np.real(np.trace(sigma)) * (np.real(np.trace(rho_p)) + rng.uniform(0.0, 0.5))
        lhs = linalg.schatten_norm(rho_p - sigma, 1)
        rhs = 2.0 * linalg.schatten_norm(rho - sigma, 1)
        worst1 = max(worst1, lhs - rhs)

        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        shp = linalg.shape(("A", da), ("B", db))
        rho_ab = random_psd(da * db, rng)
        p = random_contraction_psd(db, rng)
        op = np.kron(np.eye(da), p)
        steered = linalg.partial_trace(op @ rho_ab @ op, shp, ["B"])
        gap = linalg.partial_trace(rho_ab, shp, ["B"]) - steered
        worst2 = max(worst2, -float(np.linalg.eigvalsh(linalg.hermitianize(gap)).min()))
    return {
        "instances": instances,
        "dominance_excess": float(worst1),
        "steering_excess": float(worst2),
        "ok": bool(worst1 <= 1e-9 and worst2 <= 1e-9),
    }


def random_contraction_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    q = random_psd(dim, rng)
    return q / (linalg.schatten_norm(q, np.inf) * rng.uniform(1.0, 2.0))
