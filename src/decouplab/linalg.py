"""Dense complex linear algebra on labelled tensor-product spaces.

Matrices are plain numpy arrays (complex128, row-major). Multipartite
structure is carried separately by a SystemShape, an ordered tuple of
(label, dimension) pairs whose product must match the matrix dimension.
The tensor order of the labels is the kron order of the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError

HERM_TOL = 1e-12
EIG_CUTOFF = 1e-10


def as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = as_matrix(m)
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    return bool(np.abs(m - m.conj().T).max() <= tol * scale)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Symmetrise before an eigendecomposition; callers check closeness first."""
    m = as_matrix(m)
    return 0.5 * (m + m.conj().T)


def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major split into real and imaginary parts."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel(order="C")],
        "im": [float(x) for x in m.imag.ravel(order="C")],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = int(d["rows"]), int(d["cols"])
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionError("re/im length does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)


@dataclass(frozen=True)
class SystemShape:
    """Ordered labelling of tensor factors, e.g. (("A", 4), ("R", 2))."""

    labels: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.labels]
        if len(set(names)) != len(names):
            raise DimensionError(f"duplicate labels in shape: {names}")
        for name, d in self.labels:
            if d < 1:
                raise DimensionError(f"label {name!r} has nonpositive dimension {d}")

    @property
    def dim(self) -> int:
        return math.prod(d for _, d in self.labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.labels):
            if n == name:
                return i
        raise DimensionError(f"unknown label {name!r}; have {self.names}")

    def dim_of(self, name: str) -> int:
        return self.labels[self.axis(name)][1]

    def dim_of_all(self, names: Iterable[str]) -> int:
        return math.prod(self.dim_of(n) for n in names)

    def drop(self, names: Iterable[str]) -> "SystemShape":
        gone = set(names)
        for n in gone:
            self.axis(n)
        kept = tuple(lbl for lbl in self.labels if lbl[0] not in gone)
        if not kept:
            raise DimensionError("cannot drop every label from a shape")
        return SystemShape(kept)

    def check_matrix(self, m: np.ndarray):
        m = as_matrix(m)
        if m.shape[0] != self.dim:
            raise DimensionError(
                f"matrix dimension {m.shape[0]} does not match shape product {self.dim}"
            )


def shape(*labels: tuple[str, int]) -> SystemShape:
    return SystemShape(tuple(labels))


def _label_list(labels) -> list[str]:
    """One label, or an iterable of labels, as a list of labels."""
    return [labels] if isinstance(labels, str) else list(labels)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigen-decomposition with eigenvalues sorted descending.

    Column j of `vectors` is the eigenvector of `values[j]`. Phases are
    pinned so the first component of each vector above tolerance is real
    and positive, which keeps degenerate decompositions reproducible.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T

    def power(self, exponent: float) -> np.ndarray:
        """Spectral power of a PSD matrix, inverting only above the relative cutoff.

        Eigenvalues at or below EIG_CUTOFF * lambda_max are mapped to zero.
        Negative eigenvalues beyond -1e-9 * lambda_max are rejected.
        """
        lmax = float(self.values.max(initial=0.0))
        if lmax <= 0.0:
            if float(self.values.min(initial=0.0)) < -1e-9:
                raise DomainError("matrix is not positive semidefinite")
            return np.zeros_like(self.vectors)
        if float(self.values.min()) < -1e-9 * lmax:
            raise DomainError(
                f"matrix has negative eigenvalue {self.values.min():.3e}, not PSD"
            )
        powered = _power_above_cutoff(self.values, exponent)
        return (self.vectors * powered) @ self.vectors.conj().T


def _power_above_cutoff(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent above EIG_CUTOFF * max(values), 0 at or below it."""
    live = values > EIG_CUTOFF * float(values.max(initial=0.0))
    out = np.zeros_like(values)
    out[live] = values[live] ** float(exponent)
    return out


def _pin_phases(vectors: np.ndarray) -> np.ndarray:
    above = np.abs(vectors) > 1e-9
    pivot = vectors[above.argmax(axis=0), np.arange(vectors.shape[1])]
    # a column with no entry above 1e-9 keeps its phase
    pivot = np.where(above.any(axis=0), pivot, 1.0)
    # hypot rounds as abs() of one complex scalar does; np.abs on an array
    # may differ in the last bit, which would move every pinned phase
    return vectors * (np.hypot(pivot.real, pivot.imag) / pivot)


def spectral(m: np.ndarray) -> Spectrum:
    """Eigendecompose a (numerically) Hermitian matrix.

    Raises if the symmetrised decomposition fails to reconstruct the input
    to within 1e-9 * max(1, largest eigenvalue).
    """
    m = as_matrix(m)
    if not is_hermitian(m, tol=1e-9):
        raise DomainError("spectral() requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(hermitianize(m))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], _pin_phases(vecs[:, order])
    spec = Spectrum(values=vals, vectors=vecs)
    scale = max(1.0, float(np.abs(vals).max())) if vals.size else 1.0
    err = float(np.abs(spec.reconstruct() - m).max())
    if err > 1e-9 * scale:
        raise DomainError(f"spectral reconstruction error {err:.3e} exceeds tolerance")
    return spec


def _to_tensor(m: np.ndarray, shp: SystemShape) -> np.ndarray:
    return m.reshape(shp.dims + shp.dims)


def partial_trace(m: np.ndarray, shp: SystemShape, traced: Iterable[str]) -> np.ndarray:
    """Trace out the named factors; remaining labels keep their order."""
    shp.check_matrix(m)
    traced = list(traced)
    if not traced:
        return np.array(m, dtype=complex)
    axes = sorted(shp.axis(n) for n in traced)
    if len(set(axes)) != len(axes):
        raise DimensionError(f"repeated labels in traced set {traced}")
    n = len(shp.labels)
    t = _to_tensor(np.asarray(m, dtype=complex), shp)
    for k, ax in enumerate(axes):
        a = ax - k  # earlier traces shifted the axes down
        t = np.trace(t, axis1=a, axis2=a + (n - k))
    kept = shp.drop(traced)
    return t.reshape(kept.dim, kept.dim)


def factor_marginal(f: np.ndarray, shp: SystemShape, given: str) -> np.ndarray:
    """Tr_rest(f f^dag) on the label `given`, for f with shp.dim rows, by one
    reshape and one product, without f f^dag."""
    g = np.moveaxis(f.reshape(shp.dims + (-1,)), shp.axis(given), 0).reshape(shp.dim_of(given), -1)
    return g @ g.conj().T


def permute_systems(m: np.ndarray, shp: SystemShape, order: Sequence[str]) -> np.ndarray:
    """Reorder tensor factors to the given label order."""
    shp.check_matrix(m)
    if sorted(order) != sorted(shp.names):
        raise DimensionError(f"order {order} is not a permutation of {shp.names}")
    perm = [shp.axis(n) for n in order]
    n = len(shp.labels)
    t = _to_tensor(np.asarray(m, dtype=complex), shp)
    t = t.transpose(perm + [p + n for p in perm])
    d = shp.dim
    return t.reshape(d, d)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm from singular values; p = inf gives the operator norm."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {m.ndim}")
    if p < 1:
        raise DomainError(f"Schatten norm needs p >= 1, got {p}")
    if p == 2:
        return float(np.sqrt((np.abs(m) ** 2).sum()))
    s = np.linalg.svd(m, compute_uv=False)
    if math.isinf(p):
        return float(s.max(initial=0.0))
    return float((s**p).sum() ** (1.0 / p))


def pseudo_inverse_power(m: np.ndarray, exponent: float) -> np.ndarray:
    """`Spectrum.power` of the decomposition of m."""
    return spectral(m).power(exponent)


def vec_inverse(v: np.ndarray, shp: SystemShape) -> np.ndarray:
    """Fold a vector on A (x) Z into the |A| x |Z| matrix X with X[a, z] = v[a z]."""
    v = np.asarray(v, dtype=complex).ravel()
    if len(shp.labels) != 2:
        raise DimensionError("vec_inverse expects a bipartite shape")
    da, dz = shp.dims
    if v.size != da * dz:
        raise DimensionError(f"vector length {v.size} does not match {da}*{dz}")
    return v.reshape(da, dz)


def swap_operator(d: int) -> np.ndarray:
    """The flip F |i>|j> = |j>|i> on a d x d bipartite space."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    # the identity with its two output factors exchanged
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre, QR, then phase correction."""
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    return haar_from_normals(rng.standard_normal((2, dim, dim)))


def haar_from_normals(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, d, d).

    Each (2, d, d) block is the real and the imaginary part of one Ginibre
    matrix Z = (X0 + i X1) / sqrt(2), in the order one generator draws them.
    Z goes through QR with the phases of R's diagonal moved into Q (Mezzadri,
    arXiv:math-ph/0609050). The stacked QR factors each matrix on its own, so
    a stack gives, bit for bit, what each block gives alone.
    """
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
