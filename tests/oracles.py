"""Earlier constructions, kept as oracles for the code that replaced them.

Each one is the plain, step-by-step form: a loop that drops one eigenvalue
at a time, a pipeline that decomposes every operator where it needs it, or
a channel's square unitary dilation on A (x) C with the fixed |0> ancilla,
or an operator on some labels embedded by kron(I, op) rather than applied
by contraction. A circuit draw is one generator per draw. The n-fold state
of the many-copy window is a repeated kron, decomposed whole. The method of
types is the per-class form: one object per type class from a recursive
enumerator, walked once per report. The design check is the dense route:
the whole dim^(2t)-square moment operator and Haar projector, and their
gap's isotypic blocks. Tests compare the library against these bit for bit,
or within a stated tolerance where only the order of a sum changed.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from decouplab import decoupling, ensembles, entropy, linalg, quantum, typicality
from decouplab.errors import ComputationError, DomainError
from decouplab.quantum import DensitySystem


def kron_embed(op, shp, labels):
    """op on the named labels (in order), identity elsewhere: kron(I, op)
    with its factors permuted into the shape's label order."""
    rest = [n for n in shp.names if n not in labels]
    big = np.kron(np.eye(shp.dim_of_all(rest), dtype=complex), op)
    big_shape = linalg.SystemShape(
        tuple((n, shp.dim_of(n)) for n in rest + labels)
    )
    return linalg.permute_systems(big, big_shape, list(shp.names))


def conj_by_inverse_quarter(m, shp, weight, labels):
    """w^(-1/4) m w^(-1/4), with the weight's power embedded on `labels`."""
    w = kron_embed(linalg.pseudo_inverse_power(weight, -0.25), shp, labels)
    return w @ m @ w


def simplex_probs(logits):
    """softmax(logits), the weight simplex's points as the minimized search
    once parametrised them."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return p


def simplex_weight(basis, logits):
    return (basis * simplex_probs(logits)) @ basis.conj().T


def truncation_candidates(rho, eps):
    """rho, then its spectral truncations dropping one more of the smallest
    positive eigenvalues each, while their mass stays within eps."""
    spec = linalg.spectral(rho.matrix)
    order = np.argsort(spec.values)  # ascending
    out = [rho.matrix]
    if eps <= 0:
        return out
    dropped = 0.0
    mask = np.ones(spec.values.size, dtype=bool)
    for idx in order:
        if spec.values[idx] <= 0:
            mask[idx] = False
            continue
        if dropped + spec.values[idx] > eps + 1e-15:
            break
        dropped += spec.values[idx]
        mask[idx] = False
        vals = np.where(mask, spec.values, 0.0)
        out.append((spec.vectors * vals) @ spec.vectors.conj().T)
    return out


def hmax_smooth(x, eps):
    if eps < 0:
        raise DomainError("epsilon must be nonnegative")
    vals = entropy._eigenvalues(x)
    vals = vals[vals > entropy.RANK_FLOOR * max(float(vals.max(initial=0.0)), 1.0)]
    if vals.size == 0:
        raise DomainError("state has no mass above the rank floor")
    asc = np.sort(vals)
    best = None
    dropped = 0.0
    for k in range(asc.size):
        if k > 0:
            dropped += asc[k - 1]
        if 2.0 * dropped > eps + 1e-15 or dropped >= 1.0 - 1e-12:
            break
        kept = asc[k:]
        val = 2.0 * math.log2(float(np.sqrt(kept).sum()) / math.sqrt(1.0 - dropped))
        best = val if best is None else min(best, val)
    if best is None:
        raise DomainError("no feasible renormalised truncation")
    return best


def hmax_prime_values(values, eps):
    if not 0 <= eps < 1:
        raise DomainError(f"epsilon must sit in [0, 1), got {eps}")
    vals = np.asarray(values, dtype=float)
    lmax = float(vals.max(initial=0.0))
    if lmax <= 0:
        raise DomainError("spectrum has no positive mass")
    keep = np.ones(vals.size, dtype=bool)
    order = np.lexsort((np.arange(vals.size), vals))
    budget = 0.0
    for idx in order:
        v = vals[idx]
        if v <= entropy.RANK_FLOOR * lmax:
            keep[idx] = False
            continue
        if budget + v > eps + 1e-15:
            break
        budget += v
        keep[idx] = False
    if not keep.any():
        raise DomainError("smoothing removed every eigenvalue")
    smallest = float(vals[keep].min())
    return float(-math.log2(smallest)), keep


def hmax_prime(state, eps):
    spec = linalg.spectral(state.matrix)
    value, keep = hmax_prime_values(spec.values, eps)
    vals = np.where(keep, spec.values, 0.0)
    omega2 = (spec.vectors * vals) @ spec.vectors.conj().T
    return value, DensitySystem.from_matrix(omega2, state.shape)


def omega_triple_prime(state, eps, delta):
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    spec = linalg.spectral(state.matrix)
    value, _ = hmax_prime_values(spec.values, eps)
    tau = 2.0 ** (-(1.0 + delta) * value)
    vals = np.where(spec.values >= tau * (1.0 - 1e-9), spec.values, 0.0)
    out = (spec.vectors * vals) @ spec.vectors.conj().T
    return DensitySystem.from_matrix(out, state.shape)


def h2_prime(omega, eps, delta, given="B"):
    omega_b = omega.marginal([given])
    w3 = omega_triple_prime(omega_b, eps, delta)
    w3_spec = linalg.spectral(w3.matrix)
    lmax3 = float(w3_spec.values.max(initial=0.0))
    cols = w3_spec.vectors[:, w3_spec.values > entropy.RANK_FLOOR * max(lmax3, 1.0)]
    proj_full = kron_embed(cols @ cols.conj().T, omega.shape, [given])

    spec = linalg.spectral(omega.matrix)
    lmax = float(spec.values.max(initial=0.0))
    removed = 0.0
    keep = []
    for i, v in enumerate(spec.values):
        if v <= entropy.RANK_FLOOR * lmax:
            continue
        overlap = float(np.real(spec.vectors[:, i].conj() @ (proj_full @ spec.vectors[:, i])))
        if overlap < 1.0 - eps - 1e-12:
            removed += v
        else:
            keep.append(i)
    if removed > eps + 1e-12:
        raise DomainError(
            f"support condition forces out mass {removed:.3e} beyond epsilon {eps}"
        )
    keep.sort(key=lambda i: (spec.values[i], i))
    while keep and removed + spec.values[keep[0]] <= eps + 1e-15:
        removed += spec.values[keep.pop(0)]
    if not keep:
        raise DomainError("smoothing removed every eigenvector")
    vals = np.zeros_like(spec.values)
    vals[keep] = spec.values[keep]
    eta = (spec.vectors * vals) @ spec.vectors.conj().T
    w = kron_embed(w3_spec.power(-0.25), omega.shape, [given])
    value = float(-2.0 * math.log2(linalg.schatten_norm(w @ eta @ w, 2)))
    return value, DensitySystem.from_matrix(eta, omega.shape)


def kept_point(spec, kept):
    """The feasible point eta of `entropy.h2_prime` on the eigenpairs `spec`:
    V diag(kept values) V^dag, formed as h2_prime once formed it."""
    vals = np.zeros_like(spec.values)
    vals[kept] = spec.values[kept]
    return (spec.vectors * vals) @ spec.vectors.conj().T


def kraus_channel(n, da, db, rng):
    """A channel with n Kraus operators cut from a random isometry
    A -> B (x) Z, so |Z| = n and its Choi state has rank at most n."""
    iso = linalg.random_unitary(db * n, rng)[:, :da]
    return quantum.channel_from_kraus([iso[z::n] for z in range(n)], da, db)


def prepare(inst):
    """`decoupling.prepare` as a pipeline of the public entropy steps, each
    decomposing what it needs, with the weighted operators rebuilt after."""
    cfg = inst.cfg
    r_labels = list(inst.r_labels)
    wit = entropy.h2_with_witness(inst.rho, cfg, given=r_labels)
    h2_eps, warns = wit.value, wit.warnings
    rho_tilde = conj_by_inverse_quarter(wit.sigma, inst.rho.shape, wit.weight, r_labels)
    rho_tilde_r = linalg.partial_trace(rho_tilde, inst.rho.shape, list(inst.a_labels))

    choi = quantum.choi_state(inst.channel)
    # the B marginal as prepare reads it, off the thin Choi spectrum's factor,
    # so hmax' is taken on the same matrix
    spec, shp, _, _ = quantum._thin_choi(inst.channel)
    choi_b = DensitySystem._derived(linalg.factor_marginal(
        spec.vectors * np.sqrt(spec.values), shp, "B"), linalg.shape(("B", shp.dim_of("B"))))
    hmax_prime_val, _ = entropy.hmax_prime(choi_b, cfg.epsilon)
    omega3 = omega_triple_prime(choi_b, cfg.epsilon, cfg.delta)
    h2_prime_val, eta = h2_prime(choi, cfg.epsilon, cfg.delta, given="B")
    eta = eta.matrix

    povm = None
    if cfg.epsilon > 0:
        povm = quantum.povm_completion(quantum.choi_amplitudes(inst.channel), eta)

    omega3_iq = linalg.pseudo_inverse_power(omega3.matrix, -0.25)
    w_b = kron_embed(omega3_iq, choi.shape, ["B"])
    omega_tilde = w_b @ eta @ w_b
    omega_tilde_b = linalg.partial_trace(omega_tilde, choi.shape, ["Ap"])

    n_r = linalg.schatten_norm(rho_tilde_r, 2) ** 2
    n_ar = linalg.schatten_norm(rho_tilde, 2) ** 2
    n_b = linalg.schatten_norm(omega_tilde_b, 2) ** 2
    n_ab = linalg.schatten_norm(omega_tilde, 2) ** 2
    if abs(2.0 ** (-h2_eps) - n_ar) > 1e-8 * max(1.0, n_ar):
        raise ComputationError("witness norm does not match its entropy value")
    if abs(2.0 ** (-h2_prime_val) - n_ab) > 1e-8 * max(1.0, n_ab):
        raise ComputationError("channel witness norm does not match its entropy value")
    return decoupling.Weights(
        rho_tilde=rho_tilde, rho_tilde_r=rho_tilde_r,
        channel=inst.channel,
        omega3_inv_quarter=omega3_iq, povm=povm, omega_tilde_b=omega_tilde_b,
        h2_eps=h2_eps, h2_prime_val=h2_prime_val, hmax_prime_val=hmax_prime_val,
        n_r=n_r, n_ar=n_ar, n_b=n_b, n_ab=n_ab, warnings=warns,
    )


def pin_phases(vectors, tol=1e-9):
    """Column by column: scale so the first entry above tol is real, positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size:
            pivot = col[idx[0]]
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def complete_isometry(cols):
    """Extend orthonormal columns to a full unitary via the SVD null basis."""
    cols = np.asarray(cols, dtype=complex)
    d, k = cols.shape
    gram_err = float(np.abs(cols.conj().T @ cols - np.eye(k)).max())
    if gram_err > 1e-9:
        raise DomainError(f"columns are not orthonormal, defect {gram_err:.2e}")
    if k == d:
        return cols.copy()
    u, _, _ = np.linalg.svd(cols, full_matrices=True)
    proj = cols @ cols.conj().T
    comp = u[:, k:]
    comp = comp - proj @ comp
    q, _ = np.linalg.qr(comp)
    return np.hstack([cols, q[:, : d - k]])


def unitary_dilation(w, b_dim, z_dim):
    """(v, |C|): the unitary v on A (x) C -> B (x) Z whose columns (a, 0)
    carry the isometry w: A -> B (x) Z and whose columns (a, c >= 1) hold
    its completion in order."""
    w = np.asarray(w, dtype=complex)
    a_dim = w.shape[1]
    if a_dim == b_dim * z_dim:
        return w, 1
    v = complete_isometry(w)
    c_dim = (b_dim * z_dim) // a_dim
    assert a_dim * c_dim == b_dim * z_dim
    full = np.concatenate([v[:, :a_dim, None],
                           v[:, a_dim:].reshape(-1, a_dim, c_dim - 1)], axis=2)
    return full.reshape(-1, a_dim * c_dim), c_dim


def kraus_dilation(kraus, a_dim, b_dim):
    """(v, |C|, |Z|) for a Kraus list: |Z| is padded with zero operators
    until |A| divides |B||Z|, then the stacked isometry is completed."""
    z_dim = len(kraus)
    while (b_dim * z_dim) % a_dim != 0:
        z_dim += 1
    v0 = np.zeros((b_dim * z_dim, a_dim), dtype=complex)
    for zi, k in enumerate(kraus):
        for b in range(b_dim):
            v0[b * z_dim + zi, :] = k[b, :]
    v, c_dim = unitary_dilation(v0, b_dim, z_dim)
    return v, c_dim, z_dim


def random_dilation(a_dim, b_dim, rng, trace_preserving=True):
    """The draw behind `quantum.random_channel`: a unitary (or contraction)
    on A (x) C -> B (x) Z with C = B and Z = A."""
    d = a_dim * b_dim
    if trace_preserving:
        return linalg.random_unitary(d, rng)
    return quantum.random_contraction(d, rng)


def circuit_unitaries(n, depth, rngs):
    """One brickwork circuit per generator, as a stack: the draw behind a
    circuit ensemble before bulk seeding. Each generator draws its gates'
    Ginibre matrices in gate order, real part then imaginary part, and one
    stacked QR makes them Haar."""
    m, dim = len(rngs), 2**n
    u = np.tile(np.eye(dim, dtype=complex), (m, 1, 1))
    pairs = [p for layer in range(depth) for p in ensembles._ring_pairs(n, layer)]
    if not pairs:
        return u
    z = []
    for rng in rngs:
        for _ in pairs:
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g /= np.sqrt(2.0)
            z.append(g)
    q, r = np.linalg.qr(np.stack(z))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    gates = (q * (d / np.abs(d))[..., None, :]).reshape(m, len(pairs), 4, 4)
    u = u.reshape((m,) + (2,) * n + (dim,))
    for k, (a, b) in enumerate(pairs):
        v = np.moveaxis(u, (1 + a, 1 + b), (1, 2))
        v = (gates[:, k] @ v.reshape(m, 4, -1)).reshape(v.shape)
        u = np.moveaxis(v, (1, 2), (1 + a, 1 + b))
    return u.reshape(m, dim, dim)


def ancilla_zero(v, a_dim, c_dim):
    """v (I_A (x) |0>^C): the |B||Z| x |A| block a dilation applies."""
    return v.reshape(v.shape[0], a_dim, c_dim)[:, :, 0]


MOMENT_BATCH_BYTES = 1 << 21  # working memory for one stack of flattened U^(x)t
DENSE_SVD_DIM = 1024  # largest dim^(2t) whose whole moment gap oracles.qtpe_lambda decomposes


def tensor_powers(us, t):
    """U^(x)t for each U of an (n, d, d) stack."""
    n, d, _ = us.shape
    w = us
    for _ in range(t - 1):
        w = (w[:, :, None, :, None] * us[:, None, :, None, :]).reshape(
            n, w.shape[1] * d, w.shape[2] * d)
    return w


def moment_operator(e, t, samples=2000):
    """The averaged t-fold twirl as a dense dim^(2t) x dim^(2t) matrix on
    vectorised operators.

    Acts on column-stacked M as G vec(M) = E[ vec(U^t M U^-t) ]; exact for
    enumerated ensembles and their iterates (a matrix power), Monte Carlo
    with `samples` draws otherwise. G = E[kron(conj W, W)] with W = U^(x)t
    is one Gram matrix: with the rows of Y the flattened W, conj(Y)^T Y
    holds conj W[a, c] W[b, d] at ((a, c), (b, d)), which a transpose
    regroups to ((a, b), (c, d)).
    """
    if t < 1:
        raise DomainError("moment order t must be at least 1")
    ensembles._check_moment_cap(e.dim, t)
    if e.kind == "iterated" and ensembles._exact(e.base):
        return np.linalg.matrix_power(moment_operator(e.base, t), e.iterations)
    if e.kind == "enumerated":
        count, draw = len(e.members), lambda lo, hi: e.members[lo:hi]
    else:
        count, draw = samples, lambda lo, hi: e.sample_batch(range(lo, hi))
    d_t = e.dim**t
    step = max(1, MOMENT_BATCH_BYTES // (16 * d_t * d_t))
    gram = np.zeros((d_t * d_t, d_t * d_t), dtype=complex)
    for lo in range(0, count, step):
        y = tensor_powers(draw(lo, min(lo + step, count)), t).reshape(-1, d_t * d_t)
        gram += y.conj().T @ y
    gram /= count
    return gram.reshape(d_t, d_t, d_t, d_t).transpose(0, 2, 1, 3).reshape(
        d_t * d_t, d_t * d_t)


def haar_moment_projector(dim, t):
    """Exact dense Haar twirl at order t via the permutation commutant:
    sum_ij ginv[i, j] |v_i><v_j| over the vectorised permutation operators
    v_i, with ginv the pseudo-inverse of their Gram matrix, which also
    covers the rank-deficient regime t > dim."""
    if t < 1:
        raise DomainError("moment order t must be at least 1")
    ensembles._check_moment_cap(dim, t)
    d_t = dim**t
    # P_pi |i_1 .. i_t> = |i_pi(1) .. i_pi(t)> is the identity with its
    # input axes permuted
    eye = np.eye(d_t).reshape((dim,) * (2 * t))
    vecs = np.array([
        eye.transpose(list(range(t)) + [t + k for k in np.argsort(pi)])
        .reshape(d_t, d_t).ravel(order="F")
        for pi in itertools.permutations(range(t))
    ])
    ginv = np.linalg.pinv(vecs @ vecs.T, rcond=1e-10)
    return vecs.T @ ginv @ vecs


def gap_blocks(gap, dim, t):
    """The diagonal blocks, one per pair (k, l) of `ensembles._isotypic`
    groups, of a dense operator E[conj W (x) W] with W = U^(x)t, whose
    entry ((a, b), (c, d)) is E[conj W[a, c] W[b, d]]: block (k, l)
    contracts the axes a and c with Q_k and b and d with Q_l."""
    d_t = dim**t
    groups = ensembles._isotypic(dim, t)
    rows = gap.reshape(d_t, -1)
    for qk in groups:
        n_k = qk.shape[1]
        x = (qk.T @ rows).reshape(n_k * d_t, d_t, d_t)  # (alpha b, c, d)
        x = np.matmul(qk.T, x).reshape(n_k, d_t, n_k, d_t)  # (alpha, b, gamma, d)
        for ql in groups:
            n_l = ql.shape[1]
            y = (x @ ql).reshape(n_k, d_t, n_k * n_l)  # (alpha, b, gamma delta)
            yield np.matmul(ql.T, y).reshape(n_k * n_l, n_k * n_l)


def qtpe_lambda(e, t, samples=2000):
    """(lambda, moment deviation) of `ensembles.qtpe_lambda` from the dense
    moment gap: the deviation's maximum over every degree k <= t, and
    lambda from a dense SVD of the whole gap, or, past DENSE_SVD_DIM, from
    the SVDs of its `gap_blocks` (the whole gap's SVD takes about 90 s at
    dim^(2t) = 4096)."""
    deviation = 0.0
    for k in range(1, t + 1):
        gap = moment_operator(e, k, samples=samples)
        gap -= haar_moment_projector(e.dim, k)
        deviation = max(deviation, (e.dim**k) * float(np.abs(gap).max()))
    if len(gap) <= DENSE_SVD_DIM:
        return float(linalg.schatten_norm(gap, np.inf)), deviation
    return max(np.linalg.svd(b, compute_uv=False)[0] for b in gap_blocks(gap, e.dim, t)), deviation


@dataclass(frozen=True)
class TypeVector:
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.counts)


def enumerate_types(n, alphabet):
    """All compositions of n into `alphabet` parts, by recursion, in
    lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(TypeVector(tuple(prefix + [remaining])))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, alphabet)
    return tuple(out)


def multinomial_count(tv):
    """Exact number of sequences of this type."""
    total = tv.n
    out = 1
    for c in tv.counts:
        out *= math.comb(total, c)
        total -= c
    return out


def sequence_prob(tv, probs):
    q = 1.0
    for c, p in zip(tv.counts, probs):
        if c == 0:
            continue
        if p == 0.0:
            return 0.0
        q *= p**c
    return q


def is_typical(tv, probs, delta):
    n = tv.n
    for c, p in zip(tv.counts, probs):
        if not (n * p * (1 - delta) <= c <= n * p * (1 + delta)):
            return False
    return True


def typical_report(spec, eps):
    """`typicality.typical_report`, one type class at a time."""
    if not 0 < eps < 1:
        raise DomainError("eps must sit in (0, 1)")
    probs = tuple(float(p) for p in spec.probs)
    h = entropy.shannon(np.asarray(probs))
    n, delta = spec.n, spec.delta
    mass = 0.0
    count_total = 0
    q_lo, q_hi = math.inf, -math.inf
    typical = []
    for tv in enumerate_types(n, len(probs)):
        if not is_typical(tv, probs, delta):
            continue
        typical.append(tv)
        cnt = multinomial_count(tv)
        q = sequence_prob(tv, probs)
        mass += cnt * q
        count_total += cnt
        q_lo, q_hi = min(q_lo, q), max(q_hi, q)
    threshold = typicality.aep_threshold(probs, eps, delta)
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


def quantum_typical_report(state, n, delta, eps):
    """`typicality.quantum_typical_report` on a state or a spectrum."""
    vals = np.linalg.eigvalsh(linalg.hermitianize(state.matrix)) \
        if isinstance(state, DensitySystem) else np.asarray(state, dtype=float)
    vals = np.clip(vals, 0.0, None)
    vals = vals / vals.sum()
    spec = typicality.TypicalSpec(probs=tuple(float(v) for v in vals), n=n, delta=delta)
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


def hmax_prime_iid_aggregated(probs, n, eps):
    """`typicality.hmax_prime_iid_aggregated`, spending the budget class by
    class."""
    if not 0 <= eps < 1:
        raise DomainError(f"epsilon must sit in [0, 1), got {eps}")
    p = np.asarray(probs, dtype=float)
    classes = []
    for tv in enumerate_types(n, p.size):
        lam = sequence_prob(tv, p)
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
        return float(-math.log2(lam))
    return float(-math.log2(classes[-1][0]))


def hmax_prime_iid_check(state_or_probs, n, eps, delta):
    """`typicality.hmax_prime_iid_check`, deriving its own n threshold."""
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


def h2_prime_iid_p_min(omega, eps):
    """`p_min` of `typicality.h2_prime_iid_bound_check`: each live
    eigenvector's B-diagonal from its own outer product and partial trace."""
    (a_name, _), (b_name, _) = omega.shape.labels
    spec = linalg.spectral(omega.matrix)
    b_spec = linalg.spectral(omega.marginal([b_name]).matrix)
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
    return p_min


def tensor_power_bipartite(omega, n):
    """omega^(x)n on (A^n, B^n) by repeated kron, regrouped by a permutation:
    the dense state `typicality._product_spectrum` reads off omega's pairs."""
    (a_name, da), (b_name, db) = omega.shape.labels
    big = omega.matrix
    labels = [(f"{a_name}0", da), (f"{b_name}0", db)]
    for i in range(1, n):
        big = np.kron(big, omega.matrix)
        labels += [(f"{a_name}{i}", da), (f"{b_name}{i}", db)]
    shp = linalg.SystemShape(tuple(labels))
    order = [f"{a_name}{i}" for i in range(n)] + [f"{b_name}{i}" for i in range(n)]
    big = linalg.permute_systems(big, shp, order)
    return DensitySystem._derived(big, linalg.shape(("A", da**n), ("B", db**n)))


def h2_prime_iid_full_value(omega, n, eps_prime, delta):
    """Full mode's h2' of `typicality.h2_prime_iid_bound_check` on the dense
    n-fold state's own eigendecomposition."""
    big = tensor_power_bipartite(omega, n)
    return entropy.h2_prime(linalg.spectral(big.matrix), big.shape, eps_prime,
                            5.0 * delta).value
