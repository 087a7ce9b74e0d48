"""States, channels, purifications and the operator facts they rest on."""

import numpy as np
import pytest

from decouplab import decoupling, entropy, linalg, quantum
from decouplab.entropy import SmoothingConfig
from decouplab.errors import ComputationError, DimensionError, DomainError
from decouplab.linalg import shape
from decouplab.quantum import ChannelStinespring, DensitySystem

import oracles


def kraus_apply(kraus, m):
    return sum(k @ m @ k.conj().T for k in kraus)


def channel_kraus(t: ChannelStinespring):
    """Extract Kraus operators K_z = (I_B (x) <z|) v."""
    v = t.v.reshape(t.b_dim, t.z_dim, t.a_dim)
    return [v[:, z, :] for z in range(t.z_dim)]


class TestDensitySystem:
    def test_valid_state(self):
        rho = quantum.maximally_mixed(3)
        assert rho.dim == 3
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensitySystem(np.array([[0.5, 0.5], [0.0, 0.5]]), shape(("A", 2)))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DensitySystem(np.diag([1.5, -0.5]).astype(complex), shape(("A", 2)))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensitySystem(np.eye(2, dtype=complex), shape(("A", 2)))

    @pytest.mark.parametrize("m", [
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([1.5, -0.5]).astype(complex),
        np.eye(3, dtype=complex) / 3,
    ], ids=["non-hermitian", "negative", "wrong-size"])
    def test_from_matrix_rejects(self, m):
        # from_matrix reads the mass off the trace, so a shape mismatch
        # stands in for the constructor's wrong-trace case
        with pytest.raises((DomainError, DimensionError)):
            DensitySystem.from_matrix(m, shape(("A", 2)))

    @pytest.mark.parametrize("m", [[[0.5, 0.0], [0.0, 0.5]], np.eye(2) / 2],
                             ids=["list", "real"])
    def test_stores_the_checked_complex_array(self, m):
        rho = DensitySystem(m, shape(("A", 2)))
        assert isinstance(rho.matrix, np.ndarray) and rho.matrix.dtype == complex
        np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)

    def test_list_state_reaches_h2_and_f(self):
        m = (np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2)).tolist()
        rho = DensitySystem(m, shape(("A", 2), ("B", 2)))
        assert np.isfinite(entropy.h2_conditional(rho, SmoothingConfig(), given="B"))
        inst = decoupling.DecouplingInstance(
            rho=DensitySystem(m, shape(("A", 2), ("R", 2))),
            channel=quantum.identity_channel(2), cfg=SmoothingConfig())
        assert decoupling.f_value(inst, np.eye(2)) >= 0.0

    def test_marginals_of_product(self):
        rng = np.random.default_rng(0)
        a = quantum.random_density(2, rng)
        b = quantum.random_density(3, rng)
        rho = DensitySystem(np.kron(a, b), shape(("A", 2), ("B", 3)))
        np.testing.assert_allclose(rho.marginal(["A"]).matrix, a, atol=1e-12)
        np.testing.assert_allclose(rho.partial_trace(["A"]).matrix, b, atol=1e-12)

    def test_epr_marginal_is_mixed(self):
        phi = quantum.epr_state(4)
        np.testing.assert_allclose(
            phi.marginal(["A"]).matrix, np.eye(4) / 4, atol=1e-12
        )


class TestChannelStinespring:
    def test_identity_channel(self):
        rng = np.random.default_rng(1)
        rho = quantum.random_state(shape(("A", 3)), rng)
        out = quantum.identity_channel(3).apply(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_trace_out_channel(self):
        rng = np.random.default_rng(2)
        rho = quantum.random_state(shape(("A", 2), ("B", 3)), rng)
        t = quantum.trace_out_channel(2, 3)
        out = t.apply(rho, block=("A", "B"))
        np.testing.assert_allclose(out.matrix, rho.marginal(["A"]).matrix,
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_apply_matches_kraus_form(self, seed):
        rng = np.random.default_rng(seed)
        t = quantum.random_channel(3, 2, rng)
        rho = quantum.random_density(3, rng)
        got = t.apply(DensitySystem(rho, shape(("A", 3)))).matrix
        want = kraus_apply(channel_kraus(t), rho)
        np.testing.assert_allclose(got, want, atol=1e-10)
        assert np.trace(got) == pytest.approx(1.0, abs=1e-9)

    def test_apply_on_block_leaves_rest(self):
        rng = np.random.default_rng(3)
        t = quantum.random_channel(2, 2, rng)
        a = quantum.random_density(2, rng)
        r = quantum.random_density(3, rng)
        rho = DensitySystem(np.kron(a, r), shape(("A", 2), ("R", 3)))
        out = t.apply(rho, block=("A",))
        want = np.kron(kraus_apply(channel_kraus(t), a), r)
        np.testing.assert_allclose(out.matrix, want, atol=1e-10)
        assert out.shape.names == ("B", "R")

    @pytest.mark.parametrize("seed", range(4))
    def test_adjoint_is_adjoint(self, seed):
        # <N, T(M)> = <T^dag(N), M> in Hilbert-Schmidt inner product
        rng = np.random.default_rng(seed)
        t = quantum.random_channel(3, 2, rng)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        n = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tm, _ = t.apply_matrix(m, shape(("A", 3)))
        tn, _ = t.apply_adjoint_matrix(n, shape(("B", 2)))
        lhs = np.trace(n.conj().T @ tm)
        rhs = np.trace(tn.conj().T @ m)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_adjoint_unital(self):
        rng = np.random.default_rng(4)
        t = quantum.random_channel(3, 2, rng)
        out, _ = t.apply_adjoint_matrix(np.eye(2, dtype=complex), shape(("B", 2)))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ChannelStinespring(v=np.eye(4), b_dim=3)

    def test_non_unitary_tp_rejected(self):
        with pytest.raises(DomainError):
            ChannelStinespring(v=0.5 * np.eye(4), b_dim=2, trace_preserving=True)

    def test_choi_of_identity_is_epr(self):
        choi = quantum.choi_state(quantum.identity_channel(3))
        np.testing.assert_allclose(
            choi.matrix, quantum.epr_state(3, labels=("B", "Ap")).matrix,
            atol=1e-12,
        )
        assert choi.shape.names == ("B", "Ap")

    @pytest.mark.parametrize("make", [
        lambda rng: quantum.identity_channel(3),
        lambda rng: quantum.trace_out_channel(2, 3),
        lambda rng: quantum.random_channel(3, 2, rng),
        lambda rng: quantum.random_channel(2, 3, rng, trace_preserving=False),
        lambda rng: quantum.channel_from_kraus(
            [np.diag([1, np.sqrt(0.7)]).astype(complex),
             np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex)], a_dim=2, b_dim=2),
        lambda rng: ChannelStinespring(v=linalg.random_unitary(6, rng)[:, :2], b_dim=3),
    ], ids=["identity", "trace-out", "random", "contraction", "kraus", "isometry"])
    def test_choi_state_matches_channel_on_epr(self, make):
        # oracle: push the dense EPR state through the channel
        t = make(np.random.default_rng(12))
        want = t.apply(quantum.epr_state(t.a_dim, labels=("A", "Ap")),
                       block=("A",), out_label="B")
        choi = quantum.choi_state(t)
        assert choi.shape == want.shape
        assert choi.mass == pytest.approx(want.mass, abs=1e-12)
        np.testing.assert_allclose(choi.matrix, want.matrix, rtol=0, atol=1e-12)
        # the thin spectrum and shape that the channel side reads
        spec, shp, wh, m = quantum._thin_choi(t)
        assert shp == choi.shape and spec.values.size == min(choi.shape.dim, t.z_dim)
        assert np.all(np.diff(spec.values) <= 0)
        np.testing.assert_allclose(spec.reconstruct(), choi.matrix, rtol=0, atol=1e-12)
        # m is the factorised array itself, the Choi amplitudes bit for bit
        np.testing.assert_array_equal(m, quantum.choi_amplitudes(t))
        np.testing.assert_allclose((spec.vectors * np.sqrt(spec.values)) @ wh,
                                   m, rtol=0, atol=1e-12)
        # the fixed output T(pi_A), read off the amplitudes without the Choi state
        np.testing.assert_allclose(quantum.fixed_output(t), choi.marginal(["B"]).matrix,
                                   rtol=0, atol=1e-12)

    def test_choi_b_marginal_is_channel_on_mixed(self):
        rng = np.random.default_rng(5)
        t = quantum.random_channel(3, 2, rng)
        choi_b = quantum.choi_state(t).marginal(["B"]).matrix
        direct = t.apply(DensitySystem(np.eye(3) / 3, shape(("A", 3)))).matrix
        np.testing.assert_allclose(choi_b, direct, atol=1e-10)


class TestKrausAndIsometry:
    def test_channel_from_kraus_round_trip(self):
        rng = np.random.default_rng(6)
        # amplitude-damping-style pair on a qubit
        g = 0.3
        k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        t = quantum.channel_from_kraus([k0, k1], a_dim=2, b_dim=2)
        rho = quantum.random_density(2, rng)
        got = t.apply(DensitySystem(rho, shape(("A", 2)))).matrix
        want = kraus_apply([k0, k1], rho)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_non_tp_kraus_rejected(self):
        with pytest.raises(DomainError):
            quantum.channel_from_kraus([np.eye(2) * 0.5], a_dim=2, b_dim=2)

    def test_isometry_channel_action(self):
        rng = np.random.default_rng(7)
        w_iso = linalg.random_unitary(6, rng)[:, :2]  # isometry 2 -> 6 = 3 x 2
        t = ChannelStinespring(v=w_iso, b_dim=3)
        rho = quantum.random_density(2, rng)
        got = t.apply(DensitySystem(rho, shape(("A", 2)))).matrix
        big = w_iso @ rho @ w_iso.conj().T
        want = linalg.partial_trace(big, shape(("B", 3), ("Z", 2)), ["Z"])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_empty_kraus_list_rejected(self):
        with pytest.raises(DomainError):
            quantum.channel_from_kraus([], a_dim=2, b_dim=2)


class TestIsometryMatchesDilation:
    """v equals the ancilla-|0> block of the unitary dilation once stored."""

    @pytest.mark.parametrize("make, d", [
        (lambda: quantum.identity_channel(3), 3),
        (lambda: quantum.trace_out_channel(2, 3), 6),
    ], ids=["identity", "trace-out"])
    def test_fixed_channels(self, make, d):
        old = oracles.ancilla_zero(np.eye(d, dtype=complex), d, 1)
        assert np.array_equal(make().v, old)

    @pytest.mark.parametrize("trace_preserving", [True, False])
    @pytest.mark.parametrize("a_dim, b_dim", [(2, 2), (3, 2), (2, 3), (4, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_channels(self, seed, a_dim, b_dim, trace_preserving):
        new = quantum.random_channel(a_dim, b_dim, np.random.default_rng(seed),
                                     trace_preserving=trace_preserving)
        old = oracles.random_dilation(a_dim, b_dim, np.random.default_rng(seed),
                                      trace_preserving=trace_preserving)
        assert np.array_equal(new.v, oracles.ancilla_zero(old, a_dim, b_dim))

    @pytest.mark.parametrize("a_dim, b_dim, z_dim", [(2, 3, 2), (3, 2, 3), (2, 2, 4)])
    def test_isometry_embeddings(self, a_dim, b_dim, z_dim):
        rng = np.random.default_rng(a_dim * 10 + b_dim)
        w = linalg.random_unitary(b_dim * z_dim, rng)[:, :a_dim]
        old, c_dim = oracles.unitary_dilation(w, b_dim, z_dim)
        assert c_dim > 1
        new = ChannelStinespring(v=w, b_dim=b_dim)
        assert np.array_equal(new.v, oracles.ancilla_zero(old, a_dim, c_dim))

    @pytest.mark.parametrize("a_dim, b_dim, n_ops", [(2, 2, 2), (3, 2, 3), (3, 2, 2), (4, 3, 3)])
    def test_kraus_lists_drop_the_padding(self, a_dim, b_dim, n_ops):
        rng = np.random.default_rng(a_dim * 100 + b_dim * 10 + n_ops)
        iso = linalg.random_unitary(b_dim * n_ops, rng)[:, :a_dim]
        kraus = list(iso.reshape(b_dim, n_ops, a_dim).transpose(1, 0, 2))
        new = quantum.channel_from_kraus(kraus, a_dim=a_dim, b_dim=b_dim)
        old, c_dim, z_pad = oracles.kraus_dilation(kraus, a_dim, b_dim)
        old_v0 = oracles.ancilla_zero(old, a_dim, c_dim).reshape(b_dim, z_pad, a_dim)
        assert not old_v0[:, n_ops:].any()
        assert np.array_equal(new.v, old_v0[:, :n_ops].reshape(-1, a_dim))


class TestPurification:
    @pytest.mark.parametrize("seed", range(5))
    def test_purification_marginal(self, seed):
        rng = np.random.default_rng(seed)
        rho = quantum.random_density(3, rng)
        v = quantum.purification_vector(rho)
        m = np.outer(v, v.conj())
        got = linalg.partial_trace(m, shape(("A", 3), ("E", 3)), ["E"])
        np.testing.assert_allclose(got, rho, atol=1e-10)

    def test_rank_overflow_rejected(self):
        rng = np.random.default_rng(9)
        rho = quantum.random_density(3, rng)  # full rank
        with pytest.raises(DimensionError):
            quantum.purification_vector(rho, env_dim=2)


class TestSteeringPovm:
    @pytest.mark.parametrize("seed", range(8))
    def test_povm_steers_to_dominated_target(self, seed):
        rng = np.random.default_rng(seed)
        dx, dz = 3, 4
        vec = quantum.random_pure_vector(dx * dz, rng)
        psi = DensitySystem.from_matrix(np.outer(vec, vec.conj()),
                                        shape(("X", dx), ("Z", dz)))
        psi_x = psi.marginal(["X"]).matrix
        # random dominated target: shrink along a random PSD direction
        spec = linalg.spectral(psi_x)
        scale = rng.uniform(0.2, 0.9, size=dx)
        target = (spec.vectors * (spec.values * scale)) @ spec.vectors.conj().T
        p = quantum.povm_completion(vec.reshape(dx, dz), target)
        assert linalg.schatten_norm(p, np.inf) <= 1.0 + 1e-8
        eigs = np.linalg.eigvalsh(linalg.hermitianize(p))
        assert eigs.min() >= -1e-8
        op = np.kron(np.eye(dx), p)
        steered = linalg.partial_trace(op @ psi.matrix @ op.conj().T,
                                       psi.shape, ["Z"])
        np.testing.assert_allclose(steered, target, atol=1e-7)

    def test_undominated_target_rejected(self):
        rng = np.random.default_rng(11)
        vec = quantum.random_pure_vector(4, rng)
        psi = DensitySystem.from_matrix(np.outer(vec, vec.conj()),
                                        shape(("X", 2), ("Z", 2)))
        too_big = psi.marginal(["X"]).matrix + 0.5 * np.eye(2)
        with pytest.raises(DomainError):
            quantum.povm_completion(vec.reshape(2, 2), too_big)


class TestOperatorFacts:
    def test_dominance_lemmas_bulk(self):
        report = quantum.dominance_lemmas_check(instances=200, seed=0)
        assert report["ok"]
        assert report["dominance_excess"] <= 1e-9
        assert report["steering_excess"] <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_gentle_measurement(self, seed):
        # Tr[P rho P] >= 1 - eps implies ||rho - P rho P||_1 <= 2 sqrt(eps)
        rng = np.random.default_rng(seed)
        d = 4
        rho = quantum.random_density(d, rng)
        u = linalg.random_unitary(d, rng)
        diag = rng.uniform(0.7, 1.0, size=d)
        p = (u * diag) @ u.conj().T  # 0 <= P <= I
        kept = p @ rho @ p
        eps = 1.0 - float(np.real(np.trace(kept)))
        assert eps >= -1e-12
        dist = linalg.schatten_norm(rho - kept, 1)
        assert dist <= 2.0 * np.sqrt(max(eps, 0.0)) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_vec_partial_trace_identity(self, seed):
        # Tr_Z |x><y| = X Y^dag for the folded matrices
        rng = np.random.default_rng(seed)
        da, dz = 3, 2
        x = rng.standard_normal(da * dz) + 1j * rng.standard_normal(da * dz)
        y = rng.standard_normal(da * dz) + 1j * rng.standard_normal(da * dz)
        shp = shape(("A", da), ("Z", dz))
        got = linalg.partial_trace(np.outer(x, y.conj()), shp, ["Z"])
        want = linalg.vec_inverse(x, shp) @ linalg.vec_inverse(y, shp).conj().T
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_ratio_window(self, seed):
        # 1/|A| <= ||rho^{AB}||_2^2 / ||rho^B||_2^2 <= |A|
        rng = np.random.default_rng(seed)
        da, db = 3, 4
        rho = quantum.random_state(shape(("A", da), ("B", db)), rng)
        n_ab = linalg.schatten_norm(rho.matrix, 2) ** 2
        n_b = linalg.schatten_norm(rho.marginal(["B"]).matrix, 2) ** 2
        ratio = n_ab / n_b
        assert 1.0 / da - 1e-10 <= ratio <= da + 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_norm_dominates_trace_norm(self, seed):
        # ||M||_1 <= sqrt(tr sigma) || sigma^(-1/4) M sigma^(-1/4) ||_2
        # for M supported on supp(sigma), sigma PSD subnormalised
        rng = np.random.default_rng(seed)
        d = 4
        sigma = quantum.random_psd(d, rng)
        sigma = sigma / np.real(np.trace(sigma)) * rng.uniform(0.3, 1.0)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (m + m.conj().T) / 2
        q = linalg.pseudo_inverse_power(sigma, -0.25)
        lhs = linalg.schatten_norm(m, 1)
        rhs = np.sqrt(np.real(np.trace(sigma))) * linalg.schatten_norm(q @ m @ q, 2)
        assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_swap_partial_trace_bound(self, seed):
        # || Tr_{R1 R2} [(I (x) F^R)(M (x) M^dag)] ||_1 <= |A| ||M||_2^2
        rng = np.random.default_rng(seed)
        da, dr = 2, 3
        m = rng.standard_normal((da * dr, da * dr)) + 1j * rng.standard_normal(
            (da * dr, da * dr))
        f = linalg.swap_operator(dr)
        big_shape = shape(("A1", da), ("R1", dr), ("A2", da), ("R2", dr))
        big = np.kron(m, m.conj().T)
        fr = linalg.permute_systems(
            np.kron(np.eye(da * da), f),
            shape(("A1", da), ("A2", da), ("R1", dr), ("R2", dr)),
            ["A1", "R1", "A2", "R2"],
        )
        prod = fr @ big
        reduced = linalg.partial_trace(prod, big_shape, ["R1", "R2"])
        lhs = linalg.schatten_norm(reduced, 1)
        rhs = da * linalg.schatten_norm(m, 2) ** 2
        assert lhs <= rhs + 1e-9


class TestRandomGenerators:
    def test_random_channel_contraction_mode(self):
        rng = np.random.default_rng(12)
        t = quantum.random_channel(2, 2, rng, trace_preserving=False)
        assert not t.trace_preserving
        assert linalg.schatten_norm(t.v, np.inf) <= 1.0 + 1e-9

    def test_random_state_rank_control(self):
        rng = np.random.default_rng(13)
        rho = quantum.random_state(shape(("A", 4)), rng, rank=2)
        vals = np.linalg.eigvalsh(linalg.hermitianize(rho.matrix))
        assert (vals > 1e-10).sum() == 2
