"""Core linear algebra against brute-force index-loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decouplab import linalg
from decouplab.errors import DimensionError, DomainError

import oracles


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_herm(rng, d):
    m = random_complex(rng, d)
    return (m + m.conj().T) / 2


def partial_trace_oracle(m, dims, traced_axes):
    """Quadruple loop over kept and traced multi-indices."""
    kept_axes = [i for i in range(len(dims)) if i not in traced_axes]
    kept_dims = [dims[i] for i in kept_axes]
    dk = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((dk, dk), dtype=complex)
    all_idx = list(np.ndindex(*dims))
    flat = {idx: i for i, idx in enumerate(all_idx)}

    def kept_flat(idx):
        v = 0
        for ax in kept_axes:
            v = v * dims[ax] + idx[ax]
        return v

    for row in all_idx:
        for col in all_idx:
            if all(row[ax] == col[ax] for ax in traced_axes):
                out[kept_flat(row), kept_flat(col)] += m[flat[row], flat[col]]
    return out


class TestSystemShape:
    def test_basic_accessors(self):
        shp = linalg.shape(("A", 2), ("B", 3), ("C", 5))
        assert shp.dim == 30
        assert shp.names == ("A", "B", "C")
        assert shp.dims == (2, 3, 5)
        assert shp.axis("B") == 1
        assert shp.dim_of("C") == 5
        assert shp.dim_of_all(["A", "C"]) == 10
        assert shp.drop(["B"]).names == ("A", "C")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DimensionError):
            linalg.shape(("A", 2), ("A", 3))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(DimensionError):
            linalg.shape(("A", 0))

    def test_check_matrix(self):
        shp = linalg.shape(("A", 2), ("B", 2))
        with pytest.raises(DimensionError):
            shp.check_matrix(np.eye(3))


class TestPartialTrace:
    @pytest.mark.parametrize("dims,traced", [
        ((2, 3), ["s1"]),
        ((2, 3), ["s0"]),
        ((2, 2, 3), ["s1"]),
        ((2, 2, 2), ["s0", "s2"]),
        ((3, 2, 2), ["s1", "s2"]),
    ])
    def test_matches_loop_oracle(self, dims, traced):
        rng = np.random.default_rng(42)
        shp = linalg.SystemShape(tuple((f"s{i}", d) for i, d in enumerate(dims)))
        m = random_complex(rng, shp.dim)
        got = linalg.partial_trace(m, shp, traced)
        want = partial_trace_oracle(m, dims, [shp.axis(t) for t in traced])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_trace_of_kron(self):
        rng = np.random.default_rng(1)
        a, b = random_complex(rng, 2), random_complex(rng, 3)
        shp = linalg.shape(("A", 2), ("B", 3))
        got = linalg.partial_trace(np.kron(a, b), shp, ["B"])
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)

    def test_full_trace_consistency(self):
        rng = np.random.default_rng(2)
        shp = linalg.shape(("A", 2), ("B", 2), ("C", 2))
        m = random_complex(rng, 8)
        reduced = linalg.partial_trace(m, shp, ["A", "C"])
        assert np.trace(reduced) == pytest.approx(np.trace(m), abs=1e-12)


class TestPermute:
    def test_permutation_on_kron(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_complex(rng, d) for d in (2, 3, 2))
        shp = linalg.shape(("A", 2), ("B", 3), ("C", 2))
        got = linalg.permute_systems(np.kron(np.kron(a, b), c), shp, ["C", "A", "B"])
        np.testing.assert_allclose(got, np.kron(np.kron(c, a), b), atol=1e-12)

    def test_inverse_permutation(self):
        rng = np.random.default_rng(4)
        shp = linalg.shape(("A", 2), ("B", 3))
        m = random_complex(rng, 6)
        there = linalg.permute_systems(m, shp, ["B", "A"])
        back = linalg.permute_systems(there, linalg.shape(("B", 3), ("A", 2)), ["A", "B"])
        np.testing.assert_allclose(back, m, atol=1e-12)

    def test_unknown_label(self):
        shp = linalg.shape(("A", 2), ("B", 2))
        with pytest.raises(DimensionError):
            linalg.permute_systems(np.eye(4), shp, ["A", "X"])


class TestSpectral:
    def test_reconstruct(self):
        rng = np.random.default_rng(5)
        h = random_herm(rng, 6)
        spec = linalg.spectral(h)
        np.testing.assert_allclose(spec.reconstruct(), h, atol=1e-9)
        assert all(spec.values[i] >= spec.values[i + 1] for i in range(5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            linalg.spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_phase_pinning_deterministic(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        s1 = linalg.spectral(h)
        s2 = linalg.spectral(h * np.exp(0j))
        np.testing.assert_allclose(s1.vectors, s2.vectors, atol=1e-15)
        # pinned pivot entries are real positive
        for j in range(2):
            col = s1.vectors[:, j]
            pivot = col[np.abs(col) > 1e-9][0]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_phase_pinning_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        u = linalg.random_unitary(8, rng)
        mats = [random_herm(rng, d) for d in (1, 2, 5, 12)] + [
            (u * rng.integers(0, 3, 8)) @ u.conj().T,  # degenerate eigenvalues
            np.kron(np.eye(3), random_herm(rng, 3)),  # degenerate, block sparse
            np.diag(rng.integers(0, 2, 6)).astype(complex),  # many exact zeros
        ]
        for h in mats:
            vecs = np.linalg.eigh(h)[1]
            np.testing.assert_array_equal(linalg._pin_phases(vecs), oracles.pin_phases(vecs))
        # a column with nothing above the tolerance keeps its phase
        z = np.zeros((3, 2), dtype=complex)
        z[1, 1] = 1j
        z[2, 0] = 1e-12j
        np.testing.assert_array_equal(linalg._pin_phases(z), oracles.pin_phases(z))


class TestNorms:
    def test_schatten_against_singular_values(self):
        rng = np.random.default_rng(6)
        m = random_complex(rng, 5, 3)
        s = np.linalg.svd(m, compute_uv=False)
        for p in (1, 1.5, 2, 3):
            assert linalg.schatten_norm(m, p) == pytest.approx(
                (s**p).sum() ** (1 / p), rel=1e-12
            )
        assert linalg.schatten_norm(m, np.inf) == pytest.approx(s.max(), rel=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            linalg.schatten_norm(np.eye(2), 0.5)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, d, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, d), random_complex(rng, d)
        for p in (1, 2, np.inf):
            lhs = linalg.schatten_norm(a + b, p)
            rhs = linalg.schatten_norm(a, p) + linalg.schatten_norm(b, p)
            assert lhs <= rhs + 1e-9


class TestPseudoInversePower:
    def test_inverse_on_support(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 4, 2)
        psd = m @ m.conj().T  # rank 2
        inv = linalg.pseudo_inverse_power(psd, -1.0)
        proj = linalg.pseudo_inverse_power(psd, 0.0)
        np.testing.assert_allclose(inv @ psd, proj, atol=1e-8)

    def test_quarter_powers_compose(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, 3)
        psd = m @ m.conj().T
        q = linalg.pseudo_inverse_power(psd, -0.25)
        np.testing.assert_allclose(
            q @ q @ q @ q @ psd, np.eye(3), atol=1e-7
        )

    def test_negative_matrix_rejected(self):
        with pytest.raises(DomainError):
            linalg.pseudo_inverse_power(np.diag([1.0, -0.5]), -1.0)

    def test_spectrum_power_rejects_negative_eigenvalues(self):
        # below -1e-9 * lambda_max, and below -1e-9 when nothing is positive
        with pytest.raises(DomainError):
            linalg.spectral(np.diag([1.0, -2e-9])).power(-0.25)
        with pytest.raises(DomainError):
            linalg.spectral(np.diag([0.0, -1e-3])).power(-0.25)
        np.testing.assert_array_equal(
            linalg.spectral(np.zeros((2, 2))).power(-0.25), np.zeros((2, 2))
        )


class TestVecAndSwap:
    def test_vec_inverse_indexing(self):
        v = np.arange(6, dtype=complex)
        x = linalg.vec_inverse(v, linalg.shape(("A", 2), ("Z", 3)))
        for a in range(2):
            for z in range(3):
                assert x[a, z] == v[a * 3 + z]

    def test_swap_action(self):
        d = 3
        f = linalg.swap_operator(d)
        rng = np.random.default_rng(9)
        x = random_complex(rng, d, 1).ravel()
        y = random_complex(rng, d, 1).ravel()
        np.testing.assert_allclose(f @ np.kron(x, y), np.kron(y, x), atol=1e-12)
        np.testing.assert_allclose(f @ f, np.eye(d * d), atol=1e-12)

    def test_swap_trace_identity(self):
        # tr[(M (x) N) F] = tr[M N]
        rng = np.random.default_rng(10)
        m, n = random_complex(rng, 4), random_complex(rng, 4)
        f = linalg.swap_operator(4)
        assert np.trace(np.kron(m, n) @ f) == pytest.approx(
            np.trace(m @ n), abs=1e-10
        )


class TestUnitaryAndPolar:
    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_unitary_is_unitary(self, d, seed):
        u = linalg.random_unitary(d, np.random.default_rng(seed))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-10)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        m = random_complex(rng, 3, 5)
        d = linalg.matrix_to_json(m)
        np.testing.assert_allclose(linalg.matrix_from_json(d), m, atol=0)

    def test_json_layout(self):
        m = np.array([[1 + 2j, 3.0]])
        d = linalg.matrix_to_json(m)
        assert d["rows"] == 1 and d["cols"] == 2
        assert d["re"] == [1.0, 3.0] and d["im"] == [2.0, 0.0]


class TestTensor:
    def test_hermitian_checks(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        assert linalg.is_hermitian(h)
        assert not linalg.is_hermitian(h + np.array([[0, 1e-6], [0, 0]]))
        np.testing.assert_allclose(
            linalg.hermitianize(h + 1e-13), linalg.hermitianize(h + 1e-13).conj().T
        )
