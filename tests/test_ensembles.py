"""Unitary ensembles, moment operators, and expander diagnostics."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from decouplab import ensembles, linalg
from decouplab.errors import CapError, ConfigError, DomainError

import oracles


def weyl_group(d):
    """Shift-clock products, an exact 1-design in any dimension."""
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [
        np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        for a in range(d)
        for b in range(d)
    ]


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)


class TestGroups:
    def test_pauli_sizes(self):
        assert len(ensembles.pauli_group(1)) == 4
        assert len(ensembles.pauli_group(2)) == 16

    def test_pauli_members_unitary(self):
        for p in ensembles.pauli_group(2):
            np.testing.assert_allclose(p @ p.conj().T, np.eye(4), atol=1e-12)

    def test_clifford_one_qubit_size(self):
        assert len(ensembles.clifford_group(1)) == 24

    def test_clifford_two_qubit_size(self):
        assert len(ensembles.clifford_group(2)) == 11520



def old_circuit_unitary(n, depth, rng):
    """The per-draw circuit that stacked gate contraction replaced: one
    `random_unitary(4, rng)` per gate, embedded as kron(gate, I) and permuted."""
    names = [f"q{i}" for i in range(n)]
    u = np.eye(2**n, dtype=complex)
    for layer in range(depth):
        for a, b in ensembles._ring_pairs(n, layer):
            gate = linalg.random_unitary(4, rng)
            rest = [q for i, q in enumerate(names) if i not in (a, b)]
            big = np.kron(gate, np.eye(2 ** (n - 2), dtype=complex))
            shp = linalg.SystemShape(tuple((q, 2) for q in [names[a], names[b]] + rest))
            u = linalg.permute_systems(big, shp, names) @ u
    return u


def old_sample(e, stream):
    """The per-kind draw body that `sample_batch` replaced: a generator of
    its own per draw."""
    rng = np.random.default_rng((e.seed, stream))
    if e.kind == "enumerated":
        return e.members[int(rng.integers(len(e.members)))]
    if e.kind == "haar":
        return linalg.random_unitary(e.dim, rng)
    if e.kind == "circuit":
        return oracles.circuit_unitaries(e.n_qubits, e.circuit_depth, [rng])[0]
    u = np.eye(e.dim, dtype=complex)
    for j in range(e.iterations):
        u = old_sample(e.base, stream * e.iterations + j) @ u
    return u


SEEDS = [0, 1, 2**31 - 1, 2**32, 2**64 + 5, 10**30]
STREAMS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7]


class TestSampling:
    def test_stream_determinism(self):
        e = ensembles.haar_ensemble(4, seed=3)
        np.testing.assert_array_equal(e.sample(5), e.sample(5))
        assert np.abs(e.sample(5) - e.sample(6)).max() > 1e-3

    def test_samples_are_unitary(self):
        for e in (
            ensembles.haar_ensemble(3, seed=0),
            ensembles.random_circuit_ensemble(2, 3, seed=0),
            ensembles.enumerated_ensemble(ensembles.pauli_group(1)),
            ensembles.iterate_ensemble(
                ensembles.enumerated_ensemble([HADAMARD, PHASE]), 2
            ),
        ):
            u = e.sample(7)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(e.dim), atol=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ensembles.UnitaryEnsemble(kind="magic", dim=2)

    @pytest.mark.parametrize("e", [
        ensembles.haar_ensemble(5, seed=11),
        ensembles.random_circuit_ensemble(2, 3, seed=12),
        ensembles.enumerated_ensemble(ensembles.pauli_group(1), seed=13),
        ensembles.iterate_ensemble(
            ensembles.enumerated_ensemble([HADAMARD, PHASE], seed=14), 3),
        ensembles.random_circuit_ensemble(3, 2, seed=15),
        ensembles.random_circuit_ensemble(2, 0, seed=16),
    ], ids=["haar", "circuit", "enumerated", "iterated", "circuit-3q", "circuit-depth-0"])
    def test_batch_equals_stacked_single_draws(self, e):
        a, b = 4, 17
        whole = e.sample_batch(range(a, b))
        assert whole.shape == (b - a, e.dim, e.dim)
        np.testing.assert_array_equal(
            whole, np.stack([e.sample(i) for i in range(a, b)]))
        for cut in range(a, b + 1):
            parts = [e.sample_batch(range(a, cut)), e.sample_batch(range(cut, b))]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_circuit_matches_kron_oracle(self, n, depth):
        e = ensembles.random_circuit_ensemble(n, depth, seed=n * 10 + depth)
        want = np.stack([old_circuit_unitary(n, depth, np.random.default_rng((e.seed, i)))
                         for i in range(6)])
        np.testing.assert_allclose(e.sample_batch(range(6)), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("e", [
        ensembles.haar_ensemble(1, seed=2),
        ensembles.haar_ensemble(4, seed=3),
        ensembles.enumerated_ensemble(ensembles.clifford_group(1), seed=4),
        ensembles.iterate_ensemble(
            ensembles.enumerated_ensemble([HADAMARD, PHASE], seed=5), 3),
        ensembles.iterate_ensemble(ensembles.haar_ensemble(3, seed=6), 2),
        ensembles.iterate_ensemble(
            ensembles.iterate_ensemble(ensembles.haar_ensemble(2, seed=7), 2), 3),
    ], ids=["haar-1", "haar-4", "enumerated", "iterated-enumerated",
            "iterated-haar", "iterated-iterated"])
    def test_draws_equal_old_sample(self, e):
        want = np.stack([old_sample(e, i) for i in range(12)])
        np.testing.assert_array_equal(e.sample_batch(range(12)), want)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make", [
        lambda seed: ensembles.haar_ensemble(3, seed=seed),
        lambda seed: ensembles.random_circuit_ensemble(3, 2, seed=seed),
        lambda seed: ensembles.enumerated_ensemble(ensembles.clifford_group(1), seed=seed),
        lambda seed: ensembles.iterate_ensemble(ensembles.haar_ensemble(2, seed=seed), 2),
    ], ids=["haar", "circuit", "enumerated", "iterated"])
    def test_wide_seeds_and_streams_equal_old_sample(self, make, seed):
        # seeds and streams of one, two and three 32-bit words, in one batch
        # and each alone
        e = make(seed)
        streams = STREAMS * 2
        want = np.stack([old_sample(e, s) for s in streams])
        np.testing.assert_array_equal(e.sample_batch(streams), want)
        np.testing.assert_array_equal(np.stack([e.sample(s) for s in STREAMS]),
                                      want[:len(STREAMS)])

    @pytest.mark.parametrize("seed", SEEDS + [2**128 + 3])
    def test_stream_states_equal_pcg64(self, seed):
        streams = STREAMS + [2**64, 10**40, 7]
        want = [np.random.PCG64((seed, s)).state["state"] for s in streams]
        got = ensembles._stream_states(seed, streams)
        assert got == [(w["state"], w["inc"]) for w in want]

    def test_negative_stream_rejected(self):
        with pytest.raises(DomainError):
            ensembles.haar_ensemble(2, seed=1).sample_batch(range(-1, 10))

    @pytest.mark.parametrize("e", [
        ensembles.haar_ensemble(4, seed=1),
        ensembles.random_circuit_ensemble(2, 3, seed=2),
        ensembles.enumerated_ensemble(ensembles.pauli_group(1), seed=3),
    ], ids=["haar", "circuit", "enumerated"])
    def test_bulk_batch_builds_no_generator_per_draw(self, e, monkeypatch):
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        e.sample_batch(range(200))
        assert calls == []


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda: ensembles.enumerated_ensemble([]),
        lambda: ensembles.enumerated_ensemble([np.eye(2), np.eye(4)]),
        lambda: ensembles.enumerated_ensemble([np.eye(2), np.diag([2.0, 1.0])]),
        lambda: ensembles.enumerated_ensemble([np.full((2, 2), np.nan)]),
        lambda: ensembles.enumerated_ensemble([np.ones((1, 2))]),
        lambda: ensembles.enumerated_ensemble([np.eye(0)]),
        lambda: ensembles.haar_ensemble(0),
        lambda: ensembles.UnitaryEnsemble(kind="circuit", dim=4),
        lambda: ensembles.UnitaryEnsemble(kind="circuit", dim=4, n_qubits=3),
        lambda: ensembles.random_circuit_ensemble(1, 2),
        lambda: ensembles.random_circuit_ensemble(2, -1),
        lambda: ensembles.UnitaryEnsemble(kind="iterated", dim=2),
        lambda: ensembles.UnitaryEnsemble(kind="iterated", dim=4,
                                          base=ensembles.haar_ensemble(2)),
        lambda: ensembles.iterate_ensemble(ensembles.haar_ensemble(2), 0),
    ], ids=["no-members", "mixed-sizes", "non-unitary", "nan-member", "non-square",
            "empty-member", "haar-dim-0", "circuit-no-qubits", "circuit-wrong-dim",
            "circuit-one-qubit", "circuit-negative-depth", "iterated-no-base",
            "iterated-wrong-dim", "iterated-zero"])
    def test_invalid_ensemble_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    def test_unitary_tolerance(self):
        near = np.diag([1.0, np.exp(1e-11j) * (1 + 1e-11)])
        assert ensembles.enumerated_ensemble([near]).dim == 2


class TestMomentOperator:
    """The dense moment operator of the test oracle."""

    def test_cap_enforced(self):
        e = ensembles.haar_ensemble(16, seed=0)
        with pytest.raises(CapError):
            oracles.moment_operator(e, 2)
        with pytest.raises(CapError):
            ensembles.qtpe_lambda(e, 2)

    def test_cap_counts_dim_one_as_two(self, monkeypatch):
        # dim^(2t) is 1 at dim 1 for any t, but the permutation tables hold
        # (t!)^2 t entries; t = 7 fails before any table is built
        e = ensembles.haar_ensemble(1, seed=0)
        assert ensembles.qtpe_lambda(e, 6, samples=3).lambda_value == pytest.approx(0.0, abs=1e-9)

        def unbuilt(*args):
            raise AssertionError("a design table was built past the cap")
        monkeypatch.setattr(ensembles, "_design_tables", unbuilt)
        with pytest.raises(CapError, match=r"max\(dim, 2\)\*\*\(2t\) = 16384"):
            ensembles.qtpe_lambda(e, 7, samples=3)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_cap_unchanged_from_dim_two(self, dim):
        for t in range(1, 7):
            if dim ** (2 * t) <= ensembles.MOMENT_DIM_CAP:
                ensembles._check_moment_cap(dim, t)
            else:
                with pytest.raises(CapError):
                    ensembles._check_moment_cap(dim, t)

    def test_cap_boundary_allowed(self):
        # dim 8 at t = 2 sits exactly on the cap
        g = oracles.moment_operator(
            ensembles.enumerated_ensemble([np.eye(8, dtype=complex)]), 2
        )
        assert g.shape == (4096, 4096)

    def test_fixes_identity(self):
        g = oracles.moment_operator(ensembles.haar_ensemble(3, seed=1), 2,
                                    samples=100)
        vec_i = np.eye(9, dtype=complex).ravel(order="F")
        np.testing.assert_allclose(g @ vec_i, vec_i, atol=1e-12)

    def test_contraction(self):
        g = oracles.moment_operator(ensembles.haar_ensemble(2, seed=2), 2,
                                    samples=200)
        assert linalg.schatten_norm(g, np.inf) <= 1.0 + 1e-9

    def test_acts_by_conjugation(self):
        # G vec(M) = mean of vec(U M U^dag) over the ensemble members
        e = ensembles.enumerated_ensemble(ensembles.pauli_group(1))
        g = oracles.moment_operator(e, 1)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = sum(u @ m @ u.conj().T for u in e.members) / len(e.members)
        got = (g @ m.ravel(order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_iterated_is_matrix_power(self):
        base = ensembles.enumerated_ensemble([HADAMARD, PHASE])
        g1 = oracles.moment_operator(base, 1)
        g3 = oracles.moment_operator(ensembles.iterate_ensemble(base, 3), 1)
        np.testing.assert_allclose(g3, np.linalg.matrix_power(g1, 3), atol=1e-12)

    @pytest.mark.parametrize("t", [2, 3])
    def test_nested_iterate_is_exact(self, t):
        # an iterate of an iterate draws nothing either: matrix_power of a
        # matrix_power squares the same products as the flat fourth power,
        # in the dense oracle and block by block in qtpe_lambda
        base = ensembles.enumerated_ensemble(ensembles.clifford_group(1), name="clifford")
        nested = ensembles.iterate_ensemble(ensembles.iterate_ensemble(base, 2), 2)
        flat = ensembles.iterate_ensemble(base, 4)
        np.testing.assert_array_equal(oracles.moment_operator(nested, t, samples=3),
                                      oracles.moment_operator(flat, t))
        assert ensembles.qtpe_lambda(nested, t, samples=3) == ensembles.qtpe_lambda(
            flat, t, samples=3)


def kron_moment_reference(e, t, samples):
    """The per-term sum of kron(conj W, W), W = U^(x)t, that the Gram form replaced."""
    if e.kind == "enumerated":
        terms = [(u, 1.0 / len(e.members)) for u in e.members]
    elif e.kind == "iterated" and e.base.kind == "enumerated":
        combos = list(itertools.product(e.base.members, repeat=e.iterations))
        terms = []
        for combo in combos:
            u = np.eye(e.dim, dtype=complex)
            for g in combo:
                u = g @ u
            terms.append((u, 1.0 / len(combos)))
    else:
        terms = [(e.sample(i), 1.0 / samples) for i in range(samples)]
    d2t = e.dim ** (2 * t)
    g = np.zeros((d2t, d2t), dtype=complex)
    for u, wgt in terms:
        w = u
        for _ in range(t - 1):
            w = np.kron(w, u)
        g += wgt * np.kron(w.conj(), w)
    return g


MOMENT_CASES = {
    "pauli": (lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(1)), (1, 2, 3)),
    "iterated": (lambda: ensembles.iterate_ensemble(
        ensembles.enumerated_ensemble([HADAMARD, PHASE]), 3), (1, 2, 3)),
    "haar-2": (lambda: ensembles.haar_ensemble(2, seed=3), (1, 2, 3)),
    "haar-3": (lambda: ensembles.haar_ensemble(3, seed=4), (1, 2)),
    "circuit": (lambda: ensembles.random_circuit_ensemble(2, 2, seed=5), (1, 2)),
}


class TestMomentGram:
    @pytest.mark.parametrize("name, t", [(n, t) for n, (_, ts) in MOMENT_CASES.items()
                                          for t in ts])
    def test_matches_kron_sum(self, name, t, monkeypatch):
        e = MOMENT_CASES[name][0]()
        want = kron_moment_reference(e, t, samples=25)
        np.testing.assert_allclose(oracles.moment_operator(e, t, samples=25), want,
                                   rtol=0, atol=1e-12)
        # seven draws per stack: 25 samples and 8 products end mid-stack
        monkeypatch.setattr(oracles, "MOMENT_BATCH_BYTES", 7 * 16 * e.dim ** (2 * t))
        np.testing.assert_allclose(oracles.moment_operator(e, t, samples=25), want,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, t", [(n, t) for n, (_, ts) in MOMENT_CASES.items()
                                          for t in ts])
    def test_design_check_one_draw_per_stack(self, name, t, monkeypatch):
        # qtpe_lambda's one pass, stack by stack, against the dense oracle
        e = MOMENT_CASES[name][0]()
        lam, deviation = oracles.qtpe_lambda(e, t, samples=25)
        monkeypatch.setattr(ensembles, "MOMENT_BATCH_BYTES", 1)
        rep = ensembles.qtpe_lambda(e, t, samples=25)
        assert rep.lambda_value == pytest.approx(lam, abs=1e-12, rel=0)
        assert rep.moment_deviation == pytest.approx(deviation, abs=1e-12, rel=0)


class TestHaarProjector:
    """The dense Haar projector of the test oracle, and the Weingarten table
    qtpe_lambda reads in its place."""

    def test_is_projector(self):
        p = oracles.haar_moment_projector(3, 2)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-9)

    def test_t1_explicit_form(self):
        # order-1 twirl sends M to tr(M) I / d
        d = 3
        p = oracles.haar_moment_projector(d, 1)
        rng = np.random.default_rng(1)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = (p @ m.ravel(order="F")).reshape(d, d, order="F")
        np.testing.assert_allclose(got, np.trace(m) * np.eye(d) / d, atol=1e-10)

    def test_rank_deficient_regime(self):
        # t = dim: the Gram matrix of permutation operators is singular
        p = oracles.haar_moment_projector(2, 2)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)

    def test_matches_haar_monte_carlo(self):
        d = 3
        p = oracles.haar_moment_projector(d, 1)
        g = oracles.moment_operator(ensembles.haar_ensemble(d, seed=5), 1,
                                    samples=20000)
        assert np.abs(g - p).max() < 0.03

    @pytest.mark.parametrize("dim, t", [(2, 3), (2, 6), (3, 4), (4, 3)])
    def test_weingarten_sums_to_the_haar_moment(self, dim, t):
        # the Weingarten function sums over S_t to 1 / (dim (dim + 1) ...
        # (dim + t - 1)) = E|U_11|^(2t) / t!; at (2, 6) numpy's default pinv
        # cut inverts a rounding-level singular value and misses it by 5e-4
        # relative
        perms, ginv = ensembles._weingarten(dim, t)
        want = 1.0 / math.prod(range(dim, dim + t))
        assert ginv[0].sum() == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(ginv.sum(axis=1), want, rtol=1e-12)


DESIGN_CASES = {
    "pauli-1": lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(1), name="pauli"),
    "pauli-2": lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(2), name="pauli"),
    "clifford-1": lambda: ensembles.enumerated_ensemble(ensembles.clifford_group(1),
                                                        name="clifford"),
    "iterated-clifford": lambda: ensembles.iterate_ensemble(
        ensembles.enumerated_ensemble([HADAMARD, PHASE], name="hs"), 3),
    "haar-2": lambda: ensembles.haar_ensemble(2, seed=1),
    "haar-3": lambda: ensembles.haar_ensemble(3, seed=2),
    "haar-4": lambda: ensembles.haar_ensemble(4, seed=3),
    "iterated-haar": lambda: ensembles.iterate_ensemble(ensembles.haar_ensemble(2, seed=4), 2),
    "circuit-2": lambda: ensembles.random_circuit_ensemble(2, 2, seed=5),
    # {H, S} is not closed under inverse, so its gap is not Hermitian
    "hs-squared": lambda: ensembles.iterate_ensemble(
        ensembles.enumerated_ensemble([HADAMARD, PHASE], name="hs"), 2),
    "nested-clifford": lambda: ensembles.iterate_ensemble(ensembles.iterate_ensemble(
        ensembles.enumerated_ensemble(ensembles.clifford_group(1), name="clifford"), 2), 2),
}
DESIGN_DIMS = {"pauli-2": 4, "haar-3": 3, "haar-4": 4, "circuit-2": 4}  # others: 2


class TestDesignDiagnostics:
    def test_weyl_is_exact_1_design(self):
        e = ensembles.enumerated_ensemble(weyl_group(3), name="weyl3")
        g = oracles.moment_operator(e, 1)
        np.testing.assert_allclose(g, oracles.haar_moment_projector(3, 1),
                                   atol=1e-12)
        rep = ensembles.qtpe_lambda(e, 1)
        assert rep.lambda_value <= 1e-12 and rep.moment_deviation <= 1e-12

    def test_pauli_t1_exact(self):
        e = ensembles.enumerated_ensemble(ensembles.pauli_group(1), name="pauli")
        rep = ensembles.qtpe_lambda(e, 1)
        assert rep.lambda_value <= 1e-12
        assert rep.moment_deviation <= 1e-12

    def test_pauli_fails_t2(self):
        e = ensembles.enumerated_ensemble(ensembles.pauli_group(1), name="pauli")
        rep = ensembles.qtpe_lambda(e, 2)
        assert rep.lambda_value > 0.5
        assert rep.moment_deviation > 0.05

    def test_clifford_is_exact_2_design(self):
        e = ensembles.enumerated_ensemble(ensembles.clifford_group(1),
                                          name="clifford")
        rep = ensembles.qtpe_lambda(e, 2)
        assert rep.lambda_value <= 1e-10
        assert rep.moment_deviation <= 1e-10

    def test_singleton_identity_lambda_one(self):
        e = ensembles.enumerated_ensemble([np.eye(2, dtype=complex)])
        assert ensembles.qtpe_lambda(e, 1).lambda_value == pytest.approx(1.0)

    def test_iteration_lambda_monotone(self):
        base = ensembles.enumerated_ensemble([HADAMARD, PHASE], name="hs")
        lams = [
            ensembles.qtpe_lambda(ensembles.iterate_ensemble(base, k), 1
                                  ).lambda_value
            for k in (2, 3, 4)
        ]
        assert lams[0] == pytest.approx(0.6403882032022076, abs=1e-9)
        assert lams[0] >= lams[1] - 1e-12 >= lams[2] - 2e-12

    def test_circuit_depth_one_leaves_a_qubit(self):
        # one brickwork layer on 3 qubits touches only a 2-qubit block, so a
        # monomial on the idle qubit is reproduced exactly and lambda = 1
        e = ensembles.random_circuit_ensemble(3, 1, seed=0)
        rep = ensembles.qtpe_lambda(e, 1, samples=600)
        assert rep.lambda_value == pytest.approx(1.0, abs=1e-6)

    def test_circuit_depth_two_mixes(self):
        e = ensembles.random_circuit_ensemble(3, 2, seed=0)
        rep = ensembles.qtpe_lambda(e, 1, samples=1500)
        assert rep.lambda_value < 0.15

    # every case up to dim^(2t) = 1024, and haar-2 at t = 6 (4096, the cap),
    # where t > dim leaves the permutation Gram matrix singular; the other
    # cases at 4096 take the dense oracle 4-24 s and up to 860 MB each
    @pytest.mark.parametrize("name, t", [
        (name, t) for name in DESIGN_CASES for t in range(1, 7)
        if DESIGN_DIMS.get(name, 2) ** (2 * t) <= 1024 or (name, t) == ("haar-2", 6)
    ])
    def test_degree_t_matches_every_degree(self, name, t):
        # the largest d^k-scaled entry gap over k <= t sits at k = t, and the
        # monomials and isotypic blocks give the dense route's numbers
        e = DESIGN_CASES[name]()
        rep = ensembles.qtpe_lambda(e, t, samples=40)
        lam, deviation = oracles.qtpe_lambda(e, t, samples=40)
        assert rep.lambda_value == pytest.approx(lam, abs=1e-12, rel=0)
        assert rep.moment_deviation == pytest.approx(deviation, abs=1e-12, rel=0)

    def test_sampled_check_needs_a_draw(self):
        with pytest.raises(DomainError):
            ensembles.qtpe_lambda(ensembles.haar_ensemble(2, seed=0), 1, samples=0)

    def test_lambda_range_invariant(self):
        with pytest.raises(DomainError):
            ensembles.DesignReport(t=1, dim=2, lambda_value=2.5,
                                   moment_deviation=0.0, samples_used=1,
                                   kind="enumerated")

    def test_report_json(self):
        rep = ensembles.DesignReport(t=2, dim=2, lambda_value=0.5,
                                     moment_deviation=0.1, samples_used=10,
                                     kind="haar")
        js = rep.to_json()
        assert js["lambda"] == 0.5 and js["t"] == 2


def _partitions(t, rows):
    """The partitions of t into at most `rows` parts."""
    def rec(left, top, slots):
        if left == 0:
            yield ()
        elif slots:
            for part in range(min(left, top), 0, -1):
                for rest in rec(left - part, part, slots - 1):
                    yield (part,) + rest
    return list(rec(t, t, rows))


class TestIsotypicBlocks:
    @pytest.mark.parametrize("dim, t", [
        (d, t) for d in (2, 3, 4) for t in (1, 2, 3, 4) if d**t <= 81
    ])
    def test_groups_orthonormal_complete_invariant(self, dim, t):
        groups = ensembles._isotypic(dim, t)
        # one group per Young diagram of t boxes with at most dim rows: their
        # content sums differ for t <= 5
        assert len(groups) == len(_partitions(t, dim))
        q = np.hstack(groups)
        assert q.shape == (dim**t, dim**t)
        np.testing.assert_allclose(q.T @ q, np.eye(dim**t), atol=1e-12)
        us = ensembles.haar_ensemble(dim, seed=7).sample_batch(range(3))
        for w in oracles.tensor_powers(us, t):
            for qk in groups:
                wq = w @ qk
                np.testing.assert_allclose(wq - qk @ (qk.T @ wq), 0, atol=1e-12)

    # haar-3 at t = 3, pauli-2 and circuit-2 at t = 2 are cases of
    # TestDesignDiagnostics.test_degree_t_matches_every_degree; haar-2 at
    # t = 4 has the groups (4), (3,1), (2,2), the last two with multiplicity
    @pytest.mark.parametrize("name, t", [
        ("haar-2", 4), ("hs-squared", 1), ("hs-squared", 2), ("hs-squared", 3),
    ])
    def test_block_lambda_matches_dense_svd(self, name, t):
        e = DESIGN_CASES[name]()
        rep = ensembles.qtpe_lambda(e, t, samples=40)
        lam, deviation = oracles.qtpe_lambda(e, t, samples=40)
        assert rep.lambda_value == pytest.approx(lam, abs=1e-12, rel=0)
        assert rep.moment_deviation == pytest.approx(deviation, abs=1e-12, rel=0)

    @pytest.mark.parametrize("name, t", [("haar-2", 4), ("hs-squared", 3),
                                         ("circuit-2", 2)])
    def test_blocks_carry_every_singular_value(self, name, t):
        # lambda only reads the largest; the blocks must hold the whole spectrum
        e = DESIGN_CASES[name]()
        gap = oracles.moment_operator(e, t, samples=40)
        gap -= oracles.haar_moment_projector(e.dim, t)
        blocks = np.concatenate([np.linalg.svd(b, compute_uv=False)
                                 for b in oracles.gap_blocks(gap, e.dim, t)])
        np.testing.assert_allclose(np.sort(blocks)[::-1],
                                   np.linalg.svd(gap, compute_uv=False), atol=1e-12)

    @pytest.mark.parametrize("name, t", [("haar-2", 4), ("hs-squared", 3),
                                         ("circuit-2", 2)])
    def test_upper_blocks_carry_every_singular_value(self, name, t):
        # qtpe_lambda decomposes the blocks k <= l only: block (l, k) has the
        # singular values of block (k, l), so those count twice
        e = DESIGN_CASES[name]()
        tab = ensembles._design_tables(e.dim, t)
        if e.kind == "iterated":
            grams = ensembles._exact_grams(e, tab)
        else:
            grams = ensembles._draw_grams(e, 40, tab, monomials=False)[0]
        spectrum = np.concatenate([
            np.tile(np.linalg.svd(b, compute_uv=False), 1 + (k < l))
            for (k, l), b in ensembles._upper_blocks(grams, tab)])
        gap = oracles.moment_operator(e, t, samples=40)
        gap -= oracles.haar_moment_projector(e.dim, t)
        np.testing.assert_allclose(np.sort(spectrum)[::-1],
                                   np.linalg.svd(gap, compute_uv=False), atol=1e-12)

    def test_non_hermitian_gap_covered(self):
        # so the singular values of its blocks are not their eigenvalues
        hs2 = DESIGN_CASES["hs-squared"]()
        for t in (1, 2, 3):
            gap = (oracles.moment_operator(hs2, t)
                   - oracles.haar_moment_projector(2, t))
            assert np.abs(gap - gap.conj().T).max() > 1e-3

    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_clifford_one_exact_through_blocks(self, t, iterations):
        base = ensembles.enumerated_ensemble(ensembles.clifford_group(1),
                                             name="clifford")
        e = base if iterations == 1 else ensembles.iterate_ensemble(base, iterations)
        assert ensembles.qtpe_lambda(e, t).lambda_value <= 1e-10

    @pytest.mark.parametrize("name, t", [("pauli-2", 2), ("haar-3", 3)])
    def test_holds_less_than_one_superoperator(self, name, t):
        # no dim^(2t)-square array: the monomials' Gram matrix and the
        # isotypic Gram blocks, each far smaller, and one realigned block
        e = DESIGN_CASES[name]()
        ensembles.qtpe_lambda(e, t, samples=40)
        tracemalloc.start()
        try:
            ensembles.qtpe_lambda(e, t, samples=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * e.dim ** (4 * t)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: ensembles.haar_ensemble(3, seed=2),
        lambda: ensembles.random_circuit_ensemble(2, 4, seed=1),
        lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(1),
                                              name="pauli"),
        lambda: ensembles.enumerated_ensemble(ensembles.clifford_group(1),
                                              name="clifford"),
        lambda: ensembles.enumerated_ensemble([HADAMARD, PHASE], name="custom"),
        lambda: ensembles.iterate_ensemble(
            ensembles.enumerated_ensemble(ensembles.pauli_group(1),
                                          name="pauli"), 3),
    ])
    def test_round_trip(self, make):
        e = make()
        back = ensembles.ensemble_from_json(ensembles.ensemble_to_json(e))
        assert back.kind == e.kind
        assert back.dim == e.dim
        np.testing.assert_array_equal(back.sample(9), e.sample(9))

    @pytest.mark.parametrize("members, name, n_qubits", [
        (lambda: ensembles.pauli_group(1), "pauli", 1),
        (lambda: [m.copy() for m in ensembles.pauli_group(2)], "pauli", 2),
        (lambda: list(ensembles.clifford_group(1)), "clifford", 1),
        (lambda: [HADAMARD, PHASE], "pauli", None),
        (lambda: [HADAMARD, PHASE], "clifford", None),
        (lambda: ensembles.pauli_group(1)[:2], "pauli", None),
        (lambda: weyl_group(3), "pauli", None),
        (lambda: [np.eye(8)], "clifford", None),
    ], ids=["pauli-1", "pauli-2-copy", "clifford-1-list", "hs-as-pauli", "hs-as-clifford",
            "pauli-subset", "dim-3", "dim-8"])
    def test_named_descriptor_only_for_the_group(self, members, name, n_qubits):
        # a group's name regenerates the group, so other members are inlined
        e = ensembles.enumerated_ensemble(members(), name=name)
        desc = json.loads(json.dumps(ensembles.ensemble_to_json(e)))
        assert desc.get("n_qubits") == n_qubits
        assert ("members" in desc) == (n_qubits is None)
        back = ensembles.ensemble_from_json(desc)
        assert back.name == name
        np.testing.assert_array_equal(back.members, e.members)
        assert ensembles.ensemble_to_json(back) == desc

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ConfigError):
            ensembles.ensemble_from_json({"kind": "nonsense"})

    @pytest.mark.parametrize("name", ["clifford", "pauli"])
    def test_name_alone_builds_no_group(self, name):
        # one member cannot be Clifford(2) or the 2-qubit Paulis: the size
        # rules the group out before it is built
        ensembles.clifford_group.cache_clear()
        ensembles.pauli_group.cache_clear()
        e = ensembles.enumerated_ensemble([np.eye(4)], name=name)
        assert "members" in ensembles.ensemble_to_json(e)
        assert ensembles.clifford_group.cache_info().misses == 0
        assert ensembles.pauli_group.cache_info().misses == 0
