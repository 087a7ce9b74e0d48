"""Type-class enumeration and the equipartition displays at exact-sum scale."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from decouplab import entropy, linalg, quantum, typicality
from decouplab.errors import CapError, DimensionError, DomainError
from decouplab.linalg import shape

import oracles


class TestEnumeration:
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (4, 3), (6, 4)])
    def test_count_is_stars_and_bars(self, n, k):
        table = typicality.enumerate_types(n, k)
        assert table.counts.shape == (math.comb(n + k - 1, k - 1), k)
        assert len(table.sizes) == table.counts.shape[0]

    def test_lexicographic_and_complete(self):
        got = [tuple(row) for row in typicality.enumerate_types(2, 3).counts.tolist()]
        assert got == sorted(set(got))
        assert got == sorted(c for c in itertools.product(range(3), repeat=3)
                             if sum(c) == 2)

    def test_last_enumeration_kept(self):
        table = typicality.enumerate_types(4, 3)
        assert typicality.enumerate_types(4, 3) is table

    def test_table_is_read_only(self):
        table = typicality.enumerate_types(4, 3)
        assert isinstance(table.sizes, tuple)
        with pytest.raises(ValueError):
            table.counts[0, 0] = 7

    def test_cap_enforced(self):
        with pytest.raises(CapError):
            typicality.enumerate_types(100, 5)

    def test_bad_arguments(self):
        with pytest.raises(DimensionError):
            typicality.enumerate_types(3, 0)

    def test_oversized_table_refused_before_it_is_built(self):
        # its exact class sizes alone would take about 90 GB
        tracemalloc.start()
        try:
            with pytest.raises(CapError, match="enumeration cap"):
                typicality.enumerate_types(999_999, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _size_of(counts):
    table = typicality.enumerate_types(sum(counts), len(counts))
    row = table.counts.tolist().index(list(counts))
    return table.sizes[row]


class TestMultinomialCount:
    @pytest.mark.parametrize("n,k", [(6, 0), (6, 2), (6, 6)])
    def test_binary_is_binomial(self, n, k):
        assert _size_of((k, n - k)) == math.comb(n, k)

    def test_three_letter_hand_value(self):
        # 4! / (2! 1! 1!) = 12
        assert _size_of((2, 1, 1)) == 12

    def test_counts_partition_all_sequences(self):
        n, k = 7, 3
        sizes = typicality.enumerate_types(n, k).sizes
        assert all(type(s) is int for s in sizes)
        assert sum(sizes) == k**n

    @pytest.mark.parametrize("k", range(1, 6))
    def test_every_size_is_a_multinomial(self, k):
        for n in range(13):
            table = typicality.enumerate_types(n, k)
            want = [math.factorial(n) // math.prod(map(math.factorial, row))
                    for row in table.counts.tolist()]
            assert list(table.sizes) == want

    @pytest.mark.parametrize("n,k", [(20_000, 2), (1, 1500)])
    def test_large_tables_partition_all_sequences(self, n, k):
        # |X| = 1500 letters at n = 1 lies past Python's recursion limit
        assert sum(typicality.enumerate_types(n, k).sizes) == k**n

    def test_probabilities_sum_to_one(self):
        probs = (0.5, 0.3, 0.2)
        table = typicality.enumerate_types(6, len(probs))
        q = typicality._type_probs(table.counts, probs)
        mass = sum(size * float(p) for size, p in zip(table.sizes, q))
        assert mass == pytest.approx(1.0, abs=1e-12)


def _random_probs(rng, k):
    p = rng.dirichlet(np.ones(k))
    if rng.random() < 0.3:
        p[rng.integers(k)] = 0.0
    return tuple(float(x) for x in p / p.sum())


def _assert_same_report(got, want):
    """Equal under ==, value for value, with the same Python types."""
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


class TestTableMatchesTypeObjects:
    """The table-based reports equal the per-class enumeration bit for bit."""

    # |X| from 2 to 4 with some zero entries, n from 1 to 40
    CASES = [(seed, 2 + seed % 3, 1 + (7 * seed) % 40) for seed in range(64)]

    @pytest.mark.parametrize("seed,k,n", CASES)
    def test_random_distribution(self, seed, k, n):
        rng = np.random.default_rng(seed)
        probs = _random_probs(rng, k)
        delta = float(rng.uniform(0.05, 0.9))
        small = float(rng.uniform(1e-4, 0.4))
        for eps in (0.0, small, 0.5):
            assert (typicality.hmax_prime_iid_aggregated(probs, n, eps)
                    == oracles.hmax_prime_iid_aggregated(probs, n, eps))
            if eps == 0.0:
                continue
            self._assert_reports_match(probs, n, delta, eps)

    @pytest.mark.parametrize("probs,n,delta,eps", [
        ((1 / 3, 1 / 3, 1 / 3), 120, 0.49, 0.5),  # the benchmark's typicality run
        ((0.7, 0.3), 16, 0.3, 0.4),  # demos/configs/typicality.json
    ])
    def test_run_configs(self, probs, n, delta, eps):
        self._assert_reports_match(probs, n, delta, eps)

    @staticmethod
    def _assert_reports_match(probs, n, delta, eps):
        spec = typicality.TypicalSpec(probs=probs, n=n, delta=delta)
        _assert_same_report(typicality.typical_report(spec, eps),
                            oracles.typical_report(spec, eps))
        _assert_same_report(typicality.quantum_typical_report(probs, n, delta, eps),
                            oracles.quantum_typical_report(probs, n, delta, eps))
        vals = np.array(probs)
        _assert_same_report(typicality.hmax_prime_iid_check(vals, n, eps, delta),
                            oracles.hmax_prime_iid_check(vals, n, eps, delta))


class TestTypicalReport:
    def test_fair_coin_exact_values(self):
        # n = 10, delta = 0.2: typical counts are 4, 5, 6 heads
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=10, delta=0.2)
        out = typicality.typical_report(spec, eps=0.5)
        want_count = math.comb(10, 4) + math.comb(10, 5) + math.comb(10, 6)
        assert out["typical_count"] == want_count
        assert out["typical_mass"] == pytest.approx(want_count / 1024.0)
        assert out["seq_prob_min"] == pytest.approx(2.0**-10)
        assert out["seq_prob_max"] == pytest.approx(2.0**-10)
        assert out["entropy"] == pytest.approx(1.0)
        assert out["mass_ok"] and out["sandwich_ok"] and out["count_ok"]

    def test_biased_coin_against_binomial_sum(self):
        p = 0.2
        spec = typicality.TypicalSpec(probs=(0.8, p), n=25, delta=0.25)
        out = typicality.typical_report(spec, eps=0.9)
        # window for the rare symbol: 25 * 0.2 * (1 +- 0.25) -> counts 4..6,
        # and the frequent symbol window is then automatic
        want = sum(
            math.comb(25, k) * p**k * (1 - p) ** (25 - k) for k in (4, 5, 6)
        )
        assert out["typical_mass"] == pytest.approx(want, rel=1e-12)
        assert out["typical_types"] == 3

    def test_sub_threshold_flagged(self):
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=10, delta=0.2)
        out = typicality.typical_report(spec, eps=0.5)
        # p_min = 1/2, so the stated sufficient n is 4/(0.5*0.04)*log2(4) = 400
        assert out["n_threshold"] == pytest.approx(400.0)
        assert out["sub_threshold"] is True

    def test_eps_range_checked(self):
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=4, delta=0.3)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                typicality.typical_report(spec, eps=bad)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            typicality.TypicalSpec(probs=(0.7, 0.7), n=3, delta=0.1)
        with pytest.raises(DomainError):
            typicality.TypicalSpec(probs=(1.0,), n=0, delta=0.1)
        with pytest.raises(DomainError):
            typicality.TypicalSpec(probs=(1.0,), n=3, delta=0.0)

    def test_oversized_class_fails(self):
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=5000, delta=0.49)
        with pytest.raises(CapError, match="2\\^4993 sequences"):
            typicality.typical_report(spec, eps=0.5)

    def test_enumeration_cap_checked_first(self):
        spec = typicality.TypicalSpec(probs=(0.2, 0.3, 0.5), n=10**8, delta=0.49)
        with pytest.raises(CapError, match="enumeration cap"):
            typicality.typical_report(spec, eps=0.5)

    @pytest.mark.parametrize("n,fits", [(1029, True), (1030, False)])
    def test_float_range_boundary(self, n, fits):
        # C(1030, 515) is the first central binomial past the float range
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=n, delta=0.49)
        if fits:
            assert typicality.typical_report(spec, eps=0.5)["mass_ok"]
        else:
            with pytest.raises(CapError):
                typicality.typical_report(spec, eps=0.5)

    def test_float_range_error_names_the_largest_class(self):
        spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=1030, delta=0.49)
        bits = math.comb(1030, 515).bit_length() - 1
        with pytest.raises(CapError, match=f"2\\^{bits} sequences"):
            typicality.typical_report(spec, eps=0.5)

    def test_skewed_window_skips_the_balanced_class(self):
        # the balanced class C(1100, 550) passes the float range but is not
        # typical for (0.99, 0.01); the typical ones all fit
        spec = typicality.TypicalSpec(probs=(0.99, 0.01), n=1100, delta=0.49)
        assert typicality.typical_report(spec, eps=0.5)["typical_types"] == 11

    def test_threshold_formula(self):
        # (0.9, 0.1) at eps = 0.2: the eps/2 truncation drops the 0.1 entry,
        # leaving p_min = 0.9
        got = typicality.aep_threshold((0.9, 0.1), eps=0.2, delta=0.3)
        want = 4.0 / (0.9 * 0.09) * math.log2(2.0 / 0.2)
        assert got == pytest.approx(want, rel=1e-12)


class TestQuantumReport:
    def test_reduces_to_eigenvalues(self):
        rng = np.random.default_rng(0)
        state = quantum.random_state(shape(("A", 3)), rng)
        vals = np.clip(np.linalg.eigvalsh(state.matrix), 0.0, None)
        vals = vals / vals.sum()
        q = typicality.quantum_typical_report(state, n=5, delta=0.4, eps=0.5)
        spec = typicality.TypicalSpec(probs=tuple(float(v) for v in vals),
                                      n=5, delta=0.4)
        c = typicality.typical_report(spec, eps=0.5)
        assert q["projector_mass"] == pytest.approx(c["typical_mass"])
        assert q["projector_rank"] == c["typical_count"]
        assert q["eigenvalue_min"] == pytest.approx(c["seq_prob_min"])
        assert q["mass_ok"] == c["mass_ok"]

    @pytest.mark.parametrize("seed", range(4))
    def test_state_matches_type_objects(self, seed):
        rng = np.random.default_rng(seed)
        state = quantum.random_state(shape(("A", 2 + seed % 3)), rng)
        _assert_same_report(
            typicality.quantum_typical_report(state, n=9, delta=0.4, eps=0.3),
            oracles.quantum_typical_report(state, n=9, delta=0.4, eps=0.3))
        _assert_same_report(
            typicality.hmax_prime_iid_check(state, n=9, eps=0.3, delta=0.4),
            oracles.hmax_prime_iid_check(state, n=9, eps=0.3, delta=0.4))

    def test_plain_matrix_and_negative_entry(self):
        # a density matrix without labels reads as its eigenvalues, like shannon
        m = np.diag([0.6, 0.4])
        vals = np.array([0.4, 0.6])
        q = typicality.quantum_typical_report(m, n=6, delta=0.5, eps=0.4)
        assert q == typicality.quantum_typical_report(vals, n=6, delta=0.5, eps=0.4)
        c = typicality.hmax_prime_iid_check(m, n=6, eps=0.4, delta=0.5)
        assert c == typicality.hmax_prime_iid_check(vals, n=6, eps=0.4, delta=0.5)
        # an entry below the eigenvalue tolerance is an error, not clipped away
        with pytest.raises(DomainError):
            typicality.quantum_typical_report(np.array([1.1, -0.1]), n=6,
                                              delta=0.5, eps=0.4)

    def test_accepts_plain_spectrum(self):
        out = typicality.quantum_typical_report(np.array([0.6, 0.4]), n=6,
                                                delta=0.5, eps=0.4)
        assert out["entropy"] == pytest.approx(entropy.shannon(
            np.array([0.6, 0.4])
        ))


class TestAggregatedMaxEntropy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.37])
    def test_matches_dense_product_spectrum(self, n, eps):
        probs = np.array([0.5, 0.3, 0.2])
        spectrum = np.array([1.0])
        for _ in range(n):
            spectrum = np.kron(spectrum, probs)
        dense, _ = entropy.hmax_prime_values(spectrum, eps)
        agg = typicality.hmax_prime_iid_aggregated(probs, n, eps)
        assert agg == pytest.approx(dense, abs=1e-10)

    def test_zero_entries_ignored(self):
        got = typicality.hmax_prime_iid_aggregated((0.5, 0.5, 0.0), 2, 0.0)
        assert got == pytest.approx(2.0)

    def test_check_cuts_the_spectrum_once(self, monkeypatch):
        # n_threshold and q_min read the same eps/2 cut of the single-copy spectrum
        calls = []
        real = entropy.hmax_prime_values
        monkeypatch.setattr(entropy, "hmax_prime_values",
                            lambda *args: calls.append(args) or real(*args))
        out = typicality.hmax_prime_iid_check((0.5, 0.3, 0.2), n=20, eps=0.2, delta=0.3)
        assert len(calls) == 1
        assert out["n_threshold"] == typicality.aep_threshold((0.5, 0.3, 0.2), 0.2, 0.3)

    def test_full_budget_keeps_top(self):
        # eps large enough to eat everything but the largest class member
        got = typicality.hmax_prime_iid_aggregated((0.9, 0.1), 1, 0.5)
        assert got == pytest.approx(-math.log2(0.9))

    def test_eps_range(self):
        with pytest.raises(DomainError):
            typicality.hmax_prime_iid_aggregated((1.0,), 2, 1.0)


class TestIidSandwich:
    def test_report_consistency(self):
        probs = (0.7, 0.3)
        out = typicality.hmax_prime_iid_check(probs, n=6, eps=0.25, delta=0.9)
        h = entropy.shannon(np.asarray(probs))
        assert out["value_bits"] == pytest.approx(
            typicality.hmax_prime_iid_aggregated(probs, 6, 0.25)
        )
        assert out["lower"] == pytest.approx(6 * 0.1 * h)
        assert out["upper"] == pytest.approx(6 * 1.9 * h)
        assert out["sandwich_ok"] is True

    def test_accepts_density_system(self):
        rho = quantum.DensitySystem(np.diag([0.6, 0.4]).astype(complex),
                                    shape(("A", 2)))
        out = typicality.hmax_prime_iid_check(rho, n=4, eps=0.3, delta=0.8)
        assert out["value_bits"] == pytest.approx(
            typicality.hmax_prime_iid_aggregated((0.4, 0.6), 4, 0.3)
        )


class TestConditionalCollisionWindow:
    def test_arithmetic_mode_formulas(self):
        rng = np.random.default_rng(1)
        omega = quantum.random_state(shape(("A", 2), ("B", 3)), rng)
        out = typicality.h2_prime_iid_bound_check(omega, n=4, eps=1e-6,
                                                  delta=0.1)
        assert out["mode"] == "arithmetic"
        dab = 6
        assert out["eps_prime"] == pytest.approx(
            8.0 * (4 + dab) ** dab * (1e-6) ** 0.25
        )
        h_cond = entropy.shannon(omega, given="B")
        h_joint = entropy.shannon(omega)
        h_b = entropy.shannon(omega.marginal(["B"]))
        assert out["lower"] == pytest.approx(
            4 * h_cond - 0.4 * (3 * h_joint + 7 * h_b)
        )
        assert out["n_threshold"] == pytest.approx(
            32.0 / (out["q_min"] * out["p_min"] * 0.01) * math.log2(dab / 1e-6)
        )

    @pytest.mark.parametrize("da,db,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2), (1, 4, 3),
                                            (4, 1, 4), (3, 3, 5)])
    def test_p_min_matches_per_vector_trace(self, da, db, seed):
        """Every eigenvector's B-diagonal from one contraction, against a
        partial trace of each eigenvector's outer product."""
        rng = np.random.default_rng(seed)
        omega = quantum.random_state(shape(("A", da), ("B", db)), rng, rank=max(1, da * db - 1))
        eps, delta = 0.05, 0.1
        out = typicality.h2_prime_iid_bound_check(omega, n=2, eps=eps, delta=delta)
        p_min = oracles.h2_prime_iid_p_min(omega, eps)
        n_req = 32.0 / (out["q_min"] * p_min * delta * delta) * math.log2(da * db / eps)
        assert out["p_min"] == pytest.approx(p_min, rel=1e-12)
        assert out["n_threshold"] == pytest.approx(n_req, rel=1e-12)

    def test_full_mode_window_holds(self):
        # eps small enough that eps_prime < 1 enables the n-fold evaluation
        omega = quantum.DensitySystem(np.eye(4, dtype=complex) / 4.0,
                                      shape(("A", 2), ("B", 2)))
        out = typicality.h2_prime_iid_bound_check(omega, n=2, eps=1e-20,
                                                  delta=0.02)
        assert out["mode"] == "full"
        assert 0 < out["eps_prime"] < 1
        assert out["lower_holds"] and out["upper_holds"]

    @pytest.mark.parametrize("eps_prime,feasible", [(0.05, False), (0.5, True)])
    def test_full_mode_reports_a_forced_out_support(self, eps_prime, feasible):
        # at eps' = 0.05 the support condition forces out 0.065 of the mass
        omega = quantum.random_state(shape(("A", 2), ("B", 2)), np.random.default_rng(0))
        eps = (eps_prime / (8.0 * 7**4)) ** 4
        out = typicality.h2_prime_iid_bound_check(omega, 3, eps, 0.02)
        assert out["mode"] == "full"
        if feasible:
            assert isinstance(out["value_bits"], float) and "no_value" not in out
            assert out["lower_holds"] and out["upper_holds"]
        else:
            assert out["value_bits"] is out["lower_holds"] is out["upper_holds"] is None
            assert out["no_value"].startswith("support condition forces out mass 6.518e-02")

    def test_full_mode_skipped_when_large(self):
        rng = np.random.default_rng(2)
        omega = quantum.random_state(shape(("A", 2), ("B", 3)), rng)
        out = typicality.h2_prime_iid_bound_check(omega, n=2, eps=1e-20,
                                                  delta=0.05)
        assert out["mode"] == "arithmetic"  # dab = 6 > 4

    def test_tensor_power_grouping(self):
        rng = np.random.default_rng(3)
        omega = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        big = oracles.tensor_power_bipartite(omega, 2)
        assert big.shape.names == ("A", "B")
        assert big.shape.dims == (4, 4)
        # marginal on the grouped B must be the 2-fold product marginal
        want = np.kron(omega.marginal(["B"]).matrix,
                       omega.marginal(["B"]).matrix)
        got = big.marginal(["B"]).matrix
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_spectrum_rebuilds_tensor_power(self, n):
        rng = np.random.default_rng(n)
        omega = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        spec = typicality._product_spectrum(linalg.spectral(omega.matrix), 2, 2, n)
        assert np.all(np.diff(spec.values) <= 0)
        np.testing.assert_allclose(spec.reconstruct(),
                                   oracles.tensor_power_bipartite(omega, n).matrix,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(spec.vectors.conj().T @ spec.vectors, np.eye(4**n),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_mode_matches_dense_oracle(self, n, seed):
        """An eps' below the n-fold marginal's smallest eigenvalue keeps the
        support of omega''' whole. Then eta drops nothing, the lone smallest
        eigenvalue lambda_0^n, or that and one of the n pairs at
        lambda_0^(n-1) lambda_1. The last cuts a degenerate group, where the
        point depends on the basis chosen inside it, so there only the window
        is checked, on both routes."""
        rng = np.random.default_rng(seed)
        omega = quantum.random_state(shape(("A", 2), ("B", 2)), rng)  # full rank
        lam = np.linalg.eigvalsh(omega.matrix)
        lone, pair = lam[0] ** n, lam[0] ** (n - 1) * lam[1]
        assert lone + 1.5 * pair < np.linalg.eigvalsh(omega.marginal(["B"]).matrix)[0] ** n
        delta = 0.1
        for eps_prime, cut in ((0.5 * lone, False), (lone + 0.5 * pair, False),
                               (lone + 1.5 * pair, True)):
            eps = (eps_prime / (8.0 * (n + 4) ** 4)) ** 4
            out = typicality.h2_prime_iid_bound_check(omega, n, eps, delta)
            assert out["mode"] == "full"
            dense = oracles.h2_prime_iid_full_value(omega, n, out["eps_prime"], delta)
            if cut:
                assert out["lower_holds"] and out["upper_holds"]
                assert out["lower"] - 1e-9 <= dense <= out["upper"] + 1e-9
            else:
                assert out["value_bits"] == pytest.approx(dense, rel=0, abs=1e-12)

    def test_full_mode_at_five_copies(self):
        # with nothing smoothed away, the point, its weight and tilde are
        # products, so the 1024-square value is five single-copy values
        rng = np.random.default_rng(0)
        omega = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        lone = np.linalg.eigvalsh(omega.matrix)[0] ** 5
        out = typicality.h2_prime_iid_bound_check(
            omega, 5, (0.5 * lone / (8.0 * 9**4)) ** 4, 0.1)
        one = entropy.h2_prime(linalg.spectral(omega.matrix), omega.shape, 0.0, 0.5).value
        assert out["mode"] == "full"
        assert out["value_bits"] == pytest.approx(5 * one, rel=1e-12)
        assert out["lower_holds"] and out["upper_holds"]

    def test_bipartite_required(self):
        rng = np.random.default_rng(4)
        tri = quantum.random_state(shape(("A", 2), ("B", 2), ("C", 2)), rng)
        with pytest.raises(DimensionError):
            typicality.h2_prime_iid_bound_check(tri, n=2, eps=1e-8, delta=0.1)
