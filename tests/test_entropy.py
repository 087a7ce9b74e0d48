"""Certified one-shot entropies against hand-computed pins.

The smoothed quantities are one-sided certificates, so tests check exact
pins where the optimiser provably finds them, inequality directions
elsewhere, and never tightness.
"""

import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from decouplab import entropy, linalg, quantum
from decouplab.entropy import SmoothingConfig
from decouplab.errors import DomainError
from decouplab.linalg import shape
from decouplab.quantum import DensitySystem

import oracles


def classical_state(probs, labels):
    return DensitySystem(np.diag(np.asarray(probs, dtype=complex)), shape(*labels))


class TestShannon:
    def test_uniform(self):
        assert entropy.shannon(np.full(8, 1 / 8)) == pytest.approx(3.0)

    def test_pure(self):
        assert entropy.shannon(np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_conditional_of_product(self):
        rng = np.random.default_rng(0)
        a = quantum.random_density(2, rng)
        b = quantum.random_density(3, rng)
        rho = DensitySystem(np.kron(a, b), shape(("A", 2), ("B", 3)))
        assert entropy.shannon(rho, given="B") == pytest.approx(
            entropy.shannon(a), abs=1e-10
        )

    def test_conditional_of_epr_is_negative(self):
        phi = quantum.epr_state(2, labels=("A", "R"))
        assert entropy.shannon(phi, given="R") == pytest.approx(-1.0, abs=1e-10)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            entropy.shannon(np.array([1.2, -0.2]))


class TestCollisionEntropy:
    def test_epr_pin(self):
        phi = quantum.epr_state(2, labels=("A", "R"))
        val = entropy.h2_conditional(phi, SmoothingConfig(), given="R")
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_product_pin(self):
        # H2(A|B) of a product = -log2 sum p_a^2 under the fixed marginal
        p = np.array([0.7, 0.3])
        q = np.array([0.6, 0.25, 0.15])
        rho = classical_state(np.kron(p, q), [("A", 2), ("B", 3)])
        val = entropy.h2_conditional(rho, SmoothingConfig(), given="B")
        assert val == pytest.approx(-math.log2((p**2).sum()), abs=1e-9)

    def test_maximally_mixed_pin(self):
        rho = classical_state(np.full(8, 1 / 8), [("A", 4), ("B", 2)])
        val = entropy.h2_conditional(rho, SmoothingConfig(), given="B")
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_witness_identity(self):
        rng = np.random.default_rng(1)
        rho = quantum.random_state(shape(("A", 3), ("B", 2)), rng)
        wit = entropy.h2_with_witness(rho, SmoothingConfig(), given="B")
        tilde = oracles.conj_by_inverse_quarter(wit.sigma, rho.shape, wit.weight, ["B"])
        assert 2.0 ** (-wit.value) == pytest.approx(
            linalg.schatten_norm(tilde, 2) ** 2, rel=1e-9
        )

    def test_smoothing_only_helps(self):
        rng = np.random.default_rng(2)
        rho = quantum.random_state(shape(("A", 3), ("B", 2)), rng)
        v0 = entropy.h2_conditional(rho, SmoothingConfig(), given="B")
        v1 = entropy.h2_conditional(rho, SmoothingConfig(epsilon=0.05), given="B")
        assert v1 >= v0 - 1e-9

    def test_minimized_at_least_fixed(self):
        rng = np.random.default_rng(3)
        rho = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        fixed = entropy.h2_conditional(rho, SmoothingConfig(), "fixed_marginal", "B")
        best = entropy.h2_conditional(rho, SmoothingConfig(), "minimized", "B")
        assert best >= fixed - 1e-9

    def test_rank_deficient_marginal_warns(self):
        # pure product state: B marginal is rank one
        vec = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        rho = DensitySystem(np.outer(vec, vec), shape(("A", 2), ("B", 2)))
        warns = entropy.h2_with_witness(rho, SmoothingConfig(), given="B").warnings
        assert any("support" in w for w in warns)

    def test_dimension_window(self):
        # -log2 |A| <= H2(A|B) <= 2 log2 |A| + H2-ish slack is too loose to pin;
        # check the hard floor from the norm-ratio fact instead
        rng = np.random.default_rng(4)
        for seed in range(5):
            rho = quantum.random_state(shape(("A", 3), ("B", 3)),
                                       np.random.default_rng(seed))
            val = entropy.h2_conditional(rho, SmoothingConfig(), given="B")
            assert val >= -math.log2(3) - 1e-9


class TestUpperBoundFact:
    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_below_dimension_bound(self, seed):
        rng = np.random.default_rng(seed)
        rho = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        cfg = SmoothingConfig(epsilon=0.01)
        value = entropy.h2_conditional(rho, cfg, "fixed_marginal", "B")
        out = entropy.h2_upper_bound_check(rho, cfg, value, given="B")
        assert out["ok"]

    def test_needs_positive_epsilon(self):
        rng = np.random.default_rng(5)
        rho = quantum.random_state(shape(("A", 2), ("B", 2)), rng)
        with pytest.raises(DomainError):
            entropy.h2_upper_bound_check(rho, SmoothingConfig(), 0.0, given="B")


class TestHmax:
    def test_pure_state_zero(self):
        assert entropy.hmax_smooth(np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx(0.0)

    def test_mixed_pin(self):
        d = 5
        assert entropy.hmax_smooth(np.full(d, 1 / d), 0.0) == pytest.approx(
            math.log2(d), abs=1e-12
        )

    def test_smoothing_pin(self):
        # drop the 0.1 eigenvalue entirely: 2 * 0.1 <= eps, renormalised pure
        assert entropy.hmax_smooth(np.array([0.9, 0.1]), 0.2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_monotone_in_epsilon(self):
        vals = np.array([0.4, 0.3, 0.2, 0.1])
        v = [entropy.hmax_smooth(vals, e) for e in (0.0, 0.1, 0.2, 0.4)]
        assert all(v[i + 1] <= v[i] + 1e-12 for i in range(3))

    def test_accepts_density_system(self):
        rho = quantum.maximally_mixed(4)
        assert entropy.hmax_smooth(rho, 0.0) == pytest.approx(2.0, abs=1e-12)


class TestHmin:
    def test_pin(self):
        # waterfill diag(0.6, 0.4) with eps = 0.2: clip level 0.4
        val = entropy.hmin_smooth(np.array([0.6, 0.4]), 0.2)
        assert val == pytest.approx(1.3219280948873622, abs=1e-12)

    def test_zero_smoothing(self):
        assert entropy.hmin_smooth(np.array([0.6, 0.4]), 0.0) == pytest.approx(
            -math.log2(0.6), abs=1e-12
        )

    def test_flat_spectrum_spreads_budget(self):
        # removing eps from the top of a flat spectrum lowers every level equally
        val = entropy.hmin_smooth(np.full(4, 0.25), 0.1)
        assert val == pytest.approx(-math.log2((1.0 - 0.1) / 4), abs=1e-12)

    def test_excess_epsilon_rejected(self):
        with pytest.raises(DomainError):
            entropy.hmin_smooth(np.array([0.6, 0.4]), 1.0)

    def test_monotone_in_epsilon(self):
        vals = np.array([0.5, 0.3, 0.2])
        seq = [entropy.hmin_smooth(vals, e) for e in (0.0, 0.05, 0.1, 0.2)]
        assert all(seq[i + 1] >= seq[i] - 1e-12 for i in range(3))


class TestHmaxPrime:
    def test_pin(self):
        # spectrum [0.5, 0.3, 0.2] with eps 0.25: only 0.2 drops
        val, keep = entropy.hmax_prime_values(np.array([0.5, 0.3, 0.2]), 0.25)
        assert val == pytest.approx(-math.log2(0.3), abs=1e-12)
        assert list(keep) == [True, True, False]

    def test_zero_epsilon_keeps_all(self):
        val, keep = entropy.hmax_prime_values(np.array([0.5, 0.3, 0.2]), 0.0)
        assert val == pytest.approx(-math.log2(0.2), abs=1e-12)
        assert keep.all()

    def test_tie_break_by_index(self):
        val, keep = entropy.hmax_prime_values(np.array([0.4, 0.3, 0.3]), 0.3)
        # the first 0.3 (lower index) drops, the second stays
        assert list(keep) == [True, False, True]
        assert val == pytest.approx(-math.log2(0.3), abs=1e-12)

    def test_exact_zeros_uncharged(self):
        val, keep = entropy.hmax_prime_values(np.array([0.7, 0.3, 0.0]), 0.0)
        assert list(keep) == [True, True, False]
        assert val == pytest.approx(-math.log2(0.3), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_dimension_bound(self, seed):
        rng = np.random.default_rng(seed)
        d, eps = 6, 0.1
        vals = rng.dirichlet(np.ones(d))
        v, _ = entropy.hmax_prime_values(vals, eps)
        assert v <= math.log2(d / eps) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich_via_matched_point(self, seed):
        # hmax <= hmax' is realised by evaluating the unnormalised hmax
        # objective at the hmax' truncation
        rng = np.random.default_rng(seed)
        vals = rng.dirichlet(np.ones(5))
        eps = 0.15
        v_prime, keep = entropy.hmax_prime_values(vals, eps)
        matched = 2.0 * math.log2(np.sqrt(vals[keep]).sum())
        assert matched <= v_prime + 1e-9

    def test_all_dropped_rejected(self):
        with pytest.raises(DomainError):
            entropy.hmax_prime_values(np.array([0.0, 0.0]), 0.0)


def omega_triple_prime(state, eps, delta):
    """omega''' of the state, by `entropy._omega_triple_prime` on its spectrum."""
    spec = linalg.spectral(state.matrix)
    _, vals = entropy._omega_triple_prime(spec.values, eps, delta)
    return linalg.Spectrum(vals, spec.vectors).reconstruct()


class TestOmegaTriplePrime:
    def test_oracle_keeps_all_three(self):
        # spectrum [0.7, 0.2, 0.1], eps 0.15, delta 0.5:
        # hmax'(0.15) drops 0.1 -> survivor 0.2, threshold 0.2^1.5 ~ 0.0894
        _, out = entropy._omega_triple_prime(np.array([0.7, 0.2, 0.1]), 0.15, 0.5)
        np.testing.assert_allclose(np.sort(out), [0.1, 0.2, 0.7], atol=1e-12)

    def test_delta_zero_matches_hmax_prime_cut(self):
        vals = np.array([0.6, 0.25, 0.1, 0.05])
        _, keep = entropy.hmax_prime_values(vals, 0.12)
        _, survivors = entropy._omega_triple_prime(vals, 0.12, 0.0)
        # threshold is the smallest kept value, so exactly the kept set stays
        assert (survivors > 0).sum() == keep.sum()

    def test_dominates_hmax_prime_truncation(self):
        # omega''' keeps at least everything omega'' keeps
        rng = np.random.default_rng(7)
        rho = quantum.random_state(shape(("B", 5)), rng)
        _, w2 = entropy.hmax_prime(rho, 0.1)
        w3 = omega_triple_prime(rho, 0.1, 0.3)
        gap = np.linalg.eigvalsh(linalg.hermitianize(w3 - w2.matrix))
        assert gap.min() >= -1e-10


def state_h2_prime(omega, eps, delta):
    """entropy.h2_prime given B on the state's full spectrum, and that spectrum."""
    spec = linalg.spectral(omega.matrix)
    return entropy.h2_prime(spec, omega.shape, eps, delta), spec


class TestH2Prime:
    def test_equals_h2_at_zero_smoothing(self):
        rng = np.random.default_rng(8)
        omega = quantum.random_state(shape(("Ap", 2), ("B", 3)), rng)
        omega = omega.permute(["B", "Ap"])
        v_prime = state_h2_prime(omega, 0.0, 0.0)[0].value
        v_fixed = entropy.h2_conditional(omega, SmoothingConfig(), given="B")
        assert v_prime == pytest.approx(v_fixed, abs=1e-9)

    def test_witness_norm_identity(self):
        rng = np.random.default_rng(9)
        omega = quantum.random_state(shape(("B", 2), ("Ap", 3)), rng)
        eps, delta = 0.02, 0.1
        canonical, spec = state_h2_prime(omega, eps, delta)
        w3 = oracles.omega_triple_prime(omega.marginal(["B"]), eps, delta)
        eta = oracles.kept_point(spec, canonical.kept)
        tilde = oracles.conj_by_inverse_quarter(eta, omega.shape, w3.matrix, ["B"])
        assert 2.0 ** (-canonical.value) == pytest.approx(
            linalg.schatten_norm(tilde, 2) ** 2, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_rough_ball_dominates(self, seed):
        # H2 at radius 4 sqrt(eps) certified >= H2' at (eps, delta)
        rng = np.random.default_rng(seed)
        omega = quantum.random_state(shape(("B", 2), ("Ap", 2)), rng)
        eps, delta = 0.01, 0.2
        v_prime = state_h2_prime(omega, eps, delta)[0].value
        cfg = SmoothingConfig(epsilon=4.0 * math.sqrt(eps))
        v_rough = entropy.h2_conditional(omega, cfg, given="B")
        assert v_rough >= v_prime - 1e-9

    def test_eta_dominated_and_close(self):
        rng = np.random.default_rng(10)
        omega = quantum.random_state(shape(("B", 3), ("Ap", 2)), rng)
        eps = 0.05
        canonical, spec = state_h2_prime(omega, eps, 0.1)
        eta = oracles.kept_point(spec, canonical.kept)
        gap = np.linalg.eigvalsh(linalg.hermitianize(omega.matrix - eta))
        assert gap.min() >= -1e-10  # 0 <= eta <= omega
        assert linalg.schatten_norm(omega.matrix - eta, 1) <= eps + 1e-9


class TestTildeMachinery:
    # the contraction against the kron embedding, on a middle label, on
    # labels in shape order and on labels in reverse order
    @pytest.mark.parametrize("labels", [["B"], ["B", "C"], ["C", "A"]],
                             ids=["middle", "in-order", "reversed"])
    def test_conj_matches_kron(self, labels):
        # a state weighted by a weight's -1/4 power, as the searches use it
        rng = np.random.default_rng(11)
        shp = shape(("A", 2), ("B", 3), ("C", 2))
        m = quantum.random_state(shp, rng).matrix
        op = linalg.pseudo_inverse_power(
            quantum.random_state(shape(("W", shp.dim_of_all(labels))), rng).matrix, -0.25)
        big = oracles.kron_embed(op, shp, labels)
        np.testing.assert_allclose(entropy._conj_on_labels(m, op, shp, labels),
                                   big @ m @ big, rtol=0, atol=1e-15)

    def test_non_psd_weight_rejected(self):
        rho = quantum.random_state(shape(("A", 2), ("B", 2)),
                                   np.random.default_rng(15))
        weight = np.diag([1.0, -2e-9])  # below -1e-9 * lambda_max
        with pytest.raises(DomainError):
            oracles.conj_by_inverse_quarter(rho.matrix, rho.shape, weight, ["B"])


def _per_sigma_support_projector(weight):
    spec = linalg.spectral(weight)
    lmax = float(spec.values.max(initial=0.0))
    cols = spec.vectors[:, spec.values > entropy.RANK_FLOOR * max(lmax, 1.0)]
    return cols @ cols.conj().T


def _per_sigma_collision_value(sigma, shp, weight, given):
    marg = linalg.partial_trace(sigma, shp, [n for n in shp.names if n not in given])
    proj = _per_sigma_support_projector(weight)
    leak = float(np.real(np.trace(marg))) - float(np.real(np.trace(proj @ marg)))
    if leak > 1e-10:
        return None
    w = oracles.kron_embed(linalg.pseudo_inverse_power(weight, -0.25), shp, given)
    norm = linalg.schatten_norm(w @ sigma @ w, 2)
    if norm <= 0:
        return None
    return float(-2.0 * math.log2(norm))


def _per_sigma_best(rho, eps, sigmas, weight, given):
    """(value, sigma) at the best feasible point for `weight`: each of
    `sigmas`, then rho projected onto the weight's support when it lies in
    the ball; None when no point is feasible."""
    best = None
    for sig in sigmas:
        val = _per_sigma_collision_value(sig, rho.shape, weight, given)
        if val is not None and (best is None or val > best[0]):
            best = (val, sig)
    if eps > 0:
        op = oracles.kron_embed(_per_sigma_support_projector(weight), rho.shape, given)
        sig = op @ rho.matrix @ op
        if linalg.schatten_norm(rho.matrix - sig, 1) <= eps + 1e-12:
            val = _per_sigma_collision_value(sig, rho.shape, weight, given)
            if val is not None and (best is None or val > best[0]):
                best = (val, sig)
    return best


def _marginal_support(rho, given):
    spec = linalg.spectral(rho.marginal(given).matrix)
    lmax = float(spec.values.max(initial=0.0))
    support = spec.values > entropy.RANK_FLOOR * max(lmax, 1.0)
    return spec, support


# the budget of each of the per-sigma route's Nelder-Mead searches
ORACLE_ITERATIONS = 200
ORACLE_TOLERANCE = 1e-8


def per_sigma_h2_with_witness(rho, cfg, weight_mode, given):
    """The search as first written: every truncation is a candidate, every
    candidate sigma re-derives the weight's support projector, its -1/4
    power and its own marginal, and Nelder-Mead over softmax logits scores
    each weight densely."""
    given = [given] if isinstance(given, str) else list(given)
    warnings = []
    marg = rho.marginal(given).matrix
    marg_spec, support = _marginal_support(rho, given)
    rank = int(support.sum())
    if rank < marg.shape[0]:
        warnings.append("conditioning marginal is rank deficient; "
                        "weights restricted to its support")
    basis = marg_spec.vectors[:, support]
    sigmas = oracles.truncation_candidates(rho, cfg.epsilon)

    def best_over_sigmas(weight):
        return _per_sigma_best(rho, cfg.epsilon, sigmas, weight, given)

    candidates = []

    def consider(weight):
        got = best_over_sigmas(weight)
        if got is not None:
            candidates.append((got[0], got[1], weight))

    def objective(x):
        got = best_over_sigmas(oracles.simplex_weight(basis, np.asarray(x)))
        return -(-1e6 if got is None else got[0])

    consider(marg)
    if weight_mode == "minimized":
        sup_vals = marg_spec.values[support]
        for start in (np.log(np.clip(sup_vals, 1e-12, None)), np.zeros(rank)):
            consider(oracles.simplex_weight(basis, start))
            if rank > 1:
                res = minimize(objective, start, method="Nelder-Mead", options={
                    "maxiter": ORACLE_ITERATIONS,
                    "fatol": ORACLE_TOLERANCE,
                    "xatol": ORACLE_TOLERANCE,
                })
                consider(oracles.simplex_weight(basis, res.x))
        asc = np.argsort(sup_vals)
        for k in range(1, rank):
            kept = np.delete(np.arange(rank), asc[:k])
            w = ((basis[:, kept] * (sup_vals[kept] / sup_vals[kept].sum()))
                 @ basis[:, kept].conj().T)
            consider(w)
    if not candidates:
        raise DomainError("no feasible smoothing point found inside the ball")
    value, sigma, weight = max(candidates, key=lambda c: c[0])
    return value, sigma, weight, tuple(warnings)


def _pinned_instance(name):
    if name == "random-AB":
        return quantum.random_state(shape(("A", 3), ("B", 2)),
                                    np.random.default_rng(21)), "B"
    if name == "rank-deficient":
        vec = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        return DensitySystem(np.outer(vec, vec), shape(("A", 2), ("B", 2))), "B"
    if name == "leaky-support":
        # little weight on B = |1>: once a minimized weight drops that
        # direction, the projection of rho onto its support wins
        rng = np.random.default_rng(6)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        v[1::2] *= rng.uniform(0.02, 0.3)
        m = v @ v.conj().T
        return DensitySystem.from_matrix(m / np.trace(m).real,
                                         shape(("A", 2), ("B", 2))), "B"
    # conditioning on the middle label: the contraction acts between two labels
    return quantum.random_state(shape(("A", 2), ("B", 3), ("C", 2)),
                                np.random.default_rng(23)), "B"


def _random_instance(rng, i):
    """A random state with its conditioning label: first, middle or last
    label, rank full, half or one."""
    labels = ((("A", 2), ("B", 2)), (("A", 3), ("B", 2)), (("B", 2), ("A", 3)),
              (("A", 2), ("B", 2), ("C", 2)))[i % 4]
    shp = shape(*labels)
    rank = (shp.dim, shp.dim // 2, 1)[(i // 4) % 3]
    return quantum.random_state(shp, rng, rank=rank), "B"


def _count_fixed_point_steps(monkeypatch):
    """Per fixed-point solve, the number of times it evaluates the score,
    one q = p^{-1/2} each, the last certifying the p it returns."""
    steps, inside = [], []
    real_power, real_solve = linalg._power_above_cutoff, entropy._collision_fixed_point

    def counted_power(values, exponent):
        if inside:
            steps[-1] += 1
        return real_power(values, exponent)

    def counted_solve(s, p):
        steps.append(0)
        inside.append(True)
        try:
            return real_solve(s, p)
        finally:
            inside.pop()
    monkeypatch.setattr(linalg, "_power_above_cutoff", counted_power)
    monkeypatch.setattr(entropy, "_collision_fixed_point", counted_solve)
    return steps


def _assert_matches_per_sigma_route(rho, given, mode, eps, exact, at_least=False):
    """The search against the per-sigma route.

    With `at_least`, the value is only at least the route's, less 1e-12
    relative: the route's Nelder-Mead may stop at its budget short of the
    optimum that the fixed point certifies, so nothing else need agree.

    The value agrees within 1e-12 relative: the search forms the winner's
    weighted point by contraction, the route by kron-embedded products, so
    the sums run in another order. When `exact`, the weight and sigma are
    bit for bit (sigma within 1e-12 where the projection of rho wins, which
    is built by contraction too) and tilde agrees within 1e-12. Otherwise
    sigma agrees within 1e-12, weight and tilde within 1e-6: a shallower
    truncation may tie the deepest one up to rounding (a rank-one state's
    spurious eigenvalues near 1e-17), and the route's Nelder-Mead stops
    within its own xatol of the minimized weight, which the search reaches by
    a fixed point. Every reported value is still a dense evaluation.
    """
    cfg = SmoothingConfig(epsilon=eps)
    value, sigma, weight, tilde, warns = entropy.h2_with_witness(rho, cfg, mode, given)
    o_value, o_sigma, o_weight, o_warns = per_sigma_h2_with_witness(rho, cfg, mode, given)
    assert warns == o_warns
    if at_least:
        assert value >= o_value - 1e-12 * abs(o_value)
        return
    given = [given] if isinstance(given, str) else list(given)
    o_tilde = oracles.conj_by_inverse_quarter(o_sigma, rho.shape, o_weight, given)
    assert value == pytest.approx(o_value, rel=1e-12, abs=0)
    if exact:
        np.testing.assert_array_equal(weight, o_weight)
        if any(np.array_equal(o_sigma, sig)
               for sig in oracles.truncation_candidates(rho, eps)):
            np.testing.assert_array_equal(sigma, o_sigma)
        else:
            np.testing.assert_allclose(sigma, o_sigma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tilde, o_tilde, rtol=0, atol=1e-12)
        return
    np.testing.assert_allclose(sigma, o_sigma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weight, o_weight, rtol=0, atol=1e-6)
    np.testing.assert_allclose(tilde, o_tilde, rtol=0, atol=1e-6)


class TestSearchMatchesPerSigmaRoute:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("mode", ["fixed_marginal", "minimized"])
    @pytest.mark.parametrize("name", ["random-AB", "rank-deficient", "middle-label",
                                      "leaky-support"])
    def test_bit_identical(self, name, mode, eps):
        # the same weight and point, bit for bit, except where the route's
        # Nelder-Mead picks the minimized weight: the rank-deficient marginal
        # has one weight, and on the leaky-support instance at eps > 0 a
        # one-direction support wins, where the fixed point and the route's
        # renormalised truncation give the same weight
        rho, given = _pinned_instance(name)
        steered = mode == "minimized" and (
            name in ("random-AB", "middle-label") or (name, eps) == ("leaky-support", 0.0))
        _assert_matches_per_sigma_route(rho, given, mode, eps, exact=not steered)

    @pytest.mark.parametrize("eps", [1.0, 1.5])
    def test_budget_past_the_mass(self, eps):
        """A budget that would drop every positive eigenvalue keeps the
        largest: the deepest truncation is the oracle's last nonzero one, and
        the search matches the per-sigma route, whose zero point is rejected."""
        rng = np.random.default_rng(70)
        instances = [_pinned_instance(name) for name in ("random-AB", "rank-deficient",
                                                         "middle-label", "leaky-support")]
        instances += [_random_instance(rng, i) for i in range(8)]
        for rho, given in instances:
            got = entropy._truncation_candidates(rho, eps)
            want = [sig for sig in oracles.truncation_candidates(rho, eps) if sig.any()]
            assert len(got) == min(len(want), 2)
            np.testing.assert_array_equal(got[-1], want[-1])
            for mode in ("fixed_marginal", "minimized"):
                _assert_matches_per_sigma_route(rho, given, mode, eps,
                                                exact=mode == "fixed_marginal")

    # 0.894 is about the epsilon of the entropy experiment's rough ball
    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.05, 0.2, 0.5, 0.894])
    def test_random_instances(self, eps):
        rng = np.random.default_rng(int(eps * 1000) + 40)
        for i in range(10):
            rho, given = _random_instance(rng, i)
            for mode in ("fixed_marginal", "minimized"):
                _assert_matches_per_sigma_route(rho, given, mode, eps, exact=False)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("d_given", [3, 4])
    def test_random_instances_past_rank_two(self, d_given, eps):
        """The fixed point against the route's Nelder-Mead on `rank` logits,
        where the conditioning marginal has rank 3 or 4: the route may stop at
        its budget, so the minimized value need only be at least its."""
        rng = np.random.default_rng(100 * d_given + int(eps * 100))
        for i in range(4):
            labels = ((("A", 2), ("B", d_given)), (("B", d_given), ("A", 2)))[i % 2]
            shp = shape(*labels)
            rho = quantum.random_state(shp, rng, rank=(shp.dim, shp.dim // 2)[i // 2])
            assert int(_marginal_support(rho, ["B"])[1].sum()) == d_given
            for mode in ("fixed_marginal", "minimized"):
                _assert_matches_per_sigma_route(rho, "B", mode, eps, exact=False,
                                                at_least=mode == "minimized")

    def test_one_weight_decomposition_per_evaluation(self, monkeypatch):
        rho = quantum.random_state(shape(("A", 4), ("B", 2)),
                                   np.random.default_rng(24))
        cfg = SmoothingConfig(epsilon=0.05)
        assert len(oracles.truncation_candidates(rho, cfg.epsilon)) >= 3
        counts = {"spectral": 0, "partial_trace": 0, "two_norm": 0, "ball_test": 0}

        def counted(module, name, key, when=lambda *args: True):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                if when(*args):
                    counts[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        steps = _count_fixed_point_steps(monkeypatch)
        counted(linalg, "spectral", "spectral")
        counted(linalg, "partial_trace", "partial_trace")
        counted(linalg, "schatten_norm", "two_norm", lambda m, p: p == 2)
        # the ball test takes the eigenvalues of rho - op rho op, on the full space
        counted(np.linalg, "eigvalsh", "ball_test", lambda m: m.shape == rho.matrix.shape)
        entropy.h2_with_witness(rho, cfg, "minimized", "B")
        # two supports times two points' tables, the full support's iterating
        assert len(steps) == 4 and max(steps) > 1
        # the marginal and rho are decomposed, the marginal is traced out once
        # and only the winner's weighted point is formed. The weights of the
        # rank-2 marginal have two supports short of the whole, and each is
        # tested against the ball at most once
        assert counts["spectral"] == 2
        assert counts["partial_trace"] == 1
        assert counts["two_norm"] == 1
        assert counts["ball_test"] <= 2

    def test_evaluation_budget(self, monkeypatch):
        """One fixed point per support and table: on this rank-2 instance the
        two full-support solves take 8 evaluations of the score each and the
        one-direction solves 1, where the two Nelder-Mead searches took 123
        together."""
        rho = quantum.random_state(shape(("A", 4), ("B", 2)),
                                   np.random.default_rng(24))
        steps = _count_fixed_point_steps(monkeypatch)
        entropy.h2_with_witness(rho, SmoothingConfig(epsilon=0.05, delta=0.1),
                                "minimized", "B")
        assert len(steps) == 4 and steps[2:] == [1, 1]
        assert sum(steps) <= 20

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_live_direction_under_the_rank_floor(self, eps):
        """A marginal with lambda_max < 0.01 and one eigenvalue between
        EIG_CUTOFF lambda_max and RANK_FLOOR: the weight's -1/4 power inverts
        that direction, yet the weight's support leaves it out. The search
        scores and weighs by the cutoffs of `Spectrum.power`, as the route
        does, so the values agree."""
        rho = _live_direction_state()
        vals = linalg.spectral(rho.marginal(["B"]).matrix).values
        assert vals[0] < 0.01
        assert linalg.EIG_CUTOFF * vals[0] < vals[-1] < entropy.RANK_FLOOR
        _assert_matches_per_sigma_route(rho, "B", "fixed_marginal", eps, exact=True)

    def test_no_ball_test_past_the_radius(self, monkeypatch):
        """Tr(rho - P rho P) <= ||rho - P rho P||_1: a support whose dropped
        marginal mass exceeds eps is neither projected onto nor ball-tested.
        Most of this state's 127 nested supports drop more than eps = 0.05."""
        rho = _live_direction_state()
        full = []
        real = np.linalg.eigvalsh

        def eigvalsh(m, *args, **kwargs):
            if m.shape[-1] == rho.dim:
                full.append(m.shape)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        wit = entropy.h2_with_witness(rho, SmoothingConfig(epsilon=0.05), "minimized", "B")
        assert 0 < len(full) <= 8
        assert wit.value >= entropy.h2_conditional(rho, SmoothingConfig(epsilon=0.05),
                                                   "fixed_marginal", "B")


def _live_direction_state():
    """(1 - w) I/2 (x) (uniform on levels 0..126) + w |psi><psi| on (A, B) =
    (2, 128), psi = sqrt(1 - t) |0>|phi> + sqrt(t) |1>|127>: level 127 of B
    is a marginal eigenvector of mass w t, and rho is coherent between it
    and phi."""
    rng = np.random.default_rng(80)
    w, t = 1e-3, 9e-10
    phi = rng.standard_normal(127) + 1j * rng.standard_normal(127)
    psi = np.zeros((2, 128), dtype=complex)
    psi[0, :127] = math.sqrt(1.0 - t) * phi / np.linalg.norm(phi)
    psi[1, 127] = math.sqrt(t)
    psi = psi.ravel()
    mixed = np.kron(np.eye(2) / 2, np.diag(np.r_[np.full(127, 1 / 127), 0.0]))
    return DensitySystem.from_matrix((1.0 - w) * mixed + w * np.outer(psi, psi.conj()),
                                     shape(("A", 2), ("B", 128)))


class TestClosedFormScore:
    def test_truncations_dominated_by_the_deepest(self):
        """For any weight, the dense values of sigma_1 .. sigma_K rise and
        their leaks fall."""
        rng = np.random.default_rng(50)
        for i in range(40):
            rho, given = _random_instance(rng, i)
            d_given = rho.shape.dim_of(given)
            sigmas = oracles.truncation_candidates(rho, float(rng.uniform(0.05, 0.9)))[1:]
            g = rng.standard_normal((d_given, d_given)) + 1j * rng.standard_normal(
                (d_given, d_given))
            if i % 2:  # rank-deficient weight: the leak is not zero
                g[:, 0] = 0.0
            weight = g @ g.conj().T
            proj = _per_sigma_support_projector(weight)
            w = oracles.kron_embed(linalg.pseudo_inverse_power(weight, -0.25),
                                   rho.shape, [given])
            traced = [n for n in rho.shape.names if n != given]
            values, leaks = [], []
            for sig in sigmas:
                marg = linalg.partial_trace(sig, rho.shape, traced)
                leaks.append(float(np.real(np.trace(marg) - np.trace(proj @ marg))))
                values.append(-2.0 * math.log2(linalg.schatten_norm(w @ sig @ w, 2)))
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
    def test_equals_dense_score(self, eps):
        """The closed form equals the dense best over every truncation and
        the projected point, and the point it returns attains that value
        densely."""
        rng = np.random.default_rng(60 + int(eps * 100))
        instances = [_random_instance(rng, i) for i in range(12)]
        instances += [_pinned_instance(name) for name in ("rank-deficient", "leaky-support",
                                                          "middle-label")]
        infeasible = 0
        for rho, given in instances:
            spec, support = _marginal_support(rho, [given])
            basis = spec.vectors[:, support]
            score, _ = entropy._closed_form_score(
                rho, eps, [given], basis, entropy._truncation_candidates(rho, eps))
            sigmas = oracles.truncation_candidates(rho, eps)
            # p_0 / p_max = exp(-spread): 24.5 puts p_0 under the power cutoff
            # yet above the rank floor, 31 under both. A live p_0 far below
            # p_max is left out: the dense eigenvalue carries an absolute error
            # near 1e-16, which p_0^(-1/2) magnifies past 1e-12.
            for spread in (0.0, 1.0, 5.0, 24.5, 31.0):
                logits = rng.uniform(-0.5, 0.5, basis.shape[1])
                logits[0] = logits[1:].max(initial=0.0) - spread
                weight = oracles.simplex_weight(basis, logits)
                want = _per_sigma_best(rho, eps, sigmas, weight, [given])
                got, point = score(oracles.simplex_probs(logits))
                if want is None:
                    infeasible += 1
                    assert got == -1e6 and point is None
                else:
                    assert got == pytest.approx(want[0], rel=1e-12, abs=1e-12)
                    dense = _per_sigma_collision_value(point, rho.shape, weight, [given])
                    assert dense == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        if eps == 0.0:
            assert infeasible > 0  # the leaky-support instance reaches -1e6


def _table_score(s, p):
    """q^T s q with q = p^{-1/2}, p positive."""
    q = p ** -0.5
    return float(q @ s @ q)


def _random_table(rng, d_given):
    """A random point's collision table over d_given directions of a random
    weight basis, as `_collision_table` builds it."""
    shp = shape(("A", int(rng.integers(1, 4))), ("B", d_given))
    sigma = quantum.random_state(shp, rng, rank=int(rng.integers(1, shp.dim + 1)))
    basis = linalg.random_unitary(d_given, rng)
    return entropy._collision_table(sigma.matrix, shp, ["B"], basis)[0]


class TestCollisionFixedPoint:
    def test_certificate_bounds_every_weight(self):
        """On random tables the gap is within the tolerance, and no weight on
        the simplex scores below f(p) 2^-gap."""
        rng = np.random.default_rng(90)
        for i in range(60):
            s = _random_table(rng, 1 + i % 6)
            p, gap = entropy._collision_fixed_point(s, rng.dirichlet(np.ones(s.shape[0])))
            assert gap <= entropy.GAP_TOLERANCE
            assert p.sum() == pytest.approx(1.0, rel=1e-12)
            others = rng.dirichlet(np.ones(s.shape[0]), size=200)
            floor = _table_score(s, p) * 2.0 ** -gap
            assert min(_table_score(s, o) for o in others) >= floor * (1 - 1e-12)

    @pytest.mark.parametrize("d_given", [2, 3])
    def test_matches_multistart_scipy(self, d_given):
        """At rank 2 and 3 the fixed point is the best of five Nelder-Mead
        runs on rank - 1 free logits, run to xatol 1e-12."""
        rng = np.random.default_rng(91 + d_given)
        for _ in range(10):
            s = _random_table(rng, d_given)
            p, _ = entropy._collision_fixed_point(s, np.full(d_given, 1.0 / d_given))

            def objective(x):
                return _table_score(s, oracles.simplex_probs(np.append(x, 0.0)))
            best = min((minimize(objective, rng.normal(size=d_given - 1), method="Nelder-Mead",
                                 options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
                        for _ in range(5)), key=lambda res: res.fun)
            assert _table_score(s, p) <= best.fun * (1 + 1e-12)
            np.testing.assert_allclose(p, oracles.simplex_probs(np.append(best.x, 0.0)),
                                       rtol=0, atol=1e-6)

    def test_direction_without_mass_leaves_the_support(self):
        """The deepest truncation drops every entry on B = |1>, so its table's
        row for that direction is zero and (S q)_1 = 0: the fixed point puts
        p_1 = 0 without a divide, and the direction leaves the weight's
        support through the rank floor."""
        rho = classical_state([0.6, 0.02, 0.37, 0.01], (("A", 2), ("B", 2)))
        eps = 0.05
        points = entropy._truncation_candidates(rho, eps)
        marg = linalg.spectral(rho.marginal(["B"]).matrix)
        s = entropy._collision_table(points[-1], rho.shape, ["B"], marg.vectors)[0]
        assert len(points) == 2 and not s[1].any() and s[0, 0] > 0
        with np.errstate(all="raise"):
            p, gap = entropy._collision_fixed_point(s, marg.values)
            witness = entropy.h2_with_witness(rho, SmoothingConfig(epsilon=eps),
                                              "minimized", "B")
        assert p.tolist() == [1.0, 0.0] and gap <= entropy.GAP_TOLERANCE
        assert witness.value == pytest.approx(-math.log2(0.6 ** 2 + 0.37 ** 2), rel=1e-12)
        np.testing.assert_array_equal(entropy._above_rank_floor(
            np.linalg.eigvalsh(witness.weight)[::-1]), [True, False])
        # the route's Nelder-Mead drives p_1 to 2e-17, not to 0
        _assert_matches_per_sigma_route(rho, "B", "minimized", eps, exact=False)

    def test_table_empty_on_the_support(self):
        """At eps = 0.6 the deepest truncation keeps only the 0.4 on B = |1>,
        while the marginal's leading direction is |0>: on that one-direction
        support its table is zero, so every weight is optimal, and the solve
        returns its start at gap 0 rather than dividing 0 by 0."""
        rho = classical_state([0.3, 0.4, 0.3, 0.0], (("A", 2), ("B", 2)))
        points = entropy._truncation_candidates(rho, 0.6)
        marg = linalg.spectral(rho.marginal(["B"]).matrix)
        s = entropy._collision_table(points[-1], rho.shape, ["B"], marg.vectors)[0]
        assert marg.values == pytest.approx([0.6, 0.4]) and not s[0].any()
        with np.errstate(all="raise"):
            p, gap = entropy._collision_fixed_point(s[:1, :1], np.array([1.0]))
            witness = entropy.h2_with_witness(rho, SmoothingConfig(epsilon=0.6),
                                              "minimized", "B")
        assert p.tolist() == [1.0] and gap == 0.0
        assert witness.value == pytest.approx(-math.log2(0.4 ** 2), rel=1e-12)

    def test_rounding_ends_the_loop(self, monkeypatch):
        """With no gap small enough to stop at, each solve still ends, once
        rounding stops the gap from falling, and h2 names every such solve
        in its warnings."""
        tolerance = entropy.GAP_TOLERANCE
        monkeypatch.setattr(entropy, "GAP_TOLERANCE", -math.inf)
        rng = np.random.default_rng(92)
        for i in range(20):
            s = _random_table(rng, 1 + i % 6)
            _, gap = entropy._collision_fixed_point(s, np.full(s.shape[0], 1.0 / s.shape[0]))
            assert gap <= tolerance
        rho = quantum.random_state(shape(("A", 4), ("B", 2)), np.random.default_rng(24))
        warns = entropy.h2_with_witness(rho, SmoothingConfig(epsilon=0.05),
                                        "minimized", "B").warnings
        assert len(warns) == 4 and all(w.startswith("a minimized weight is certified")
                                       for w in warns)


def _random_spectra(seed, count):
    """Spectra with ties, exact zeros, entries near the rank floor and
    unnormalised mass, each with budgets at its prefix sums and at a prefix
    sum less the 1e-15 slack, where the limit often equals the sum."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(1, 10))
        v = rng.dirichlet(np.ones(d))
        kind = i % 5
        if kind == 1:
            v = np.round(v, 1)  # ties
        elif kind == 2:
            v[rng.random(d) < 0.4] = 0.0
        elif kind == 3:
            v = np.repeat(v, 2) / 2  # every value twice
        elif kind == 4:
            v = v * rng.uniform(0.5, 1.5)
            v[rng.random(v.size) < 0.3] = 1e-14
        if not v.any():
            v[0] = 1.0
        prefix = np.cumsum(np.sort(v))
        cut = float(rng.choice(prefix))
        budgets = [0.0, float(rng.uniform(0, 0.6)), cut, max(cut - 1e-15, 0.0),
                   float(prefix[0]), 0.999]
        yield v, budgets


CHANNEL_SIDE_BUDGETS = ((0.0, 0.0), (0.01, 0.2), (0.05, 0.1), (0.3, 0.5))


def _choi_with_thin_spectrum(channel, given_last):
    """The Choi state on (B, Ap), or on (Ap, B) when given_last, and its thin
    spectrum (S^2, U) from the SVD of the amplitudes, rows in the same order."""
    m, omega = quantum.choi_amplitudes(channel), quantum.choi_state(channel)
    if given_last:
        m = m.reshape(channel.b_dim, channel.a_dim, -1).transpose(1, 0, 2).reshape(m.shape)
        omega = omega.permute(["Ap", "B"])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return omega, linalg.Spectrum(s * s, u)


def _check_tilde(got, omega, eta, eps, delta):
    """got's tilde marginal on B and ||tilde||_2^2 against the oracle's eta
    conjugated by the kron-embedded -1/4 power of omega triple prime."""
    w3 = oracles.omega_triple_prime(omega.marginal(["B"]), eps, delta)
    tilde = oracles.conj_by_inverse_quarter(eta, omega.shape, w3.matrix, ["B"])
    rest = [n for n in omega.shape.names if n != "B"]
    np.testing.assert_allclose(got.tilde_marginal,
                               linalg.partial_trace(tilde, omega.shape, rest),
                               rtol=0, atol=1e-12)
    assert got.tilde_norm_sq == pytest.approx(linalg.schatten_norm(tilde, 2) ** 2,
                                              rel=1e-12, abs=0)


def _check_channel_side(omega, spec, eps, delta, exact):
    """entropy.h2_prime on the eigenpairs `spec` of omega against the dense
    oracle: both raise the same error, or the values agree within 1e-12
    relative and eta rebuilt from the kept pairs is the oracle's, bit for bit
    when exact and within 1e-12 otherwise."""
    got, want = _same_outcome(lambda: entropy.h2_prime(spec, omega.shape, eps, delta),
                              lambda: oracles.h2_prime(omega, eps, delta, "B"))
    if want is None:
        return
    value, eta = want
    # tilde is read off its factor's Gram matrix, the oracle's formed by kron
    assert got.value == pytest.approx(value, rel=1e-12, abs=0)
    rebuilt = oracles.kept_point(spec, got.kept)
    if exact:
        np.testing.assert_array_equal(rebuilt, eta.matrix)
    else:
        np.testing.assert_allclose(rebuilt, eta.matrix, rtol=0, atol=1e-12)
    _check_tilde(got, omega, eta.matrix, eps, delta)


def _same_outcome(call_new, call_old):
    """Both raise the same error, or both return exactly the same."""
    try:
        want = call_old()
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            call_new()
        return None, None
    return call_new(), want


class TestTruncationRuleMatchesLoops:
    """One cumsum-and-searchsorted rule against the four loops it replaced."""

    def test_hmax_prime_values(self):
        for v, budgets in _random_spectra(30, 600):
            for eps in budgets:
                got, want = _same_outcome(lambda: entropy.hmax_prime_values(v, eps),
                                          lambda: oracles.hmax_prime_values(v, eps))
                if want is not None:
                    assert got[0] == want[0]
                    np.testing.assert_array_equal(got[1], want[1])

    def test_hmax_smooth(self):
        for v, budgets in _random_spectra(31, 600):
            # 2 * dropped is charged, and past eps = 2 the mass guard binds
            for eps in budgets + [max(2.0 * b - 1e-15, 0.0) for b in budgets] + [2.5, 5.0]:
                got, want = _same_outcome(lambda: entropy.hmax_smooth(v, eps),
                                          lambda: oracles.hmax_smooth(v, eps))
                assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_truncation_candidates(self, seed):
        rng = np.random.default_rng(seed)
        rho = quantum.random_state(shape(("A", 3), ("B", 2)), rng)
        if seed % 2:  # rank two: zero eigenvalues are dropped uncharged
            vecs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            m = vecs @ vecs.conj().T
            rho = DensitySystem.from_matrix(m / np.trace(m).real, rho.shape)
        prefix = np.cumsum(np.sort(np.linalg.eigvalsh(rho.matrix)))
        for eps in (0.0, 0.05, 0.3, float(prefix[2]), float(prefix[-2])):
            got = entropy._truncation_candidates(rho, eps)
            want = oracles.truncation_candidates(rho, eps)
            want = want[:1] + want[1:][-1:]  # rho and the deepest truncation
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(8))
    def test_channel_side(self, seed):
        # B first, as in a Choi state, and last, as in the entropy experiment;
        # the full spectrum is the oracle's own decomposition, so eta rebuilt
        # from the kept pairs is the oracle's bit for bit
        rng = np.random.default_rng(seed)
        for labels in ((("B", 3), ("Ap", 2)), (("A", 2), ("B", 3))):
            omega = quantum.random_state(shape(*labels), rng)
            b = omega.marginal(["B"])
            for eps, delta in CHANNEL_SIDE_BUDGETS:
                _check_channel_side(omega, linalg.spectral(omega.matrix), eps, delta,
                                    exact=True)
                got, want = entropy.hmax_prime(b, eps), oracles.hmax_prime(b, eps)
                assert got[0] == want[0]
                np.testing.assert_array_equal(got[1].matrix, want[1].matrix)
                np.testing.assert_array_equal(
                    omega_triple_prime(b, eps, delta),
                    oracles.omega_triple_prime(b, eps, delta).matrix)

    @pytest.mark.parametrize("given_last", [False, True], ids=["given-first", "given-last"])
    @pytest.mark.parametrize("kraus", [1, 2, 3], ids=["kraus-1", "kraus-2", "kraus-3"])
    def test_channel_side_thin(self, kraus, given_last):
        # the thin spectrum (S^2, U) of a channel with |Z| < |A||B| Kraus
        # operators leaves out the Choi state's zero eigenpairs
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            channel = oracles.kraus_channel(kraus, kraus + 1, 2, rng)
            omega, spec = _choi_with_thin_spectrum(channel, given_last)
            assert spec.values.size == kraus < omega.shape.dim
            for eps, delta in CHANNEL_SIDE_BUDGETS:
                _check_channel_side(omega, spec, eps, delta, exact=False)

    @pytest.mark.parametrize("given_last", [False, True], ids=["given-first", "given-last"])
    def test_channel_side_degenerate_cut(self, given_last):
        """omega = Phi_B (x) I_Z / 8 has eight equal eigenvalues, and eps = 0.2
        drops one of them: which one depends on the basis each route picks,
        so eta may differ, but every reading is the same."""
        omega, spec = _choi_with_thin_spectrum(quantum.trace_out_channel(2, 8), given_last)
        got = entropy.h2_prime(spec, omega.shape, 0.2, 0.1)
        value, eta = oracles.h2_prime(omega, 0.2, 0.1)
        assert got.value == pytest.approx(value, rel=1e-12, abs=0)
        assert got.kept.size == 7
        assert linalg.schatten_norm(omega.matrix - oracles.kept_point(spec, got.kept), 1) \
            <= 0.2 + 1e-12
        _check_tilde(got, omega, eta.matrix, 0.2, 0.1)


class TestReports:
    def test_smoothing_config_validation(self):
        with pytest.raises(DomainError):
            SmoothingConfig(epsilon=-0.1)
