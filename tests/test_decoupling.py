"""Decoupling functionals: pointwise dominations, closed moments, tails."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from decouplab import decoupling, ensembles, entropy, linalg, quantum
from decouplab.entropy import SmoothingConfig
from decouplab.errors import ComputationError, DimensionError, DomainError
from decouplab.linalg import shape
from decouplab.quantum import DensitySystem

import oracles


def epr_instance(d=2, cfg=None):
    rho = quantum.epr_state(d, labels=("A", "R"))
    return decoupling.DecouplingInstance(
        rho=rho, channel=quantum.identity_channel(d), cfg=cfg or SmoothingConfig()
    )


def random_instance(seed, da=4, db=2, dr=2, cfg=None):
    rng = np.random.default_rng(seed)
    rho = quantum.random_state(shape(("A", da), ("R", dr)), rng)
    channel = quantum.trace_out_channel(db, da // db)
    return decoupling.DecouplingInstance(rho=rho, channel=channel,
                                         cfg=cfg or SmoothingConfig())


# channels with |Z| < |A||B|, where omega = m m^dag has rank at most |Z|
THIN_CHANNELS = {
    "random-channel": lambda rng: quantum.random_channel(3, 2, rng),
    "kraus-1": lambda rng: oracles.kraus_channel(1, 2, 3, rng),
    "kraus-2": lambda rng: oracles.kraus_channel(2, 3, 2, rng),
    "kraus-3": lambda rng: oracles.kraus_channel(3, 4, 2, rng),
}


def channel_instance(channel, seed, cfg, dr=2):
    rng = np.random.default_rng(seed)
    rho = quantum.random_state(shape(("A", channel.a_dim), ("R", dr)), rng)
    return decoupling.DecouplingInstance(rho=rho, channel=channel, cfg=cfg)


# one fresh instance per call, equal in value each time
ARRAY_HOLDERS = {
    "DensitySystem": lambda: quantum.epr_state(2, labels=("A", "R")),
    "ChannelStinespring": lambda: quantum.identity_channel(2),
    "DecouplingInstance": epr_instance,
    "Weights": lambda: decoupling.prepare(epr_instance()),
    "Spectrum": lambda: linalg.spectral(np.diag([0.75, 0.25])),
    "UnitaryEnsemble": lambda: ensembles.haar_ensemble(2),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    """A generated __eq__ would compare the arrays and raise; these compare
    and hash by identity."""
    x, y = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert x == x
    assert x != y
    assert hash(x) == hash(x)
    assert len({x, y}) == 2


class TestInstanceValidation:
    def test_a_labels_must_prefix(self):
        rho = quantum.epr_state(2, labels=("R", "A"))
        with pytest.raises(DimensionError):
            decoupling.DecouplingInstance(rho=rho,
                                          channel=quantum.identity_channel(2),
                                          cfg=SmoothingConfig())

    def test_needs_reference(self):
        rng = np.random.default_rng(0)
        rho = quantum.random_state(shape(("A", 2)), rng)
        with pytest.raises(DimensionError):
            decoupling.DecouplingInstance(rho=rho,
                                          channel=quantum.identity_channel(2),
                                          cfg=SmoothingConfig())

    def test_channel_dimension_checked(self):
        rho = quantum.epr_state(2, labels=("A", "R"))
        with pytest.raises(DimensionError):
            decoupling.DecouplingInstance(rho=rho,
                                          channel=quantum.identity_channel(3),
                                          cfg=SmoothingConfig())


class TestFValue:
    def test_epr_identity_oracle(self):
        # || Phi - pi (x) pi ||_1 = 2 (1 - 1/d^2) by the spectral split
        for d in (2, 3):
            inst = epr_instance(d)
            got = decoupling.f_value(inst, np.eye(d, dtype=complex))
            assert got == pytest.approx(2.0 * (1.0 - 1.0 / d**2), abs=1e-10)

    def test_identity_channel_unitary_invariant(self):
        inst = epr_instance(2)
        vals = [
            decoupling.f_value(inst, linalg.random_unitary(2,
                               np.random.default_rng(s)))
            for s in range(5)
        ]
        assert max(vals) - min(vals) < 1e-10

    def test_global_phase_invariance(self):
        inst = random_instance(1)
        u = linalg.random_unitary(4, np.random.default_rng(2))
        f1 = decoupling.f_value(inst, u)
        f2 = decoupling.f_value(inst, np.exp(0.7j) * u)
        assert f1 == pytest.approx(f2, abs=1e-10)

    def test_perfect_decoupling_gives_zero(self):
        # product input with a fully depolarising-style trace-out of everything:
        # if rho = pi^A (x) rho^R, tracing A to a 1-dim stub leaves omega (x) rho^R
        rng = np.random.default_rng(3)
        rho_r = quantum.random_density(3, rng)
        rho = quantum.DensitySystem(np.kron(np.eye(2) / 2, rho_r),
                                    shape(("A", 2), ("R", 3)))
        inst = decoupling.DecouplingInstance(
            rho=rho, channel=quantum.trace_out_channel(1, 2),
            cfg=SmoothingConfig(),
        )
        u = linalg.random_unitary(2, rng)
        assert decoupling.f_value(inst, u) == pytest.approx(0.0, abs=1e-10)


class TestGDominatesF:
    @pytest.mark.parametrize("seed", range(3))
    def test_pointwise_no_smoothing(self, seed):
        inst = random_instance(seed)
        w = decoupling.prepare(inst)
        ens = ensembles.haar_ensemble(4, seed=seed)
        for i in range(60):
            u = ens.sample(i)
            f = decoupling.f_value(inst, u)
            g = decoupling.g_value(inst, u, w)
            assert f <= g + 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_pointwise_with_smoothing(self, seed):
        # smoothed chain: f <= 2 g + 14 sqrt(eps)
        eps = 0.01
        inst = random_instance(seed, cfg=SmoothingConfig(epsilon=eps, delta=0.1))
        w = decoupling.prepare(inst)
        ens = ensembles.haar_ensemble(4, seed=seed + 100)
        for i in range(30):
            u = ens.sample(i)
            f = decoupling.f_value(inst, u)
            g = decoupling.g_value(inst, u, w)
            assert f <= 2.0 * g + 14.0 * math.sqrt(eps) + 1e-10

    def test_g_phase_invariance(self):
        inst = random_instance(4)
        w = decoupling.prepare(inst)
        u = linalg.random_unitary(4, np.random.default_rng(5))
        g1 = decoupling.g_value(inst, u, w)
        g2 = decoupling.g_value(inst, np.exp(1.1j) * u, w)
        assert g1 == pytest.approx(g2, abs=1e-10)


class TestUniformAndLipschitzBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_g_below_uniform_bound(self, seed):
        inst = random_instance(seed)
        w = decoupling.prepare(inst)
        gmax = decoupling.max_g_bound(inst, w)
        ens = ensembles.haar_ensemble(4, seed=seed)
        for i in range(50):
            assert decoupling.g_value(inst, ens.sample(i), w) <= gmax + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_lipschitz_pairs(self, seed):
        inst = random_instance(seed)
        w = decoupling.prepare(inst)
        lip = decoupling.lipschitz_bound(inst, w)
        ens = ensembles.haar_ensemble(4, seed=seed + 50)
        for i in range(40):
            u, v = ens.sample(2 * i), ens.sample(2 * i + 1)
            gap = abs(decoupling.g_value(inst, u, w)
                      - decoupling.g_value(inst, v, w))
            assert gap <= lip * linalg.schatten_norm(u - v, 2) + 1e-9

    def test_bound_formulas(self):
        inst = random_instance(6, cfg=SmoothingConfig(epsilon=0.01, delta=0.2))
        w = decoupling.prepare(inst)
        base = 2.0 ** (0.5 * 1.2 * w.hmax_prime_val - 0.5 * w.h2_eps)
        assert decoupling.lipschitz_bound(inst, w) == pytest.approx(2.0 * base)
        assert decoupling.max_g_bound(inst, w) == pytest.approx(
            math.sqrt(8.0) * base
        )
        # uniform bound = sqrt(|A|/2) * Lipschitz constant
        assert decoupling.max_g_bound(inst, w) == pytest.approx(
            math.sqrt(inst.a_dim / 2.0) * decoupling.lipschitz_bound(inst, w)
        )


class TestHaarMoments:
    def test_epr_identity_closed_form(self):
        # worked tiny case: everything is maximally entangled
        inst = epr_instance(2)
        w = decoupling.prepare(inst)
        m = decoupling.haar_expected_g_squared(inst, w)
        assert m.eta == pytest.approx(2.0, abs=1e-9)
        assert m.alpha == pytest.approx(0.0, abs=1e-9)
        assert m.beta == pytest.approx(2.0, abs=1e-9)
        assert m.expected_g_squared == pytest.approx(3.0, abs=1e-9)

    def test_clifford_two_design_matches_exactly(self):
        # uniform average over an exact 2-design equals the Haar closed form
        inst, w, _ = decoupling.fqsw_instance(2, 2, 2, seed=1)
        members = ensembles.clifford_group(2)
        acc = 0.0
        for u in members:
            gv = decoupling.g_value(inst, u, w)
            acc += gv * gv
        acc /= len(members)
        m = decoupling.haar_expected_g_squared(inst, w)
        assert acc == pytest.approx(m.expected_g_squared, abs=1e-10)

    @pytest.mark.parametrize("seed", range(2))
    def test_haar_monte_carlo_with_smoothing(self, seed):
        # the closed form holds for the weighted, measured channel too
        inst = random_instance(seed, cfg=SmoothingConfig(epsilon=0.01))
        w = decoupling.prepare(inst)
        ens = ensembles.haar_ensemble(4, seed=seed)
        vals = np.array([decoupling.g_value(inst, ens.sample(i), w) ** 2
                         for i in range(400)])
        m = decoupling.haar_expected_g_squared(inst, w)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - m.expected_g_squared) <= 3.0 * se + 1e-9

    def test_strict_upper_window(self):
        inst = random_instance(7)
        w = decoupling.prepare(inst)
        m = decoupling.haar_expected_g_squared(inst, w)
        assert m.expected_g_squared <= w.n_ab * w.n_ar + 1e-12
        assert m.mu_upper == pytest.approx(math.sqrt(m.expected_g_squared))


class TestExpectationBound:
    def test_formula(self):
        inst = epr_instance(2)
        # both collision entropies are -1, so the bound is 2^1 = 2
        assert decoupling.dupuis_expectation_bound(inst) == pytest.approx(
            2.0, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_haar_mean_respects_bound(self, seed):
        inst = random_instance(seed)
        bound = decoupling.dupuis_expectation_bound(inst)
        ens = ensembles.haar_ensemble(4, seed=seed)
        choi_b = quantum.choi_state(inst.channel).marginal(["B"]).matrix
        f = np.array([decoupling.f_value(inst, ens.sample(i), choi_b=choi_b)
                      for i in range(300)])
        se = f.std(ddof=1) / math.sqrt(f.size)
        assert f.mean() <= bound + 3.0 * se

    @pytest.mark.parametrize("name", sorted(THIN_CHANNELS) + ["identity", "trace-out"])
    def test_matches_dense_collision_entropies(self, name):
        # the channel side read off the thin SVD against the fixed-marginal
        # collision entropy of the dense Choi state, both at epsilon = 0; a
        # prepared w is read at epsilon = 0 and ignored past it
        cfg0 = SmoothingConfig()
        for seed in range(3):
            if name == "identity":
                inst = epr_instance(2 + seed)
            elif name == "trace-out":
                inst = random_instance(seed, da=4 * (seed + 1))
            else:
                inst = channel_instance(THIN_CHANNELS[name](np.random.default_rng(seed)),
                                        seed, cfg0)
            h2_in = entropy.h2_conditional(inst.rho, cfg0, given=list(inst.r_labels))
            h2_ch = entropy.h2_conditional(quantum.choi_state(inst.channel), cfg0, given="B")
            want = 2.0 ** (-0.5 * h2_in - 0.5 * h2_ch)
            got = decoupling.dupuis_expectation_bound(inst)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            w = decoupling.prepare(inst)
            assert decoupling.dupuis_expectation_bound(inst, w) == pytest.approx(
                want, rel=1e-12, abs=0)
            smoothed = dataclasses.replace(inst, cfg=SmoothingConfig(epsilon=0.05, delta=0.1))
            assert decoupling.dupuis_expectation_bound(
                smoothed, decoupling.prepare(smoothed)) == got


class TestTailParameters:
    def test_fqsw_a_identity(self):
        inst, w, report = decoupling.fqsw_instance(2, 4, 2, seed=0)
        m = decoupling.haar_expected_g_squared(inst, w)
        tail = decoupling.tail_parameters(inst, w, kappa=0.5, mu=m.mu_upper)
        assert tail.a == pytest.approx(report["tail_a"], rel=1e-12)

    def test_t_is_ceiling(self):
        inst, w, _ = decoupling.fqsw_instance(2, 4, 2, seed=0)
        m = decoupling.haar_expected_g_squared(inst, w)
        for kappa in (0.3, 0.5, 0.9):
            tail = decoupling.tail_parameters(inst, w, kappa, m.mu_upper)
            assert tail.t == math.ceil(8.0 * tail.a * kappa * kappa)
            assert tail.lambda_required == pytest.approx(
                (8.0 ** -8 * 2.0 ** -6 * tail.mu**2) ** tail.t
            )
            assert tail.log2_lambda_required == pytest.approx(
                math.log2(tail.lambda_required), rel=1e-12
            )
            assert tail.bound == pytest.approx(
                5.0 * 2.0 ** (-tail.a * kappa**2)
            )

    def test_threshold_formula(self):
        eps = 0.04
        inst = random_instance(1, cfg=SmoothingConfig(epsilon=eps))
        w = decoupling.prepare(inst)
        tail = decoupling.tail_parameters(inst, w, kappa=0.25, mu=0.5)
        want = (2.0 ** (-0.5 * w.h2_eps - 0.5 * w.h2_prime_val + 1.0)
                + 14.0 * math.sqrt(eps) + 0.5)
        assert tail.threshold == pytest.approx(want)

    def test_mu_at_least_one_rejected(self):
        inst = random_instance(2)
        w = decoupling.prepare(inst)
        with pytest.raises(DomainError):
            decoupling.tail_parameters(inst, w, kappa=0.5, mu=1.0)

    def test_delta_cap_enforced(self):
        inst = random_instance(3, cfg=SmoothingConfig(epsilon=0.01, delta=0.5))
        w = decoupling.prepare(inst)
        with pytest.raises(DomainError):
            decoupling.tail_parameters(inst, w, kappa=0.5, mu=0.5)

    def test_vacuous_flag(self):
        inst, w, _ = decoupling.fqsw_instance(2, 4, 2, seed=0)
        m = decoupling.haar_expected_g_squared(inst, w)
        tail = decoupling.tail_parameters(inst, w, kappa=0.1, mu=m.mu_upper)
        assert tail.vacuous == (tail.a * 0.01 < math.log2(5.0))

    def test_mu_squared_clause(self):
        out = decoupling.mu_squared_clause(a=2.0, e_g2=0.5, da=4,
                                           hmax_prime_val=1.0, h2_eps=0.0,
                                           mu_estimate=0.5)
        assert out["condition_lhs"] == pytest.approx(2.0 * 0.5 + math.log2(0.5))
        assert out["condition_rhs"] == pytest.approx(3.0)
        assert out["replacement_valid"] is True


class TestFqsw:
    def test_closed_coefficients_match_general(self):
        for a1, a2 in ((2, 2), (2, 4)):
            inst, w, report = decoupling.fqsw_instance(a1, a2, 2, seed=3)
            m = decoupling.haar_expected_g_squared(inst, w)
            assert m.alpha == pytest.approx(report["alpha_closed"], rel=1e-10)
            assert m.beta == pytest.approx(report["beta_closed"], rel=1e-10)
            assert m.eta == pytest.approx(report["eta_closed"], rel=1e-10)
            assert m.expected_g_squared == pytest.approx(
                report["expected_g_squared_closed"], rel=1e-9
            )

    def test_channel_weights_are_flat(self):
        # tracing out A2 from the maximally entangled input leaves the flat
        # subsystem weights: hmax'(B) = log a1 and h2' = log(a2/a1)
        inst, w, _ = decoupling.fqsw_instance(2, 8, 2, seed=4)
        assert w.hmax_prime_val == pytest.approx(1.0, abs=1e-9)
        assert w.h2_prime_val == pytest.approx(-math.log2(2 / 8), abs=1e-9)
        assert w.n_ab == pytest.approx(2 / 8, rel=1e-9)

    def test_second_moment_window_under_promises(self):
        inst, w, report = decoupling.fqsw_instance(2, 8, 2, seed=5)
        m = decoupling.haar_expected_g_squared(inst, w)
        lo, hi = report["second_moment_window"]
        if report["promises"]["reference_norm_ratio"]:
            assert lo - 1e-12 <= m.expected_g_squared <= hi + 1e-12

    def test_lambda_sandwich_ordering(self):
        log2_lo, log2_hi = decoupling.fqsw_log2_lambda_sandwich(2, 4, h2=0.5, t=3)
        lo, hi = 2.0**log2_lo, 2.0**log2_hi
        assert 0 < lo < hi
        assert hi == pytest.approx((4.0**-9 * 2.0**-13 * 2.0**-0.5) ** 3)
        assert lo == pytest.approx((0.008 * 4.0**-9 * 2.0**-13 * 2.0**-0.5) ** 3)

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        rho = quantum.random_state(shape(("X", 2), ("A2", 2), ("R", 2)), rng)
        with pytest.raises(DimensionError):
            decoupling.fqsw_instance(2, 2, 2, rho=rho)


class TestThermalization:
    def test_regression_pin_a(self):
        # |Om| = 16, |S| = 2, collision entropy forced to -1:
        # a = (16/2) * 2^(-1-9) = 2^-7
        phi = quantum.epr_state(2, labels=("W", "R"))
        pure = np.zeros((8, 8), dtype=complex)
        pure[0, 0] = 1.0
        big = np.kron(phi.matrix, pure)
        shp = shape(("W", 2), ("R", 2), ("V", 8))
        big = linalg.permute_systems(big, shp, ["W", "V", "R"])
        rho = quantum.DensitySystem.from_matrix(
            big, shape(("Om", 16), ("R", 2))
        )
        report = decoupling.thermalization_check(
            rho, s_dim=2, e_dim=8, kappa=0.5,
            us=ensembles.haar_ensemble(16, seed=0).sample_batch(range(10)),
            cfg=SmoothingConfig(),
        )
        assert report["h2_input"] == pytest.approx(-1.0, abs=1e-9)
        assert report["tail"]["a"] == pytest.approx(2.0**-7, rel=1e-9)

    def test_distance_is_f_value(self):
        rng = np.random.default_rng(7)
        rho = quantum.random_state(shape(("Om", 4), ("R", 2)), rng)
        ens = ensembles.haar_ensemble(4, seed=1)
        report = decoupling.thermalization_check(rho, 2, 2, kappa=0.8,
                                                 us=ens.sample_batch(range(5)),
                                                 cfg=SmoothingConfig())
        inst = decoupling.DecouplingInstance(
            rho=rho, channel=quantum.trace_out_channel(2, 2),
            cfg=SmoothingConfig(), a_labels=("Om",),
        )
        direct = [decoupling.f_value(inst, ens.sample(i)) for i in range(5)]
        np.testing.assert_allclose(report["distances"], direct, atol=1e-10)

    def test_fraction_counts_threshold(self):
        rng = np.random.default_rng(8)
        rho = quantum.random_state(shape(("Om", 4), ("R", 2)), rng)
        report = decoupling.thermalization_check(
            rho, 2, 2, kappa=0.7,
            us=ensembles.haar_ensemble(4, seed=2).sample_batch(range(30)),
            cfg=SmoothingConfig(),
        )
        dists = np.array(report["distances"])
        assert report["thermalized_fraction"] == pytest.approx(
            float((dists <= 0.7).mean())
        )

    def test_dimension_must_factor(self):
        rng = np.random.default_rng(9)
        rho = quantum.random_state(shape(("Om", 6), ("R", 2)), rng)
        with pytest.raises(DimensionError):
            decoupling.thermalization_check(
                rho, 4, 2, kappa=0.5,
                us=ensembles.haar_ensemble(6, seed=0).sample_batch(range(2)),
            )

    @pytest.mark.parametrize("n, dim", [(0, 4), (2, 3)])
    def test_stack_must_match_system(self, n, dim):
        rng = np.random.default_rng(11)
        rho = quantum.random_state(shape(("Om", 4), ("R", 2)), rng)
        us = np.zeros((n, dim, dim), dtype=complex)
        with pytest.raises(DimensionError):
            decoupling.thermalization_check(rho, 2, 2, kappa=0.5, us=us)

    def test_embedding_route(self):
        # evolve a 3-level system inside a 2 x 3 host via an isometry
        rng = np.random.default_rng(10)
        rho = quantum.random_state(shape(("Om", 3), ("R", 2)), rng)
        embed = linalg.random_unitary(6, rng)[:, :3]
        report = decoupling.thermalization_check(
            rho, 2, 3, kappa=0.9,
            us=ensembles.haar_ensemble(3, seed=4).sample_batch(range(5)),
            cfg=SmoothingConfig(), embed=embed,
        )
        assert len(report["distances"]) == report["samples"] == 5


class TestIidParameters:
    def test_eps_prime_pin(self):
        inst = random_instance(0, da=2, db=2, dr=2,
                               cfg=SmoothingConfig(epsilon=1e-8))
        tail = decoupling.iid_parameters(inst, n=8, kappa=0.5)
        assert tail.eps_prime == pytest.approx(1658.88, rel=1e-12)

    def test_threshold_assembly(self):
        inst = random_instance(1, da=2, db=2, dr=2,
                               cfg=SmoothingConfig(epsilon=1e-12, delta=0.05))
        tail = decoupling.iid_parameters(inst, n=6, kappa=0.3)
        assert tail.mu == pytest.approx(2.0**tail.threshold_exponent)
        assert tail.threshold == pytest.approx(
            tail.mu + 28.0 * tail.eps_prime**0.25 + 0.6
        )
        assert tail.lambda_required == 2.0**tail.log2_lambda_required
        assert tail.log2_lambda_required == pytest.approx(tail.t * (
            -8.0 * 6 - 6.0 * 6 + 2.0 * tail.threshold_exponent), rel=1e-12)

    def test_delta_zero_collapse(self):
        from decouplab import entropy as ent
        inst = random_instance(2, da=2, db=2, dr=2,
                               cfg=SmoothingConfig(epsilon=1e-10))
        n = 5
        tail = decoupling.iid_parameters(inst, n=n, kappa=0.4)
        h_a_r = ent.shannon(inst.rho, given=["R"])
        choi = quantum.choi_state(inst.channel)
        h_b = ent.shannon(choi.marginal(["B"]))
        want_a = 2.0**n * 2.0 ** (n * h_a_r - n * h_b - 9.0)
        assert tail.a == pytest.approx(want_a, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(THIN_CHANNELS) + ["trace-out"])
    def test_channel_entropies_match_dense_choi(self, name):
        # H(A'B) from the amplitudes' singular values and H(B) from their B
        # rows, against the entropies of the dense Choi state
        cfg = SmoothingConfig(epsilon=1e-10, delta=0.05)
        if name == "trace-out":
            inst = random_instance(2, cfg=cfg)
        else:
            inst = channel_instance(THIN_CHANNELS[name](np.random.default_rng(7)), 7, cfg)
        n, dlt, da = 5, cfg.delta, inst.a_dim
        tail = decoupling.iid_parameters(inst, n=n, kappa=0.4)
        choi = quantum.choi_state(inst.channel)
        h_a_r = entropy.shannon(inst.rho, given=["R"])
        h_ar, h_r = entropy.shannon(inst.rho), entropy.shannon(inst.rho.marginal(["R"]))
        h_apb, h_b = entropy.shannon(choi), entropy.shannon(choi.marginal(["B"]))
        exponent = (-(n / 2.0) * (h_a_r - dlt * (3.0 * h_ar + 7.0 * h_r))
                    - (n / 2.0) * (entropy.shannon(choi, given="B")
                                   - dlt * (3.0 * h_apb + 7.0 * h_b)))
        log2_a = (n * math.log2(da) + n * (h_a_r - dlt * (3.0 * h_ar + 7.0 * h_r))
                  - n * h_b * (1.0 + 7.0 * dlt) - 9.0)
        assert tail.threshold_exponent == pytest.approx(exponent, rel=1e-12, abs=0)
        assert math.log2(tail.a) == pytest.approx(log2_a, rel=1e-12, abs=0)

    def test_copy_count_positive(self):
        inst = random_instance(3)
        with pytest.raises(DomainError):
            decoupling.iid_parameters(inst, n=0, kappa=0.5)

    def test_zero_epsilon_rejected(self):
        inst = random_instance(4, cfg=SmoothingConfig())
        with pytest.raises(DomainError):
            decoupling.iid_parameters(inst, n=4, kappa=0.5)


# (|A|, |B|, |R|, smoothing) of the instances whose tails are read below
TAIL_INSTANCES = [
    (4, 2, 2, SmoothingConfig(epsilon=1e-8)),
    (8, 2, 3, SmoothingConfig(epsilon=0.02, delta=0.1)),
    (6, 3, 2, SmoothingConfig(epsilon=1e-6)),
    (2, 2, 2, SmoothingConfig(epsilon=1e-10, delta=0.05)),
]


def tails(case, kappa):
    """Single-shot tails at three mean bounds, mu = 0 included, then the
    many-copy tail, for one instance of TAIL_INSTANCES."""
    da, db, dr, cfg = TAIL_INSTANCES[case]
    inst = random_instance(case, da=da, db=db, dr=dr, cfg=cfg)
    w = decoupling.prepare(inst)
    out = [decoupling.tail_parameters(inst, w, kappa, mu) for mu in (0.0, 0.3, 0.9)]
    return out + [decoupling.iid_parameters(inst, n=4, kappa=kappa)]


class TestDerivedTailValues:
    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.9, 2.0])
    @pytest.mark.parametrize("case", range(len(TAIL_INSTANCES)))
    def test_derived_from_the_fields(self, case, kappa):
        for tail in tails(case, kappa):
            assert tail.lambda_required == 2.0**tail.log2_lambda_required
            exponent = tail.a * kappa * kappa
            assert tail.bound == 5.0 * 2.0 ** (-exponent)
            assert tail.vacuous is (exponent < math.log2(5.0))
            json = tail.to_json()
            assert (json["lambda_required"], json["bound"], json["vacuous"]) == (
                tail.lambda_required, tail.bound, tail.vacuous)

    @pytest.mark.parametrize("case", range(len(TAIL_INSTANCES)))
    def test_zero_order_reads_one(self, case):
        # kappa^2 underflows, so t = 0 and the requirement is x^0 = 1, mu = 0 too
        for tail in tails(case, kappa=1e-200)[:-1]:
            assert tail.t == 0
            assert tail.log2_lambda_required == 0.0
            assert tail.lambda_required == 1.0

    def test_zero_order_reads_one_many_copy(self):
        # eps' = 8 * 8^4 * 1e-10 keeps the exponent of t finite; kappa^2 sends t to 0
        inst = random_instance(5, da=2, db=2, dr=2, cfg=SmoothingConfig(epsilon=1e-40))
        tail = decoupling.iid_parameters(inst, n=4, kappa=1e-200)
        assert tail.t == 0
        assert tail.log2_lambda_required == 0.0
        assert tail.lambda_required == 1.0


class TestChannelSwapNorm:
    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preserving_channels(self, seed):
        rng = np.random.default_rng(seed)
        t = quantum.random_channel(2, 2, rng)
        out = decoupling.channel_swap_norm_check(t)
        assert out["ok"]
        assert out["equality_gap"] <= 1e-8 * max(1.0, out["norm_forward"])

    @pytest.mark.parametrize("seed", range(4))
    def test_contractive_maps(self, seed):
        rng = np.random.default_rng(seed + 10)
        t = quantum.random_channel(2, 2, rng, trace_preserving=False)
        out = decoupling.channel_swap_norm_check(t)
        assert out["ok"]
        assert out["norm_forward"] <= out["dilation_bound"] + 1e-8

    def test_trace_out_channel_value(self):
        # tracing A2 out of A1 (x) A2: pushing the A-swap through the doubled
        # channel gives ||(Tr_A2 (x) Tr_A2) F^{A A}||_2 = a2 * a1^(1/2) * a1^... ;
        # just pin the identity channel instead where the value is exactly
        # the dimension
        t = quantum.identity_channel(3)
        out = decoupling.channel_swap_norm_check(t)
        assert out["norm_forward"] == pytest.approx(3.0, rel=1e-10)
        assert out["dilation_bound"] == pytest.approx(9.0, rel=1e-12)


class TestPrepare:
    def test_witness_norm_identities(self):
        inst = random_instance(4, cfg=SmoothingConfig(epsilon=0.02, delta=0.1))
        w = decoupling.prepare(inst)
        assert 2.0 ** (-w.h2_eps) == pytest.approx(w.n_ar, rel=1e-8)
        assert 2.0 ** (-w.h2_prime_val) == pytest.approx(w.n_ab, rel=1e-8)

    def test_povm_only_when_smoothing(self):
        inst0 = random_instance(5)
        assert decoupling.prepare(inst0).povm is None
        inst1 = random_instance(5, cfg=SmoothingConfig(epsilon=0.01))
        w1 = decoupling.prepare(inst1)
        assert w1.povm is not None
        assert linalg.schatten_norm(w1.povm, np.inf) <= 1.0 + 1e-8


def random_channel_instance(seed, da=3, db=2, dr=2, cfg=None):
    rng = np.random.default_rng(seed)
    rho = quantum.random_state(shape(("A", da), ("R", dr)), rng)
    return decoupling.DecouplingInstance(rho=rho, channel=quantum.random_channel(da, db, rng),
                                         cfg=cfg or SmoothingConfig())


# g at Haar draws 0..3 (seed 7), recorded from the purification-joining
# construction of the POVM that the closed form replaced
PINNED_G = {
    "trace-out": (lambda: random_instance(6, cfg=SmoothingConfig(epsilon=0.01, delta=0.2)),
                  [0.5171223095125115, 0.4000806304735419,
                   0.4481407836974612, 0.5514160733919289]),
    "random-channel": (lambda: random_channel_instance(
        31, cfg=SmoothingConfig(epsilon=0.05, delta=0.1)),
        [0.39993503583190343, 0.4348161473920419,
         0.44979459401064825, 0.5311303733903955]),
    "trace-out-8": (lambda: random_instance(4, da=8, cfg=SmoothingConfig(epsilon=0.02,
                                                                         delta=0.1)),
                    [0.2238746905227084, 0.26294230011506514,
                     0.19676154522852615, 0.16476390708563776]),
}


def prepared_eta(inst):
    """The channel side's eta that prepare certifies: the pairs of the thin
    spectrum (S^2, U) of the Choi amplitudes that h2' keeps."""
    spec, shp, _, _ = quantum._thin_choi(inst.channel)
    kept = entropy.h2_prime(spec, shp, inst.cfg.epsilon, inst.cfg.delta).kept
    return oracles.kept_point(spec, kept)


class TestSteeringPovmOfPrepare:
    @pytest.mark.parametrize("name", sorted(PINNED_G))
    def test_steers_choi_to_eta(self, name):
        inst = PINNED_G[name][0]()
        w = decoupling.prepare(inst)
        p = w.povm
        eigs = np.linalg.eigvalsh(linalg.hermitianize(p))
        assert eigs.min() >= -1e-10 and eigs.max() <= 1.0 + 1e-10
        # measure Z of the dense purified Choi vector (v (x) I_Ap)|Phi> on (B, Z, Ap)
        ch = inst.channel
        da, db, dz = ch.a_dim, ch.b_dim, ch.z_dim
        phi = np.eye(da, dtype=complex).reshape(-1) / np.sqrt(da)
        psi = np.kron(ch.v, np.eye(da)) @ phi
        psi = np.kron(np.kron(np.eye(db), p), np.eye(da)) @ psi
        steered = linalg.partial_trace(np.outer(psi, psi.conj()),
                                       shape(("B", db), ("Z", dz), ("Ap", da)), ["Z"])
        np.testing.assert_allclose(steered, prepared_eta(inst), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(PINNED_G))
    def test_g_matches_recorded_values(self, name):
        make, want = PINNED_G[name]
        inst = make()
        w = decoupling.prepare(inst)
        us = ensembles.haar_ensemble(inst.a_dim, seed=7).sample_batch(range(4))
        np.testing.assert_allclose(decoupling.g_values(inst, us, w), want,
                                   rtol=1e-10, atol=0)


def rank_deficient_instance(seed, cfg=None):
    # rank two on (A, R) = (4, 2), supported on R = |0>: the R marginal has rank one
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    vecs[1::2] = 0.0
    m = vecs @ vecs.conj().T
    rho = DensitySystem.from_matrix(m / np.trace(m).real, shape(("A", 4), ("R", 2)))
    return decoupling.DecouplingInstance(rho=rho, channel=quantum.trace_out_channel(2, 2),
                                         cfg=cfg or SmoothingConfig())


def fqsw_two_label_instance(cfg):
    inst = decoupling.fqsw_instance(2, 4, 2, seed=0)[0]
    return dataclasses.replace(inst, cfg=cfg)


# instance builders taking a SmoothingConfig
PREPARE_CASES = {
    "trace-out": lambda cfg: random_instance(6, cfg=cfg),
    "random-channel": lambda cfg: random_channel_instance(31, cfg=cfg),
    "fqsw-two-label": fqsw_two_label_instance,
    "rank-deficient": lambda cfg: rank_deficient_instance(8, cfg=cfg),
}


# prepare forms the weighted witnesses by contraction on the conditioning
# labels and reads the channel side off a thin SVD of the Choi amplitudes;
# the pipeline uses kron-embedded products and dense eigendecompositions, so
# these sums run in another order (both take the Choi state's B marginal, and
# so hmax', from the thin spectrum's factor)
ROUNDED = ("rho_tilde", "rho_tilde_r", "omega3_inv_quarter", "povm",
           "omega_tilde_b", "h2_eps", "h2_prime_val", "n_r", "n_ar", "n_b", "n_ab")


class TestPrepareMatchesSequence:
    """prepare against the pipeline of public entropy steps it replaced,
    which decomposed the weights, choi_B and omega''' where each step
    needed them."""

    @pytest.mark.parametrize("cfg", [SmoothingConfig(),
                                     SmoothingConfig(epsilon=0.05, delta=0.1)],
                             ids=["eps0", "smoothed"])
    @pytest.mark.parametrize("name", sorted(PREPARE_CASES))
    def test_bit_identical(self, name, cfg):
        inst = PREPARE_CASES[name](cfg)
        got = decoupling.prepare(inst)
        want = oracles.prepare(inst)
        for f in dataclasses.fields(decoupling.Weights):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, DensitySystem):
                a, b = a.matrix, b.matrix
            if f.name in ROUNDED and isinstance(b, np.ndarray):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=f.name)
            elif f.name == "h2_prime_val":  # 0 bits on a trace-out channel
                assert a == pytest.approx(b, rel=0, abs=1e-12), f.name
            elif f.name in ROUNDED and b is not None:
                assert a == pytest.approx(b, rel=1e-12, abs=0), f.name
            elif isinstance(b, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        if name == "rank-deficient":
            assert got.warnings

    @pytest.mark.parametrize("name", sorted(PREPARE_CASES))
    def test_choi_built_on_first_read(self, monkeypatch, name):
        inst = PREPARE_CASES[name](SmoothingConfig(epsilon=0.05, delta=0.1))
        calls, real = [], quantum.choi_state
        monkeypatch.setattr(quantum, "choi_state", lambda t: calls.append(t) or real(t))
        w = decoupling.prepare(inst)
        assert calls == []
        choi = w.choi
        want = real(inst.channel)
        assert choi.shape == want.shape
        np.testing.assert_array_equal(choi.matrix, want.matrix)
        assert w.choi is choi and calls == [inst.channel]

    @pytest.mark.parametrize("cfg,calls", [(SmoothingConfig(), 2),
                                           (SmoothingConfig(epsilon=0.05, delta=0.1), 3)],
                             ids=["eps0", "smoothed"])
    def test_one_decomposition_per_operator(self, monkeypatch, cfg, calls):
        # the R marginal (the weight), rho (only when smoothing) and choi_B;
        # the Choi state, omega''' and the POVM come from one thin SVD of the
        # |A||B| x |Z| Choi amplitudes
        counted, svds = [], []
        real, real_svd = linalg.spectral, np.linalg.svd

        def spectral(m, *args, **kwargs):
            counted.append(m.shape)
            return real(m, *args, **kwargs)

        def svd(m, *args, **kwargs):
            svds.append(m.shape)
            return real_svd(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "spectral", spectral)
        monkeypatch.setattr(np.linalg, "svd", svd)
        inst = random_instance(6, da=16, db=4, dr=4, cfg=cfg)
        decoupling.prepare(inst)
        assert len(counted) == calls
        assert svds == [(16 * 4, inst.channel.z_dim)]

    @pytest.mark.parametrize("cfg", [SmoothingConfig(),
                                     SmoothingConfig(epsilon=0.05, delta=0.1)],
                             ids=["eps0", "smoothed"])
    def test_no_density_check(self, monkeypatch, cfg):
        # every operator prepare builds is derived from the checked state,
        # so the eigen-check of DensitySystem's constructor runs only there
        counted = []
        real = DensitySystem.__post_init__

        def post_init(self):
            counted.append(self.shape)
            real(self)

        monkeypatch.setattr(DensitySystem, "__post_init__", post_init)
        DensitySystem(np.eye(2, dtype=complex) / 2, shape(("A", 2)))
        assert len(counted) == 1
        decoupling.prepare(random_instance(6, cfg=cfg))
        assert len(counted) == 1

    @pytest.mark.parametrize("cfg", [SmoothingConfig(),
                                     SmoothingConfig(epsilon=0.05, delta=0.1)],
                             ids=["eps0", "smoothed"])
    def test_one_call_per_step(self, monkeypatch, cfg):
        # prepare goes through its public steps by module attribute, so a
        # tracer that wraps public functions sees each of them; the POVM is
        # a closed-form projector, not the general steering lemma, and the
        # Choi state is not built; its amplitudes are built once, for the thin
        # SVD and the steering check alike
        calls = {}

        def counted(owner, name):
            real = getattr(owner, name)
            calls[name] = 0

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(quantum, "choi_state")
        counted(entropy, "h2_with_witness")
        counted(entropy, "h2_prime")
        counted(quantum, "povm_completion")
        counted(quantum, "choi_amplitudes")
        decoupling.prepare(random_instance(6, da=16, db=4, dr=4, cfg=cfg))
        assert calls == {"choi_state": 0, "h2_with_witness": 1, "h2_prime": 1,
                         "povm_completion": 0, "choi_amplitudes": 1}


def assert_steers_to_eta(inst, w):
    """povm is a projector and m (P^T)^2 m^dag = eta for the Choi amplitudes m."""
    p, m = w.povm, quantum.choi_amplitudes(inst.channel)
    np.testing.assert_allclose(p @ p, p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m @ p.T @ p.T @ m.conj().T, prepared_eta(inst),
                               rtol=0, atol=1e-12)


class TestThinChannelRoute:
    """prepare's thin SVD of the Choi amplitudes against the dense route of
    `oracles.prepare`: an eigendecomposition of the whole Choi state and
    the general steering lemma."""

    @pytest.mark.parametrize("cfg", [SmoothingConfig(),
                                     SmoothingConfig(epsilon=0.05, delta=0.1),
                                     SmoothingConfig(epsilon=0.2, delta=0.1)],
                             ids=["eps0", "eps0.05", "eps0.2"])
    @pytest.mark.parametrize("name", sorted(THIN_CHANNELS))
    def test_matches_dense_route(self, name, cfg):
        for seed in range(3):
            channel = THIN_CHANNELS[name](np.random.default_rng(100 + seed))
            assert channel.z_dim < channel.a_dim * channel.b_dim
            inst = channel_instance(channel, seed, cfg)
            got, want = decoupling.prepare(inst), oracles.prepare(inst)
            assert got.h2_prime_val == pytest.approx(want.h2_prime_val, rel=0, abs=1e-12)
            for f in ("hmax_prime_val", "n_b", "n_ab"):
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=0), f
            if cfg.epsilon > 0:
                assert_steers_to_eta(inst, got)
            else:
                assert got.povm is None

    def test_degenerate_cut(self):
        """omega = Phi_B (x) I_Z / 8 has eight equal eigenvalues, and eps = 0.2
        drops one of them: which one depends on the basis each route picks,
        so eta and the POVM may differ, but every reading is the same."""
        channel = quantum.trace_out_channel(2, 8)
        inst = channel_instance(channel, 3, SmoothingConfig(epsilon=0.2))
        got, want = decoupling.prepare(inst), oracles.prepare(inst)
        for f in ("h2_prime_val", "n_b", "n_ab"):
            assert getattr(got, f) == pytest.approx(getattr(want, f), rel=0, abs=1e-15), f
        _, dense_eta = oracles.h2_prime(want.choi, 0.2, 0.0)
        for eta in (prepared_eta(inst), dense_eta.matrix):
            assert linalg.schatten_norm(got.choi.matrix - eta, 1) <= 0.2 + 1e-12
        assert_steers_to_eta(inst, got)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChannelSideMemory:
    """No |A||B|-square array on the channel side but the Choi state that
    Weights keeps: at FQSW (4, 64, 1), |A||B| = 1024, one such complex array
    is 16 MiB."""

    DENSE = 16 * 1024 ** 2

    def test_prepare_peak(self):
        peak = traced_peak(lambda: decoupling.fqsw_instance(
            4, 64, 1, cfg=SmoothingConfig(epsilon=0.05)))
        assert peak < 2 * self.DENSE

    def test_expectation_bound_peak(self):
        inst = decoupling.fqsw_instance(4, 64, 1, cfg=SmoothingConfig(epsilon=0.05))[0]
        assert traced_peak(lambda: decoupling.dupuis_expectation_bound(inst)) < self.DENSE
