"""Tail estimators, moment caps, and the synthetic transfer checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decouplab import stats
from decouplab.errors import DomainError


class TestWilson:
    def test_degenerate_all_successes(self):
        lo, hi = stats.wilson_interval(10, 10)
        assert lo < 1.0 <= hi

    def test_degenerate_no_successes(self):
        lo, hi = stats.wilson_interval(0, 10)
        assert lo == 0.0 and hi > 0.0

    def test_against_hand_value(self):
        # 8/10 with z = 1.96: centre and half-width from the defining formula
        z = stats.WILSON_Z
        lo, hi = stats.wilson_interval(8, 10)
        denom = 1 + z * z / 10
        centre = (0.8 + z * z / 20) / denom
        half = z * math.sqrt(0.8 * 0.2 / 10 + z * z / 400) / denom
        assert lo == pytest.approx(centre - half)
        assert hi == pytest.approx(centre + half)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stats.wilson_interval(0, 0)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=50, deadline=None)
    def test_interval_contains_phat(self, n, data):
        k = data.draw(st.integers(0, n))
        lo, hi = stats.wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


class TestEmpiricalTail:
    def test_strict_inequality(self):
        s = np.array([1.0, 2.0, 2.0, 3.0])
        out = stats.empirical_tail(s, 2.0)
        assert out["count"] == 1
        assert out["fraction"] == pytest.approx(0.25)

    def test_all_below(self):
        out = stats.empirical_tail(np.array([0.1, 0.2]), 5.0)
        assert out["count"] == 0
        assert out["wilson_low"] == 0.0

    def test_interval_brackets_fraction(self):
        rng = np.random.default_rng(0)
        s = np.array(rng.exponential(size=400))
        out = stats.empirical_tail(s, 1.0)
        assert out["wilson_low"] <= out["fraction"] <= out["wilson_high"]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stats.empirical_tail(np.array([]), 0.0)


class TestCentralizedMoment:
    def test_known_variance(self):
        s = np.array([1.0, 3.0])
        assert stats.centralized_moment(s, 2.0, 2) == pytest.approx(1.0)

    def test_fourth_moment(self):
        s = np.array([0.0, 2.0])
        assert stats.centralized_moment(s, 1.0, 4) == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [1, 3, -2, 0])
    def test_odd_or_nonpositive_rejected(self, order):
        with pytest.raises(DomainError):
            stats.centralized_moment(np.array([1.0]), 0.0, order)

    def test_cap_at_sixteen(self):
        s = np.array([1.0, 2.0])
        assert stats.centralized_moment(s, 0.0, 16) > 0
        with pytest.raises(DomainError):
            stats.centralized_moment(s, 0.0, 18)


class TestTailFromMoment:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_bound_dominates_direct(self, m):
        rng = np.random.default_rng(m)
        s = np.array(rng.normal(0.3, 0.2, size=2000))
        out = stats.tail_from_moment(s, 0.3, m, kappa=0.4)
        assert out["dominates"]
        assert out["markov_bound"] >= out["empirical"] - 1e-15
        assert out["order"] == 2 * m

    def test_is_chebyshev_at_m_one(self):
        s = np.array([0.0, 1.0, 2.0])
        out = stats.tail_from_moment(s, 1.0, 1, kappa=0.5)
        assert out["markov_bound"] == pytest.approx((2.0 / 3.0) / 0.25)
        assert out["empirical"] == pytest.approx(2.0 / 3.0)

    def test_kappa_positive(self):
        with pytest.raises(DomainError):
            stats.tail_from_moment(np.array([1.0]), 0.0, 1, kappa=0.0)

    def test_kappa_power_below_float_range(self):
        # kappa^4 underflows to 0.0: a positive moment makes the bound inf
        out = stats.tail_from_moment(np.array([0.0, 1.0, 2.0]), 1.0, 2, kappa=1e-200)
        assert out["markov_bound"] == math.inf and out["dominates"]
        assert out["vacuous"]
        assert out["empirical"] == pytest.approx(2.0 / 3.0)
        flat = stats.tail_from_moment(np.array([1.0, 1.0]), 1.0, 2, kappa=1e-200)
        assert flat["markov_bound"] == 0.0 and flat["empirical"] == 0.0
        assert not flat["vacuous"]

    @pytest.mark.parametrize("kappa,bound,vacuous", [
        (0.5, 4.0, True), (1.0, 1.0, True), (2.0, 0.25, False)])
    def test_vacuous_flag(self, kappa, bound, vacuous):
        # the second moment about 1 of {0, 2} is 1: Chebyshev reads 1 / kappa^2
        out = stats.tail_from_moment(np.array([0.0, 2.0]), 1.0, 1, kappa=kappa)
        assert out["markov_bound"] == bound
        assert out["vacuous"] is vacuous


class TestMomentTransfer:
    def test_large_m_regime(self):
        # mu small: the split (9/64) a mu^2 sits below m = 1
        out = stats.moment_transfer_check(c=2.0, a=1.0, mu=0.1, m=4,
                                          samples=200_000, seed=1)
        assert out["regime"] == "large_m"
        assert out["central_ok"] and out["square_ok"]

    def test_small_m_regime(self):
        # mu large: m = 1 falls below the split
        out = stats.moment_transfer_check(c=2.0, a=1.0, mu=10.0, m=1,
                                          samples=200_000, seed=2)
        assert out["regime"] == "small_m"
        assert out["central_ok"] and out["square_ok"]

    def test_regime_split_formula(self):
        out = stats.moment_transfer_check(c=2.0, a=4.0, mu=2.0, m=2,
                                          samples=1000, seed=0)
        assert out["regime_split"] == pytest.approx((9.0 / 64.0) * 4.0 * 4.0)

    def test_c_below_two_rejected(self):
        with pytest.raises(DomainError):
            stats.moment_transfer_check(c=1.5, a=1.0, mu=1.0, m=1)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            stats.moment_transfer_check(c=2.0, a=1.0, mu=1.0, m=9)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_power_by_squaring(self, n):
        x = np.random.default_rng(n).standard_normal(500)
        np.testing.assert_allclose(stats._power(x.copy(), n), x**n, rtol=1e-14, atol=0)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            stats.moment_transfer_check(c=2.0, a=0.0, mu=1.0, m=1)
        with pytest.raises(DomainError):
            stats.moment_transfer_check(c=2.0, a=1.0, mu=-0.5, m=1)


class TestLevyConsistency:
    def test_gaussian_proxy_passes(self):
        # samples drawn tighter than the stated bound must be consistent
        rng = np.random.default_rng(3)
        dim, lip = 16, 1.0
        sigma = math.sqrt(2.0 * lip * lip / dim)
        s = np.array(rng.normal(0.0, sigma, size=5000))
        rows = stats.levy_consistency(s, dim, lip, kappas=[0.25, 0.5, 1.0])
        assert all(r["ok"] for r in rows)
        assert [r["kappa"] for r in rows] == [0.25, 0.5, 1.0]

    def test_bound_capped_at_one(self):
        # unclipped, 2 exp(-2e-4 / 100) is nearly 2: clipped and flagged
        s = np.array(np.zeros(10))
        rows = stats.levy_consistency(s, 2, 5.0, kappas=[0.01])
        assert rows[0]["bound"] == 1.0
        assert rows[0]["vacuous"] is True

    def test_bound_formula(self):
        s = np.array(np.zeros(10))
        rows = stats.levy_consistency(s, 8, 2.0, kappas=[0.5])
        want = 2.0 * math.exp(-8.0 * 0.25 / 16.0)
        assert rows[0]["bound"] == pytest.approx(min(want, 1.0))
        assert rows[0]["vacuous"] is True

    def test_biting_bound_not_vacuous(self):
        rows = stats.levy_consistency(np.zeros(10), 8, 1.0, kappas=[1.0])
        assert rows[0]["bound"] == pytest.approx(2.0 * math.exp(-2.0))
        assert rows[0]["vacuous"] is False

    def test_lipschitz_positive(self):
        with pytest.raises(DomainError):
            stats.levy_consistency(np.array([1.0]), 4, 0.0, kappas=[0.1])


class TestPlainArrays:
    def test_integer_values_read_as_floats(self):
        assert stats.centralized_moment([1, 2, 3], 2, 2) == pytest.approx(2.0 / 3.0)
        assert stats.empirical_tail(np.array([1, 2, 3]), 1.5)["count"] == 2


class TestMeanAndSe:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_is_std_over_root_n(self, values):
        x = np.array(values)
        mean, se = stats.mean_and_se(x)
        assert mean == float(x.mean())
        assert se == float(x.std(ddof=1) / math.sqrt(x.size))

    def test_single_sample_has_zero_error(self):
        assert stats.mean_and_se([0.25]) == (0.25, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stats.mean_and_se([])
