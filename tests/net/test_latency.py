"""Tests for the truncated-Gaussian pairwise delay model."""

import numpy as np
import pytest
from scipy import stats
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import DelayParameters, LatencyModel


def make_model(n=100, seed=0, params=None, classes=None):
    rng = np.random.default_rng(seed)
    bw = BandwidthModel(n, rng)
    if classes is not None:
        bw.classes[:] = classes
    return LatencyModel(bw, np.random.default_rng(seed + 1), params)


class TestDelayParameters:
    def test_defaults_match_paper(self):
        p = DelayParameters()
        assert p.means == (0.300, 0.150, 0.070)
        assert p.std == 0.020

    def test_validation(self):
        with pytest.raises(NetworkError):
            DelayParameters(means=(0.1, 0.1))  # type: ignore[arg-type]
        with pytest.raises(NetworkError):
            DelayParameters(means=(0.0, 0.1, 0.1))
        with pytest.raises(NetworkError):
            DelayParameters(std=-1.0)
        with pytest.raises(NetworkError):
            DelayParameters(truncation_sigmas=0)
        with pytest.raises(NetworkError):
            DelayParameters(floor=0)


class TestLatencyModel:
    def test_symmetric(self):
        lm = make_model()
        assert lm.one_way_delay(3, 50) == lm.one_way_delay(50, 3)

    def test_cached_stable(self):
        lm = make_model()
        first = lm.one_way_delay(1, 2)
        assert lm.one_way_delay(1, 2) == first
        assert lm.cached_pairs == 1

    def test_self_delay_zero(self):
        assert make_model().one_way_delay(5, 5) == 0.0

    def test_round_trip_double(self):
        lm = make_model()
        assert lm.round_trip(1, 2) == pytest.approx(2 * lm.one_way_delay(1, 2))

    def test_out_of_range_rejected(self):
        lm = make_model(n=10)
        with pytest.raises(NetworkError):
            lm.one_way_delay(0, 10)

    def test_mean_governed_by_slowest(self):
        # All pairs (modem, lan) should cluster near the modem mean 300 ms.
        lm = make_model(n=400, classes=[0, 2] * 200)
        modem_lan = [lm.one_way_delay(0, i) for i in range(1, 400, 2)]  # 0 is modem
        assert np.mean(modem_lan) == pytest.approx(0.300, abs=0.01)
        lan_lan = [lm.one_way_delay(1, i) for i in range(3, 400, 2)]
        assert np.mean(lan_lan) == pytest.approx(0.070, abs=0.01)

    def test_truncation_bounds_respected(self):
        lm = make_model(n=200)
        p = lm.params
        for i in range(50):
            for j in range(i + 1, 50):
                d = lm.one_way_delay(i, j)
                cls = lm.bandwidth.slowest_class(i, j)
                mean = p.means[cls]
                assert mean - 3 * p.std - 1e-12 <= d <= mean + 3 * p.std + 1e-12
                assert d >= p.floor

    def test_zero_std_gives_exact_means(self):
        params = DelayParameters(std=0.0)
        lm = make_model(classes=[2] * 100, params=params)
        assert lm.one_way_delay(0, 1) == 0.070

    def test_deterministic_given_rng(self):
        a = make_model(seed=5).one_way_delay(2, 9)
        b = make_model(seed=5).one_way_delay(2, 9)
        assert a == b

    @given(st.integers(0, 99), st.integers(0, 99))
    def test_property_positive_and_symmetric(self, a, b):
        lm = make_model()
        d = lm.one_way_delay(a, b)
        assert d >= 0.0
        assert d == lm.one_way_delay(b, a)
        if a != b:
            assert d > 0.0


class TestDelayMatrix:
    """The full pairwise table, read through ``delay_rows()``."""

    def test_symmetric_zero_diagonal(self):
        rows = make_model(n=60).delay_rows()
        assert len(rows) == 60
        for a in range(60):
            assert rows[a][a] == 0.0
            for b in range(a + 1, 60):
                assert rows[a][b] == rows[b][a] > 0.0

    def test_lookup_served_from_matrix(self):
        """The rows hold the exact floats one_way_delay returns."""
        lm = make_model(n=40)
        rows = lm.delay_rows()
        for a in range(40):
            for b in range(40):
                assert lm.one_way_delay(a, b) == rows[a][b]

    def test_precached_lazy_pairs_preserved(self):
        """Pairs drawn before the rows are read keep their observed values."""
        lm = make_model(n=30)
        warm = {(a, b): lm.one_way_delay(a, b) for a, b in [(0, 1), (7, 3), (29, 10)]}
        rows = lm.delay_rows()
        for (a, b), value in warm.items():
            assert rows[a][b] == value
            assert rows[b][a] == value
            assert lm.one_way_delay(a, b) == value

    def test_matrix_built_once(self):
        lm = make_model(n=15)
        assert lm.delay_rows() is lm.delay_rows()

    def test_truncation_respected_in_matrix(self):
        lm = make_model(n=50)
        rows = lm.delay_rows()
        p = lm.params
        for i in range(50):
            for j in range(i + 1, 50):
                mean = p.means[lm.bandwidth.slowest_class(i, j)]
                lo = max(mean - p.truncation_sigmas * p.std, p.floor)
                hi = mean + p.truncation_sigmas * p.std
                assert lo - 1e-12 <= rows[i][j] <= hi + 1e-12

    def test_zero_std_matrix_is_exact_means(self):
        params = DelayParameters(std=0.0)
        rows = make_model(n=20, classes=[2] * 20, params=params).delay_rows()
        for a in range(20):
            for b in range(20):
                assert rows[a][b] == (0.0 if a == b else 0.070)


class TestLazyRegime:
    """Keyed on-demand pair draws: no matrix, only the touched pairs."""

    def test_rows_proxy_matches_one_way_delay(self):
        lm = make_model(n=40)
        rows = lm.delay_rows()
        assert len(rows) == 40
        for a, b in [(0, 1), (1, 0), (5, 39), (12, 12)]:
            assert rows[a][b] == lm.one_way_delay(a, b)
        assert lm.delay_rows() is rows

    def test_touch_order_independent(self):
        """The keyed draw makes pair values a pure function of (seed, pair),
        so two models touching pairs in opposite orders agree float-for-float
        — the property that keeps the digest gate valid at scale."""
        pairs = [(0, 1), (3, 17), (2, 9), (18, 19), (4, 4)]
        forward = make_model(n=20, seed=3)
        backward = make_model(n=20, seed=3)
        got_forward = {p: forward.one_way_delay(*p) for p in pairs}
        got_backward = {p: backward.one_way_delay(*p) for p in reversed(pairs)}
        assert got_forward == got_backward

    def test_symmetric_cached_and_bounded(self):
        lm = make_model(n=30)
        p = lm.params
        for a in range(10):
            for b in range(a + 1, 10):
                d = lm.one_way_delay(a, b)
                assert d == lm.one_way_delay(b, a)
                mean = p.means[lm.bandwidth.slowest_class(a, b)]
                assert mean - 3 * p.std - 1e-12 <= d <= mean + 3 * p.std + 1e-12
                assert d >= p.floor
        assert lm.cached_pairs == 45  # only the touched pairs materialized

    def test_deterministic_across_models(self):
        a = make_model(n=25, seed=11).one_way_delay(2, 9)
        b = make_model(n=25, seed=11).one_way_delay(2, 9)
        assert a == b

    def test_zero_std_lazy_gives_exact_means(self):
        params = DelayParameters(std=0.0)
        lm = make_model(n=20, classes=[2] * 20, params=params)
        assert lm.one_way_delay(0, 1) == 0.070

    def test_round_trip_and_self_delay(self):
        lm = make_model(n=20)
        assert lm.one_way_delay(4, 4) == 0.0
        assert lm.round_trip(1, 2) == pytest.approx(2 * lm.one_way_delay(1, 2))

    def test_seed_changes_the_draws(self):
        a = make_model(n=30, seed=1)
        b = make_model(n=30, seed=2)
        pairs = [(i, i + 1) for i in range(0, 28, 2)]
        assert [a.one_way_delay(*p) for p in pairs] != [b.one_way_delay(*p) for p in pairs]


class TestKeyedDrawDistribution:
    """The keyed draw is the truncated Gaussian it replaces."""

    def test_ks_against_truncated_normal(self):
        # One class, so every pair shares mean 150 ms; a wide truncation
        # keeps the clamped mass negligible and the law a plain normal
        # between the bounds.
        params = DelayParameters(truncation_sigmas=3.0)
        n = 90
        lm = make_model(n=n, classes=[1] * n, params=params)
        draws = np.array([lm.one_way_delay(a, b) for a in range(n) for b in range(a + 1, n)])
        mean, std = params.means[1], params.std
        lo, hi = mean - 3 * std, mean + 3 * std
        # Clamping puts the tail mass on the bounds; compare the interior
        # draws against the normal truncated to the same interval.
        inner = draws[(draws > lo) & (draws < hi)]
        assert inner.size > 0.99 * draws.size
        truncated = stats.truncnorm(-3.0, 3.0, loc=mean, scale=std)
        assert stats.kstest(inner, truncated.cdf).pvalue > 1e-3
        # And the clamped share matches the Gaussian tail mass (0.27 %).
        clamped = np.mean((draws <= lo) | (draws >= hi))
        assert clamped < 0.01
