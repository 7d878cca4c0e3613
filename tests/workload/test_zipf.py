"""Tests for the bounded Zipf sampler, with scipy's zipfian as the oracle."""

import functools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.zipf import ZipfSampler, zipf_pmf


class TestPmf:
    def test_sums_to_one(self):
        assert zipf_pmf(1000, 0.9).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(500, 0.9)
        assert (np.diff(pmf) <= 0).all()

    def test_theta_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_pmf(10, 0.0), np.full(10, 0.1))

    def test_matches_scipy_zipfian(self):
        n, theta = 200, 0.9
        ours = zipf_pmf(n, theta)
        scipys = scipy.stats.zipfian.pmf(np.arange(1, n + 1), theta, n)
        np.testing.assert_allclose(ours, scipys, rtol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            zipf_pmf(0, 0.9)
        with pytest.raises(WorkloadError):
            zipf_pmf(10, -0.1)


class TestSampling:
    def test_scalar_and_vector_shapes(self):
        s = ZipfSampler(100, 0.9)
        rng = np.random.default_rng(0)
        assert isinstance(s.sample(rng), int)
        assert s.sample(rng, size=7).shape == (7,)

    def test_ranks_in_range(self):
        s = ZipfSampler(50, 0.9)
        ranks = s.sample(np.random.default_rng(1), size=10_000)
        assert ranks.min() >= 0
        assert ranks.max() < 50

    def test_empirical_distribution_matches_pmf(self):
        n, theta = 30, 0.9
        s = ZipfSampler(n, theta)
        draws = s.sample(np.random.default_rng(2), size=200_000)
        counts = np.bincount(draws, minlength=n)
        # Chi-squared goodness of fit against the exact pmf.
        chi2, p = scipy.stats.chisquare(counts, s.pmf * len(draws))
        assert p > 0.001, f"chi2={chi2}, p={p}"

    def test_rank_zero_most_frequent(self):
        s = ZipfSampler(100, 0.9)
        draws = s.sample(np.random.default_rng(3), size=50_000)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] == counts.max()

    def test_deterministic_given_rng(self):
        s = ZipfSampler(100, 0.9)
        a = s.sample(np.random.default_rng(5), size=10)
        b = s.sample(np.random.default_rng(5), size=10)
        np.testing.assert_array_equal(a, b)

    def test_rank_probability(self):
        s = ZipfSampler(10, 0.9)
        assert s.rank_probability(0) == pytest.approx(s.pmf[0])
        with pytest.raises(WorkloadError):
            s.rank_probability(10)

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=25)
    def test_property_samples_always_in_support(self, n, theta):
        s = ZipfSampler(n, theta)
        draws = s.sample(np.random.default_rng(0), size=50)
        assert ((draws >= 0) & (draws < n)).all()


class TestSampleDistinct:
    def test_distinctness(self):
        s = ZipfSampler(100, 0.9)
        picks = s.sample_distinct(np.random.default_rng(0), 60)
        assert len(set(picks.tolist())) == 60

    def test_full_support(self):
        s = ZipfSampler(20, 0.9)
        picks = s.sample_distinct(np.random.default_rng(0), 20)
        assert sorted(picks.tolist()) == list(range(20))

    def test_k_zero(self):
        s = ZipfSampler(10, 0.9)
        assert s.sample_distinct(np.random.default_rng(0), 0).size == 0

    def test_k_too_large_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(5, 0.9).sample_distinct(np.random.default_rng(0), 6)

    def test_negative_k_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(5, 0.9).sample_distinct(np.random.default_rng(0), -1)

    def test_popular_ranks_overrepresented(self):
        # Rank 0 should appear in far more draws-of-10 than rank 99.
        s = ZipfSampler(100, 0.9)
        rng = np.random.default_rng(7)
        hits0 = hits99 = 0
        for _ in range(400):
            picks = set(s.sample_distinct(rng, 10).tolist())
            hits0 += 0 in picks
            hits99 += 99 in picks
        assert hits0 > 2 * hits99


def gumbel_top_k(pmf: np.ndarray, rng: np.random.Generator, k: int) -> np.ndarray:
    """Oracle: weighted sampling without replacement by Gumbel-top-k.

    The argmax of ``log(p) + Gumbel`` noise is a weighted draw; the ``k``
    largest keys, in descending order, are ``k`` successive draws without
    replacement. It pays a key per rank on every call, which is why the
    sampler does not use it.
    """
    keys = np.log(pmf) + rng.gumbel(size=pmf.size)
    top = np.argpartition(keys, pmf.size - k)[pmf.size - k :]
    return top[np.argsort(keys[top])[::-1]]


class _CountingRng:
    """Passes draws through to a generator and counts the variates drawn."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.variates = 0

    def random(self, size):
        self.variates += size
        return self._rng.random(size)

    def standard_exponential(self, size):
        self.variates += size
        return self._rng.standard_exponential(size)


class TestSampleDistinctLaw:
    """Successive sampling against the Gumbel-top-k oracle at small n."""

    N_SAMPLES = 20_000

    @classmethod
    @functools.cache
    def _tables(cls, n, theta, k):
        sampler = ZipfSampler(n, theta)
        rng_ours = np.random.default_rng(101)
        rng_oracle = np.random.default_rng(202)
        ours = np.array([sampler.sample_distinct(rng_ours, k) for _ in range(cls.N_SAMPLES)])
        oracle = np.array(
            [gumbel_top_k(sampler.pmf, rng_oracle, k) for _ in range(cls.N_SAMPLES)]
        )
        return ours, oracle

    @staticmethod
    def _homogeneity_pvalue(a_values, b_values, n):
        table = np.array(
            [np.bincount(a_values, minlength=n), np.bincount(b_values, minlength=n)]
        )
        table = table[:, table.sum(axis=0) > 0]
        return scipy.stats.chi2_contingency(table).pvalue

    # Which path a call takes depends on how much mass its picks hold:
    # (0.9, 4) stays in the batched draws, (0.9, 10) ends about a quarter
    # of its calls in the exponential race over the unpicked ranks, and
    # (1.5, 10) nearly all of them.
    CASES = [(0.9, 4), (0.9, 10), (1.5, 10)]

    @pytest.mark.parametrize("theta,k", CASES)
    def test_inclusion_frequencies_match_oracle(self, theta, k):
        n = 12
        ours, oracle = self._tables(n, theta, k)
        assert self._homogeneity_pvalue(ours.ravel(), oracle.ravel(), n) > 1e-3

    @pytest.mark.parametrize("theta,k", CASES)
    def test_pick_order_matches_oracle(self, theta, k):
        n = 12
        ours, oracle = self._tables(n, theta, k)
        # Joint (position, rank) counts: which rank comes at which pick.
        positions = np.arange(k) * n
        assert (
            self._homogeneity_pvalue((ours + positions).ravel(), (oracle + positions).ravel(), k * n)
            > 1e-3
        )
        # The first pick is a single weighted draw.
        first_counts = np.bincount(ours[:, 0], minlength=n)
        expected = ZipfSampler(n, theta).pmf * self.N_SAMPLES
        assert scipy.stats.chisquare(first_counts, expected).pvalue > 1e-3

    def test_whole_support_at_paper_category_size_is_bounded(self):
        # 4,000 songs per genre at theta 0.9: drawing every rank by i.i.d.
        # draws alone would take hundreds of thousands of draws (the rarest
        # rank has probability below 1e-4).
        n = 4000
        rng = _CountingRng(np.random.default_rng(0))
        picks = ZipfSampler(n, 0.9).sample_distinct(rng, n)
        assert sorted(picks.tolist()) == list(range(n))
        assert rng.variates <= 4 * n
