"""Zipf-distributed sampling.

The paper uses Zipf's law with parameter theta = 0.9 twice: for song
popularity within a category and for the assignment of users to favorite
categories. This module provides an exact finite-support Zipf sampler:

    P(rank r) = (1 / r^theta) / H(n, theta),   r = 1..n

implemented by inverse-CDF lookup (:func:`numpy.searchsorted`) over a
precomputed cumulative table — O(n) setup, O(log n) per draw, fully
vectorized for batch draws. Draws without replacement
(:meth:`ZipfSampler.sample_distinct`) reuse the same table.

Note this is the *bounded* Zipf distribution over n ranks (what the paper
needs), not scipy's infinite-support ``zipf``; scipy's ``zipfian`` agrees
with it and is used as the oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

__all__ = ["ZipfSampler", "zipf_pmf"]


def zipf_pmf(n: int, theta: float) -> np.ndarray:
    """Probability of each rank 1..n under bounded Zipf(theta).

    Returned array is indexed 0-based: ``pmf[0]`` is the probability of the
    most popular rank.
    """
    if n <= 0:
        raise WorkloadError(f"n must be positive, got {n}")
    if theta < 0:
        raise WorkloadError(f"theta must be non-negative, got {theta}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-theta
    return weights / weights.sum()


class ZipfSampler:
    """Draw 0-based ranks from a bounded Zipf(theta) distribution over n ranks.

    Parameters
    ----------
    n:
        Support size (number of ranks).
    theta:
        Skew parameter; theta = 0 degenerates to uniform. The paper uses 0.9.

    Example
    -------
    >>> sampler = ZipfSampler(1000, 0.9)
    >>> rng = np.random.default_rng(0)
    >>> ranks = sampler.sample(rng, size=5)
    >>> bool((ranks >= 0).all() and (ranks < 1000).all())
    True
    """

    def __init__(self, n: int, theta: float) -> None:
        self.n = int(n)
        self.theta = float(theta)
        self.pmf = zipf_pmf(self.n, self.theta)
        self._cdf = np.cumsum(self.pmf)
        # Guard against floating-point drift: force exact upper bound so a
        # uniform draw of 1.0-epsilon can never index past the end.
        self._cdf[-1] = 1.0

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw ``size`` ranks (or a scalar when ``size`` is None)."""
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        if size is None:
            return int(idx)
        return idx.astype(np.int64)

    def sample_distinct(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Draw ``k`` *distinct* ranks, weighted by the Zipf pmf, in pick order.

        Used to fill a user's library: a library holds each song at most
        once, but popular songs should still be more likely to be included.
        Successive sampling: i.i.d. inverse-CDF ranks are drawn in vectorized
        batches and the first ``k`` distinct ones are kept in draw order,
        which is exactly sequential weighted sampling without replacement
        (the law of Gumbel-top-k, the test suite's oracle). Expected cost is
        O(k log n) while the picks hold little of the mass. Once a batch is
        mostly repeats, the remaining picks come from an exponential race
        over the unpicked ranks -- the same conditional law at O(n) -- so a
        ``k`` near ``n`` never pays coupon-collector cost.
        """
        if k < 0:
            raise WorkloadError(f"k must be non-negative, got {k}")
        if k > self.n:
            raise WorkloadError(f"cannot draw {k} distinct ranks from support of {self.n}")
        # Insertion-ordered: keys are the distinct ranks in first-draw order.
        picked: dict[int, None] = {}
        while len(picked) < k:
            # 1.5x covers the repeats of one batch for k up to a few
            # hundred at the paper's skew and category size.
            need = k - len(picked)
            draws = need + need // 2 + 8
            batch = self._cdf.searchsorted(rng.random(draws), side="right")
            before = len(picked)
            picked.update(dict.fromkeys(batch.tolist()))
            if len(picked) < k and 4 * (len(picked) - before) < draws:
                return self._race_rest(rng, list(picked), k - len(picked))
        return np.fromiter(picked, dtype=np.int64, count=len(picked))[:k]

    def _race_rest(self, rng: np.random.Generator, picked: list[int], need: int) -> np.ndarray:
        """``picked`` followed by ``need`` more successive picks from the rest.

        Each unpicked rank fires after an exponential time of rate equal to
        its weight; the first ``need`` to fire, in firing order, follow the
        renormalized remaining distribution one pick at a time.
        """
        unpicked = np.ones(self.n, dtype=bool)
        unpicked[picked] = False
        rest = np.flatnonzero(unpicked)
        fire = rng.standard_exponential(rest.size) / self.pmf[rest]
        first = np.argpartition(fire, need - 1)[:need] if need < rest.size else np.arange(need)
        first = first[np.argsort(fire[first])]
        return np.concatenate([np.asarray(picked, dtype=np.int64), rest[first]])

    def rank_probability(self, rank: int) -> float:
        """Probability of the 0-based ``rank``."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        return float(self.pmf[rank])
