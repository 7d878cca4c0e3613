"""Pairwise one-way delay model.

Section 4.2: "The mean value of the one-way delay between two users is
governed by the slowest user, and is equal to 300ms, 150ms and 70ms,
respectively. The standard deviation is set to 20ms for all cases, and values
are restricted in the interval [...]" — the interval itself is unreadable in
the available scan, so the truncation bounds are parameters (default
mean ± 3 sigma, always clamped above a small positive floor).

Each unordered node pair gets one delay, i.e. the network latency is static
per pair for the lifetime of a simulation — consistent with the paper's
description of delay as a property of the user pair. Sampling per pair
(rather than per message) also lets the fast engine compute path delays
analytically.

A pair's delay is a pure function of ``(seed, pair)``: the model draws one
64-bit key from its RNG stream at construction, and the pair's canonical
index ``lo * n + hi`` picks the output of a SplitMix64 stream seeded by that
key. The output becomes a uniform, the uniform a Gaussian by inverse CDF,
and the Gaussian is clamped to the truncation interval. No matrix and no
per-pair generator exist: a delay is computed on first touch and cached in
per-node row dicts, so memory follows the pairs a run actually touches and
the floats do not depend on the order pairs are touched in. That is what
lets a fast-path run and a reference run, which touch pairs in different
orders, observe identical floats at every population size.
:meth:`LatencyModel.delay_rows` hands the flood fast path those rows
(``rows[a][b]`` is a plain dict read once the pair is cached).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.errors import NetworkError
from repro.net.bandwidth import CLASS_DELAY_MEAN, BandwidthClass, BandwidthModel
from repro.types import NodeId

__all__ = ["DelayParameters", "LatencyModel"]

_MASK64 = (1 << 64) - 1
_STANDARD_NORMAL = NormalDist()


def _splitmix64(key: int, counter: int) -> int:
    """Output ``counter`` of the SplitMix64 stream seeded with ``key``."""
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True, slots=True)
class DelayParameters:
    """Parameters of the truncated-Gaussian one-way-delay distribution.

    Attributes
    ----------
    means:
        Mean one-way delay (seconds) per :class:`BandwidthClass`, applied
        according to the *slower* endpoint of the pair.
    std:
        Standard deviation in seconds (paper: 20 ms for all classes).
    truncation_sigmas:
        Draws are clamped to ``mean ± truncation_sigmas * std``.
    floor:
        Absolute lower bound in seconds; keeps delays strictly positive even
        for generous truncation settings.
    """

    means: tuple[float, float, float] = (
        CLASS_DELAY_MEAN[BandwidthClass.MODEM_56K],
        CLASS_DELAY_MEAN[BandwidthClass.CABLE],
        CLASS_DELAY_MEAN[BandwidthClass.LAN],
    )
    std: float = 0.020
    truncation_sigmas: float = 3.0
    floor: float = 0.001

    def __post_init__(self) -> None:
        if len(self.means) != len(BandwidthClass):
            raise NetworkError("means must provide one value per BandwidthClass")
        if any(m <= 0 for m in self.means):
            raise NetworkError("delay means must be positive")
        if self.std < 0:
            raise NetworkError("std must be non-negative")
        if self.truncation_sigmas <= 0:
            raise NetworkError("truncation_sigmas must be positive")
        if self.floor <= 0:
            raise NetworkError("floor must be positive")


class LatencyModel:
    """Keyed, cached per-pair one-way delays.

    Parameters
    ----------
    bandwidth:
        The per-node access-class assignment; the slower endpoint of a pair
        selects the delay mean.
    rng:
        Source of randomness. One draw at construction keys every pair;
        lookups are symmetric (``delay(a, b) == delay(b, a)``).
    params:
        Distribution parameters; defaults to the paper's values.
    """

    def __init__(
        self,
        bandwidth: BandwidthModel,
        rng: np.random.Generator,
        params: DelayParameters | None = None,
    ) -> None:
        self.bandwidth = bandwidth
        self.params = params or DelayParameters()
        self._n = bandwidth.n_nodes
        self._key = int(rng.integers(0, 2**63, dtype=np.int64))
        self._rows = [_DelayRow(self, NodeId(a)) for a in range(self._n)]

    def one_way_delay(self, a: NodeId, b: NodeId) -> float:
        """One-way delay in seconds between ``a`` and ``b`` (symmetric).

        A node's delay to itself is zero (local service).
        """
        if not (0 <= a < self._n and 0 <= b < self._n):
            raise NetworkError(f"node ids out of range: {a}, {b} (n={self._n})")
        return self._rows[a][b]

    def delay_rows(self) -> "list[_DelayRow]":
        """Indexable ``rows[a][b]`` delays (hot-path view).

        ``rows[a][b]`` is the exact float :meth:`one_way_delay` returns; a
        cached pair is a plain dict read. Treat as read-only.
        """
        return self._rows

    def round_trip(self, a: NodeId, b: NodeId) -> float:
        """Round-trip time: twice the one-way delay."""
        return 2.0 * self.one_way_delay(a, b)

    def _draw(self, a: NodeId, b: NodeId) -> float:
        """The pair's truncated-Gaussian delay, from its keyed uniform."""
        p = self.params
        mean = p.means[self.bandwidth.slowest_class(a, b)]
        if p.std == 0.0:
            return max(mean, p.floor)
        lo, hi = (a, b) if a < b else (b, a)
        bits = _splitmix64(self._key, lo * self._n + hi)
        # The top 53 bits, centred in their cell: strictly inside (0, 1).
        u = ((bits >> 11) + 0.5) * 2.0**-53
        raw = mean + p.std * _STANDARD_NORMAL.inv_cdf(u)
        low = max(mean - p.truncation_sigmas * p.std, p.floor)
        high = mean + p.truncation_sigmas * p.std
        return min(max(raw, low), high)

    @property
    def cached_pairs(self) -> int:
        """Number of pair delays drawn so far (memory introspection)."""
        return sum(len(row) for row in self._rows) // 2


class _DelayRow(dict[NodeId, float]):
    """One node's delays by peer, drawn on first touch.

    A miss draws the pair once and caches it in both endpoints' rows, so
    the reverse lookup is a hit too.
    """

    __slots__ = ("_model", "_a")

    def __init__(self, model: LatencyModel, a: NodeId) -> None:
        super().__init__()
        self._model = model
        self._a = a

    def __missing__(self, b: NodeId) -> float:
        a = self._a
        if b == a:
            return 0.0
        delay = self._model._draw(a, b)
        self[b] = delay
        self._model._rows[b][a] = delay
        return delay
