"""Engine-level equivalence of the struct-of-arrays core, bit for bit.

The SoA refactor (``repro.core.soa``) is a pure *layout* change: the same
lifecycle methods run over slab-backed views instead of per-peer objects, so
a ``soa=True`` engine must emit exactly the same SHA-256-hashed event stream
as the object-per-peer engine (``fast-aos``) — at the small digest-matrix
scale and at the paper's 2,000-peer scale, across the figure variants.

The same property gates the other hot-path rewrite this refactor carries:
incremental ``plan_reconfiguration`` vs the retained full-scan oracle
(swapped into the live protocol by monkeypatching).
"""

import pytest

import repro.gnutella.asymmetric
import repro.gnutella.protocol
from repro.core.update import plan_reconfiguration_full_scan
from repro.gnutella import FastGnutellaEngine, GnutellaConfig
from repro.lint.sanitize import run_hashed
from repro.types import HOUR


def small_config(**overrides):
    defaults = dict(
        n_users=60,
        n_items=3000,
        n_categories=10,
        mean_library=30.0,
        std_library=5.0,
        horizon=4 * HOUR,
        warmup_hours=0,
        queries_per_hour=6.0,
        max_hops=2,
        seed=7,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


def paper_scale_config(**overrides):
    """The paper's 2,000-peer population, shortened to a test-sized horizon.

    Full Section 4.2 parameters except the horizon (30 simulated minutes
    instead of 4 days): the digest covers thousands of events across login,
    fill, query, and reconfiguration paths, which is what the layout gate
    needs — running to the real horizon adds hours of wall clock, not
    coverage.
    """
    defaults = dict(
        n_users=2000,
        n_items=200_000,
        mean_library=200.0,
        std_library=50.0,
        horizon=0.5 * HOUR,
        warmup_hours=0,
        queries_per_hour=8.0,
        max_hops=2,
        seed=7,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


VARIANTS = [
    pytest.param({}, id="static-ttl2"),
    pytest.param({"dynamic": True}, id="dynamic-ttl2"),
    pytest.param({"max_hops": 4, "seed": 21}, id="static-ttl4"),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "seed": 3},
        id="dynamic-growing-libraries",
    ),
]


@pytest.mark.parametrize("overrides", VARIANTS)
def test_digest_identical_soa_vs_aos(overrides):
    config = small_config(**overrides)
    soa_result, soa_digest = run_hashed(config, "fast", sanitize=False)
    aos_result, aos_digest = run_hashed(config, "fast-aos", sanitize=False)
    assert soa_digest == aos_digest
    assert soa_result.metrics.total_queries == aos_result.metrics.total_queries
    assert soa_result.metrics.total_hits == aos_result.metrics.total_hits


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="figure1-static-ttl2"),
        pytest.param({"dynamic": True}, id="figure2-dynamic-ttl2"),
        pytest.param(
            {"dynamic": True, "downloads_grow_libraries": True, "max_hops": 4},
            id="figure3-dynamic-ttl4-growing",
        ),
    ],
)
def test_paper_scale_digest_identical_soa_vs_aos(overrides):
    """2,000 peers (the paper's population): SoA == object layout, bit for bit."""
    config = paper_scale_config(**overrides)
    _, soa_digest = run_hashed(config, "fast", sanitize=False)
    _, aos_digest = run_hashed(config, "fast-aos", sanitize=False)
    assert soa_digest == aos_digest


def test_digest_identical_incremental_vs_full_scan_plan(monkeypatch):
    """The incremental reconfiguration planner is digest-equal to the oracle.

    Swaps :func:`~repro.core.update.plan_reconfiguration_full_scan` into the
    live protocol (both the symmetric and asymmetric modules import the
    planner by name) and replays a dynamic run: every invite/evict decision,
    and therefore the whole event stream, must come out identical.
    """
    config = small_config(dynamic=True, downloads_grow_libraries=True)
    _, incremental_digest = run_hashed(config, "fast", sanitize=False)
    monkeypatch.setattr(
        repro.gnutella.protocol, "plan_reconfiguration", plan_reconfiguration_full_scan
    )
    monkeypatch.setattr(
        repro.gnutella.asymmetric, "plan_reconfiguration", plan_reconfiguration_full_scan
    )
    _, full_scan_digest = run_hashed(config, "fast", sanitize=False)
    assert incremental_digest == full_scan_digest


def test_soa_engine_exposes_arrays():
    soa = FastGnutellaEngine(small_config())
    assert soa.arrays is not None
    assert soa.peers.arrays is soa.arrays
    aos = FastGnutellaEngine(small_config(), soa=False)
    assert aos.arrays is None
    assert not hasattr(aos.peers, "arrays")
