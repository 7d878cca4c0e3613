"""Failure injection: the detailed engine under message loss."""

import pytest

from repro.errors import ConfigurationError
from repro.gnutella import DetailedGnutellaEngine, GnutellaConfig
from repro.types import HOUR


def lossy_config(loss, **overrides):
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
        seed=17,
        message_loss_rate=loss,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


class TestMessageLoss:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            lossy_config(1.0)
        with pytest.raises(ConfigurationError):
            lossy_config(-0.1)

    def test_loss_counted_by_transport(self):
        engine = DetailedGnutellaEngine(lossy_config(0.2))
        engine.run()
        assert engine.transport.lost > 0
        assert engine.transport.lost < engine.transport.sent

    def test_hits_degrade_with_loss(self):
        clean = DetailedGnutellaEngine(lossy_config(0.0)).run()
        lossy = DetailedGnutellaEngine(lossy_config(0.3)).run()
        assert lossy.total_hits < clean.total_hits

    def test_heavier_loss_degrades_more(self):
        mild = DetailedGnutellaEngine(lossy_config(0.1)).run()
        heavy = DetailedGnutellaEngine(lossy_config(0.5)).run()
        assert heavy.total_hits < mild.total_hits

    def test_simulation_survives_extreme_loss(self):
        metrics = DetailedGnutellaEngine(lossy_config(0.9)).run()
        assert metrics.total_queries > 0  # engine keeps running

    def test_dynamic_still_beats_static_under_moderate_loss(self):
        # At 100 peers over 6 h the dynamic scheme's edge (about 1-2 % of
        # hits) is smaller than the spread between worlds: single seeds go
        # either way. The claim is judged on twelve paired worlds pooled.
        static_hits = dynamic_hits = 0
        for seed in range(17, 29):
            cfg = lossy_config(0.15, n_users=100, n_items=5000, horizon=6 * HOUR, seed=seed)
            static_hits += DetailedGnutellaEngine(cfg.as_static()).run().total_hits
            dynamic_hits += DetailedGnutellaEngine(cfg.as_dynamic()).run().total_hits
        assert dynamic_hits > static_hits

    def test_same_seed_loss_run_is_deterministic(self):
        """Two same-config lossy runs in one process produce identical
        kernel event streams (digest equality), not just equal metrics —
        the property the parallel orchestrator relies on."""
        from repro.lint.sanitize import run_hashed

        config = lossy_config(0.25)
        digests = {run_hashed(config, "detailed", sanitize=False)[1] for _ in range(2)}
        assert len(digests) == 1

    def test_fast_engine_ignores_loss_rate(self):
        """The fast engine's atomic queries model loss-free links; the knob
        is detailed-engine-only by design (documented)."""
        from repro.gnutella import FastGnutellaEngine

        clean = FastGnutellaEngine(lossy_config(0.0)).run()
        configured = FastGnutellaEngine(lossy_config(0.4)).run()
        assert clean.total_hits == configured.total_hits
