"""The benchmark's workload definitions, spelled out in full.

Every :class:`~repro.gnutella.config.GnutellaConfig` field, the serve
pacing, the offered-rate ladder and the query mix live here, each with the
reason it has the value it has. Nothing is imported from the program's own
presets (``repro.bench.scale.scale_config``, ``experiments.common.PRESETS``,
``repro-serve --preset``): an edit to those helpers must not silently change
what this benchmark measures. :func:`gnutella_config` refuses to run when the
program's config grows or loses a field, so such a change is loud too.

Sizes are chosen so that one invocation of the benchmark, its
repetitions and the off-the-clock checks included, takes about a minute
on a 2-core host; the baseline note (``perfbench/BASELINE.md``) records how
they relate to the full-size runs (10k peers with 200,000 songs over 2 h,
the paper's day).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

HOUR = 3600.0
DAY = 24 * HOUR

#: The paper's Section 4.2 world, every field written out. Workloads
#: override a few of them below, each with its reason.
PAPER_WORLD: dict[str, Any] = {
    # Population and catalog: the paper's 2,000 peers, 200,000 songs in 50
    # genres with Zipf(0.9) popularity, libraries of 200 +- 50 songs.
    "n_users": 2000,
    "n_items": 200_000,
    "n_categories": 50,
    "zipf_theta": 0.9,
    "mean_library": 200.0,
    "std_library": 50.0,
    "n_secondary": 5,
    # Horizon and reporting warm-up are set per workload.
    "horizon": DAY,
    "warmup_hours": 12,
    # Churn: 3 h on / 3 h off sessions, so about half the peers are online.
    "mean_online": 3 * HOUR,
    "mean_offline": 3 * HOUR,
    # Query load: 8 queries per online user per hour, flooded 2 hops over
    # 4 neighbour slots (Figures 1 and 3(a)).
    "queries_per_hour": 8.0,
    "max_hops": 2,
    "neighbor_slots": 4,
    # The dynamic scheme is the expensive one: benefit statistics,
    # reconfiguration every T=2 own requests and on neighbour log-off, one
    # swap per reconfiguration, halved statistics after each update.
    "dynamic": True,
    "reconfiguration_threshold": 2,
    "update_on_logoff": True,
    "max_swaps_per_update": 1,
    "swap_margin": 0.0,
    "stats_decay_on_update": 0.5,
    "persist_stats": True,
    # Downloads grow libraries, so the holder index is written while it is
    # read; evicted peers refill at once from the bootstrap server.
    "downloads_grow_libraries": True,
    "evicted_refill_immediate": True,
    # Plain flood with the paper's B/R benefit: the case that engages the
    # flood fast path.
    "search_strategy": "flood",
    "benefit": "bandwidth-share",
    # No separate exploration probes and no message loss (the paper's
    # case study has neither); the exploration and timeout fields only
    # matter to engines and options this benchmark does not run.
    "exploration_interval": None,
    "exploration_ttl": 2,
    "exploration_probe_items": 4,
    "message_loss_rate": 0.0,
    "query_timeout": 10.0,
}


@dataclass(frozen=True)
class SimWorkload:
    """A simulation workload: build the world, simulate the horizon."""

    name: str
    why: str
    #: Every GnutellaConfig field except ``seed``.
    world: dict[str, Any]
    #: Horizon of the hashed fast vs fast-reference digest comparison; the
    #: reference engine runs every query through the generic search, so the
    #: comparison is cut short where the full horizon would not fit a run.
    digest_horizon: float


#: Runs with the same command but is not listed in BENCHMARK.json: its
#: memory-bound run moves by up to 1.8x between invocations on a shared
#: 2-core host, far outside any bound the gate allows (see BASELINE.md).
SCALE_10K = SimWorkload(
    name="scale-10k",
    why=(
        "setup-heavy: 10,000 peers in the lazy keyed-delay regime (above 4,096), "
        "where library sampling dominates setup"
    ),
    world={
        **PAPER_WORLD,
        # Above LAZY_DELAY_NODE_THRESHOLD (4,096): per-pair keyed delays.
        "n_users": 10_000,
        # 1,000 songs per genre: each library draw still pays a Gumbel key
        # per genre item (the cost ROADMAP item 1 removes) while a world
        # builds in about 4 s, so several builds fit one invocation.
        "n_items": 50_000,
        # The scale tier's library shape: 50 +- 12 songs.
        "mean_library": 50.0,
        "std_library": 12.0,
        # 30 simulated minutes from a cold start: the login storm plus about
        # 20,000 queries. The run takes a few seconds, long enough that one
        # collector pause or a short slow spell of the host moves it little,
        # and setup stays larger than the run.
        "horizon": 0.5 * HOUR,
        "warmup_hours": 0,
    },
    # The first 15 simulated minutes: the login storm and the first
    # reconfigurations, at about a quarter of a repetition's cost.
    digest_horizon=0.25 * HOUR,
)

PAPER_6H = SimWorkload(
    name="paper-6h",
    why=(
        "run-heavy: the paper's 2,000-peer world for 6 simulated hours in the eager "
        "delay-matrix regime; kernel, protocol and flood search do the work"
    ),
    world={
        **PAPER_WORLD,
        # Six simulated hours: a run about twice the setup, short enough for
        # several builds and runs in one invocation. The dynamic scheme is
        # well into reconfiguration by then (about 48,000 queries).
        "horizon": 6 * HOUR,
        "warmup_hours": 3,
    },
    # The first half hour: the login storm, the first reconfigurations and
    # about 4,000 queries, at about a third of a repetition's cost.
    digest_horizon=0.5 * HOUR,
)

SIM_WORKLOADS = {w.name: w for w in (SCALE_10K, PAPER_6H)}

#: Nominal wall seconds of one simulation repetition: about 4 s setup and
#: 3 s run on ``scale-10k``, 3 s and 5 s on ``paper-6h``, plus interpreter
#: start and a margin for the host's slow spells.
REP_SECONDS = 9.0


def repetitions(seconds: float) -> int:
    """Timed repetitions for a ``--seconds`` window: at least two.

    The count follows from ``--seconds`` alone, never from how long the
    repetitions take, so a faster setup does not buy more samples. At
    ``--seconds 36`` it is four.
    """
    return max(2, round(seconds / REP_SECONDS))


@dataclass(frozen=True)
class ServeWorkload:
    """The live-serving workload: a paced world behind ``QueryServer``."""

    name: str
    why: str
    world: dict[str, Any]
    #: Every ``repro.serve.server.ServeConfig`` field.
    serve: dict[str, Any]
    #: Client connections (no more than the host's cores, at most 2).
    connections: int
    #: Offered rate and length of the trial that gives serve_p50/p99.
    fixed_rate: float
    fixed_seconds: float
    #: Pinned ladder of offered rates for serve_capacity_rps, ascending,
    #: and the length of one trial on it.
    ladder: tuple[float, ...]
    ladder_seconds: float
    #: Capacity limits: tail latency, failed share, backlog.
    p99_limit_ms: float
    max_failed_share: float
    #: Per-request deadline sent with every query.
    timeout_ms: float
    #: Zipf skew of the query mix over song ranks within a genre.
    query_theta: float
    #: One in ``oracle_every`` fixed-trial replies is replayed by the oracle.
    oracle_every: int
    #: Timed simulations of the served span per invocation, each in a fresh
    #: process; ``run_s`` and ``events_per_s`` come from them.
    span_reps: int


SERVE_LIVE = ServeWorkload(
    name="serve-live",
    why=(
        "live serving: read-only flood searches over TCP beside a paced world that "
        "advances churn and reconfiguration between requests"
    ),
    world={
        **PAPER_WORLD,
        # The paper's 4-day horizon: 2 h warm-up plus 600 simulated s per
        # wall s leaves about 9 wall minutes before the world would freeze,
        # far longer than one invocation serves.
        "horizon": 4 * DAY,
        "warmup_hours": 12,
    },
    serve={
        # Loopback on an OS-chosen port: nothing outside the host is touched.
        "host": "127.0.0.1",
        "port": 0,
        # The server's own admission limits and deadline.
        "max_queue": 256,
        "default_timeout_ms": 1000.0,
        # World pacing: 600 simulated s per wall s after a 2-simulated-hour
        # warm-up, ticking every 50 ms even without traffic.
        "time_rate": 600.0,
        "warmup_sim_s": 2 * HOUR,
        "pacer_interval_s": 0.05,
        "drain_timeout_s": 5.0,
        # Telemetry windows and SLO as the server ships them; no access log,
        # so no file is written.
        "rolling_windows": (10.0, 60.0, 300.0),
        "slo_latency_ms": 100.0,
        "slo_error_budget": 0.01,
        "access_log": None,
        "access_log_sample": 1.0,
    },
    connections=2,
    # 1,000 req/s is below the capacity the ladder finds (usually above
    # 4k req/s on a 2-core host), so the trial measures latency, not
    # saturation.
    fixed_rate=1000.0,
    # Eight seconds (8,000 requests, 80 beyond the p99) start right after
    # the server accepts queries, before the first full collection of the
    # serving phase.
    fixed_seconds=8.0,
    # 10 % steps from 1,000 to about 6,700 req/s; a quiet host can pass
    # the top rung, which then reads as the capacity. A one-second rung
    # still holds over 1,000 requests, enough for a p99 with ten samples
    # beyond it.
    ladder=tuple(round(1000.0 * 1.1**k) for k in range(21)),
    ladder_seconds=1.0,
    p99_limit_ms=50.0,
    max_failed_share=0.001,
    timeout_ms=1000.0,
    query_theta=0.9,
    oracle_every=16,
    # Three of about 7 s each (build, start and advance the world). Their
    # times are rescaled to the reference host speed; the median of three
    # also drops the one repetition that a very slow spell rescales badly.
    span_reps=3,
)

WORKLOADS: dict[str, SimWorkload | ServeWorkload] = {
    **SIM_WORKLOADS,
    SERVE_LIVE.name: SERVE_LIVE,
}


def gnutella_config(world: dict[str, Any], seed: int) -> Any:
    """Build the program's config from ``world``, refusing field drift."""
    from repro.gnutella.config import GnutellaConfig

    expected = {f.name for f in dataclasses.fields(GnutellaConfig)} - {"seed"}
    if set(world) != expected:
        missing = sorted(expected - set(world))
        extra = sorted(set(world) - expected)
        raise SystemExit(
            f"GnutellaConfig fields changed (unset here: {missing}, unknown: {extra}); "
            "spell every field out in perfbench/workloads.py"
        )
    return GnutellaConfig(**world, seed=seed)


def serve_config(serve: dict[str, Any]) -> Any:
    """Build the program's ``ServeConfig`` from ``serve``, refusing drift."""
    from repro.serve.server import ServeConfig

    expected = {f.name for f in dataclasses.fields(ServeConfig)}
    if set(serve) != expected:
        raise SystemExit(
            f"ServeConfig fields changed (have {sorted(serve)}, "
            f"program has {sorted(expected)}); update perfbench/workloads.py"
        )
    return ServeConfig(**serve)


def query_mix(world: dict[str, Any], theta: float, seed: int, n: int) -> list[int]:
    """``n`` seeded query items: a uniform genre, then a Zipf(``theta``) rank.

    Drawn with the benchmark's own generator, so the mix does not change
    when the program's samplers do.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x51E7])
    per_genre = world["n_items"] // world["n_categories"]
    weights = np.arange(1, per_genre + 1, dtype=float) ** -theta
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), per_genre - 1)
    genres = rng.integers(world["n_categories"], size=n)
    return (genres * per_genre + ranks).tolist()
