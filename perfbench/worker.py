"""Child-process entry of the benchmark: one fresh interpreter per task.

Every timed repetition runs in its own process, so its peak RSS is its own
and no heap left over by an earlier repetition skews the next. The parent
(``perfbench/run.py``) passes one JSON task as the only argument and reads
one JSON line back from standard output.

Tasks:

``rep``     build a world and run it to the horizon (``serve-live``: over
            its served span); optionally traced.
``digest``  one hashed run (``repro.lint.sanitize.run_hashed``) of a
            simulation workload cut to its digest horizon.
``oracle``  replay ``serve-live``'s served queries (read from standard
            input) on a fresh engine.
``serve``   the benchmark's server launcher: build ``QueryServer`` from the
            benchmark's config, print the bound address once it accepts
            queries, serve until standard input closes, then print peak RSS
            and, when traced, the per-layer totals and collector pauses.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, layers, workloads  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rep(task: dict) -> dict:
    """Build a world and simulate it; optionally traced.

    A simulation workload runs to its horizon. ``serve-live`` starts and
    advances to ``task["until"]``, the end of its served span, and reports
    only events: a world that is still running has no final counters.
    """
    from repro.gnutella.simulation import build_engine

    workload = workloads.WORKLOADS[task["workload"]]
    config = workloads.gnutella_config(workload.world, task["seed"])
    spans = gc_pauses = None
    if task["trace"]:
        spans = layers.install()
        gc_pauses = layers.GcPauses()
        gc_pauses.install()
    # Setup and run are timed at the reference host speed (see hostspeed).
    probe = hostspeed.Probe()
    clock = time.perf_counter
    t0 = clock()
    probe.start()
    engine = build_engine(config, "fast")
    t1 = clock()
    engine.start()
    engine.advance(task.get("until", config.horizon))
    probe.stop()
    t2 = clock()
    out = {
        "setup_s": probe.scaled(t0, t1),
        "run_s": probe.scaled(t1, t2),
        "wall_setup_s": t1 - t0,
        "wall_run_s": t2 - t1,
        "slowdown": probe.slowdown(t0, t2),
        "events": engine.sim.events_executed,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if "until" not in task:
        out["queries"] = engine.metrics.total_queries
        out["hits"] = engine.metrics.total_hits
    if spans is not None:
        out["layers"] = {**layers.layer_metrics(spans), **gc_pauses.metrics()}
    return out


def digest(task: dict) -> dict:
    from dataclasses import replace

    from repro.lint.sanitize import run_hashed

    workload = workloads.SIM_WORKLOADS[task["workload"]]
    config = workloads.gnutella_config(workload.world, task["seed"])
    if workload.digest_horizon < config.horizon:
        # Warm-up only trims reported series; a cut run reports none.
        config = replace(config, horizon=workload.digest_horizon, warmup_hours=0)
    _, hexdigest = run_hashed(config, task["engine"], sanitize=False)
    return {"digest": hexdigest}


def oracle(task: dict) -> dict:
    """Replay served queries on a fresh engine of the served world.

    Standard input holds the kept replies as ``[sim_time, node, item,
    results, messages, nodes_contacted, result_lines]``, sorted by
    ``sim_time``. Serving is digest-neutral and advancement is
    chunk-invariant, so each must match exactly, and the engine must reach
    ``span_end`` with as many events as a world that served nothing.
    """
    from repro.gnutella.simulation import build_engine
    from repro.types import NodeId

    replays = json.load(sys.stdin)
    engine = build_engine(workloads.gnutella_config(workloads.SERVE_LIVE.world, task["seed"]),
                          "fast")
    engine.start()
    mismatches = 0
    for sim_time, node, item, results, messages, contacted, lines in replays:
        engine.advance(sim_time)
        outcome = engine.serve_query(NodeId(node), item)
        ranked = sorted(outcome.results, key=lambda r: r.delay)
        expected = [[k, int(r.responder), r.hops, r.delay * 1e3] for k, r in enumerate(ranked)]
        if (
            results != len(ranked)
            or messages != outcome.messages
            or contacted != outcome.nodes_contacted
            or lines != expected
        ):
            mismatches += 1
    engine.advance(task["span_end"])
    return {"mismatches": mismatches, "events": engine.sim.events_executed}


def serve(task: dict) -> None:
    # The host's speed from here until the server accepts queries, for the
    # benchmark to rescale its launch-to-accept time (see hostspeed).
    probe = hostspeed.Probe()
    t0 = time.perf_counter()
    probe.start()

    import asyncio

    from repro.serve.server import QueryServer

    workload = workloads.SERVE_LIVE
    config = workloads.gnutella_config(workload.world, task["seed"])
    serve_config = workloads.serve_config(workload.serve)
    spans = gc_pauses = None
    if task["trace"]:
        spans = layers.install()
        gc_pauses = layers.GcPauses()
        gc_pauses.install()

    async def main() -> None:
        server = QueryServer(config, serve_config)
        host, port = await server.start()
        probe.stop()
        slowdown = probe.slowdown(t0, time.perf_counter())
        print(json.dumps({"host": host, "port": port, "slowdown": slowdown}), flush=True)
        # Serve until the benchmark closes our standard input.
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
        await server.shutdown()

    asyncio.run(main())
    out: dict = {"peak_rss_mb": _peak_rss_mb()}
    if spans is not None:
        out["layers"] = {**layers.layer_metrics(spans), **gc_pauses.metrics()}
    print(json.dumps(out), flush=True)


def main() -> None:
    task = json.loads(sys.argv[1])
    if task["kind"] == "serve":
        serve(task)
        return
    result = {"rep": rep, "digest": digest, "oracle": oracle}[task["kind"]](task)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
