"""The simulation workloads (``scale-10k``, ``paper-6h``).

An invocation repeats *build the world, simulate the horizon* in fresh
processes a fixed number of times (:func:`workloads.repetitions`). It
reports the medians of setup time, run time and peak RSS, and the events
per second of the median run. Setup and run times are rescaled to the
reference host speed (:mod:`perfbench.hostspeed`). A traced
invocation alternates untraced and traced repetitions and reports the
traced medians plus their difference as ``trace.overhead_s``.

Off the clock, once per invocation, the workload's world cut to its digest
horizon runs hashed on ``fast`` and ``fast-reference``; the two event-stream
digests must match. Every repetition of one seed must report the same
events, queries and hits. Either failure is a failed operation.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench import workloads
from perfbench.report import Result

WORKER = Path(__file__).resolve().with_name("worker.py")

#: Longest a single child task may take before the invocation gives up.
TASK_TIMEOUT_S = 150.0


def spawn(task: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(task)], stdout=subprocess.PIPE
    )


def collect(*procs: subprocess.Popen) -> list[dict]:
    """Each worker's JSON line; every worker is ended even if one fails."""
    try:
        outs = [p.communicate(timeout=TASK_TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    for p in procs:
        if p.returncode != 0:
            raise RuntimeError(f"benchmark worker exited with code {p.returncode}")
    return [json.loads(out.splitlines()[-1]) for out in outs]


def run(workload: workloads.SimWorkload, seed: int, seconds: float, trace: bool,
        result: Result) -> None:
    """Run the workload once, filling ``result``. See the module docstring."""
    reps: list[dict] = []
    traced: list[dict] = []
    n = workloads.repetitions(seconds)
    # A traced invocation spends the same number of repetitions, half of
    # them traced, each right after an untraced one.
    for k in range(n):
        traced_turn = trace and k % 2 == 1
        task = {"kind": "rep", "workload": workload.name, "seed": seed, "trace": traced_turn}
        (traced if traced_turn else reps).extend(collect(spawn(task)))

    # The two hashed runs are independent: run them side by side.
    fast, reference = collect(*(
        spawn({"kind": "digest", "workload": workload.name, "seed": seed, "engine": engine})
        for engine in ("fast", "fast-reference")
    ))

    counters = [(r["events"], r["queries"], r["hits"]) for r in reps + traced]
    result.attempted += len(counters) + 1
    differing = sum(1 for c in counters if c != counters[0])
    result.failed += differing
    result.check(differing == 0, f"outcome counters differ between repetitions: {counters}")
    same = fast["digest"] == reference["digest"]
    result.check(same, f"digest fast {fast['digest']} != fast-reference {reference['digest']}")
    result.failed += 0 if same else 1
    events, queries, hits = counters[0]
    result.note(f"counters per run: {events} events, {queries} queries, {hits} hits")
    for key in ("setup_s", "run_s", "wall_setup_s", "wall_run_s", "slowdown"):
        result.note(f"{key} per repetition: " + " ".join(f"{r[key]:.3f}" for r in reps))
    result.note(
        f"digest fast == fast-reference over {workload.digest_horizon / 3600:g} simulated h: "
        f"{'yes' if same else 'NO'} ({fast['digest'][:16]})"
    )

    def median(key: str) -> float:
        return statistics.median(r[key] for r in reps)

    if trace:
        for name in traced[0]["layers"]:
            result.layer(name, statistics.median(t["layers"][name] for t in traced), len(traced))
        # Each traced repetition directly follows an untraced one; pairing
        # them keeps slow drifts of the host out of the difference.
        result.layer(
            "trace.overhead_s",
            statistics.median(
                (t["setup_s"] + t["run_s"]) - (r["setup_s"] + r["run_s"])
                for r, t in zip(reps, traced)
            ),
            len(traced),
        )
        return
    result.metric("setup_s", median("setup_s"), len(reps))
    run_s = median("run_s")
    result.metric("run_s", run_s, len(reps))
    result.metric("events_per_s", events / run_s, len(reps))
    result.metric("peak_rss_mb", median("peak_rss_mb"), len(reps))
