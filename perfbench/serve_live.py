"""The ``serve-live`` workload: a launched server, open-loop load, an oracle.

Each invocation launches the benchmark's server (``worker.py serve``) in
its own process and drives it from this one:

1. a fixed-rate trial (``serve_p50_ms``, ``serve_p99_ms``, the ``serve.*``
   layer numbers) on a first launch;
2. a bisection of a pinned ladder of offered rates (``serve_capacity_rps``)
   on a second launch, so a saturated rung cannot disturb the fixed trial
   and every invocation measures setup twice;
3. the served-result oracle: an engine built from the same config in a
   fresh process (``worker.py oracle``) replays a hash-selected subset of
   the fixed trial's replies at their reply ``sim_time`` and must reproduce
   ``results``, ``messages`` and ``nodes_contacted`` exactly;
4. ``span_reps`` timed simulations of the served span, each in a fresh
   process serving nothing (``worker.py rep``): their median time at the
   reference host speed is this workload's ``run_s``, and each must count
   the oracle's events.

A traced invocation replaces the ladder with a traced launch running the
same fixed trial, and reports the traced-minus-untraced difference.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

from perfbench import hostspeed, openloop, sims, workloads
from perfbench.report import Result, percentile

WORKER = Path(__file__).resolve().with_name("worker.py")

#: Longest wait for a launched server to accept queries.
LAUNCH_TIMEOUT_S = 60.0

#: Longest the oracle's build, replay and comparison may take.
ORACLE_TIMEOUT_S = 120.0


class ServerProcess:
    """One launched server; ``setup_s`` runs from launch to accepting.

    It is rescaled to the reference host speed by the slowdown the server
    process measured while it set up (:mod:`perfbench.hostspeed`).
    """

    def __init__(self, seed: int, trace: bool) -> None:
        task = {"kind": "serve", "seed": seed, "trace": trace}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(task)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            ready = self._read_line(LAUNCH_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        wall_s = time.perf_counter() - t0
        self.setup_s = wall_s / ready["slowdown"] ** hostspeed.EXPONENT
        self.host, self.port = ready["host"], ready["port"]

    def _read_line(self, timeout: float) -> dict:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError(f"server gave no output within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> dict:
        """Close standard input (graceful drain) and read the final report."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.close()
            report = self._read_line(30.0)
            self.proc.wait(timeout=30.0)
        finally:
            self.kill()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _connections() -> int:
    """Client connections: the workload's count, but no more than the cores."""
    return min(workloads.SERVE_LIVE.connections, os.cpu_count() or 1)


def _keep(seed: int, i: int, every: int) -> bool:
    return zlib.crc32(b"%d:%d" % (seed, i)) % every == 0


def _fixed_trial(server: ServerProcess, items: list[int], keep: set[int]) -> tuple:
    w = workloads.SERVE_LIVE

    async def drive():
        trial = await openloop.run_trial(
            server.host, server.port, items, w.fixed_rate, _connections(), w.timeout_ms,
            keep=keep,
        )
        stats = await openloop.request_stats(server.host, server.port)
        return trial, stats

    return asyncio.run(drive())


def _ladder(server: ServerProcess, items: list[int]) -> tuple[float, list[tuple]]:
    """Bisect the pinned ladder for the highest rate that meets every limit.

    Assumes a rung passes whenever a higher one does, so about log2 of the
    ladder's length trials decide it. Returns 0 when no rung passes.
    """
    w = workloads.SERVE_LIVE
    passed, failed_at = -1, len(w.ladder)
    rungs = []
    first_id = 0
    while failed_at - passed > 1:
        mid = (passed + failed_at) // 2
        rate = w.ladder[mid]
        n = int(rate * w.ladder_seconds)
        trial = asyncio.run(
            openloop.run_trial(
                server.host, server.port, items[:n], rate, _connections(), w.timeout_ms,
                first_id=first_id,
            )
        )
        first_id += n
        p99 = percentile(trial.latencies_ms(), 0.99)
        backlog = trial.backlog()
        ok = (
            p99 <= w.p99_limit_ms
            and trial.failed <= w.max_failed_share * n
            and backlog <= rate * w.p99_limit_ms / 1e3
        )
        rungs.append((rate, p99, trial.failed, backlog, ok))
        if ok:
            passed = mid
        else:
            failed_at = mid
    return (w.ladder[passed] if passed >= 0 else 0.0), rungs


def _span_end(trial_s: float) -> float:
    """End of the served span: ``warmup + (trial_s + 2 s) x time_rate``.

    Every reply of the fixed trial comes within its deadline plus a grace
    period of the trial's end, so the span covers them all.
    """
    w = workloads.SERVE_LIVE
    span_end = w.serve["warmup_sim_s"] + (trial_s + 2.0) * w.serve["time_rate"]
    if span_end >= w.world["horizon"]:
        # Past the horizon the world freezes and the trial stops measuring
        # writes beside reads.
        raise SystemExit(f"serve-live: the served span ({span_end:.0f} s) outlasts the horizon")
    return span_end


def _oracle(seed: int, trial: openloop.Trial, keep: set[int], span_end: float) -> tuple:
    """Replay kept replies in a fresh process; returns (checked, mismatches, events)."""
    replays = sorted(
        [
            trial.replies[i]["sim_time"], trial.replies[i]["node"], trial.items[i],
            trial.replies[i]["results"], trial.replies[i]["messages"],
            trial.replies[i]["nodes_contacted"], sorted(trial.kept_results.get(i, [])),
        ]
        for i in keep
        if trial.status[i] == "ok"
    )
    task = {"kind": "oracle", "seed": seed, "span_end": span_end}
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(task)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        out = proc.communicate(json.dumps(replays).encode(), timeout=ORACLE_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"oracle worker exited with code {proc.returncode}")
    done = json.loads(out.splitlines()[-1])
    return len(replays), done["mismatches"], done["events"]


def _layer_numbers(trial: openloop.Trial, stats: dict) -> dict[str, float]:
    """The ``serve.*`` per-layer metrics of one fixed trial."""
    order = sorted(trial.replies, key=lambda i: trial.done[i])
    queue = [trial.replies[i]["queue_ms"] for i in order]
    service = [trial.replies[i]["latency_ms"] for i in order]
    client = [
        (trial.done[i] - trial.sent[i]) * 1e3 - trial.replies[i]["queue_ms"]
        - trial.replies[i]["latency_ms"]
        for i in order
    ]
    sim_times = [trial.replies[i]["sim_time"] for i in order]
    advanced = sum(1 for a, b in zip(sim_times, sim_times[1:]) if b > a)
    wall = trial.done[order[-1]] - trial.done[order[0]]
    late = [(s - d) * 1e3 for s, d in zip(trial.sent, trial.due)]
    counts = stats["counts"]
    return {
        "serve.queue_ms_p99": percentile(queue, 0.99),
        "serve.service_ms_p50": percentile(service, 0.5),
        "serve.service_ms_p99": percentile(service, 0.99),
        "serve.client_ms_p50": percentile(client, 0.5),
        "serve.advance_share": advanced / max(len(order) - 1, 1),
        "serve.sim_rate": (sim_times[-1] - sim_times[0]) / wall if wall > 0 else 0.0,
        "serve.gen_late_ms_p99": percentile(late, 0.99),
        "serve.overload": float(counts["overload"]),
        "serve.timeouts": float(counts["timeout"]),
    }


def run(seed: int, trace: bool, result: Result) -> None:
    """Run the workload once, filling ``result``. See the module docstring."""
    w = workloads.SERVE_LIVE
    fixed_n = int(w.fixed_rate * w.fixed_seconds)
    items = workloads.query_mix(w.world, w.query_theta, seed, fixed_n)
    keep = {i for i in range(fixed_n) if _keep(seed, i, w.oracle_every)}

    first = ServerProcess(seed, trace=False)
    try:
        trial, stats = _fixed_trial(first, items, keep)
    finally:
        report = first.stop()
    setups = [first.setup_s]
    rss = [report["peak_rss_mb"]]
    lat = trial.latencies_ms()
    result.attempted += fixed_n
    result.failed += trial.failed

    if trace:
        traced = ServerProcess(seed, trace=True)
        try:
            traced_trial, traced_stats = _fixed_trial(traced, items, keep)
        finally:
            traced_report = traced.stop()
        result.attempted += fixed_n
        result.failed += traced_trial.failed
        # Server busy time on the same requests, traced and not: only those
        # answered in both trials, so a refused request shortens neither sum.
        both = trial.replies.keys() & traced_trial.replies.keys()
        busy = sum(trial.replies[i]["latency_ms"] for i in both) / 1e3
        traced_busy = sum(traced_trial.replies[i]["latency_ms"] for i in both) / 1e3
        oracle_trial = traced_trial
        layer = {
            **traced_report["layers"],
            **_layer_numbers(traced_trial, traced_stats),
            "trace.overhead_s": traced_busy - busy,
        }
    else:
        second = ServerProcess(seed, trace=False)
        try:
            capacity, rungs = _ladder(second, workloads.query_mix(
                w.world, w.query_theta, seed + 1, int(max(w.ladder) * w.ladder_seconds)
            ))
        finally:
            second_report = second.stop()
        setups.append(second.setup_s)
        rss.append(second_report["peak_rss_mb"])
        for rate, p99, failed, backlog, ok in rungs:
            result.note(
                f"ladder {rate:6.0f} req/s: p99 {p99:8.2f} ms, failed {failed}, "
                f"backlog {backlog} -> {'pass' if ok else 'FAIL'}"
            )
        oracle_trial = trial

    span_end = _span_end(w.fixed_seconds)
    checked, mismatches, oracle_events = _oracle(seed, oracle_trial, keep, span_end)
    result.attempted += checked
    result.failed += mismatches
    result.check(mismatches == 0, f"served-result oracle: {mismatches} of {checked} replays differ")
    result.note(f"oracle replayed {checked} served queries, {mismatches} mismatches")

    if trace:
        layer["serve.oracle_mismatches"] = float(mismatches)
        for name, value in layer.items():
            result.layer(name, value)
        return
    # The served span, simulated without serving, in fresh processes.
    reps = [
        sims.collect(sims.spawn(
            {"kind": "rep", "workload": w.name, "seed": seed, "trace": False, "until": span_end}
        ))[0]
        for _ in range(w.span_reps)
    ]
    events = [r["events"] for r in reps]
    result.attempted += len(reps)
    differing = sum(1 for e in events if e != oracle_events)
    result.failed += differing
    result.check(
        differing == 0,
        f"served-span events differ: oracle {oracle_events}, timed repetitions {events}",
    )
    for key in ("run_s", "wall_run_s", "slowdown"):
        result.note(f"{key} per repetition: " + " ".join(f"{r[key]:.3f}" for r in reps))
    result.note("setup_s per launch: " + " ".join(f"{s:.3f}" for s in setups))
    result.metric("setup_s", statistics.median(setups), len(setups))
    run_s = statistics.median(r["run_s"] for r in reps)
    result.metric("run_s", run_s, len(reps))
    result.metric("events_per_s", oracle_events / run_s, len(reps))
    result.metric("peak_rss_mb", statistics.median(rss), len(rss))
    result.metric("serve_p50_ms", percentile(lat, 0.5), len(lat), samples=lat)
    result.metric("serve_p99_ms", percentile(lat, 0.99), len(lat), samples=lat)
    result.metric("serve_capacity_rps", capacity, len(rungs))
