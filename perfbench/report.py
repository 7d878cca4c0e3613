"""Result collection and printing for one benchmark invocation."""

from __future__ import annotations

import json
import math
import os
import platform
import sys

#: Percentiles offered for the tail column, highest last.
TAIL_PERCENTILES = (0.9, 0.99, 0.999)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the samples at or below."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(q, value)`` of the highest percentile with at least 10 samples beyond it."""
    best = None
    for q in TAIL_PERCENTILES:
        if len(values) - math.ceil(q * len(values)) >= 10:
            best = (q, percentile(values, q))
    return best


def host() -> str:
    """Host provenance: cores, CPU model and Python version."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


class Result:
    """Metrics, counts and check outcomes of one invocation."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        #: The metrics (name -> unit) this invocation puts in its JSON line.
        self.wanted = PER_LAYER if trace else END_TO_END
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: ``name -> (value, unit, samples, tail)`` in insertion order.
        self.metrics: dict[str, tuple[float, str, int, tuple[float, float] | None]] = {}
        self.notes: list[str] = []

    def metric(
        self, name: str, value: float, count: int, samples: list[float] | None = None
    ) -> None:
        """An end-to-end metric: median (or single) value over ``count`` samples."""
        unit = self.wanted.get(name) or UNGATED[name]
        self.metrics[name] = (value, unit, count, tail(samples) if samples else None)

    def layer(self, name: str, value: float, count: int = 1) -> None:
        """A per-layer metric (median over ``count`` traced samples)."""
        self.metrics[name] = (value, self.wanted[name], count, None)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, ok: bool, failure: str) -> None:
        """Record a correctness check; a failing one makes the run incorrect."""
        if not ok:
            self.correct = False
            self.notes.append(f"CHECK FAILED: {failure}")

    def print(self) -> None:
        """The human-readable table, then the one-line JSON result last.

        Every metric of the invocation's kind is printed: a per-layer metric
        no layer of this workload produced reads 0. Ungated metrics are in
        the table only.
        """
        missing = [name for name in self.wanted if name not in self.metrics]
        if self.trace:
            for name in missing:
                self.layer(name, 0.0, 0)
        elif missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        print(f"host: {host()}")
        print(f"workload {self.workload} seed {self.seed} trace {int(self.trace)}")
        for line in self.notes:
            print(f"  {line}")
        for name, (value, unit, count, tail_) in self.metrics.items():
            extra = ""
            if tail_ is not None:
                extra = f"  p{tail_[0] * 100:g}={_finite(tail_[1]):.4g}"
            if name in UNGATED:
                extra += "  (not gated)"
            print(f"  {name:34s} {_finite(value):14.6g} {unit:10s} n={count}{extra}")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": _finite(value), "unit": unit}
                        for name, (value, unit, _, _) in self.metrics.items()
                        if name in self.wanted
                    },
                }
            ),
            flush=True,
        )


#: Stand-in for an infinite latency (a failed request) in printed output:
#: larger than any deadline the benchmark sets.
FAILED_MS = 1e6


def _finite(value: float) -> float:
    return FAILED_MS if math.isinf(value) else value


#: End-to-end metrics, the ones BENCHMARK.json lists: world construction,
#: simulation and memory, measured on every workload.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: ``serve-live``'s client-side numbers. They are printed in the table but
#: left out of the JSON line: on a shared 2-core host they do not repeat
#: closely enough to gate a change (see BASELINE.md).
UNGATED = {
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_capacity_rps": "1/s",
}

#: Per-layer metrics, printed by every traced invocation; a layer the
#: workload does not exercise (``serve.*`` on the simulations) reads 0.
PER_LAYER = {
    "workload.libraries_s": "s",
    "workload.churn_schedules_s": "s",
    "workload.sample_item_calls": "count",
    "workload.sample_item_s": "s",
    "workload.next_interarrival_s": "s",
    "net.bandwidth_s": "s",
    "net.delay_rows_s": "s",
    "fastpath.holder_index_s": "s",
    "fastpath.search_calls": "count",
    "fastpath.search_s": "s",
    "fastpath.messages_per_query": "msg/query",
    "fastpath.hit_ratio": "ratio",
    "soa.peer_arrays_s": "s",
    "protocol.fill_random_calls": "count",
    "protocol.fill_random_self_s": "s",
    "protocol.links_per_fill": "links/call",
    "bootstrap.sample_calls": "count",
    "bootstrap.sample_s": "s",
    "protocol.reconfigure_calls": "count",
    "protocol.reconfigure_s": "s",
    "protocol.reconfigure_adopt_ratio": "ratio",
    "protocol.sever_all_s": "s",
    "kernel.events": "count",
    "kernel.self_s": "s",
    "gc.gen2_collections": "count",
    "gc.pause_s": "s",
    "gc.max_pause_ms": "ms",
    "trace.overhead_s": "s",
    # The serving stages, read from reply fields, the ``stats`` op and the
    # served-result oracle.
    "serve.queue_ms_p99": "ms",
    "serve.service_ms_p50": "ms",
    "serve.service_ms_p99": "ms",
    "serve.client_ms_p50": "ms",
    "serve.advance_share": "ratio",
    "serve.sim_rate": "s/s",
    "serve.gen_late_ms_p99": "ms",
    "serve.overload": "count",
    "serve.timeouts": "count",
    "serve.oracle_mismatches": "count",
}


def fail(message: str) -> int:
    """Report a setup error on stderr; the caller exits non-zero."""
    print(f"perfbench: {message}", file=sys.stderr)
    return 2
