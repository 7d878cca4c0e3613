"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions at each layer boundary of
``repro`` (named after its modules) with a span recorder, without changing
anything under ``src/repro``. Each span adds its wall time to its name's
inclusive total and to its parent's child time, so a layer's self time is
its inclusive time minus the time its child spans cover. Spans are folded
into per-name totals in memory and read out once when the process ends.

Only traced runs call :func:`install`; end-to-end numbers come from runs
that never do.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable


class SpanTotals:
    """Per-name call counts, inclusive and self seconds, and outcome counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: Counts read from return values at the boundary (messages, hits,
        #: links formed, kernel events).
        self.counts: dict[str, float] = {}
        self._child: list[float] = []

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        on_result: Callable[["SpanTotals", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``func`` with a span named ``name`` recorded around every call."""
        calls, inclusive, self_time, stack = (
            self.calls, self.inclusive, self.self_time, self._child,
        )
        clock = time.perf_counter
        calls.setdefault(name, 0)
        inclusive.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return spanned

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class GcPauses:
    """Collector pauses observed through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def install(self) -> None:
        gc.callbacks.append(self)

    def metrics(self) -> dict[str, float]:
        return {
            "gc.gen2_collections": float(self.gen2_collections),
            "gc.pause_s": self.pause_s,
            "gc.max_pause_ms": self.max_pause_s * 1e3,
        }


def _patch(owner: Any, attr: str, spans: SpanTotals, name: str, on_result=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(spans.wrap(name, raw.__func__, on_result)))
    else:
        setattr(owner, attr, spans.wrap(name, raw, on_result))


def _on_search(spans: SpanTotals, args: tuple, outcome: Any) -> None:
    spans.add("messages", outcome.messages)
    spans.add("hits", 1 if outcome.results else 0)


def _on_fill(spans: SpanTotals, args: tuple, formed: int) -> None:
    spans.add("links_formed", formed)


def _on_reconfigure(spans: SpanTotals, args: tuple, adopted: int) -> None:
    spans.add("reconfigure_adopted", 1 if adopted else 0)


def install() -> SpanTotals:
    """Wrap every traced layer boundary; returns the totals they feed."""
    import repro.gnutella.fast as fast_module
    from repro.core.fastpath import FloodFastPath, HolderIndex
    from repro.core.soa import PeerArrays
    from repro.gnutella.bootstrap import BootstrapServer
    from repro.gnutella.protocol import GnutellaProtocol
    from repro.net.bandwidth import BandwidthModel
    from repro.net.latency import LatencyModel
    from repro.sim.kernel import Simulator
    from repro.workload.churn import SessionSchedule
    from repro.workload.queries import QueryModel

    spans = SpanTotals()
    # The engine imports generate_libraries by name, so patch its binding.
    _patch(fast_module, "generate_libraries", spans, "workload.libraries")
    _patch(SessionSchedule, "generate", spans, "workload.churn_schedules")
    _patch(QueryModel, "sample_item", spans, "workload.sample_item")
    _patch(QueryModel, "next_interarrival", spans, "workload.next_interarrival")
    _patch(BandwidthModel, "__init__", spans, "net.bandwidth")
    _patch(LatencyModel, "delay_rows", spans, "net.delay_rows")
    _patch(HolderIndex, "__init__", spans, "fastpath.holder_index")
    _patch(FloodFastPath, "search", spans, "fastpath.search", _on_search)
    _patch(PeerArrays, "__init__", spans, "soa.peer_arrays")
    _patch(PeerArrays, "peers", spans, "soa.peer_arrays")
    _patch(GnutellaProtocol, "fill_random", spans, "protocol.fill_random", _on_fill)
    _patch(BootstrapServer, "sample", spans, "bootstrap.sample")
    _patch(GnutellaProtocol, "reconfigure", spans, "protocol.reconfigure", _on_reconfigure)
    _patch(GnutellaProtocol, "sever_all", spans, "protocol.sever_all")

    run = Simulator.run

    def counted_run(sim: Any, *args: Any, **kwargs: Any) -> None:
        before = sim.events_executed
        try:
            run(sim, *args, **kwargs)
        finally:
            spans.add("kernel_events", sim.events_executed - before)

    Simulator.run = spans.wrap("kernel.run", counted_run)  # type: ignore[method-assign]
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanTotals) -> dict[str, float]:
    """The per-layer metrics of one traced process, by benchmark name."""
    calls, inc, own, counts = spans.calls, spans.inclusive, spans.self_time, spans.counts
    return {
        "workload.libraries_s": inc["workload.libraries"],
        "workload.churn_schedules_s": inc["workload.churn_schedules"],
        "workload.sample_item_calls": float(calls["workload.sample_item"]),
        "workload.sample_item_s": inc["workload.sample_item"],
        "workload.next_interarrival_s": inc["workload.next_interarrival"],
        "net.bandwidth_s": inc["net.bandwidth"],
        "net.delay_rows_s": inc["net.delay_rows"],
        "fastpath.holder_index_s": inc["fastpath.holder_index"],
        "fastpath.search_calls": float(calls["fastpath.search"]),
        "fastpath.search_s": inc["fastpath.search"],
        "fastpath.messages_per_query": _ratio(
            counts.get("messages", 0.0), calls["fastpath.search"]
        ),
        "fastpath.hit_ratio": _ratio(counts.get("hits", 0.0), calls["fastpath.search"]),
        "soa.peer_arrays_s": inc["soa.peer_arrays"],
        "protocol.fill_random_calls": float(calls["protocol.fill_random"]),
        "protocol.fill_random_self_s": own["protocol.fill_random"],
        "protocol.links_per_fill": _ratio(
            counts.get("links_formed", 0.0), calls["protocol.fill_random"]
        ),
        "bootstrap.sample_calls": float(calls["bootstrap.sample"]),
        "bootstrap.sample_s": inc["bootstrap.sample"],
        "protocol.reconfigure_calls": float(calls["protocol.reconfigure"]),
        "protocol.reconfigure_s": inc["protocol.reconfigure"],
        "protocol.reconfigure_adopt_ratio": _ratio(
            counts.get("reconfigure_adopted", 0.0), calls["protocol.reconfigure"]
        ),
        "protocol.sever_all_s": inc["protocol.sever_all"],
        "kernel.events": counts.get("kernel_events", 0.0),
        "kernel.self_s": own["kernel.run"],
    }
