"""Open-loop load over the ``repro-serve`` wire protocol.

Requests go out on a fixed schedule whatever the server does: request
``i`` of a trial at rate ``r`` is due ``i / r`` seconds after the trial
starts. Each request is timed from when it was due, not from when it was
sent, so a server stall is charged to every request queued behind it; how
late the generator itself ran is reported separately (``send - due``).
One process drives a few connections (no more than the host's cores),
round-robin.

``repro.serve.loadgen.run_open_loop`` is deliberately not used: it starts
each request's clock at send time, which hides exactly those stalls.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Collection

#: Time the client keeps reading after the last request is due, beyond the
#: request deadline, before counting a missing reply as dropped.
GRACE_S = 0.5


@dataclass
class Trial:
    """Everything observed about one trial, indexed by request number."""

    items: list[int]
    due: list[float]
    sent: list[float]
    done: list[float]
    #: ``"ok"``, a protocol error code, or ``"missing"`` (no reply in time).
    status: list[str]
    #: Fields of each ``done`` line (ok replies only), by request number.
    replies: dict[int, dict] = field(default_factory=dict)
    #: ``(rank, responder, hops, delay_ms)`` result lines of the kept requests.
    kept_results: dict[int, list[tuple[int, int, float]]] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """When the last request was due."""
        return self.due[-1]

    def latencies_ms(self) -> list[float]:
        """Due-to-reply time per request; a failed request is infinite."""
        return [
            (d - due) * 1e3 if s == "ok" else math.inf
            for d, due, s in zip(self.done, self.due, self.status)
        ]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.status if s != "ok")

    def backlog(self) -> int:
        """Requests sent but not yet answered when the last one was due."""
        end = self.end
        return sum(
            1 for s, d in zip(self.sent, self.done) if s <= end and not d <= end
        )


async def _read_replies(
    reader: asyncio.StreamReader,
    trial: Trial,
    first_id: int,
    keep: Collection[int],
    pending: list[int],
    finished: asyncio.Event,
) -> None:
    """Record each reply line; ``pending[0]`` counts requests still open."""
    clock = time.perf_counter
    while True:
        line = await reader.readline()
        if not line:
            return
        msg = json.loads(line)
        i = msg["id"] - first_id
        kind = msg["type"]
        if kind == "result":
            if i in keep:
                trial.kept_results.setdefault(i, []).append(
                    (msg["rank"], msg["responder"], msg["hops"], msg["delay_ms"])
                )
            continue
        trial.done[i] = clock()
        if kind == "done":
            trial.status[i] = "ok"
            trial.replies[i] = msg
        else:
            trial.status[i] = msg.get("error", kind)
        pending[0] -= 1
        if pending[0] == 0:
            finished.set()


async def run_trial(
    host: str,
    port: int,
    items: list[int],
    rate: float,
    connections: int,
    timeout_ms: float,
    first_id: int = 0,
    keep: Collection[int] = (),
) -> Trial:
    """Offer ``len(items)`` queries at ``rate`` per second; collect replies.

    ``keep`` names request numbers whose individual result lines are kept
    for the served-result oracle.
    """
    n = len(items)
    streams = [
        await asyncio.open_connection(host, port, limit=1 << 20) for _ in range(connections)
    ]
    clock = time.perf_counter
    start = clock() + 0.05
    trial = Trial(
        items=list(items),
        due=[start + i / rate for i in range(n)],
        sent=[math.inf] * n,
        done=[math.inf] * n,
        status=["missing"] * n,
    )
    pending = [n]
    finished = asyncio.Event()
    readers = [
        asyncio.create_task(_read_replies(r, trial, first_id, keep, pending, finished))
        for r, _ in streams
    ]
    writers = [w for _, w in streams]
    try:
        i = 0
        while i < n:
            now = clock()
            while i < n and trial.due[i] <= now:
                writers[i % connections].write(
                    b'{"id":%d,"item":%d,"op":"query","timeout_ms":%r}\n'
                    % (first_id + i, items[i], timeout_ms)
                )
                trial.sent[i] = clock()
                i += 1
            for w in writers:
                if w.transport.get_write_buffer_size() > 1 << 16:
                    await w.drain()
            if i < n:
                await asyncio.sleep(max(0.0, trial.due[i] - clock()))
        wait = trial.end + timeout_ms / 1e3 + GRACE_S - clock()
        try:
            await asyncio.wait_for(finished.wait(), timeout=max(wait, 0.0))
        except asyncio.TimeoutError:
            pass
    finally:
        for w in writers:
            w.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for w in writers:
            try:
                await w.wait_closed()
            except ConnectionError:
                pass
    return trial


async def request_stats(host: str, port: int) -> dict:
    """One ``stats`` op: the server's own outcome counters and registry."""
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    try:
        writer.write(b'{"id":0,"op":"stats"}\n')
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()
