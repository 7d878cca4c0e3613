"""Host-speed probe: measured times rescaled to a reference host speed.

On a shared host the same repetition of a workload runs up to twice as
slow for minutes at a time. The process's CPU time grows with its wall time
through such a spell, so it is not preemption that a CPU clock would take
out: the host's cores just execute the interpreter more slowly, presumably
because other tenants share them. A change to the program cannot be told
from such a spell by its wall time alone.

:class:`Probe` samples the host's speed while the program runs. A wall-clock
interval timer interrupts the process every :data:`INTERVAL_S` and the
handler runs :func:`_work`, a fixed piece of pure-Python work, and records
how long it took. :meth:`Probe.scaled` then rescales each stretch of the
program's own time between two probes by the slowdown those probes
measured, to seconds on a host where the probe work takes
:data:`REFERENCE_S`. The probes' own time is left out. Nothing in the probe
depends on the program: it allocates no object the cyclic collector tracks
and runs with the collector off, so the program's heap cannot change what
it measures.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import time

#: Wall seconds between two probes.
INTERVAL_S = 0.05

#: Seconds :func:`_work` takes on the reference host: about its fastest
#: time on a quiet 2-core Intel Xeon VM under CPython 3.11. A scaled time is
#: the time the program would take on a host that runs the probe work this
#: fast.
REFERENCE_S = 0.002

#: How the program's time follows the probe's: it grows as the probe's
#: slowdown to this power. The probe's loop keeps its data in the fastest
#: cache, so a slow spell slows it a little more than the program, which
#: waits on memory more; dividing by the full slowdown made a repetition
#: read about 8 % fast at a slowdown of 2. The value is the fit over ten
#: repetitions of one world on the reference host (0.9 for the run, 0.7
#: for the world's setup), rounded to the run's.
EXPONENT = 0.9

#: Rounds of :func:`_work`'s loop.
_ROUNDS = 4000


def _work() -> None:
    """Fixed interpreter work: arithmetic, a small heap of floats, dict updates."""
    heap: list[float] = []
    counts: dict[int, int] = {}
    x = 12345
    for _ in range(_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x / 2147483648.0)
        key = x & 255
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)


class Probe:
    """Samples host speed on a wall-clock timer while it is started."""

    def __init__(self) -> None:
        #: ``(start, end)`` on :func:`time.perf_counter` of every probe.
        self.marks: list[tuple[float, float]] = []

    def _fire(self, signum: int, frame: object) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.marks.append((t0, t1))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        self._fire(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._fire(signal.SIGALRM, None)

    def slowdown(self, a: float, b: float) -> float:
        """Mean probe time over ``[a, b]`` as a multiple of :data:`REFERENCE_S`.

        A time taken over ``[a, b]`` is at the reference host speed once
        divided by this to the power :data:`EXPONENT`.
        """
        inside = [end - start for start, end in self.marks if a <= start and end <= b]
        return sum(inside) / len(inside) / REFERENCE_S

    def scaled(self, a: float, b: float) -> float:
        """The program's time in ``[a, b]`` (perf_counter) at the reference speed.

        The stretch between two consecutive probes is divided by the mean
        slowdown the two measured, to the power :data:`EXPONENT`; a stretch
        before the first or after the last probe by the one probe next to
        it. Probe time is not counted.
        """
        marks = self.marks
        total = 0.0
        for i in range(len(marks) + 1):
            lo = marks[i - 1][1] if i > 0 else -math.inf
            hi = marks[i][0] if i < len(marks) else math.inf
            span = min(hi, b) - max(lo, a)
            if span <= 0:
                continue
            around = [marks[j][1] - marks[j][0] for j in (i - 1, i) if 0 <= j < len(marks)]
            slowdown = sum(around) / len(around) / REFERENCE_S
            total += span / slowdown**EXPONENT
        return total
