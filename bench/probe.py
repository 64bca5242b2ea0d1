"""Host-speed probe: a fixed pure-Python kernel, timed beside every query.

The benchmark's reference host (a 2-vCPU VM on a shared machine) runs the
same Python code up to 75 % slower for seconds to minutes at a time, on
each core independently; a whole 35 s run can fall into a slow phase.  The
kernel below does the same kind of work cartierv does (dicts keyed by
exponent tuples, small-integer arithmetic mod p) and never calls cartierv,
so a change to the program cannot change its time.  The worker probes
before and after each query and, from a timer signal, every TICK_S while
it runs; the runner scales each measured time by REF_PROBE_S over the mean
of the probes taken with it, on the same core: the result is the time the
program would have taken on a core that runs the kernel in REF_PROBE_S.
"""

from __future__ import annotations

import signal
import time

# The kernel's time on the reference host's cores in their fast phase
# (Python 3.11).  Only a scale: every run of every commit uses the same.
REF_PROBE_S = 0.0025


def _kernel() -> dict:
    a = {(i, j): (7 * i + j) % 101 for i in range(6) for j in range(6)}
    out: dict = {}
    for _ in range(8):
        out.clear()
        for (i, j), c in a.items():
            for (k, m), d in a.items():
                key = (i + k, j + m)
                out[key] = (out.get(key, 0) + c * d) % 101
    return out


def probe() -> float:
    """Seconds the kernel takes now, on this core."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` measured while `probes` were taken, at reference speed."""
    return seconds * REF_PROBE_S * len(probes) / sum(probes)


class Ticker:
    """Probes every TICK_S while a long query runs, from a timer signal, so
    that a change of phase in the middle of the query is seen too.  The
    probes' own time is kept in `paused`, for the caller to subtract."""

    TICK_S = 0.1

    def __init__(self):
        self.probes: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.paused += time.perf_counter() - start

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
