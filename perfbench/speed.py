"""Host-speed probes, so that timings taken at different host speeds compare.

The shared 2-vCPU virtual machine this benchmark was built on runs the same
code at speeds up to ~1.7x apart, switching every few seconds to every few
tens of seconds and drifting over minutes; CPU time tracks wall time, so the
slowdown is not stolen time a clock could leave out.  A run's plain median
then moves with the share of the run the host spent slow, and ten runs of
one program spread by 0.1-0.4 of their median.

A :class:`Speed` times a fixed reference workload (:func:`probe_work`: a
pure-Python loop, a small in-cache NumPy xor/popcount/sort and a gather from
an 8 MB array, ~3.5 ms) at most every :data:`PROBE_EVERY` seconds, between
the measured operations and outside their timings.  :meth:`Speed.scale`
restates a measured duration at the speed where that probe takes
:data:`NOMINAL_PROBE_S`: ``seconds * NOMINAL_PROBE_S / p``, with ``p`` the
median of the probes taken within :data:`NEIGHBOURHOOD_S` of the
operation (at least the nearest :data:`MIN_PROBES`).  Over one minute of
ingest steps, window medians of the step time varied by sd 0.18 (log) and
the step time over the probe by 0.07; the probe tracked the step time with
correlation 0.93.  A change to the program moves the scaled value as it
moves the plain one: the probe runs none of the program's code.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Least seconds between two probes.
PROBE_EVERY = 0.1
#: Probe duration the scaled timings are stated at (the probe's usual
#: duration on the machine above when it ran fast).
NOMINAL_PROBE_S = 3.0e-3
#: Probes within this many seconds of an operation's midpoint set its scale.
NEIGHBOURHOOD_S = 1.0
MIN_PROBES = 3

_rng = np.random.default_rng(0)
_SMALL = _rng.integers(0, 2**63, 1 << 16, dtype=np.uint64)
_LARGE = _rng.integers(0, 2**63, 1 << 20, dtype=np.uint64)
_GATHER = _rng.integers(0, 1 << 20, 1 << 16)


def probe_work() -> None:
    """The fixed reference workload."""
    total = 0
    for value in range(20_000):
        total += value * value
    int(np.bitwise_count(np.bitwise_xor(_SMALL, _SMALL[::-1])).sum())
    np.sort(_SMALL[:20_000])
    int(np.bitwise_count(_LARGE[_GATHER]).sum())
    np.bitwise_xor(_LARGE[: 1 << 18], _LARGE[1 << 18 : 1 << 19]).sum()


class Speed:
    """Probes of one process, as ``(midpoint, seconds)`` in time order."""

    def __init__(self, probes: list | None = None) -> None:
        self.probes: list[tuple[float, float]] = [tuple(p) for p in probes or []]
        self._last = self.probes[-1][0] if self.probes else float("-inf")

    def probe(self) -> None:
        """Time the reference workload, unless the last probe is recent."""
        started = time.perf_counter()
        if started - self._last < PROBE_EVERY:
            return
        probe_work()
        seconds = time.perf_counter() - started
        self._last = started + seconds / 2
        self.probes.append((self._last, seconds))

    def scale(self, started: float, seconds: float) -> float:
        """``seconds`` of an operation begun at ``started``, at nominal speed."""
        if not self.probes:
            raise RuntimeError("no host-speed probe was taken")
        middle = started + seconds / 2
        times = [t for t, _ in self.probes]
        low = bisect.bisect_left(times, middle - NEIGHBOURHOOD_S)
        high = bisect.bisect_right(times, middle + NEIGHBOURHOOD_S)
        if high - low < MIN_PROBES:
            nearest = sorted(range(len(times)), key=lambda i: abs(times[i] - middle))
            window = [self.probes[i][1] for i in nearest[:MIN_PROBES]]
        else:
            window = [s for _, s in self.probes[low:high]]
        return seconds * NOMINAL_PROBE_S / statistics.median(window)

    def median_probe_ms(self) -> float:
        return statistics.median(s for _, s in self.probes) * 1e3
