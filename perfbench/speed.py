"""CPU-speed probe: report times at a fixed reference speed.

On the shared 2-vCPU Xeon host this benchmark was tuned on, the same
computation runs up to twice as slow for stretches of several seconds.
Process CPU time grows just like wall time. Steal time stays near zero, and
pinning to either CPU changes nothing. A 25 s run therefore catches a random
mix of fast and slow stretches. Across seeds, the raw medians spread by
13–27% (interquartile range over median, ten runs).

The slowdown hits Python and numpy compute alike, so a fixed pure-Python
kernel timed between ops tracks it. ``normalise`` scales each op's wall time
by REFERENCE_S over the probe time measured around that op. The result is
the op's time at the speed where the probe takes REFERENCE_S, which is this
host's fast state. This cut the spread to 1–10%. Process start-up has slow
stretches of its own that this probe misses. A bare interpreter start
follows them, so set-up times are scaled the same way, with that start as
their probe and REFERENCE_START_S as its reference. Raw times are printed
and recorded next to the normalised ones.
"""

from __future__ import annotations

import statistics
import time

#: Probe time at the reference speed (the host's fast state; its slow state
#: reads about 0.009 s).
REFERENCE_S = 0.006
#: Wall time of a bare interpreter start (``python3 -c pass``) at the
#: reference speed; the probe for set-up times.  Its slow state reads about
#: 0.058 s.
REFERENCE_START_S = 0.036
#: Ops on each side whose probes are pooled for one op's speed estimate.
HALF_WINDOW = 2


def probe() -> float:
    """Time a fixed pure-Python kernel (about 6 ms at the reference speed)."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def normalise(times: list[float], probes: list[float], reference: float = REFERENCE_S) -> list[float]:
    """Scale times[i] to the speed at which a probe takes ``reference``.

    ``probes`` has one more entry than ``times``: probes[i] ran just before
    times[i] and probes[i + 1] just after.  Each op's speed is the median of
    the probe pairs of the op and its HALF_WINDOW neighbours on each side.
    """
    around = [(probes[i] + probes[i + 1]) / 2 for i in range(len(times))]
    out = []
    for i, t in enumerate(times):
        window = around[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        out.append(t * reference / statistics.median(window))
    return out
