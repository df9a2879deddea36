"""Host-speed probe: a frozen, fixed amount of interpreter work.

The benchmark's host is shared, and its speed drifts by tens of percent
within a minute.  Every timed chunk of work is therefore paired with
this probe, run right before and right after it while the program is
idle, and the chunk's time is rescaled to "seconds at reference host
speed": ``scaled = raw * (REFERENCE_MS / probe_ms) ** SENSITIVITY``.

The probe is a plain Python loop.  Over five minutes of alternating
probes and chunks on a 2-vCPU host, the loop tracked the drift of both
the small-request and the large 3D workload best: scaling by it cut the
spread of 10-second windows from 14 % to 3 % (small-serial) and from
11 % to 2.4 % (large-solve).  An in-cache array copy, tried beside it,
tracked the 3D workload poorly and made the scaled spread worse, so
the probe has none.

Under the contention seen there, the workloads slow down more than the
loop does, so the ratio enters with the exponent ``SENSITIVITY``.  In
eight interleaved run pairs per workload it cut the inter-quartile
spread of throughput from 5.9 % to 2.8 % (small-serial) and from 7.2 %
to 3.5 % (burst-mixed) against an exponent of 1; 1.5 was worse on
small-serial.

Frozen on purpose: changing the loop or a constant changes every
scaled number, so a change here is a change of the benchmark, never of
the program.  The probe imports nothing from the program under test,
so no program change can move it; ``bench.calib_ms`` records its median
so a change that perturbs it anyway (for example by leaving a thread
spinning) stays visible.
"""

from __future__ import annotations

import statistics
import time

#: Probe time, in ms, that defines the reference host speed.
REFERENCE_MS = 3.5
#: How much more than the probe the workloads slow down under contention.
SENSITIVITY = 1.25

_LOOP_ITERS = 40_000
_REPEATS = 3


def _once() -> None:
    acc = 0
    for i in range(_LOOP_ITERS):
        acc = (acc + i * 7) % 1_000_003
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)


def measure() -> tuple[float, float]:
    """Run the probe; return ``(ms, busy_ratio)``.

    ``ms`` is the median wall time of three repeats.  ``busy_ratio`` is
    the process CPU time over the wall time of all repeats: above 1, a
    thread of the program was running during the probe, which would
    slow the probe and flatter every scaled number.
    """
    times = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _once()
        times.append(time.perf_counter() - t0)
    busy = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    return statistics.median(times) * 1e3, busy


def scale(a_ms: float, b_ms: float) -> float:
    """Factor that turns raw seconds between two probes into reference seconds."""
    return (REFERENCE_MS / ((a_ms + b_ms) / 2.0)) ** SENSITIVITY
