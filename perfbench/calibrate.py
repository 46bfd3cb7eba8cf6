"""Host speed calibration: a fixed kernel timed around every timed piece of work.

On a shared host the speed of the processor drifts: a fixed kernel ran at
about 4.3, 6.0 and 7.3 ms in spells lasting from seconds to minutes on the
2-vCPU Xeon this benchmark was written on, and a numpy kernel followed the
same spells (correlation 0.93 over 3 s blocks).  That drift is common to
all code on the host and is larger than the changes the benchmark must
resolve, so end-to-end timings are reported in reference seconds:

    reported = raw seconds * (REFERENCE_S / kernel seconds around it) ** ELASTICITY

Operations slow by less than the kernel: the least-squares slope of log
operation time on log kernel time was 0.55 to 0.81 for the cli commands
and 0.29 to 0.79 for the certify operations (82 and 36 samples), lowest
for the long BLAS-bound ones, partly because two short kernel samples
only estimate the speed over a long operation.  Full scaling
(ELASTICITY = 1) over-corrects those operations and widened their
run-to-run spread; 0.6 narrowed every workload's.

The kernel is benchmark code and calls nothing of pulseforge, so a change
to pulseforge moves the raw seconds and not the kernel, and shows in full.
The raw seconds are printed and recorded beside the reported ones.

Standard library only: run.py uses it for the set-up probes.
"""

from __future__ import annotations

import math
import time

# the kernel's time in the fastest spell of the 2-vCPU Xeon (one CPython 3.11
# thread); it only fixes the scale of the reported seconds
REFERENCE_S = 0.004
ELASTICITY = 0.6
REPEATS = 3


def _kernel() -> int:
    """Dictionary, integer and call work, as interpreted code does."""
    table = {}
    total = 0
    for i in range(30000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += (i * 31) % 7
    return total + min(table.values())


def sample() -> float:
    """Seconds the kernel takes now: the best of REPEATS runs, so that a
    momentary hiccup does not count as a change of the host's speed."""
    best = math.inf
    for _ in range(REPEATS):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for work between two samples."""
    return (2 * REFERENCE_S / (before + after)) ** ELASTICITY
