"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on the 2-vCPU
host it was written on, a fixed pure-Python loop took 20 to 33 ms from one
two-second window to the next (interquartile range about a quarter of the
median), with no CPU steal to account for it.  Campaign times drift with
it, so raw medians of runs a minute apart disagree by more than any useful
regression bound.

Before every set-up and every timed campaign the benchmark therefore times
a fixed reference job on each CPU the process may run on (one CPU for the
serial workloads, which are pinned to it).  The *slowdown* is that time
over :data:`REFERENCE_JOB_S`; each wall clock is divided by the slowdown
measured just before it, and the run reports the median, which gives the
timing at the reference host speed.  The job uses only builtins, so no
change to the library can change its cost; the raw timings stay in the
run's detail record.
"""

from __future__ import annotations

import os
import time
from typing import Dict

#: The reference job's time on the host the benchmark was written on when
#: that host was quiet (about its 10th percentile).
REFERENCE_JOB_S = 0.004

_TABLE: Dict[int, float] = {index: float(index) for index in range(64)}


def reference_job() -> float:
    """A fixed interpreter-bound loop: dict reads, float and int
    arithmetic, and no allocation that could start a garbage collection."""
    table = _TABLE
    total = 0.0
    for index in range(40000):
        total += table[index & 63] * 0.5 + (index % 7)
    return total


def calibrate() -> float:
    """Seconds the reference job takes now, averaged over the CPUs this
    process may run on (pool workers run on all of them)."""
    if not hasattr(os, "sched_setaffinity"):
        started = time.perf_counter()
        reference_job()
        return time.perf_counter() - started
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            reference_job()
            times.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def slowdown(calibration_s: float) -> float:
    """How much slower than the reference speed the host ran."""
    return calibration_s / REFERENCE_JOB_S
