"""Host speed probe, and host-noise diagnostics recorded with each result.

The shared host's CPU speed moves by up to 2x from one half minute to the
next, with CPU time equal to wall time and under 3% stolen ticks, so a
run's raw times follow the host more than the program.  :func:`probe_s`
times fixed kernels that belong to the benchmark, never to the program.
Every timed sample is taken between two probes and scaled by
:func:`scale`: the kernel's reference time over the mean of the two
readings, so it reads as seconds on a host that runs the kernel in its
reference time.  A change to the program moves the samples and not the
probes.

A probe times two kernels, because the slowdown is not the same for all
work.  Each metric is scaled by the kernel whose readings its raw times
followed (see perfbench/README.md): the pipeline by ``python``; reads,
writes and input generation, which slowed less, by ``zlib``.

The work being timed is pinned to one CPU and its probes run on that CPU,
so a probe always times the CPU the work ran on.
"""

import bisect
import os
import resource
import statistics
import sys
import time
import zlib

import numpy as np

#: Iterations of the ``python`` kernel (~15 ms on a 2.1 GHz Xeon).
PROBE_LOOPS = 100_000
#: What the ``zlib`` kernel compresses (64 KiB, ~8 ms at level 6).
_ZLIB_INPUT = np.random.default_rng(0).integers(
    0, 50_000, size=8192, dtype=np.int64
).tobytes()
#: Per kernel, the probe time that scaled samples are expressed at.
PROBE_REFERENCE_S = {"python": 0.015, "zlib": 0.008}


def cpus():
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu):
    """Keep the calling thread (and threads it starts later) on ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def probe_s():
    """Seconds each probe kernel takes now: ``{"python": s, "zlib": s}``."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        key = (i * 7919) % 5003
        table[key] = table.get(key, 0) + i
    middle = time.perf_counter()
    zlib.compress(_ZLIB_INPUT, 6)
    return {"python": middle - start, "zlib": time.perf_counter() - middle}


def scale(before, after, kernel="python"):
    """Factor that turns a time taken between two probes into seconds at
    the reference speed."""
    return 2.0 * PROBE_REFERENCE_S[kernel] / (before[kernel] + after[kernel])


class Probes:
    """Probe readings over a run, to scale samples by when they started.

    With ``cpu`` set, each probe runs on that CPU, whichever CPU the
    calling thread is on.
    """

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.times = []
        self.values = []

    def take(self):
        self.times.append(time.perf_counter())
        if self.cpu is None:
            self.values.append(probe_s())
            return
        previous = os.sched_getaffinity(0)
        pin(self.cpu)
        try:
            self.values.append(probe_s())
        finally:
            os.sched_setaffinity(0, previous)

    def factor(self, moment, kernel="python"):
        """:func:`scale` for a sample that started at ``moment``: the probes
        on either side of it (the nearest one at either end)."""
        i = bisect.bisect_right(self.times, moment)
        before = self.values[max(i - 1, 0)]
        after = self.values[min(i, len(self.values) - 1)]
        return scale(before, after, kernel)


def peak_rss_bytes():
    """This process's peak resident set size so far, in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def cpu_ticks():
    """``(busy, steal)`` jiffies summed over all CPUs, or ``None``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal ...
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - idle, steal


def steal_share(before, after):
    """Stolen ticks over busy ticks between two :func:`cpu_ticks` reads."""
    if before is None or after is None:
        return None
    busy = after[0] - before[0]
    return (after[1] - before[1]) / busy if busy > 0 else 0.0


def spread(values):
    """Interquartile range over the median (``None`` under 2 values)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def tail(values):
    """The 90th, 95th and 99th percentiles (``None`` under 100 values)."""
    if len(values) < 100:
        return None
    cuts = statistics.quantiles(values, n=100)
    return {"p90": cuts[89], "p95": cuts[94], "p99": cuts[98]}


def probe_summary(probes):
    """Per kernel, the median and range of a run's probe readings."""
    if not probes.values:
        return None
    summary = {"count": len(probes.values)}
    for kernel in PROBE_REFERENCE_S:
        values = [value[kernel] for value in probes.values]
        summary[kernel] = {
            "median_s": statistics.median(values),
            "min_s": min(values),
            "max_s": max(values),
        }
    return summary


def summary():
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}
