"""Ways around other tenants of a shared host.

On a shared host each vCPU runs interpreter-bound code up to about twice as
slow, for seconds to minutes at a time, while another tenant loads the
physical core under it, and the vCPUs of one machine slow down independently
of each other.  Two things keep that out of the benchmark's times:

- ``pin_quietest`` times a short pure-Python loop on each allowed CPU and
  pins the calling process to the fastest, so the op that follows runs
  where no other tenant is slowing it, and on the same CPU as the reference
  kernel timed around it.
- ``reference_seconds`` times a fixed numpy kernel.  run.py scales each
  op's time by ``REFERENCE_S`` over the reference time taken around it, so
  a stretch in which the host runs everything slower drops out, and
  reports the median of the scaled times.

Neither uses any part of lindtherm, so a change to the program changes
neither which CPU is picked nor the reference time.
"""

from __future__ import annotations

import os
import time

# one probe takes about 0.3 ms on the machine described in README.md
PROBE_ITERS = 3000
PROBE_REPEATS = 3
REFERENCE_ITERS = 200
# the reference kernel's time on an uncontended vCPU of that machine; times
# scaled by it read as seconds on that vCPU
REFERENCE_S = 0.004


def allowed_cpus() -> list:
    return sorted(os.sched_getaffinity(0))


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i % 7
    return time.perf_counter() - start


def pin_quietest(cpus: list) -> int:
    """Pin the calling process to whichever of ``cpus`` probes fastest."""
    best, best_time = cpus[0], float("inf")
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(_probe() for _ in range(PROBE_REPEATS))
        if t < best_time:
            best, best_time = cpu, t
    os.sched_setaffinity(0, {best})
    return best


def reference_seconds() -> float:
    """Time of one run of a fixed numpy kernel on this CPU, in seconds.

    Small-array numpy calls in a Python loop, the kind of code that slows
    down most when the host is loaded.  Tried against kernels with dense
    eigensolves, alone or added, it tracked the slow stretches of all four
    workloads about as well as the best of them (README.md).
    """
    import numpy as np

    small = np.arange(9.0).reshape(3, 3) / 9.0
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_ITERS):
        k = np.kron(small, small)
        acc += float((k @ k).trace())
    return time.perf_counter() - start
