"""Host pace: how fast the machine runs a fixed reference kernel right now.

On a shared virtual machine the same solve can take 1.4-1.8 times as long
for minutes at a time, while other tenants load the host. A fixed kernel
timed between solves slows down with it: over four seeds of 25 s runs,
dividing by the pace cut the spread (IQR / median) of solves per second
from 0.186 to 0.017 on case-study and from 0.088 to 0.021 on hw-synthetic.

The kernel is the benchmark's own code and calls nothing in the library,
so a change to the library moves solve time but never the pace. It mixes
what the solvers spend their time on: numpy calls on short vectors and
scalar Python arithmetic. The kernel must run interleaved with the work it
paces (the benchmark runs it after every solve): sampled only after a round
of several seconds, it missed most of the round's slow spells. ``pace()``
is the kernel's mean time divided by ``NOMINAL_S``, about its time on an
unloaded 2-vCPU VM (Intel Xeon, Python 3.11, numpy 2.4); a solve time
divided by the pace of its round is what it would have taken there.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

NOMINAL_S = 1.0e-3

_VECTOR = np.linspace(0.05, 0.95, 64)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    x = _VECTOR.copy()
    acc = 0.0
    for k in range(96):
        y = x * 0.999 + 0.001 * k
        j = int(np.argmax(y))
        acc += float(y[j]) - float(y.min())
        x = np.where(y > 0.5, y - 0.1, y)
        acc += float(x @ _VECTOR)
        for i in range(24):
            acc += (i * 7) % 13
    return time.perf_counter() - start


def sample(budget_s: float, least: int = 3) -> List[float]:
    """Kernel times, repeated for about ``budget_s`` seconds and at least ``least`` times."""
    times: List[float] = []
    spent = 0.0
    while len(times) < least or spent < budget_s:
        times.append(kernel_seconds())
        spent += times[-1]
    return times


def pace(times: List[float]) -> float:
    """Host slowness: mean kernel time over its nominal time.

    The mean, not the median: a stall that holds up a solve holds up a
    kernel run just as often, and the median would leave it out.
    """
    return statistics.fmean(times) / NOMINAL_S
