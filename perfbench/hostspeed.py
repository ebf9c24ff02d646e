"""How fast the host runs Python right now, sampled while the benchmark runs.

On a shared virtual machine the same code runs up to a third faster or
slower from one minute to the next, and a run that happens to land in a slow
stretch reads as a regression.  The benchmark therefore times a fixed
calibration kernel beside the work and reports times in *reference
seconds*: host seconds scaled by ``REFERENCE_S`` over what the kernel took
at the time.  On a host where the kernel takes ``REFERENCE_S``, reference
seconds are host seconds.  A change to gasman cannot move the kernel, so it
moves a reference-second figure exactly as it moves the host-second one.

The kernel allocates no garbage-collected objects: a kernel that did would
trigger collections over the simulator's large heaps and time those instead
of the host.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

#: Kernel time that defines one reference second.
REFERENCE_S = 0.005
#: Seconds between kernel samples during a timed loop.
INTERVAL_S = 0.25

_perf = time.perf_counter
_BLOCK = bytes(range(256)) * 16


def kernel_s() -> float:
    """Host seconds the calibration kernel takes now: an integer loop and
    some hashing, about ``REFERENCE_S`` on a 2-vCPU cloud VM."""
    start = _perf()
    x = 0
    for i in range(40_000):
        x = (x + i * i) & 0xFFFF
    for _ in range(40):
        hashlib.sha256(_BLOCK).digest()
    return _perf() - start


def slowdown(samples: list[float]) -> float:
    """Kernel time relative to ``REFERENCE_S``, averaged over the samples.

    The mean weights fast and slow stretches by how long they lasted; the
    outer twentieths are dropped, so that one sample descheduled for a
    whole time slice does not move the result.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 20
    return statistics.mean(ordered[cut:len(ordered) - cut]) / REFERENCE_S


class HostClock:
    """A wall clock that samples the kernel every ``INTERVAL_S`` seconds.

    The samples run from a ``SIGALRM`` handler between the operations'
    bytecodes, so they see the host as the operations see it.  ``now()``
    leaves their time out, so operations timed with it are not charged for
    them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        return _perf() - self.spent

    def _sample(self, *_) -> None:
        took = kernel_s()
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def slowdown(self) -> float:
        return slowdown(self.samples)


class WallClock:
    """Plain wall time, for the traced run, which reports no speed."""

    now = staticmethod(_perf)
