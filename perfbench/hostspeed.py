"""Host-speed sampling, so that timings can be scaled to a reference speed.

On a shared host the same pure-Python code runs up to 1.6x slower while
other tenants are busy, and that state changes within a second and drifts
over minutes.  A fixed kernel run at regular intervals *during* the measured
work sees the same slow-down.  Scaling a measured time by
``REFERENCE_S / mean(kernel time)`` removes most of the host's share of the
variation; the repository's code does not run in the kernel, so a change to
it still moves the scaled time by the same factor as the raw time.

The samples are taken from a ``SIGALRM`` interval timer in the measuring
process's main thread.  The handler's own time is recorded so the caller can
subtract it from the interval it measured.
"""

from __future__ import annotations

import signal
import time

#: Iterations of the kernel: about half a millisecond of pure Python.
KERNEL_ITERS = 2000

#: Median kernel time on the host the benchmark was tuned on (a 2-vCPU KVM
#: guest on an Intel Xeon, model 143).  It only sets the unit of the scaled
#: times: 1 scaled second is 1 second at that speed.
REFERENCE_S = 0.5e-3

#: Sampling interval, during set-up and during each job.
INTERVAL_S = 0.02


def kernel() -> int:
    """Dictionary and integer work, like the simulator's inner loops."""
    total = 0
    table = {}
    for i in range(KERNEL_ITERS):
        total += i * i % 7
        table[i & 1023] = total
    return total


class HostSpeed:
    """Times :func:`kernel` every :data:`INTERVAL_S` while started."""

    def __init__(self) -> None:
        self.samples = 0
        self.sample_s = 0.0       # summed kernel times
        self.spent_s = 0.0        # summed handler times, kernel included

    def sample(self, *_signal_args) -> None:
        """Time the kernel once (also the ``SIGALRM`` handler)."""
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples += 1
        self.sample_s += elapsed
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def state(self) -> dict:
        return {"samples": self.samples, "sample_s": self.sample_s,
                "spent_s": self.spent_s}


def slowdown(states) -> float:
    """How much slower than the reference the host ran (1.0 = reference),
    over the :meth:`HostSpeed.state` of one or more samplers."""
    states = list(states)
    return (sum(state["sample_s"] for state in states)
            / sum(state["samples"] for state in states) / REFERENCE_S)
