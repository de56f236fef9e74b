"""Host time corrected for the speed of the core it was measured on.

On a small shared VM the speed of a vCPU swings by up to 1.7x, in slow
phases that last from under a second to minutes, as other tenants load
the physical core under it.  The time is lost on the core, not to steal,
so process CPU time swings with wall time.  Raw host seconds of the same
repetition then spread by ~18%, and the two vCPUs' slow phases are not
correlated, so a calibration process on the other core cannot track them.

:class:`SpeedSampler` tracks the speed of the benchmark's own core instead:
a real-time interval timer interrupts the process every ``INTERVAL_S``
seconds and times one fixed pure-Python kernel (``_kernel``, which uses
no simulator code, so a change to the simulator cannot move it).  A span
of ``raw`` seconds that took samples ``t_1 .. t_n`` is reported as

    (raw - sum(t_i)) * mean(NOMINAL_KERNEL_S / t_i)

seconds: the interval minus the kernels' own time, each stretch of it
scaled by how much slower than nominal the core ran there.  The result is
host seconds as an uncontended core of the reference host would have
taken them.  On that host it cut the spread of one repetition's time from
17.6% to 3.4% (coefficient of variation over 98 repetitions), at a cost of
about 0.6% of the time for the samples.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List

#: Seconds between two speed samples.
INTERVAL_S = 0.02
#: Seconds ``_kernel`` takes on an uncontended core of the reference host
#: (a 2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11); fixed, so corrected
#: times compare across runs.
NOMINAL_KERNEL_S = 8.5e-5


class _Slots:
    __slots__ = ("a",)

    def __init__(self) -> None:
        self.a = 0


def _kernel() -> int:
    """Attribute, dict and integer work in the mix the simulator does."""
    table = {}
    state = _Slots()
    total = 0
    for i in range(400):
        state.a = (state.a * 31 + i) & 0xFFFF
        table[state.a & 255] = i
        total += table.get(i & 255, 0)
    return total


class SpeedSampler:
    """Times ``_kernel`` on a real-time interval timer (``SIGALRM``)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """The index the next sample will get."""
        return len(self.samples)

    def nominal_seconds(self, raw_s: float, first: int) -> float:
        """``raw_s`` seconds that began at sample ``first``, corrected."""
        samples = self.samples[first:]
        if not samples:
            return raw_s
        slowness = sum(NOMINAL_KERNEL_S / sample for sample in samples)
        return (raw_s - sum(samples)) * slowness / len(samples)
