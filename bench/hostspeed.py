"""Host-speed calibration for the benchmark's timings.

On a shared host the same pass can take twice as long a few minutes later,
while CPU time tracks wall time: the host runs slower, the process is not
descheduled. A probe times a fixed piece of standard-library rational
arithmetic and integer formatting, the same kind of work a pass does.
`Sampler` runs the probe on a timer signal every PERIOD_S seconds while a
pass runs, in the pass's own thread, so the probes see the host speed the
pass saw. A pass's scaled time is its wall time minus the time spent in
probes, divided by the mean probe time and multiplied by REFERENCE_S: its
length on a host where the probe takes REFERENCE_S.

In trials on audit_deep, scaling by probes taken during each pass cut the
pass-to-pass spread from 8-11% to about 3%, where probes taken only before
and after each pass made it worse. The probe imports nothing from hlpoly,
so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# About the probe's median wall time on a 2-CPU x86-64 host with Python 3.11.7;
# scaled times read as seconds on such a host.
REFERENCE_S = 0.0008
PERIOD_S = 0.05


def probe_s() -> float:
    """Wall seconds of one fixed probe, about a millisecond."""
    start = time.perf_counter()
    total = Fraction(0)
    cells = []
    for i in range(1, 120):
        total += Fraction((-1) ** i * i**3, (2 * i + 1) ** 3)
        cells.append(f"{total.numerator}/{total.denominator}")
    return time.perf_counter() - start


def scaled(seconds: float, probes: list[float]) -> float:
    """`seconds` restated for a host where the probe takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Probes the host speed before, during and after a `with` block.

    Only for the main thread of a process that uses no other SIGALRM timer.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0  # seconds inside probes taken during the block
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe_s())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.probes.append(probe_s())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe_s())

    def scaled(self, seconds: float) -> float:
        """A wall time measured inside the block, without the probes' own
        time, restated for the reference host."""
        return scaled(seconds - self.spent, self.probes)
