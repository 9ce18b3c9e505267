"""Speed reference: how fast the machine runs the library's kind of code.

Other tenants of the host slow every process on it by 20-100% for stretches
of seconds to minutes, so a whole run can fall inside one.  The reference is
a fixed computation of the library's kind, a Fraction sum and table-driven
field arithmetic, and it slows with the library's code.  On the 2-vCPU
machine the benchmark was tuned on, over 150 s whose speed halved at times,
the log-ratio of a unique decode to it varied by 0.029-0.047 (log-std
between 5 s and 1 s windows) and that of a subset sweep by 0.049-0.060,
where their raw times varied by 0.21-0.27.

`Probes` times the reference every PROBE_EVERY_S from a SIGALRM handler, in
the middle of whatever the process is running, library calls included.  A
section's time at reference speed is its wall time, less the probes inside
it, times REF_NOMINAL_S over the mean of the probes inside it and the one on
each side.  Probes inside a section matter for long ones: over a 13 s sweep
the speed in the middle differs from the speed at the ends.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_TERMS = 1000
REF_ROUNDS = 450
# The reference's time on that machine when nothing else slowed it.
REF_NOMINAL_S = 0.0040
PROBE_EVERY_S = 0.5

_TABLE = [[a * b % 17 for b in range(17)] for a in range(17)]


def _reference() -> None:
    """A Fraction sum and table-driven field arithmetic, as the library does."""
    total = Fraction(0)
    for j in range(1, REF_TERMS + 1):
        total += Fraction(1, j)
    acc = 0
    for r in range(REF_ROUNDS):
        row = tuple(_TABLE[(r + j) % 17][j] for j in range(17))
        index = dict(enumerate(row))
        acc += sum(index[j] for j in range(0, 17, 2))


def reference_seconds() -> float:
    """Fastest of three timings of the reference, after one untimed run
    that warms the caches."""
    best = float("inf")
    for i in range(4):
        t0 = time.perf_counter()
        _reference()
        if i:
            best = min(best, time.perf_counter() - t0)
    return best


class Probes:
    """Times the reference now, then every PROBE_EVERY_S until `stop`.

    `refs` holds the reference times in order.  `mark` is the pair (probes
    so far, seconds spent in them), replaced in one assignment so that a
    reader between two bytecodes never sees half an update.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.mark = (0, 0.0)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_seconds())
        self.mark = (len(self.refs), self.mark[1] + time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def stop(self) -> None:
        """Stop the timer, restore the old handler and probe a last time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.probe()

    def speed(self, first: int, last: int) -> float:
        """Reference time over REF_NOMINAL_S, from the probes `first` to
        `last` (slice bounds as `mark` gives them) and one on each side."""
        refs = self.refs[max(first - 1, 0):last + 1]
        return sum(refs) / (len(refs) * REF_NOMINAL_S)
