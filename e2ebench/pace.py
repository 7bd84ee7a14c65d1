"""Host-speed ticker: wall times scaled to a steady host.

On a shared host, load from outside the machine slows a vCPU by up to ~1.9x
in spells of seconds to minutes, so the same work reads very differently
from one run to the next.  A ``Pace`` runs a small fixed reference kernel
on a timer signal (every ``every_s`` seconds, in the main thread, between
the program's own bytecodes) and records how long it took.  The kernel's
time next to a piece of work says how fast the host ran right then, so a
piece of work's paced time adds up each stretch between two ticks as

    (stretch - kernel time inside it) / (kernel time there / REF_S)

which is the work's time on a host that runs the kernel in ``REF_S``
seconds.
The kernel is the benchmark's own code, so a change to the program moves
the paced time and not the reference.  It mixes the kinds of work the
program does: interpreted Python, small numpy ops and one medium-sized
array op.  Every kernel is timed twice back to back and the second time
counts, so the caches the program left behind do not enter the reference.
"""

import bisect
import signal
import statistics
import time

import numpy as np

#: the kernel's time (s) on the quiet 2-vCPU Xeon host the benchmark was
#: built on; it only scales paced times back to seconds
REF_S = 0.00045
#: the ticker of this process, if one runs (set by ``child.py``)
ACTIVE = None
#: ticks whose median kernel time stands for the host speed at one tick
SMOOTH = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((21, 7))
_W = _RNG.standard_normal((7, 32))
_M = _RNG.standard_normal((80, 80))
_V = _RNG.standard_normal(16384)


def kernel() -> float:
    """The reference work: interpreted Python, small numpy ops on
    search-space sized arrays, and a medium matmul and sort."""
    total = 0
    for i in range(3000):
        total += i * i
    x = _A
    for _ in range(30):
        x = np.tanh(x @ _W) @ _W.T * 0.1 + _A
    y = _M @ _M
    z = np.sort(_V * 1.5 + 1.0)
    return float(total) + float(x[0, 0] + y[0, 0] + z[0])


class Pace:
    """Runs ``kernel`` every ``every_s`` seconds from a SIGALRM handler and
    keeps ``(start, kernel seconds, seconds spent in the tick)`` of each
    tick (perf_counter clock)."""

    def __init__(self, every_s: float = 0.04) -> None:
        self.every_s = every_s
        self.ticks = []
        self._busy = False
        self.started_at = None

    def start(self) -> "Pace":
        kernel()
        signal.signal(signal.SIGALRM, self._tick)
        self.started_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            mid = time.perf_counter()
            kernel()
            self.ticks.append((start, time.perf_counter() - mid,
                               time.perf_counter() - start))
        finally:
            self._busy = False

    def _local(self, i: int) -> float:
        """The kernel time around tick ``i``: the median of its
        ``SMOOTH`` neighbours, so one stray tick does not count."""
        lo = max(0, i - SMOOTH // 2)
        return statistics.median(t[1] for t in self.ticks[lo:lo + SMOOTH])

    def seconds(self, a: float, b: float) -> float:
        """The paced time of the work that ran from ``a`` to ``b``: each
        stretch between two ticks, less the kernels, divided by how much
        slower than ``REF_S`` the kernel ran at its start."""
        if not self.ticks:
            return b - a
        starts = [t[0] for t in self.ticks]
        first = bisect.bisect_left(starts, a)
        last = bisect.bisect_right(starts, b)
        # the stretch before the first tick inside goes at the pace of the
        # tick before it (or of the first one, if none is before)
        i = max(first - 1, 0)
        total, cursor = 0.0, a
        for j in range(first, last):
            total += (starts[j] - cursor) / self._local(i)
            cursor = starts[j] + self.ticks[j][2]
            i = j
        total += max(b - cursor, 0.0) / self._local(min(i, len(starts) - 1))
        return total * REF_S

    def speed(self, a: float, b: float) -> float:
        """How much slower than ``REF_S`` the host ran over [a, b]."""
        spent = sum(t[2] for t in self.ticks if a <= t[0] <= b)
        paced = self.seconds(a, b)
        return (b - a - spent) / paced if paced > 0 else 1.0


def paced(a: float, b: float) -> float:
    """[a, b] paced by this process's ticker, or as wall time without one."""
    return ACTIVE.seconds(a, b) if ACTIVE else b - a
