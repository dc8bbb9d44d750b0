"""Host speed, sampled during the work, to express times at a fixed speed.

The benchmark's host is a shared machine whose speed for one
single-threaded process swings by up to about 1.9x, in spells lasting from
a fraction of a second to minutes.  A raw time therefore says as much
about the host's spell as about the program.  So while a stream runs, a
``Sampler`` interrupts it every ``TICK_EVERY_S`` seconds of real time
(SIGALRM) to time a fixed pure-Python kernel (``tick``), and each request's
time, less the ticks that fell inside it, is scaled by

    REF_TICK_S / (geometric mean of the ticks from just before the
                  request to just after it)

that is, reported at the speed at which a tick takes ``REF_TICK_S``.  On
a 2-vCPU KVM guest (Xeon, Sapphire Rapids) that is about its median speed,
so scaled and raw times are of the same size there.  The kernel does what
the program does most: small-integer arithmetic and dict and tuple work
in the interpreter, with no I/O.  The program under test never runs it,
so a change to the program changes the scaled times and never the scale.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from math import exp, log, sqrt
from time import perf_counter

REF_TICK_S = 150e-6
TICK_EVERY_S = 0.02
_TICK_ROUNDS = 3


def _kernel() -> int:
    d: dict = {}
    for i in range(500):
        key = (i % 37, i % 11)
        d[key] = d.get(key, 0) + i * i % 7
    return len(d)


def tick() -> float:
    """Seconds the kernel takes now: the best of a few back-to-back rounds,
    which drops an interrupt but keeps the host's current spell."""
    best = float("inf")
    for _ in range(_TICK_ROUNDS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """The factor taking a time measured between two ticks to reference speed."""
    return REF_TICK_S / sqrt(before * after)


class Sampler:
    """Ticks on entry, on exit and every TICK_EVERY_S in between.

    ``paused`` is the time spent ticking so far; a caller subtracts its
    growth over a timed interval from that interval.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, *_signal) -> None:
        start = perf_counter()
        took = tick()
        end = perf_counter()
        self.at.append(end)
        self.took.append(took)
        self.paused += end - start

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scale(self, start: float, end: float) -> float:
        """The factor taking the interval [start, end] to reference speed:
        from the last tick before it to the first tick after it."""
        lo = max(0, bisect_right(self.at, start) - 1)
        hi = min(len(self.at) - 1, bisect_left(self.at, end))
        window = self.took[lo:hi + 1]
        return REF_TICK_S / exp(sum(map(log, window)) / len(window))
