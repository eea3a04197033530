"""Timing that corrects for how fast the shared machine runs at the moment.

On a shared host the same code can run at very different speeds from one
second to the next. On the 2-core sandbox where the README's figures were
taken, the speed switches between two states about 1.7x apart, and each
state lasts from under a second to tens of seconds, so one invocation's wall
time can swing by a quarter from run to run.

SpeedProbe.time runs a call and samples a fixed reference loop just before
it, every PERIOD seconds during it (from a SIGALRM handler in this thread),
and just after it. The call's wall time, less the time spent in the samples,
is scaled by REFERENCE_S over the mean sample. A scaled figure reads as
seconds on that sandbox at the loop's median speed there. The loop mixes
what hjdirac spends its time on: small numpy calls, scalar Python and float
formatting. It does not use hjdirac, so no change to the program moves it.
"""

import signal
import time

import numpy as np

PERIOD = 0.1            # seconds between samples during a call
ITERATIONS = 300        # one sample takes about 3-5 ms
REFERENCE_S = 0.0039    # median sample time on the reference sandbox

_A = np.eye(4) * 2.0 + 0.1
_V = np.arange(4.0)


def reference_seconds():
    total = 0.0
    parts = []
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        b = np.linalg.inv(_A) @ _A
        total += float(_V @ b[0]) ** 0.5
        parts.append(repr(total))
    ",".join(parts)
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.in_call = 0.0

    def _sample(self, *_signal_args):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.in_call += time.perf_counter() - t0

    def time(self, fn):
        """(fn's result, wall seconds, seconds at the reference speed)."""
        self.samples = []
        self._sample()
        self.in_call = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - self.in_call
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return result, wall, wall * REFERENCE_S / float(np.mean(self.samples))
