"""Host-speed sampling, so that timings read the same on a host whose speed drifts.

The machine this benchmark was written on runs a fixed pure-Python loop at
anywhere from 1x to 2x its best time, flipping between the two within tens of
milliseconds and drifting over minutes, so two runs of the same code differ by
a fifth or more when timed by the clock alone.

Every timed process therefore starts a `Sampler` before anything else.  Every
PERIOD_S seconds a SIGALRM handler, running in the process's own thread
between two bytecodes, times a fixed loop of `Fraction` arithmetic (the kind
of work ltwist does with its `fractions` backend).  `reference_seconds` then
turns a stretch of the process's wall time into reference seconds: the time
it would have taken at the speed at which that loop takes REF_KERNEL_S.  Each
piece between two samples is scaled by REF_KERNEL_S over the mean loop time of
the WINDOW samples around it, and the loops themselves are left out; one
sample says little, the window's mean says how fast the host ran around the
piece.  The interpreter's start-up, before the first sample, is scaled by the
mean of the first WINDOW samples.  On a steady host reference seconds are the
wall time times one constant factor; a slower program still reads slower,
because the loop does not change with the program.

The sampler leaves the program's memory behaviour alone: the loop runs with
the cyclic garbage collector paused, and its objects die before it ends, so it
neither triggers a collection nor moves the next one; samples go to a flat
array of floats, which the collector does not track.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.01
KERNEL_OPS = 50
WINDOW = 16
# The loop's time at the reference speed: a little under its best time (about
# 0.21 ms) on a 2.0 GHz Xeon with Python 3.11, so that reference seconds are
# close to wall seconds there when the host runs at its best.
REF_KERNEL_S = 0.0002
_P = 1000003


def _kernel() -> None:
    a, b = Fraction(3, 7), Fraction(-5, 11)
    for _ in range(KERNEL_OPS):
        a = a * b + b
        a = Fraction(a.numerator % _P, a.denominator % _P or 1)


class Sampler:
    """Times the calibration loop every PERIOD_S seconds while it runs."""

    def __init__(self):
        self.samples = array("d")  # start, duration, start, duration, ...

    def _sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t0)
        self.samples.append(t1 - t0)

    def start(self) -> "Sampler":
        _kernel()  # the first run meets cold caches; it is not a sample
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> list:
        """Stops sampling; returns the flat list of starts and durations."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        return self.samples.tolist()


def reference_seconds(samples: list, t0: float, t1: float) -> float:
    """Wall time from t0 to t1 (perf_counter readings, which on Linux share
    one clock across processes), loops left out, in reference seconds.
    `samples` is what Sampler.stop returned."""
    starts, durs = samples[0::2], samples[1::2]
    if not durs:
        raise ValueError("no speed samples")
    n, half = len(durs), WINDOW // 2
    prefix = [0.0]
    for dur in durs:
        prefix.append(prefix[-1] + dur)
    total, cursor = 0.0, t0
    # piece i runs from the end of sample i-1 to the start of sample i
    for i in range(n + 1):
        end = min(starts[i], t1) if i < n else t1
        if end > cursor:
            lo = max(0, min(i - half, n - WINDOW))
            hi = min(n, lo + WINDOW)
            total += (end - cursor) * REF_KERNEL_S * (hi - lo) / (prefix[hi] - prefix[lo])
        if i < n:
            cursor = max(cursor, starts[i] + durs[i])
    return total
