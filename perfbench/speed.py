"""Host-speed scaling of the benchmark's operation times.

The shared host's CPU changes speed in phases up to about 1.6x apart. They
last from a fraction of a second to minutes, long enough to move the median
of a whole run. ``SpeedProbe`` measures the phase while an operation runs:
every ``PERIOD_S`` a SIGALRM handler times ``calibration_s()``, a fixed mix of
interpreter work (arithmetic, calls, attribute and dict access) and small
numpy linear algebra that touches no riemdyn code. An operation's scaled time
is its own time, less the time spent in the handler, times the mean of
``REF_S / sample`` over the samples taken during it: the seconds it would take
on a host where ``calibration_s()`` takes ``REF_S``. A change to riemdyn
moves the scaled time in full; a change of host phase moves it much less.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
REF_S = 0.001

_G = np.array([[1.5, 0.2], [0.2, 0.8]])
_V = np.array([0.3, -0.7])


class _Point:
    def __init__(self, x):
        self.x = x


def _term(point, coeffs):
    return coeffs["a"] * point.x + math.exp(-point.x)


def calibration_s() -> float:
    """Seconds for one pass of the fixed calibration mix (about 0.75 ms on a 2-core Xeon)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += i * i % 7
    coeffs = {"a": 1.5}
    for i in range(400):
        acc += max(_term(_Point(i * 1e-4), coeffs), acc * 1e-9)
    for _ in range(100):
        w = _G @ _V
        acc += float(w[0] * _V[1])
    for _ in range(15):
        np.linalg.cholesky(_G)
        x = np.linalg.solve(_G, _V)
        acc += float(np.sin(np.einsum("ij,j->i", _G, x)).sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Samples calibration_s() every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.samples = []
        self._armed = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._armed:
            self.samples.append(calibration_s())

    def start(self):
        self.samples = []
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def split(self, elapsed):
        """(seconds less the probe's own, speed factor) of an operation timed from start() to stop()."""
        samples = self.samples or [calibration_s()]
        return elapsed - sum(self.samples), statistics.fmean(REF_S / s for s in samples)

    def close(self):
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
