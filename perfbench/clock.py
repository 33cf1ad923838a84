"""A benchmark clock that runs at a fixed reference machine speed.

The CPUs this benchmark runs on are shared, and their speed drifts by
up to 1.7x within a minute (a fixed Python loop timed every few seconds
shows it). Wall time alone then measures the neighbours more than the
program. So the clock times a fixed probe that runs no skewring code,
and until the next probe it advances at *reference / probe time* times
wall time; the probe's own time is left out. Readings are reference
seconds: how long the work would take where the probe takes its
reference time. ``scales`` keeps every factor.

Two probes, one per kind of work:

* ``"timer"``: ``Fraction`` arithmetic (5 ms at reference speed), run
  by a SIGALRM handler every ``INTERVAL_S``. The handler runs in the
  main thread between bytecodes, so the load still comes from one
  thread, and child processes do not inherit the timer.
* ``"interpreter"``: the start of a bare interpreter (50 ms at
  reference speed), run on ``tick()`` between child processes. Process
  start-up tracks the drift of short CLI processes far better than
  in-process arithmetic does.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.2
PROBE_TERMS = 400
SMOOTHING = 3  # probes in the running median


def fraction_probe():
    """Fixed arithmetic; garbage collection is held off so that the
    work's own young objects cannot make it slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        third = Fraction(1, 3)
        acc = Fraction(0)
        for i in range(1, PROBE_TERMS):
            acc += Fraction(i, i + 7) * third - Fraction(3, i + 1)
        return acc
    finally:
        if enabled:
            gc.enable()


def interpreter_probe():
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True,
                   timeout=60)


# probe name -> (probe, its reference seconds, probe on a timer)
PROBES = {
    "timer": (fraction_probe, 0.005, True),
    "interpreter": (interpreter_probe, 0.05, False),
}


class ScaledClock:
    """Call it like ``perf_counter``; differences are reference seconds."""

    def __init__(self, probe="timer"):
        self._probe, self._reference_s, self._timer = PROBES[probe]
        self.scale = 1.0
        self.scales = []
        self._recent = []
        self._busy = False
        self._seg_raw = perf_counter()
        self._seg_scaled = 0.0
        self._previous_handler = None

    def __call__(self):
        return self._seg_scaled + (perf_counter() - self._seg_raw) * self.scale

    def _calibrate(self):
        start = perf_counter()
        self._probe()
        self._recent = (self._recent + [perf_counter() - start])[-SMOOTHING:]
        self.scale = self._reference_s / statistics.median(self._recent)
        self.scales.append(self.scale)

    def tick(self):
        """Probe now and rescale from here on; the probe's time is left out."""
        if self._busy:
            return
        self._busy = True
        try:
            self._seg_scaled = self()
            self._calibrate()
            self._seg_raw = perf_counter()
        finally:
            self._busy = False

    def start(self):
        """Calibrate, then probe on the timer or on ``tick``."""
        for _ in range(SMOOTHING):
            self._calibrate()
        self._seg_raw = perf_counter()
        if self._timer:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   lambda _sig, _frame: self.tick())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
