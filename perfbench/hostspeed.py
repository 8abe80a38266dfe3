"""Host speed around each request, measured with a fixed calibration loop.

On a shared host a core does not run at one speed: on the 2-CPU virtual
machine this benchmark was built on it ran fast or about 1.7 times slower,
switching every few tens of milliseconds as its neighbours' load came and
went, and the share of time spent slow drifted over seconds and minutes.
A request run in a busy stretch takes longer than the same request run in
a quiet one.

The benchmark therefore times a fixed calibration loop around every
request: right after it, for a fixed share of the time it took, and, for
requests served in the benchmark's own process, also during it, one loop
every SAMPLE_INTERVAL_S seconds from a timer signal (the time those loops
take is taken out of the request's latency).  A request's time is then
multiplied by REFERENCE_S / (mean loop time just before, during and just
after it): the time it would have taken with the host at reference speed.
The loop uses only the standard library and mpmath, never splinebound, so
a change to the program moves the scaled times exactly as it moves wall
times; only the host's drift cancels.

The loop mixes what the package spends its time on: Fraction arithmetic on
dictionaries of terms, and mpmath arithmetic at 50 digits.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

import mpmath as mp

# Time of one calibration loop at the mean speed the host had while the
# baseline was measured (a 2-CPU shared virtual machine).  It only fixes
# the scale: a request whose loops took REFERENCE_S each is reported
# unscaled.
REFERENCE_S = 0.005
# Calibration around a request, as a share of the request's time.
SHARE = 0.05
# Loops after each request at least, however short the request.
MIN_LOOPS = 2
# One loop this often while an in-process request runs.
SAMPLE_INTERVAL_S = 0.1


def _loop() -> None:
    terms: dict[int, Fraction] = {}
    for i in range(1, 300):
        q = Fraction(i, 3 * i + 1) * Fraction(2 * i + 1, i + 7)
        terms[i % 11] = terms.get(i % 11, Fraction(0)) + q
    with mp.workdps(50):
        x = mp.mpf(1) / 3
        s = mp.mpf(0)
        for i in range(1, 300):
            s += x * i / (i + 1)


class HostSpeed:
    """Calibration loops of one run, counted in total and per request."""

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0
        self._busy = False
        self._before = (0, 0.0)

    def _time_loop(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        _loop()
        self.seconds += time.perf_counter() - t0
        self.loops += 1
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._time_loop()

    @contextlib.contextmanager
    def sampling(self):
        """Time one loop every SAMPLE_INTERVAL_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> None:
        """Calibrate before the first request."""
        l0, s0 = self.loops, self.seconds
        for _ in range(MIN_LOOPS):
            self._time_loop()
        self._before = (self.loops - l0, self.seconds - s0)

    def scale(self, latency_s: float, during: tuple[int, float]) -> float:
        """Calibrate right after a request and return its latency scaled
        to reference host speed.

        `during` is (loops, seconds) of calibration that ran while the
        request did, as counted by the caller.
        """
        l0, s0 = self.loops, self.seconds
        n = 0
        while n < MIN_LOOPS or during[1] + self.seconds - s0 < SHARE * latency_s:
            self._time_loop()
            n += 1
        after = (self.loops - l0, self.seconds - s0)
        loops = self._before[0] + during[0] + after[0]
        seconds = self._before[1] + during[1] + after[1]
        self._before = after
        return latency_s * REFERENCE_S * loops / seconds

    def loop_s(self) -> float:
        """Mean loop time over the run."""
        return self.seconds / self.loops
