"""A fixed reference computation that the benchmark times next to the
program, so that the program's time can be given in units of it.

The benchmark shares a few cores with other tenants of its host, and the
speed of a core drifts by a factor of up to 1.6-1.9 over seconds to minutes
(a fixed CPU-bound loop, timed in 1 s buckets on a 2-core x86 VM).  The
drift is not shared between cores, so a clock on another core cannot correct
it; readings taken on the same core, between stretches of the program, can.
Over 5 minutes on that VM, per-35-s means of gauge_fix and chain call times
spread by 0.21 (interquartile range over median); each call divided by the
mean of the two readings around it, they spread by 0.02-0.03.

The kernel does the kinds of work the program does: seeding a generator from
a key, a small complex Cholesky factorisation and triangular solve on a batch
of Gaussian draws (as the Monte Carlo Higgs weight does), elementwise array
arithmetic (as the gauge-fixing sweeps do) and a pure-Python loop.  It never
calls the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import signal
import threading
from time import perf_counter

import numpy as np

ITERATIONS = 40      # about 9 ms on an idle core of the VM above
PERIOD_S = 0.2       # a reading every PERIOD_S of program time
_M = 9               # interior sites of the N=2 lattice
_P = (np.eye(_M) * 1.5 + 0.1 * np.cos(np.add.outer(np.arange(_M), np.arange(_M)))
      + 0.05j * np.sin(np.subtract.outer(np.arange(_M), np.arange(_M))))
_GRID = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)


def kernel() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        rng = np.random.default_rng([i, 20260102])
        L = np.linalg.cholesky(_P)
        z = rng.normal(size=(64, _M)) + 1j * rng.normal(size=(64, _M))
        r = np.abs(np.linalg.solve(L.conj().T, z.T))
        acc += float(np.exp(-(r ** 4 - r ** 2).sum(axis=0) / 64.0).mean())
        g = np.cos(_GRID + 0.01 * i)
        acc += float((np.roll(g, 1, axis=0) - g + np.roll(g, -1, axis=1) - g).sum())
        for k in range(150):
            acc += math.sin(k * 0.01) * 0.5
    return acc


class Reference:
    """Readings of the kernel's wall time, and the program's time split into
    stretches between consecutive readings.

    A reading is taken at each operation's boundaries and, while `ticking`,
    every PERIOD_S inside a call into the program, from a SIGALRM handler on
    the main thread.  The handler skips its turn while other threads run
    (the CLI's chains run on a pool), since a reading then measures the
    contention for the interpreter lock.  Time spent in readings is left out
    of the program's time (`paused`).
    """

    def __init__(self):
        self.readings: list[float] = []
        self.paused = 0.0
        self.ticking = False
        self._stretches: list[tuple[float, int]] = []   # (seconds, index of reading before)
        self._start: float | None = None
        signal.signal(signal.SIGALRM, self._tick)

    def reading(self) -> float:
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.readings.append(dt)
        self.paused += dt
        return dt

    def _close(self) -> None:
        self._stretches.append((perf_counter() - self._start, len(self.readings) - 1))

    def _tick(self, signum, frame) -> None:
        if self._start is None or threading.active_count() > 1:
            return
        self._close()
        self.reading()
        self._start = perf_counter()

    def begin(self) -> None:
        """Start of a call into the program."""
        self._start = perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def end(self) -> None:
        """End of a call into the program."""
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close()
        self._start = None

    def settle(self) -> float:
        """After an operation's closing reading: the operation's time in
        reference units (each stretch divided by the mean of the readings
        around it), and the stretches are forgotten."""
        r = self.readings
        units = sum(dt / (0.5 * (r[i] + r[i + 1])) for dt, i in self._stretches)
        self._stretches = []
        return units
