"""Wall time scaled to a fixed reference speed of the host.

On a shared virtual machine the cores run at full speed for a while and then
about 1.5x slower for seconds to tens of seconds at a time; a 30 s run can fall
wholly inside a slow spell.  Wall time then measures the host as much as the
program.  ``RefClock`` runs a short fixed reference kernel (``_work``) every
``INTERVAL`` seconds from a SIGALRM handler and scales
each stretch of wall time between two samples by ``NOMINAL_S`` over the
kernel's median time around it.  A scaled second is a wall second on a host
where the kernel takes ``NOMINAL_S``; the time spent in the kernel is left out.

The kernel runs twice per sample and the faster run counts, so that caches the
program has just evicted do not count as a slow host.

    clock = RefClock()
    with clock.running():
        a = time.monotonic(); work(); b = time.monotonic()
    clock.scaled(a, b)      # scaled seconds of work()
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import signal
import time

import numpy as np

INTERVAL = 0.04  # seconds of wall time between kernel samples
HALF_WINDOW = 0.25  # a sample's speed is the median kernel time within +-this
# The kernel's time at full speed on the recording host (Intel Xeon at 2.1 GHz
# nominal, Python 3 with numpy's OpenBLAS on one thread); the scale only fixes
# the unit, so a scaled second is close to a wall second there at full speed.
NOMINAL_S = 2.1e-4

_rng = np.random.default_rng(0)
_DENSE = _rng.random((32, 32))
_BRAS = _rng.random((8, 2)) + 0j
_STATES = _rng.random((8, 2, 2)) + 0j


def _work() -> None:
    """One pass of the reference work, about 0.2 ms at full speed: an
    interpreter loop, a dense solve, generator seeding, small einsums and
    sha256, the kinds of work the program does.  Its arrays are small, so it
    adds little to the process's memory, and it leaves no object behind for
    the garbage collector to count (scipy's sparse LU leaves one per call)."""
    s = 0
    for i in range(1000):
        s += i
    np.linalg.solve(_DENSE, _DENSE)
    for i in range(3):
        np.random.default_rng(i).random(4)
    for _ in range(15):
        np.einsum("na,nab,nb->n", _BRAS, _STATES, _BRAS.conj())
    for i in range(60):
        hashlib.sha256(b"7:measurement:%d" % i).digest()


def kernel() -> float:
    """Wall seconds of the faster of two passes of the reference work."""
    best = float("inf")
    for _ in range(2):
        t0 = time.monotonic()
        _work()
        best = min(best, time.monotonic() - t0)
    return best


class RefClock:
    def __init__(self) -> None:
        self.origin: float | None = None
        self.stop_time: float | None = None
        self.starts: list[float] = []  # wall time at which each sample began
        self.ends: list[float] = []  # ... and ended
        self.kernel_s: list[float] = []
        self._table = None
        self._busy = False

    def _sample(self, *_args) -> None:
        if self._busy:  # a signal that arrives inside the handler is dropped
            return
        self._busy = True
        # The kernel's temporaries are freed before it returns; with the
        # collector off they cannot set off a collection at a moment the
        # program would not have had one (such a shift moved pinning_learn's
        # peak_rss_mb by 8 MB from run to run).
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.monotonic()
            k = kernel()
            self.starts.append(t0)
            self.ends.append(time.monotonic())
            self.kernel_s.append(k)
        finally:
            if gc_was_on:
                gc.enable()
            self._busy = False

    def start(self, origin: float | None = None) -> None:
        """Sample now and every INTERVAL after; ``origin`` (default now) is the
        earliest wall time a later ``scaled`` call may ask about."""
        self.origin = time.monotonic() if origin is None else origin
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.stop_time = time.monotonic()
        self._table = None

    @contextlib.contextmanager
    def running(self, origin: float | None = None):
        self.start(origin)
        try:
            yield self
        finally:
            self.stop()

    def _gaps(self):
        """The stretches of wall time outside the kernel, each with its scale."""
        if self._table is None:
            starts, ends = np.array(self.starts), np.array(self.ends)
            k = np.array(self.kernel_s)
            lo = np.searchsorted(starts, starts - HALF_WINDOW)
            hi = np.searchsorted(starts, starts + HALF_WINDOW, side="right")
            smooth = np.array([np.median(k[a:b]) for a, b in zip(lo, hi)])
            # Gap i runs from the end of sample i-1 to the start of sample i.
            g_lo = np.concatenate(([self.origin], ends))
            g_hi = np.concatenate((starts, [self.stop_time]))
            speed = np.concatenate(([smooth[0]], (smooth[:-1] + smooth[1:]) / 2,
                                    [smooth[-1]]))
            self._table = (g_lo, g_hi, NOMINAL_S / speed)
        return self._table

    def scaled(self, a: float, b: float) -> float:
        """Scaled seconds of the wall interval [a, b] (``time.monotonic`` values
        within the clock's run), kernel time excluded."""
        if self.stop_time is None or not (self.origin <= a <= b <= self.stop_time):
            raise ValueError(f"interval [{a}, {b}] outside the clock's run")
        g_lo, g_hi, scale = self._gaps()
        overlap = np.clip(np.minimum(g_hi, b) - np.maximum(g_lo, a), 0.0, None)
        return float(overlap @ scale)

    def slowdown(self) -> float:
        """Median kernel time over NOMINAL_S: 1 at full speed, above 1 when slow."""
        return float(np.median(self.kernel_s)) / NOMINAL_S
