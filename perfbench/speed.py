"""Interpreter speed probe, for timings that survive a noisy shared host.

On a machine shared with other tenants the same pure-Python work can take
twice as long from one second to the next.  While a timed call runs, a
SIGALRM handler runs a fixed chunk of pure-Python work (float arithmetic,
function calls, dict and list traffic, like the CLI's own code) every
``PERIOD`` seconds in the main thread and records how long the chunk took.
One more chunk runs just before and one just after the call.  A call's
scaled time is its wall time (less the chunks run inside it) x
``REF_CHUNK_S`` / (trimmed mean chunk time), i.e. the seconds it would have
taken at a fixed reference speed.  The chunk
never touches the program under test, so both sides of a comparison are
scaled by the same yardstick.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD = 0.05
# chunk time at the reference speed; about the chunk's median on a 2-core
# Intel Xeon VM with python 3.11, so scaled seconds stay near wall seconds
REF_CHUNK_S = 3.0e-4

_clock = time.perf_counter


def _moebius(x: float, a: float) -> float:
    return a * x / ((a - 1.0) * x + 1.0)


def chunk() -> float:
    """Seconds taken by one fixed chunk of work.  The collector is paused so
    that a collection of the program's objects never lands in a chunk."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = _clock()
        table = {}
        acc = 0.0
        vals = []
        for i in range(400):
            x = (i * 0.6180339887) % 1.0
            y = _moebius(x, 1.7)
            table[i & 63] = (x, y)
            vals.append(y)
            acc += table[(i * 7) & 63][1] if (i * 7) & 63 in table else 0.0
        return _clock() - t0
    finally:
        if paused:
            gc.enable()


class Probe:
    """Times one call and samples the interpreter's speed while it runs."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0

    def _tick(self, signum, frame):
        self.samples.append(chunk())

    def __enter__(self):
        self.samples = [chunk()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._t0 = _clock()
        return self

    def __exit__(self, *exc):
        t1 = _clock()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        # the chunks run inside the call's interval: take them out of it
        self.wall = t1 - self._t0 - sum(self.samples[1:])
        self.samples.append(chunk())
        return False

    @property
    def scaled(self) -> float:
        """Wall seconds at the reference speed.  The slowest and fastest
        tenth of the chunks are dropped: a chunk the host interrupted says
        nothing about the call's own speed."""
        xs = sorted(self.samples)
        cut = len(xs) // 10
        return self.wall * REF_CHUNK_S / statistics.fmean(xs[cut:len(xs) - cut])
