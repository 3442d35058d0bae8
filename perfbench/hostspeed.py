"""Host-speed sampling, so that timings read the same on a host whose speed
drifts.

The benchmark's shared host changes speed by up to 2x over tens of
seconds, in bursts and plateaus that no run length averages out.  A
Sampler times a small fixed kernel (exact Fraction arithmetic, dict-based
breadth-first search and small eigensolves, the mix of work the program
does) right before and after each measured call and, from a SIGALRM timer,
every INTERVAL_S during it.  The kernel is fixed code that never calls the
program, so a change to the program cannot change what it measures.

`measure(fn)` returns fn's result, its seconds with the sampler's own time
taken out, and the mean host speed over the call relative to REFERENCE_S;
seconds times speed is the call's time at the reference speed.  All of it
runs in the calling thread: the timer's handler runs between bytecodes of
the measured code.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# The kernel time taken as the reference speed: about the median on the
# host the benchmark was defined on (2 vCPUs, x86_64, Python 3.11.7, numpy
# 2.4.6, one BLAS thread), where run medians ranged from 1.2 to 2.4 ms.
REFERENCE_S = 0.0015

_N = 12
_FORM = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(_N)] for i in range(_N)]
_VECTOR = [Fraction(i % 5 - 2, 1 + i % 3) for i in range(_N)]
_ADJ = {v: ((v + 1) % 400, (v - 1) % 400, v * 7 % 400, (v + 20) % 400)
        for v in range(400)}


def kernel(eigh, sym) -> Fraction:
    """The fixed unit of work whose time measures the host's speed.

    `eigh` is numpy.linalg.eigh and `sym` a symmetric array, both from the
    Sampler: importing this module leaves numpy, whose BLAS reads its thread
    count when loaded, to the caller."""
    total = Fraction(0)
    for i in range(_N):
        row = _FORM[i]
        s = Fraction(0)
        for j in range(_N):
            s += row[j] * _VECTOR[j]
        total += _VECTOR[i] * s
    for source in (0, 100, 200):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
    for _ in range(3):
        eigh(sym)
    return total


class Sampler:
    """Kernel timings taken around and during measured calls."""

    def __init__(self):
        import numpy

        self.eigh = numpy.linalg.eigh
        sym = numpy.array([[(i * 5 + j * 3) % 13 / 13.0 for j in range(24)]
                        for i in range(24)])
        self.sym = sym + sym.T
        self.samples: list[float] = []
        self.own_s = 0.0  # time spent sampling, taken out of every clock()
        self._busy = False

    def sample(self) -> None:
        """Time the kernel once warm, with the cyclic collector off so that
        the program's heap does not change the kernel's time."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel(self.eigh, self.sym)
            t1 = perf_counter()
            kernel(self.eigh, self.sym)
            t2 = perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.samples.append(t2 - t1)
        self.own_s += t2 - t0

    def clock(self) -> float:
        """perf_counter() without the time spent sampling."""
        return perf_counter() - self.own_s

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """(fn(), its seconds without sampling, its mean speed relative to
        REFERENCE_S)."""
        self.sample()
        first = len(self.samples) - 1
        t0 = self.clock()
        result = fn()
        elapsed = self.clock() - t0
        self.sample()
        speed = statistics.fmean(REFERENCE_S / k for k in self.samples[first:])
        return result, elapsed, speed
