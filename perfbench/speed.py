"""The machine's current speed, read from a fixed piece of reference work.

A shared virtual machine runs the same Python code up to twice as fast in
one minute as in the next.  A run of the benchmark lasts well under a
minute, so every timing in it is also timed against ``reference_work``, a
fixed amount of exact arithmetic that uses only the standard library and
never ybtrace.  ``REFERENCE_S`` is what the reference work takes on the
machine the benchmark was tuned on, in its fast phases.  A time ``t`` taken
while the reference work takes ``r`` is reported as ``t * REFERENCE_S / r``:
the time it would have taken at that machine's fast-phase speed.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Fastest observed time of reference_work on a 2-vCPU Xeon VM (KVM,
# 2.0 GHz) with Python 3.11.  A constant: changing it rescales every timing.
REFERENCE_S = 0.0026


def reference_work():
    """Multiply Laurent polynomials in two variables with Fraction coefficients.

    Dicts keyed by exponent tuples, as ybtrace's own scalars are, so that the
    reference slows down with the machine the way the library does.
    """
    a = {(i, j): Fraction(i + 2 * j + 1, j + 2) for i in range(-3, 4) for j in range(4)}
    b = {k: -v for k, v in a.items()}
    b[(0, 0)] = Fraction(1)
    product = {(0, 0): Fraction(1)}
    for _ in range(2):
        out = {}
        for (i1, j1), c1 in product.items():
            for (i2, j2), c2 in a.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        product = {k: v for k, v in out.items() if v}
        a, b = b, a
    return len(product)


def reference_seconds():
    """One timing of the reference work.

    The cyclic garbage collector is off while it runs: a collection there
    would cost in proportion to everything the workload holds, so a commit
    that held more would seem to run faster.
    """
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


class SpeedLog:
    """Timings of the reference work through a run, to rescale other timings by.

    ``sample`` times the reference work; call it whenever ``due``.  ``scaled``
    rescales a timing by the fastest reference sample within WINDOW_S of it,
    which tracks the machine's phases without taking any one sample's noise.
    """

    EVERY_S = 0.1
    WINDOW_S = 0.6

    def __init__(self):
        self.times, self.seconds = [], []

    def due(self):
        return not self.times or perf_counter() - self.times[-1] >= self.EVERY_S

    def sample(self):
        self.seconds.append(reference_seconds())
        self.times.append(perf_counter())

    def scaled(self, seconds, start, end):
        """``seconds``, timed between ``start`` and ``end``, at REFERENCE_S speed."""
        lo = bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect_right(self.times, end + self.WINDOW_S)
        return seconds * REFERENCE_S / min(self.seconds[lo:hi])
