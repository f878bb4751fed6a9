"""
Machine-speed reference for the end-to-end times.

The machine this benchmark was tuned on (2 vCPUs of a shared Xeon host at
2.1 GHz) changes speed by up to a factor of two over tens of seconds, and
every time in a run moves with it: ten runs of one workload spread by 15 to
30 % between their quartiles. A run therefore also times, every quarter
second between operations, a fixed piece of work that does not touch
braidcob (mpmath complex arithmetic at 128 bits, which takes almost all of
its time, plus small Fraction and list parts) and scales each operation's
latency by NOMINAL_MS / (median of the reference samples nearest to it in
time). The results are times at the speed at which the reference takes
NOMINAL_MS; the raw times are printed beside them. No change to braidcob
can move the reference.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

from mpmath import mpc, mpf, workprec

NOMINAL_MS = 12.0  # about its median on the machine above
EVERY_S = 0.25


def _work() -> int:
    with workprec(128):
        xs = [mpc(mpf(i) / 7, mpf(i) / 11) for i in range(1, 21)]
        acc = mpc(0)
        for x in xs:
            for y in xs:
                acc += x * y.conjugate() / (y + 1)
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    perm = list(range(40))
    for i in range(3000):
        j = (i * 7) % 39
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return int(acc.real) + total.numerator % 7 + perm[0]


def sample_ms() -> float:
    """
    One timing of the reference, run twice so that the timed run finds the
    caches as the reference left them, whatever operation ran before.
    """
    _work()
    t0 = time.perf_counter()
    _work()
    return (time.perf_counter() - t0) * 1e3


def local_scales(starts: list[float], samples: list[tuple[float, float]],
                 nearest: int = 5) -> list[float]:
    """
    For each clock reading in starts (ascending), NOMINAL_MS over the median
    of the `nearest` reference samples (clock, ms) closest to it in time.
    """
    clocks = [t for t, _ in samples]
    width = min(nearest, len(samples))
    out = []
    for t in starts:
        lo = bisect.bisect_left(clocks, t) - width // 2
        lo = max(0, min(lo, len(samples) - width))
        out.append(NOMINAL_MS / statistics.median(
            ms for _, ms in samples[lo:lo + width]))
    return out


def settled_ms(count: int = 9) -> float:
    """Median of `count` samples: the speed right after set-up."""
    return statistics.median(sample_ms() for _ in range(count))
