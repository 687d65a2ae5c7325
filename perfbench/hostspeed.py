"""Host speed, measured with a fixed kernel that does not use topomeasure.

The build machine shares its cores: the speed of identical work flips
between a fast and a slow state (about 1.6x apart) from one second to the
next, and how much time it spends in each drifts over minutes.  So a run
times ``kernel`` right after every job and every set-up round, and turns
its times into reference seconds: seconds on a host where the kernel takes
``REF_KERNEL_S``.  The host's state over the stretch between two samples is
taken as the mean of the two.  A short time (one job's latency, one set-up
round) is scaled by its own stretch, whose state it shares.  A long one (a
pass's wall time) is scaled by the mean over all stretches, each weighted
by its length, because it is the sum of fast and slow stretches.  The kernel is pure Python from the standard library and does
the kinds of work the program does (exact fractions, bitmask sets, hash
tables, recursion), so a change to the program never changes it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# About the kernel's time on the 2-vCPU build machine in its fast state.
REF_KERNEL_S = 0.0025


def _subsets(mask: int, low: int) -> int:
    """Number of sub-masks of ``mask`` made of bits at or above ``low``."""
    count = 1
    bit = low
    while mask >> bit:
        if mask >> bit & 1:
            count += _subsets(mask, bit + 1)
        bit += 1
    return count


def kernel() -> tuple:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 3000):
        m = (i * 2654435761) & 0xFFFFF
        table[m] = m.bit_count()
        if i % 8 == 0:
            acc += Fraction(m & 255, i % 13 + 1)
    downs = {m & ~(m >> 1) for m in table}
    hits = sum(table.get(m ^ 0x5A5A, 0) for m in downs)
    return acc, hits, _subsets(0b1011011101, 0)


def time_kernel() -> float:
    """One kernel time, with garbage collection off so that the program's
    heap does not reach into it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    def __init__(self) -> None:
        # (mean kernel time at the two ends of a stretch, its length)
        self.stretches: list[tuple[float, float]] = []
        self.last_k: float | None = None
        self.last_t = perf_counter()

    def sample(self) -> float:
        """Time the kernel now, closing the stretch since the last sample;
        returns the factor from measured to reference seconds for what ran
        in that stretch."""
        length = perf_counter() - self.last_t
        k = time_kernel()
        mean = k if self.last_k is None else (self.last_k + k) / 2
        self.stretches.append((mean, length))
        self.last_k, self.last_t = k, perf_counter()
        return REF_KERNEL_S / mean

    def mean_s(self) -> float:
        """Kernel time, averaged over the run's time."""
        return (sum(k * w for k, w in self.stretches)
                / sum(w for _, w in self.stretches))

    def factor(self) -> float:
        """Factor from measured to reference seconds for the whole run."""
        return REF_KERNEL_S / self.mean_s()
