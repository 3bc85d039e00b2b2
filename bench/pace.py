"""Machine pace: how fast the machine runs a fixed kernel right now, and
how much CPU time the host takes away.

The machine these timings come from shares its cores with other
tenants, and its speed moves by up to 2x over minutes: the same cycle of
point calls ran at about 95k and about 160k calls per second, in wall
and in CPU time alike.  No window is long enough to average that out.
So the benchmark scales each cycle of program work by two factors, both
measured during that cycle:

* 1 / pace, where pace weighs the median CPU times of two fixed
  reference kernels, run between the cycle's operations, against their
  times on the reference machine.  It covers a core that runs slower,
  for example with its caches shared.
* The share of wall time the program's threads kept: the host's stolen
  CPU time (`steal` in /proc/stat) only lengthens the wall time.

A program change moves neither factor, so it moves the scaled figures
as much as the raw ones, while a slow stretch of the machine moves the
program and the factors together and cancels.

The two kernels stand for the two kinds of work the program does:
complex arithmetic in interpreted Python (like the specfun shift loops
and the CLI) and numpy reductions (like an oracle chunk).  In the
machine's slow stretches the interpreted kernel runs up to 2x slower and
the numpy kernel about 1.2x slower.  Each workload weighs the two by how
its own work slows down; run.py holds the weights, fitted to interleaved
runs of the four workloads across slow and fast stretches (see
bench/README.md).
"""

from __future__ import annotations

import cmath
import os
import statistics
import time

import numpy as np

#: each kernel half's time on an undisturbed core of the reference
#: machine; only a scale, so that scaled figures read like real ones.
INTERPRETED_REF_S = 0.5e-3
NUMPY_REF_S = 0.5e-3
#: kernel time run between operations, as a share of the program time.
PACE_SHARE = 0.08

_ARRAY = np.arange(1.0, 50_001.0)
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _interpreted() -> complex:
    acc = 0j
    for i in range(1, 1500):
        z = complex(i, 1.0)
        acc += cmath.log(z) / z
    return acc


def _numpy() -> float:
    acc = 0.0
    for _ in range(4):
        acc += float(np.sum(np.sqrt(_ARRAY)))
    return acc


def kernel_seconds() -> tuple[float, float]:
    """CPU seconds of one run of each kernel half, interpreted and numpy.
    The CPU clock leaves out the time the host stole (paravirtual steal
    accounting)."""
    t0 = time.thread_time()
    _interpreted()
    t1 = time.thread_time()
    _numpy()
    return t1 - t0, time.thread_time() - t1


def cpu_seconds() -> tuple[float, float] | None:
    """(stolen, busy) CPU seconds of all CPUs so far, from /proc/stat.
    Busy counts user, nice, system, irq and softirq time."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _, _, irq, softirq, steal = fields
    return steal * _TICK_S, (user + nice + system + irq + softirq) * _TICK_S


def kept_share(stolen: float, busy: float, wall: float) -> float:
    """Share of `wall` seconds that the threads doing the work kept.

    `stolen` CPU seconds are spread over the threads that wanted a CPU,
    on average (busy + stolen) / wall of them, and at least one thread
    carries the wall time.  So the wall time lost is stolen divided by
    max(1, (busy + stolen) / wall).  One busy thread loses all of the
    steal; two busy threads lose half of it each, and overlap.
    """
    if wall <= 0.0:
        return 1.0
    return max(0.0, 1.0 - stolen / max(wall, busy + stolen))


class Pace:
    """Scale factors of consecutive cycles of program work.

    Call sample() after each operation with the operation's time; it
    runs both kernel halves for about PACE_SHARE of that time, at least
    once.  scale() closes the cycle and returns the factors that take
    the cycle's CPU and wall timings to the reference pace: 1 / pace and
    kept share / pace.  The pace weighs the two halves' median times
    against their reference times by `interpreted_weight` and
    1 - `interpreted_weight`.
    """

    def __init__(self, interpreted_weight: float = 0.5,
                 share: float = PACE_SHARE):
        self.weight = interpreted_weight
        self.share = share
        self.history: list[tuple[float, float]] = []
        self._kernel_s: list[tuple[float, float]] = []
        self._debt = 0.0
        self._mark()

    def _mark(self) -> None:
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()

    def _kept(self) -> float:
        """kept_share() of the wall time since the previous cycle."""
        wall = time.perf_counter() - self._wall
        now = cpu_seconds()
        kept = 1.0
        if now is not None and self._cpu is not None:
            kept = kept_share(now[0] - self._cpu[0], now[1] - self._cpu[1],
                              wall)
        self._mark()
        return kept

    def sample(self, elapsed: float) -> None:
        self._debt += self.share * elapsed
        while self._debt > 0.0 or not self._kernel_s:
            halves = kernel_seconds()
            self._kernel_s.append(halves)
            self._debt -= sum(halves)

    def scale(self) -> tuple[float, float]:
        if not self._kernel_s:
            self.sample(0.0)
        interpreted = statistics.median(t for t, _ in self._kernel_s)
        numeric = statistics.median(t for _, t in self._kernel_s)
        self.history.append((interpreted, numeric))
        self._kernel_s = []
        pace = (self.weight * interpreted / INTERPRETED_REF_S
                + (1.0 - self.weight) * numeric / NUMPY_REF_S)
        return 1.0 / pace, self._kept() / pace
