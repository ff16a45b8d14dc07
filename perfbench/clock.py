"""Machine-speed-corrected timing for a shared, noisy host.

On a machine shared with other tenants the speed of one core drifts in
phases of seconds: the same pure-Python loop runs 1.5x slower while a
neighbour is busy.  That drift moved raw wall times by ~30% between
identical runs, far beyond any useful regression bound.

SpeedClock samples the machine while the measured code runs: every
PERIOD_S an interval-timer signal runs a fixed calibration kernel (Python
big-int arithmetic, the same kind of work mpmath's pure-Python backend
does) in the measured thread and records how long it took.  A timed
interval is then reported as

    sum over its pieces of  (piece length - kernel time) * K_REF / k_local

where k_local is the median kernel time of the nearby samples and K_REF
is the kernel time of a quiet machine, so values read as seconds at
reference speed.  The kernel's own time is excluded from every interval.
The raw wall times are reported next to the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
K_REF_S = 2.0e-4        # kernel time on a quiet 2-core host of the baseline kind
WINDOW = 3              # samples on each side for the local median

_KA = (1 << 299) + 0x1234567890ABCDEF
_KB = (1 << 298) + 0xFEDCBA987654321
_MASK = (1 << 300) - 1


def kernel(rounds: int = 600) -> int:
    """Fixed calibration work: 300-bit multiplies, shifts and masks in a Python loop."""
    a = _KA
    for _ in range(rounds):
        a = ((a * _KB) >> 298) ^ _KB
        a = ((a + (a >> 7)) & _MASK) | 1
    return a.bit_length()


class SpeedClock:
    """Samples machine speed in the current thread; converts raw intervals to corrected seconds."""

    def __init__(self):
        self.starts: list[float] = []     # handler entry times
        self.handler: list[float] = []    # handler durations (excluded from intervals)
        self.kernel_s: list[float] = []   # kernel durations (the speed samples)
        self._prefix: list[float] = []
        self._factor: list[float] = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a stall longer than PERIOD_S re-entered the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.handler.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        self._build()

    def _build(self):
        k = self.kernel_s
        self._factor = [K_REF_S / _median(k[max(0, i - WINDOW):i + WINDOW + 1])
                        for i in range(len(k))]
        prefix = [0.0]
        for i in range(len(self.starts) - 1):
            work = self.starts[i + 1] - self.starts[i] - self.handler[i]
            prefix.append(prefix[-1] + max(0.0, work) * self._factor[i])
        self._prefix = prefix

    def _cumulative(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self._factor[0]
        return self._prefix[i] + max(0.0, t - self.starts[i] - self.handler[i]) * self._factor[i]

    def corrected(self, a: float, b: float) -> float:
        """Seconds at reference speed spent in [a, b] (perf_counter times), kernel time excluded."""
        return self._cumulative(b) - self._cumulative(a)

    def raw(self, a: float, b: float) -> float:
        """Wall seconds in [a, b] minus the kernel time sampled inside it."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return (b - a) - sum(self.handler[lo:hi])

    def speed(self) -> float:
        """Median machine speed over the run relative to reference (1.0 = reference)."""
        return _median(self._factor)


def _median(values) -> float:
    # statistics is not imported: the set-up probe loads this module before
    # oscgauss, and must not pre-load anything oscgauss would import.
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2
