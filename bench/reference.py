"""The host's speed, sampled while the benchmark runs.

The benchmark host is shared with other machines' work.  Measured there, a
fixed single-threaded computation ran up to 1.5 times slower for minutes at
a time and varied by a quarter from one second to the next, whatever
process ran it, so raw wall times of the same code spread by a quarter
between runs.  A timer signal therefore interrupts the run every
``PERIOD`` seconds and times ``kernel``, a fixed computation that belongs to
the benchmark (a pure-Python Cox-de Boor row and a small numpy product per
point, like the program's inner loops), so no change to splineqi can move
it.  A timed section is reported as its wall time less the samples taken
inside it, scaled by ``REF_SECONDS`` over the mean sample time around it:
the time it would have taken at the host's reference speed.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD = 0.2
# The kernel's time at the fastest speed observed on the benchmark host
# (Intel Xeon at 2.1 GHz, 2 vCPUs), its 5th percentile over a minute.
REF_SECONDS = 0.0022

_T = np.linspace(0.0, 1.0, 40)


def kernel(npts: int = 300) -> float:
    p = 3
    total = 0.0
    for n in range(npts):
        x = (n % 997) / 997.0
        i = min(max(int(np.searchsorted(_T, x, side="right")) - 1, p), len(_T) - p - 2)
        row = [1.0] + [0.0] * p
        left = [0.0] * (p + 1)
        right = [0.0] * (p + 1)
        for j in range(1, p + 1):
            left[j] = x - _T[i + 1 - j]
            right[j] = _T[i + j] - x
            saved = 0.0
            for r in range(j):
                tmp = row[r] / (right[r + 1] + left[j - r])
                row[r] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            row[j] = saved
        total += float(np.dot(np.asarray(row), _T[i : i + p + 1]))
    return total


class SpeedSampler:
    """Times ``kernel`` from a SIGALRM handler every PERIOD seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None):
        t = perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def rescaled(self, a, b) -> np.ndarray:
        """Sections [a, b] (arrays of perf_counter values) in reference seconds:
        wall time less the samples taken inside, times REF_SECONDS over the
        mean sample within PERIOD of the section (the nearest sample if none)."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        starts = np.asarray(self.starts)
        durs = np.asarray(self.durations)
        cum = np.concatenate([[0.0], np.cumsum(durs)])
        inside = cum[np.searchsorted(starts, b)] - cum[np.searchsorted(starts, a)]
        lo, hi = np.searchsorted(starts, a - PERIOD), np.searchsorted(starts, b + PERIOD)
        nearest = np.clip(np.searchsorted(starts, 0.5 * (a + b)), 0, len(starts) - 1)
        mean = np.where(hi > lo, (cum[hi] - cum[lo]) / np.maximum(hi - lo, 1), durs[nearest])
        return (b - a - inside) * REF_SECONDS / mean

    def summary(self) -> dict:
        d = np.asarray(self.durations)
        return {"samples": len(d), "median_s": float(np.median(d)), "min_s": float(d.min()), "max_s": float(d.max())}
