"""Seeded benchmark inputs, made with numpy alone.

The program receives only the breakpoints and mesh lines generated here;
nothing in this module calls ``splineqi``.
"""

from __future__ import annotations

import numpy as np

ROUGH_RATIO = 1e3  # largest span over smallest span, log-uniform in between

# The partition on which the simplex fault reproduces: 100 rough spans drawn
# from default_rng(8).  It does not depend on the workload seed.
FIXED_SEED = 8
FIXED_SPANS = 100


def rough_breakpoints(rng: np.random.Generator, nspans: int, ratio: float = ROUGH_RATIO) -> np.ndarray:
    """Breakpoints on [0, 1] whose spans are log-uniform in [1, ratio], rescaled."""
    spans = np.exp(rng.uniform(0.0, np.log(ratio), nspans))
    cuts = np.concatenate([[0.0], np.cumsum(spans)])
    return cuts / cuts[-1]


def fixed_breakpoints() -> np.ndarray:
    return rough_breakpoints(np.random.default_rng(FIXED_SEED), FIXED_SPANS)


def clamped_knots(bp: np.ndarray, m: int) -> np.ndarray:
    """Full clamped knot vector of degree m over the breakpoints."""
    return np.concatenate([np.repeat(bp[0], m), bp, np.repeat(bp[-1], m)])


def greville(bp: np.ndarray, m: int) -> np.ndarray:
    """Greville abscissae of the clamped degree-m basis (means of m consecutive knots)."""
    t = clamped_knots(bp, m)
    c = np.concatenate([[0.0], np.cumsum(t)])
    j = np.arange(len(bp) - 1 + m)
    return (c[j + 1 + m] - c[j + 1]) / m


def is_balanced(bp: np.ndarray, p: int, margin: float = 1e-9) -> bool:
    """Stencil balance condition of the quadratic three-node operator with offset p,
    theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p} <= theta_i + theta_{i+1},
    held with a margin wherever the +-p window exists."""
    th = greville(bp, 2)
    i = np.arange(p, len(th) - p)
    mid = th[i - p] + th[i + p]
    return bool(
        np.all(th[i - 1] + th[i] <= mid - margin) and np.all(mid <= th[i] + th[i + 1] - margin)
    )


def balanced_breakpoints(rng: np.random.Generator, nspans: int, offsets=(2, 3), jitter: float = 0.4) -> np.ndarray:
    """Mildly perturbed uniform breakpoints that satisfy the balance condition
    for every offset given (rejection sampling; the draws depend only on rng)."""
    for _ in range(1000):
        spans = 1.0 + jitter * rng.random(nspans)
        cuts = np.concatenate([[0.0], np.cumsum(spans)])
        bp = cuts / cuts[-1]
        if all(is_balanced(bp, p) for p in offsets):
            return bp
    raise RuntimeError("no balanced partition drawn; lower the jitter")


def sample_grid(bp: np.ndarray, samples_per_span: int) -> np.ndarray:
    """The per-span uniform grid that the empirical norms sample on a clamped
    partition: samples_per_span points from the left end of each span, plus b."""
    offs = np.arange(samples_per_span) / samples_per_span
    u0, u1 = bp[:-1, None], bp[1:, None]
    return np.concatenate([(u0 + (u1 - u0) * offs).ravel(), bp[-1:]])


def cardinal_grid(nspans: int, samples_per_span: int) -> np.ndarray:
    """The same grid on a cardinal sequence with unit spans over [0, nspans],
    restricted to the central half of the domain."""
    bp = np.arange(nspans + 1, dtype=float)
    lo, hi = nspans / 4.0, 3.0 * nspans / 4.0
    keep = (bp[:-1] < hi) & (bp[1:] > lo)
    offs = np.arange(samples_per_span) / samples_per_span
    u0 = bp[:-1][keep, None]
    pts = (u0 + offs).ravel()
    return np.concatenate([pts[(pts >= lo) & (pts <= hi)], [hi]])
