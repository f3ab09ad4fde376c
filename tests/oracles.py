"""Reference paths the tests compare the library against, each defined once.

Two kinds live here:
- exact rational arithmetic on the float knots (every float is a rational):
  symmetric functions, Gauss-Jordan elimination, the G2 row system and the
  Cox-de Boor recursion (``single_value_oracle`` on ``Fraction`` input);
- scalar float oracles, in the order of operations that the batched library
  code must reproduce bit for bit.
"""

import math
from fractions import Fraction

import numpy as np


# ------------------------------------------------------------------ windows


def knot_window(ks, j, first, count):
    """Knots t_{j+first}, ..., t_{j+first+count-1} (knot 0 sits at position m + pad)."""
    o = ks.m + ks.pad
    return ks.knots[j + first + o : j + first + count + o]


def greville_window(ks, j):
    """Knots t_{j-m+1}, ..., t_j."""
    return knot_window(ks, j, 1 - ks.m, ks.m)


def greville_point(ks, j):
    """The Greville point of index j as the mean of its window."""
    return float(greville_window(ks, j).mean())


# ------------------------------------------------------------ float oracles


def basis_row_oracle(t, i, deg, x):
    """Values of the degree-deg splines nonzero on the span [t[i], t[i+1]]
    at x in it, by the Cox-de Boor loop, in the order of operations the
    batched ``basis_rows`` must reproduce."""
    N, left, right = [1.0] + [0.0] * deg, [0.0] * (deg + 1), [0.0] * (deg + 1)
    for j in range(1, deg + 1):
        left[j] = x - t[i + 1 - j]
        right[j] = t[i + j] - x
        saved = 0.0
        for r in range(j):
            temp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[j] = saved
    return N


def single_value_oracle(t, k0, deg, j, x):
    """Value of the degree-``deg`` spline B_j at x by recursion on its own
    knot window t_{j-deg}, ..., t_{j+1}; ``t[0]`` is knot ``k0``.  On float
    input it computes in floats; on ``Fraction`` knots and x it is exact."""
    p = deg
    base = j - p - k0
    w = t[base : base + p + 2]
    assert base >= 0 and len(w) == p + 2, f"knot window for spline {j} not stored"
    if not (w[0] <= x < w[-1]):
        return 0
    N = [1 if (w[r] <= x < w[r + 1]) else 0 for r in range(p + 1)]
    for d in range(1, p + 1):
        for r in range(p + 1 - d):
            acc = 0
            den = w[r + d] - w[r]
            if den > 0:
                acc += (x - w[r]) / den * N[r]
            den = w[r + d + 1] - w[r + 1]
            if den > 0:
                acc += (w[r + d + 1] - x) / den * N[r + 1]
            N[r] = acc
    return N[0]


def kernel_moment_oracle(knots, r, center=0.0, scale=1.0):
    """r-th moment of the unit-integral B-spline on ``knots`` in the variable
    ``(x - center)/scale`` by the running-sum recurrence of h_r."""
    h = [1.0] + [0.0] * r
    for t in np.asarray(knots).tolist():
        u = (t - center) / scale
        for s in range(1, r + 1):
            h[s] += u * h[s - 1]
    return h[r] / math.comb(r + len(knots) - 1, r)


def symmetric_coeff_oracle(ks, j, r, center=0.0, scale=1.0):
    """Normalised elementary symmetric function: mean, pair formula, np.poly."""
    m = ks.m
    if r == 0:
        return 1.0
    w = (greville_window(ks, j) - center) / scale
    if r == 1:
        return float(w.mean())
    if r == 2:
        s1 = float(w.sum())
        return (s1 * s1 - float(w @ w)) / (m * (m - 1))
    coeffs = np.poly(w)  # coeffs[k] = (-1)^k * sigma_k
    return float(coeffs[r]) * (-1.0) ** r / math.comb(m, r)


# ------------------------------------------------------------------- exact


def exact_symmetric(values, r, complete):
    """Complete homogeneous (complete=True) or elementary symmetric
    polynomial of degree r of the given Fractions."""
    acc = [Fraction(1)] + [Fraction(0)] * r
    for u in values:
        for s in range(1, r + 1) if complete else range(r, 0, -1):
            acc[s] += u * acc[s - 1]
    return acc[r]


def exact_solve(M, b):
    """Gauss-Jordan elimination in Fractions."""
    n = len(b)
    A = [list(row) + [b[k]] for k, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [A[k][n] / A[k][k] for k in range(n)]


def exact_gs2_weights(ks, i):
    """G2's weights on i - 1, i, i + 1, from index i's 3x3 reproduction
    system in exact rationals on the float knots: dual-kernel moments
    h_r/C(r + m - 1, r) of the window t_{j-m+1..j} (or the Greville point's
    powers at a clamped end) against e_r/C(m, r) of i's window."""
    m, ends = ks.m, () if ks.cardinal else (0, ks.nbasis - 1)

    def window(j):
        return [Fraction(x) for x in greville_window(ks, j).tolist()]

    def member(j, r):
        if j in ends:
            return (sum(window(j)) / m) ** r
        return exact_symmetric(window(j), r, True) / math.comb(r + m - 1, r)

    M = [[member(j, r) for j in (i - 1, i, i + 1)] for r in range(3)]
    rhs = [exact_symmetric(window(i), r, False) / math.comb(m, r) for r in range(3)]
    return exact_solve(M, rhs)
