"""Norm machinery: exact l1 upper bounds and empirical sup-norm estimates.

The l1 norm of each functional's weight vector bounds the operator norm
from above; the maximum over indices is exact and cheap.  The empirical
estimates sample a Lebesgue-type function on a fine grid: the pointwise
absolute-weight sum (discrete operators, and the coefficient mode of
integral operators) or the integral of the absolute combined kernel
(kernel mode).  They converge to the true norm from below under
refinement, so reported values are lower estimates.

All samples are evaluated in one batch.  The grid and the basis rows of
its points (``KnotSequence.basis_rows``) come from the sequence, which
keeps those of the last ``samples_per_span`` (``_sample_grid``), so every
operator on a sequence reads the same rows at that density; the
operator's weight bands turn them into the weight of each source at each
point (``WeightBand.at``); the absolute-weight sums follow directly.  In kernel
mode the combined kernel at every point is, on each kernel-space span, one
polynomial: the point's kernel weights times the power-form pieces of the
kernels on that span (``KnotSequence._kernel_pieces`` on the operator's
checked sources, gathered from a table that each sequence builds once per
degree, every kernel from its own knot window).  Its values on a subgrid of
``sign_samples`` midpoints plus the span ends bracket the roots; a sample
under the rounding bound of its own evaluation counts as a zero.  Each
sample interval is one piece, or two at a sign change between its
samples, cut there: a few Newton steps, run on all brackets together,
place the cut, and it is kept only where the computed polynomial changes
sign within ``2**-28`` in the span variable; the brackets that fail are
bisected to width ``2**-27`` (``_cuts``, ``_bisect``).  Each piece is
integrated exactly through the antiderivative, ``|F(end) - F(start)|``.
A cut at distance ``d`` from a simple root changes the integral by at
most ``|f'|max d**2``, here ``|f'|max 2**-56``, so the cuts need not be
roots to full precision.  The single-point functions are one-point calls
into the same path.
"""

from __future__ import annotations

import numpy as np

from .functionals import QuasiInterpolant
from .splinecore import KnotSequence, _int_arg

__all__ = [
    "nu_bound",
    "lebesgue_function",
    "empirical_norm_discrete",
    "empirical_norm_integral",
]


def nu_bound(q: QuasiInterpolant) -> float:
    """Largest row l1 norm of the weight bands (``q.row_norms``)."""
    return float(np.max(q.row_norms))


def _sample_grid(ks: KnotSequence, samples_per_span: int):
    """``(xs, k, rows)``: the sample points of the norm estimates and their
    basis rows (``KnotSequence.basis_rows``), read-only.  The sequence keeps
    the grid of the last ``samples_per_span`` asked for (``_grid``), so a
    refinement sweep holds one grid at a time.

    The grid is uniform per span, restricted to the central half for cardinal
    sequences so that the emulated boundary cannot pollute the estimate.
    Refining by doubling ``samples_per_span`` yields nested grids."""
    if (spp := _int_arg("samples_per_span", samples_per_span)) < 16:
        raise ValueError("need at least 16 samples per span")
    cached_spp, grid = ks._grid
    if cached_spp == spp:
        return grid
    a, b = ks.domain
    if ks.cardinal:
        width = b - a
        lo, hi = a + width / 4.0, b - width / 4.0
    else:
        lo, hi = a, b
    t = ks._t[ks.m + ks.pad : ks.m + ks.pad + ks.n + 1]  # t_0, ..., t_n, without copying the knots
    u0, u1 = t[:-1], t[1:]
    keep = (u1 > u0) & (u1 > lo) & (u0 < hi)
    offs = np.arange(spp) / spp
    loc = (u0[keep, None] + (u1 - u0)[keep, None] * offs).ravel()
    xs = np.concatenate([loc[(loc >= lo) & (loc <= hi)], [hi]])
    grid = (xs, *ks.basis_rows(xs))
    for v in grid:
        v.flags.writeable = False
    ks._grid = spp, grid
    return grid


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials with power coefficients ``c[p]`` (first axis) at ``x``."""
    out = c[-1]
    for p in range(len(c) - 2, -1, -1):
        out = out * x + c[p]
    return out


def _bisect(c, lo, hi, flo, tol: float = 2.0**-27, steps: int = 60) -> np.ndarray:
    """Sign changes of the polynomials ``c[:, i]`` (one per bracket, power
    form, coefficients first) inside the brackets ``[lo, hi]``, ``flo`` the
    values at ``lo``.  A bracket stops at an exact zero of its midpoint or
    once no wider than ``tol``; the result is the midpoint of the final
    bracket.

    The cuts only split the integral of ``|f|`` into sign-constant pieces,
    so they need not be roots to full precision: a cut at distance ``d``
    from a simple root changes the integral by at most ``|f'|max d**2``.
    With ``d <= tol/2`` and ``tol = 2**-27`` in tau in [0, 1] the change is
    at most ``|f'|max 2**-56``, under the rounding of the integral itself
    (``2**-53 |f|max``) wherever ``|f'|max <= 8 |f|max``.  A bracket of
    width 1/8 stops after 24 halvings.
    """
    neg = flo < 0  # the sign at lo, which every move of lo keeps
    lo, hi = lo.copy(), hi.copy()  # moved in place
    active = np.ones(len(lo), dtype=bool)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = _horner(c, mid)
        active &= (fm != 0.0) & (hi - lo > tol)
        if not np.count_nonzero(active):
            break
        left = active & ((fm < 0) == neg)
        np.copyto(lo, mid, where=left)
        np.copyto(hi, mid, where=active ^ left)
    return 0.5 * (lo + hi)


def _cuts(c, lo, hi, flo, tol: float = 2.0**-27) -> np.ndarray:
    """Cuts with the guarantee of ``_bisect`` (same arguments) at a fraction
    of its cost: each lies within ``tol/2`` of a sign change of the computed
    polynomial in its bracket, or on a zero of it.

    Degree 1 takes the root in closed form; higher degrees take five Newton
    steps from the bracket midpoints, each clipped to its bracket.
    A cut is kept when the polynomial is 0 at it, or at the point ``tol/2``
    to one side of it (inside the bracket), or has opposite signs at those
    two points; the brackets whose cut fails go to ``_bisect``, so a
    bracket costs at worst what bisection costs.  Newton converges only
    linearly at a multiple root, so such a bracket usually goes to
    ``_bisect``.
    """
    deg = len(c) - 1
    if not len(lo):  # nothing to cut
        return lo
    with np.errstate(divide="ignore", invalid="ignore"):
        if deg == 1:
            x = np.fmin(np.fmax(-c[0] / c[1], lo), hi)
        else:
            fd = np.zeros((deg + 1, 2, len(lo)))  # the polynomials and their derivatives
            fd[:, 0], fd[:-1, 1] = c, c[1:] * np.arange(1, deg + 1)[:, None]
            x = 0.5 * (lo + hi)
            for _ in range(5):
                f, d = _horner(fd, x)
                x = np.fmin(np.fmax(x - f / d, lo), hi)  # fmax takes lo for a NaN step (f = f' = 0)
    sign = np.sign(_horner(c, np.stack([np.maximum(x - tol / 2, lo), x, np.minimum(x + tol / 2, hi)])))
    bad = (sign[1] != 0.0) & (sign[0] * sign[2] > 0.0)
    if np.count_nonzero(bad):
        x[bad] = _bisect(c[:, bad], lo[bad], hi[bad], flo[bad], tol)
    return x


def _abs_kernel_integrals(q: QuasiInterpolant, k, weights, sign_samples: int) -> np.ndarray:
    """Integral of the absolute combined kernel ``|sum_s weights[p, s] K_g|``
    at each point p, where ``K_g`` is the unit-integral kernel of source
    ``g = k[p] + lo + s`` of the kernel band.  Each sample interval is one
    piece, or two at a sign change; a root pair between two samples of one
    sign is missed, which can only lower the value."""
    ks, band = q.ks, q.bands[1]
    # the kernels' degree, and the knot-array position of the first knot of kernel lo's window
    deg, first = ks._kernel(band.kind, band.lo)
    npts, nsrc = weights.shape
    # table[g - lo - kmin] for the sources the points reach, g - lo in kmin .. kmax + nsrc - 1
    kmin, kmax = int(k.min()), int(k.max())
    i0, i1 = np.searchsorted(band.sources, band.lo + np.array([kmin, kmax + nsrc]))
    near = band.sources[i0:i1]
    table = np.zeros((kmax - kmin + nsrc, deg + 1, deg + 1))
    table[near - band.lo - kmin] = ks._kernel_pieces(band.kind, near)
    # poly[p, s]: the combined kernel on the knot span at position first + k[p] + s
    nspans = nsrc + deg
    poly = np.zeros((npts, nspans, deg + 1))
    terms = weights[:, :, None, None] * table[(k - kmin)[:, None] + np.arange(nsrc)]
    for s in range(nsrc):
        poly[:, s : s + deg + 1] += terms[:, s]
    t = ks._t
    pos = np.clip(k[:, None] + first + np.arange(nspans), 0, len(t) - 2)
    span_width = t[pos + 1] - t[pos]
    tau = np.concatenate([[0.0], (np.arange(sign_samples) + 0.5) / sign_samples, [1.0]])
    powers = (tau[:, None] ** np.arange(deg + 1)).T
    vals = poly @ powers
    # the signs of the samples; one under the rounding bound of its own evaluation has none (0)
    sign = np.sign(vals) * (np.abs(vals) > (deg + 1) * 2.0**-53 * (np.abs(poly) @ powers))
    anti = np.zeros((deg + 2, npts, nspans))  # the antiderivative, 0 at tau = 0
    anti[1:] = np.moveaxis(poly, -1, 0) / np.arange(1, deg + 2)[:, None, None]
    ends = _horner(anti[..., None], tau)
    # each sample interval is one piece, or two split at the cut where its samples change sign
    pieces = np.abs(np.diff(ends, axis=-1))
    p, s, i = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
    at = _horner(anti[:, p, s], _cuts(poly[p, s].T, tau[i], tau[i + 1], vals[p, s, i]))
    pieces[p, s, i] = np.abs(at - ends[p, s, i]) + np.abs(ends[p, s, i + 1] - at)
    return (pieces.sum(axis=-1) * span_width).sum(axis=1)


def _mode_args(mode: str, sign_samples: int) -> tuple[str, int]:
    """The Lebesgue-function options, checked before any grid is made."""
    if mode not in ("coefficient", "kernel"):
        raise ValueError("mode must be 'coefficient' or 'kernel'")
    return mode, _int_arg("sign_samples", sign_samples, 0)


def _lebesgue_values(q: QuasiInterpolant, k, rows, mode: str, sign_samples: int) -> np.ndarray:
    """Lebesgue-type values at the points with basis rows ``(k, rows)`` (see
    integral_lebesgue_function), for options checked by ``_mode_args``."""
    point, kernel = q.bands
    total = np.abs(point.at(k, rows)).sum(axis=1)
    if not kernel.sources.size:
        return total
    weights = kernel.at(k, rows)
    if mode == "coefficient":
        return total + np.abs(weights).sum(axis=1)
    return total + _abs_kernel_integrals(q, k, weights, sign_samples)


def lebesgue_function(q: QuasiInterpolant, x: float) -> float:
    """Pointwise absolute-weight sum of a discrete operator at x (for an
    operator with moment functionals, its coefficient-mode value)."""
    return float(_lebesgue_values(q, *q.ks.basis_rows([x]), "coefficient", 0)[0])


def _polish(xs: np.ndarray, vals: np.ndarray, fn) -> float:
    """One parabola-vertex refinement of the grid argmax; the candidate is
    evaluated exactly, so the result can only improve the lower estimate."""
    i = int(np.argmax(vals))
    best = float(vals[i])
    if 0 < i < len(xs) - 1:
        x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
        f0, f1, f2 = vals[i - 1], vals[i], vals[i + 1]
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        if denom != 0.0:
            va = (x2 * (f1 - f0) + x1 * (f0 - f2) + x0 * (f2 - f1)) / denom
            vb = (x2**2 * (f0 - f1) + x1**2 * (f2 - f0) + x0**2 * (f1 - f2)) / denom
            if va < 0.0:
                xv = -vb / (2.0 * va)
                if x0 < xv < x2:
                    best = max(best, float(fn(xv)))
    return best


def empirical_norm_discrete(
    q: QuasiInterpolant, samples_per_span: int = 64, polish: bool = True
) -> float:
    """Grid maximum of the pointwise absolute-weight sum (a lower estimate)."""
    if not q.is_discrete:
        raise ValueError("operator has integral functionals; use empirical_norm_integral")
    return empirical_norm_integral(q, samples_per_span, polish=polish)


def integral_lebesgue_function(
    q: QuasiInterpolant, x: float, mode: str = "coefficient", sign_samples: int = 8
) -> float:
    """Lebesgue-type value at x for an operator with moment functionals.

    ``coefficient`` mode sums the absolute weights accumulated on each
    unit-integral kernel (each kernel is nonnegative with unit mass, so this
    equals ``sum_g |d_g(x)|``); ``kernel`` mode integrates the absolute value
    of the combined kernel ``|sum_g d_g(x) kernel_g|`` instead, each sample
    interval as one piece, or two at a sign change; this is a lower estimate
    of the exact sup-norm bound at x and never exceeds the coefficient value.
    Point entries contribute their absolute weights in both modes.
    """
    mode, sign_samples = _mode_args(mode, sign_samples)
    return float(_lebesgue_values(q, *q.ks.basis_rows([x]), mode, sign_samples)[0])


def empirical_norm_integral(
    q: QuasiInterpolant,
    samples_per_span: int = 64,
    sign_samples: int = 8,
    polish: bool = True,
    mode: str = "coefficient",
) -> float:
    """Grid maximum of the integral-operator Lebesgue function (lower estimate).

    The default ``coefficient`` mode treats the moments as independent data
    bounded by the sup norm, which is the convention behind the reference
    norm tables; ``kernel`` mode integrates the absolute combined kernel and
    gives the (smaller) true sup-norm estimate.
    """
    mode, sign_samples = _mode_args(mode, sign_samples)
    xs, k, rows = _sample_grid(q.ks, samples_per_span)
    vals = _lebesgue_values(q, k, rows, mode, sign_samples)
    if polish:
        return _polish(xs, vals, lambda x: integral_lebesgue_function(q, x, mode, sign_samples))
    return float(vals.max())
