"""Norm machinery: exact l1 upper bounds and empirical sup-norm estimates.

The l1 norm of each functional's weight vector bounds the operator norm
from above; the maximum over indices is exact and cheap.  The empirical
estimates sample the pointwise absolute-weight sum (for discrete operators)
or the absolute kernel integral (for integral operators) on a fine grid and
converge to the true norm from below under refinement.  Reported values are
therefore lower estimates.
"""

from __future__ import annotations

import numpy as np

from .functionals import BASIS_SPLINE, DUAL_SPLINE, QuasiInterpolant
from .quasiinterp import schoenberg

__all__ = [
    "nu_bound",
    "lebesgue_function",
    "empirical_norm_discrete",
    "empirical_norm_integral",
    "error_bound",
]


def nu_bound(q: QuasiInterpolant) -> float:
    """max over indices of the functional weight-vector l1 norms."""
    return max(lam.nu for lam in q.functionals)


def _sample_points(q: QuasiInterpolant, samples_per_span: int) -> np.ndarray:
    """Per-span uniform grid; restricted to the central half for cardinal
    sequences so that the emulated boundary cannot pollute the estimate.
    Refining by doubling ``samples_per_span`` yields nested grids."""
    ks = q.ks
    if samples_per_span < 16:
        raise ValueError("need at least 16 samples per span")
    a, b = ks.domain
    if ks.cardinal:
        width = b - a
        lo, hi = a + width / 4.0, b - width / 4.0
    else:
        lo, hi = a, b
    pts = []
    for k in range(ks.n):
        u0, u1 = ks.knot(k), ks.knot(k + 1)
        if u1 <= u0 or u1 <= lo or u0 >= hi:
            continue
        offs = np.arange(samples_per_span) / samples_per_span
        loc = u0 + (u1 - u0) * offs
        pts.append(loc[(loc >= lo) & (loc <= hi)])
    pts.append(np.array([min(hi, b)]))
    return np.concatenate(pts)


def lebesgue_function(q: QuasiInterpolant, x: float) -> float:
    """Pointwise absolute-weight sum of a discrete operator at x."""
    ks = q.ks
    k, row = ks.basis_row(x)
    coef: dict[int, float] = {}
    for r in range(ks.m + 1):
        bv = row[r]
        if bv == 0.0:
            continue
        for node, w in q.functionals[k + r].point_entries:
            coef[node] = coef.get(node, 0.0) + w * bv
    return float(sum(abs(v) for v in coef.values()))


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
    xs = _sample_points(q, samples_per_span)
    vals = np.array([lebesgue_function(q, x) for x in xs])
    if polish:
        return _polish(xs, vals, lambda x: lebesgue_function(q, x))
    return float(vals.max())


def _kernel_setup(q: QuasiInterpolant):
    """Classify the operator's kernel flavour and return ``(view, shift)``,
    or None for an operator without kernel entries.

    ``view`` evaluates the kernel-space basis and ``shift`` maps a kernel
    index to its index in that basis.
    """
    kinds = {lam.kind for lam in q.functionals if lam.kernel_entries}
    if not kinds:
        return None
    if len(kinds) > 1:
        raise ValueError("mixed kernel flavours in one operator")
    kind = kinds.pop()
    ks = q.ks
    if kind == DUAL_SPLINE:
        view, shift = ks.dual_view(), -1
    elif kind == BASIS_SPLINE:
        view, shift = ks._view, 0
    else:  # pragma: no cover
        raise ValueError(f"unexpected kernel kind {kind}")
    return view, shift


def _abs_kernel_integral(view, coef: dict[int, float], sign_samples: int, tol: float) -> float:
    """Integral of |sum_j coef_j D_j| over the union of supports.

    Within each knot span the combination is a polynomial; roots are
    bracketed on a sign-sampled subgrid and located by bisection, and each
    sign-constant piece is integrated exactly by Gauss quadrature.
    """
    if not coef:
        return 0.0
    deg = view.deg
    jmin, jmax = min(coef), max(coef)
    gx, gw = np.polynomial.legendre.leggauss(deg // 2 + 1)

    def value(t: float, k: int) -> float:
        row = view.row_at(t, k)
        out = 0.0
        for r in range(deg + 1):
            c = coef.get(k + r)
            if c is not None:
                out += c * row[r]
        return out

    total = 0.0
    for k in range(jmin - deg, jmax + 1):
        if k < view.kmin or k + 1 > view.kmax:
            continue
        u0, u1 = view.knot(k), view.knot(k + 1)
        if u1 <= u0:
            continue
        samples = np.empty(sign_samples + 2)
        samples[0], samples[-1] = u0, u1
        samples[1:-1] = u0 + (u1 - u0) * (np.arange(sign_samples) + 0.5) / sign_samples
        vals = np.array([value(t, k) for t in samples])
        cuts = [u0]
        for s in range(len(samples) - 1):
            va, vb = vals[s], vals[s + 1]
            if va == 0.0 or vb == 0.0 or (va < 0) == (vb < 0):
                continue
            lo_t, hi_t = samples[s], samples[s + 1]
            flo = va
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                fm = value(mid, k)
                if fm == 0.0 or hi_t - lo_t < tol * (u1 - u0):
                    break
                if (fm < 0) == (flo < 0):
                    lo_t, flo = mid, fm
                else:
                    hi_t = mid
            cuts.append(0.5 * (lo_t + hi_t))
        cuts.append(u1)
        for s in range(len(cuts) - 1):
            lo_t, hi_t = cuts[s], cuts[s + 1]
            if hi_t <= lo_t:
                continue
            mid, half = 0.5 * (lo_t + hi_t), 0.5 * (hi_t - lo_t)
            piece = sum(wg * value(mid + half * xg, k) for xg, wg in zip(gx, gw)) * half
            total += abs(piece)
    return total


def integral_lebesgue_function(
    q: QuasiInterpolant, x: float, mode: str = "coefficient", sign_samples: int = 8
) -> float:
    """Lebesgue-type value at x for an operator with moment functionals.

    ``coefficient`` mode sums the absolute weights accumulated on each
    unit-integral kernel (each kernel is nonnegative with unit mass, so this
    equals ``sum_g |d_g(x)|``); ``kernel`` mode integrates the absolute value
    of the combined kernel ``|sum_g d_g(x) kernel_g|`` instead, which is the
    exact sup-norm bound at x and never exceeds the coefficient value.
    Point entries contribute their absolute weights in both modes.
    """
    ks = q.ks
    setup = _kernel_setup(q)
    k, row = ks.basis_row(x)
    point_coef: dict[int, float] = {}
    kernel_coef: dict[int, float] = {}
    for r in range(ks.m + 1):
        bv = row[r]
        if bv == 0.0:
            continue
        lam = q.functionals[k + r]
        for node, w in lam.point_entries:
            point_coef[node] = point_coef.get(node, 0.0) + w * bv
        for gidx, w in lam.kernel_entries:
            kernel_coef[gidx] = kernel_coef.get(gidx, 0.0) + w * bv
    total = float(sum(abs(v) for v in point_coef.values()))
    if not kernel_coef:
        return total
    if mode == "coefficient":
        return total + float(sum(abs(v) for v in kernel_coef.values()))
    if mode != "kernel":
        raise ValueError("mode must be 'coefficient' or 'kernel'")
    view, shift = setup
    basis_coef = {
        gidx + shift: w / view.integral(gidx + shift) for gidx, w in kernel_coef.items()
    }
    return total + _abs_kernel_integral(view, basis_coef, sign_samples, 1e-13)


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
    xs = _sample_points(q, samples_per_span)
    fn = lambda x: integral_lebesgue_function(q, x, mode, sign_samples)
    vals = np.array([fn(x) for x in xs])
    if polish:
        return _polish(xs, vals, fn)
    return float(vals.max())


def error_bound(q: QuasiInterpolant, dhat: float | None = None, f=None, grid: int = 256) -> float:
    """Sup-norm error bound (1 + nu_bound) * dhat.

    ``dhat`` is the distance from f to the spline space; when omitted it is
    estimated crudely from the Greville-sampling operator on the same knots,
    whose image lies in the space, so the estimate is a valid distance bound.
    """
    if dhat is None:
        if f is None:
            raise ValueError("provide dhat or a function to estimate it from")
        s1 = schoenberg(q.ks)
        a, b = q.ks.domain
        xs = np.linspace(a, b, grid)
        approx = s1.evaluate(f, xs)
        exact = np.asarray(f(xs), dtype=float)
        dhat = float(np.max(np.abs(exact - approx)))
    return (1.0 + nu_bound(q)) * dhat
