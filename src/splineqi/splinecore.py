"""Univariate B-spline infrastructure: knot sequences, Greville points and
symmetric functions, evaluation, kernel moments, kernel rules and integrals.

Each window quantity has one implementation, ``KnotSequence.moments``, which
works on many indices at once: Greville points (one cached array, which
``greville`` and the gather ``greville_points`` also read), the normalised
elementary symmetric functions of the Greville windows, and the kernel
moments.  ``moments`` checks its arguments and computes in ``_moments``,
which ``lam``, ``is_exact_on`` and ``nearbest._problem_data`` call on
indices they have already checked; ``dual_moment`` and ``basis_moment``
call ``moments`` with one index.  The binomial normalisers are built once
per shape.  ``moments`` and ``kernel_rules`` take a kind and indices
alike; one helper checks every index (``_indices``), and one decides which
knots a kernel kind reads (``_kernel``).  Kernel moments are closed forms, not
quadratures: the unit-integral B-spline on knots ``t_0, ..., t_k`` has
r-th raw moment ``h_r(t_0, ..., t_k) / binomial(r + k, r)``, where ``h_r``
is the complete homogeneous symmetric polynomial (de Boor, *A Practical
Guide to Splines*; E. Neuman, "Moments of B-splines", J. Comput. Appl.
Math. 1981).  Gauss quadrature over the knot spans remains only for
integrating general functions against a kernel: ``kernel_rules`` reads the
rules of many kernels from one cached table per degree, which
``basis_integrals`` also reads for the domain integrals of the cardinal
boundary splines.  ``_kernel_pieces`` likewise gathers the power-form
pieces of the dual or basis kernels, which kernel-mode norms integrate
exactly on sources their operator has already checked, from one cached
table per kernel degree.

Index conventions
-----------------
A sequence of degree ``m`` over ``[a, b]`` with ``n`` spans carries knots
``t_k`` for a contiguous integer range that always includes ``[-m, n+m]``.
The basis spline ``B_j`` of degree ``m`` has support ``[t_{j-m}, t_{j+1}]``,
so the basis over the domain is ``B_0, ..., B_{n+m-1}``.

Two layouts are supported:

* clamped: ``t_{-m} = ... = t_0 = a`` and ``b = t_n = ... = t_{n+m}`` with
  strictly increasing interior knots;
* cardinal: plain uniform knots with ``pad`` extra knots on both sides.  It
  stands in for the bi-infinite uniform setting; Greville points and moment
  kernels remain available slightly outside the basis index range so that
  operator stencils keep their interior shape near the domain ends, and norm
  sampling is restricted to the central half of the domain.
"""

from __future__ import annotations

import math
import operator
from functools import cache, cached_property

import numpy as np

__all__ = ["KnotSequence"]

_RTOL = 1e-10  # the residual bound of the reproduction checks: is_exact_on, is_exact_pi2, exactness_degree


def _int_indices(js) -> np.ndarray:
    idx = np.asarray(js)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got {idx.dtype} values")
    return idx.astype(int, copy=False)


def _index(j) -> int:
    """One index as an int: a bool is refused as ``_int_indices`` refuses
    bool values, and a float or non-number raises ``TypeError``."""
    if isinstance(j, (bool, np.bool_)):
        raise ValueError("indices must be integers, got bool values")
    return operator.index(j)


@cache
def _binomials(n: int, rmax: int, shifted: bool) -> np.ndarray:
    """``binomial(n, r)``, or ``binomial(r + n, r)`` if ``shifted``, for r = 0..rmax; read-only."""
    out = np.array([math.comb(r + n if shifted else n, r) for r in range(rmax + 1)], dtype=float)
    out.flags.writeable = False
    return out


def _int_arg(name: str, value, low: int | None = None) -> int:
    """A size argument as an int.  Floats, bools and non-numbers raise
    ``ValueError`` naming ``name``; so does a value below ``low``, if given."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _floats(text: str, where: str) -> list[float]:
    """The numbers of ``text``, split at whitespace; a token that is not one raises ``ValueError`` naming ``where``."""
    try:
        return [float(v) for v in text.split()]
    except ValueError as exc:  # float's message quotes the token
        raise ValueError(f"{where}: {exc}") from None


class KnotSequence:
    """A knot sequence of one degree, with cached Greville points and kernel rules.

    Every index a public method takes is checked in ``_indices``.  Immutable after
    construction.  Its caches are internal, and each is filled or replaced whole,
    so instances are safe for concurrent read access: the Greville points, the span
    map, the Gauss kernel rule tables, one per ``(kernel degree, npts)``
    (``_rules``), the power-form kernel pieces, one table per kernel degree
    (``_pieces``), the near-best problem stacks that ``nearbest`` assembles, solves
    (square rows of 1-norm condition below 1e8 by one batched LU solve, the rest by
    the simplex in lockstep) and certifies once per ``(kind, p, q)``, with every
    anchor's solution arrays (``_problems``), and one read-only norm sample grid
    with its basis rows, the last ``samples_per_span`` that ``normest`` asked for (``_grid``).
    """

    def __init__(self, degree: int, knots, *, cardinal: bool = False, pad: int = 0):
        degree, pad = _int_arg("degree", degree), _int_arg("pad", pad)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if pad < 0:
            raise ValueError("pad must be >= 0")
        t = np.asarray(knots, dtype=float)
        if t.ndim != 1:
            raise ValueError("knots must be a flat sequence")
        if not np.all(np.isfinite(t)):
            raise ValueError("knots must be finite (no NaN or inf)")
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be non-decreasing")
        # a knot repeated more than degree + 1 times leaves a B-spline with empty support
        over = np.flatnonzero(t[degree + 1 :] == t[: -degree - 1])
        if over.size:
            knot = t[over[0]]
            mult = np.count_nonzero(t == knot)
            raise ValueError(f"knot {knot:g} has multiplicity {mult}, above degree + 1 = {degree + 1}")
        n = len(t) - 2 * degree - 2 * pad - 1
        if n < 1:
            raise ValueError("too few knots for this degree")
        self.m = degree
        self.pad = pad
        self.cardinal = cardinal
        self.n = n
        self._t = t
        self._k0 = -(degree + pad)  # index of the first stored knot
        if self.b <= self.a:
            raise ValueError("empty domain")
        if not cardinal and (t[pad] < t[pad + degree] or t[-1 - pad - degree] < t[-1 - pad]):
            raise ValueError(f"non-cardinal knots need {degree + 1} equal knots at each end of the domain")
        self._rules: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pieces: dict[int, np.ndarray] = {}
        self._problems: dict[tuple[str, int, int], tuple] = {}  # nearbest: (first, V, b, certified stack)
        self._grid: tuple[int, tuple | None] = (0, None)  # normest._sample_grid: (samples_per_span, grid)

    # ------------------------------------------------------------------ setup

    @classmethod
    def clamped(cls, degree: int, breakpoints) -> "KnotSequence":
        """Clamped sequence from breakpoints a = x_0 < x_1 < ... < x_n = b."""
        degree = _int_arg("degree", degree, 1)
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1:
            raise ValueError("breakpoints must be a flat sequence")
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite (no NaN or inf)")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        t = np.concatenate([np.repeat(bp[0], degree), bp, np.repeat(bp[-1], degree)])
        return cls(degree, t)

    @classmethod
    def cardinal_uniform(
        cls,
        degree: int,
        nspans: int,
        *,
        pad: int = 4,
        start: float = 0.0,
        spacing: float = 1.0,
    ) -> "KnotSequence":
        """Plain uniform sequence emulating the bi-infinite cardinal setting."""
        degree, pad = _int_arg("degree", degree, 1), _int_arg("pad", pad, 0)
        if _int_arg("nspans", nspans) < 1:
            raise ValueError("nspans must be >= 1")
        for name, value in (("start", start), ("spacing", spacing)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        k = np.arange(-(degree + pad), nspans + degree + pad + 1)
        return cls(degree, start + spacing * k, cardinal=True, pad=pad)

    # ------------------------------------------------------------- properties

    @property
    def a(self) -> float:
        return float(self._t[-self._k0])

    @property
    def b(self) -> float:
        return float(self._t[self.n - self._k0])

    @property
    def domain(self) -> tuple[float, float]:
        return (self.a, self.b)

    @property
    def nbasis(self) -> int:
        return self.n + self.m

    @property
    def basis_indices(self) -> range:
        return range(self.nbasis)

    def knot(self, k: int) -> float:
        pos = _index(k) - self._k0
        if pos < 0 or pos >= len(self._t):
            raise IndexError(f"knot index {k} outside stored range")
        return float(self._t[pos])

    @property
    def knots(self) -> np.ndarray:
        return self._t.copy()

    @property
    def interior_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self._t[-self._k0 : self.n + 1 - self._k0]) > 0))

    # --------------------------------------------------------------- greville

    def greville_range(self) -> tuple[int, int]:
        """Indices j for which the Greville window t_{j-m+1..j} is stored."""
        return self._k0 + self.m - 1, self._k0 + len(self._t) - 1

    @cached_property
    def _greville(self) -> np.ndarray:
        """Every stored Greville point, from index ``greville_range()[0]`` on."""
        rows = np.arange(len(self._t) - self.m + 1)[:, None] + np.arange(self.m)
        return self._t[rows].sum(axis=-1) / self.m

    def greville(self, j: int) -> float:
        """Greville point: mean of the m knots t_{j-m+1}, ..., t_j."""
        return float(self.greville_points(_index(j)))

    def greville_points(self, js) -> np.ndarray:
        """Greville points at many indices at once, ``out[...]`` for
        ``js[...]``: one gather from the array that ``greville`` reads."""
        return self._greville[self._indices("point", js) - self.greville_range()[0]]

    def lam(self, js) -> np.ndarray:
        """Local spread gap theta_j^2 - theta_j^(2) at each index (a scalar
        for one); zero only for coincident windows.  Evaluated on each window
        shifted to its own Greville point, which is the same quantity without
        the catastrophic cancellation of the raw difference."""
        if self.m < 2:
            raise ValueError("lam is undefined for degree 1")
        js = self._indices("symmetric", js)
        return -self._moments("symmetric", js, 2, self.greville_points(js), np.float64(1.0))[..., 2]

    # ------------------------------------------------------------- evaluation

    @cached_property
    def _span_map(self) -> np.ndarray:
        """Domain span used for each span index 0..n-1: a zero-width span
        (repeated knot) passes its points on to the next nonempty span, or
        back to the last one at the right end."""
        t, o, n = self._t, -self._k0, self.n
        nonempty = np.flatnonzero(t[o + 1 : o + n + 1] > t[o : o + n])
        return nonempty[np.minimum(np.searchsorted(nonempty, np.arange(n)), len(nonempty) - 1)]

    def basis_rows(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Basis values at many points: ``(k, rows)`` with ``rows[p]`` the
        values of ``B_{k[p]}, ..., B_{k[p]+m}`` at ``xs[p]``, the point in the
        span ``[t_k, t_{k+1}]`` (the last nonempty span at x = b).

        One ``searchsorted`` finds the spans; the Cox-de Boor triangle then
        runs over all points at once, in the same order of operations for
        every point as for one, so a row does not depend on its batch.
        """
        x = np.asarray(xs, dtype=float).reshape(-1)
        a, b = self.domain
        outside = ~((x >= a) & (x <= b))  # NaN fails both comparisons
        if outside.any():
            raise ValueError(f"x={x[np.argmax(outside)]} outside domain [{a}, {b}]")
        t, k0, p = self._t, self._k0, self.m
        k = self._span_map[np.clip(np.searchsorted(t, x, side="right") - 1 + k0, 0, self.n - 1)]
        # one row per basis offset, points along the rows:
        # left[q-1] = x - t_{k+1-q}, right[q-1] = t_{k+q} - x for q = 1..m
        steps = np.arange(1, p + 1)[:, None]
        left = x - t[k - k0 + 1 - steps]
        right = t[k - k0 + steps] - x
        N = np.zeros((p + 1, len(x)))
        N[0] = 1.0
        for j in range(1, p + 1):
            # the scalar step r reads N[r] before it is overwritten, so all
            # r of one level go at once: N[r] = left_{j-r+1} T[r-1] + right_{r+1} T[r]
            lw = left[j - 1 :: -1]
            temp = N[:j] / (right[:j] + lw)
            saved = lw * temp
            prod = right[:j] * temp
            N[0] = 0.0 + prod[0]
            N[1:j] = saved[: j - 1] + prod[1:]
            N[j] = saved[j - 1]
        return k, N.T

    def basis_row(self, x: float) -> tuple[int, np.ndarray]:
        """All basis values at x: returns (start, values of B_start..B_{start+m})."""
        k, rows = self._point_rows(x)
        return int(k[0]), rows[0]

    def _point_rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``basis_rows`` at the one point x; an x that is not a scalar raises ``ValueError``."""
        if np.ndim(x) != 0:
            raise ValueError(f"x must be a scalar, got shape {np.shape(x)}")
        return self.basis_rows([x])

    def basis_integrals(self) -> np.ndarray:
        """Integral of each B_i over [a, b]: its full-support integral
        (t_{i+1} - t_{i-m})/(m + 1), which a cardinal boundary spline scales
        by the weight of its basis kernel rule on the nodes in (a, b)."""
        m, t, (a, b), pos = self.m, self._t, self.domain, np.arange(self.nbasis) - self._k0
        out = (t[pos + 1] - t[pos - m]) / (m + 1)
        if self.cardinal:
            edge = np.flatnonzero((t[pos - m] < a) | (t[pos + 1] > b))
            nodes, wts, live = self.kernel_rules("basis", edge, m // 2 + 1)
            # Gauss nodes lie inside their spans: those in (a, b) cover the domain spans
            inside = live & (nodes > a) & (nodes < b)
            out[edge] *= [w[on].sum() for w, on in zip(wts, inside)]
        return out

    # ---------------------------------------------------------------- kernels

    def _kernel(self, kind: str, js):
        """``(degree, knot-array position of each window's first knot)`` of the
        ``kind`` kernels at validated indices: basis kernel j is the degree-m
        B_j on t_{j-m..j+1}, dual kernel j the degree-(m-2) spline on the
        Greville window t_{j-m+1..j}, which ``"symmetric"`` also reads."""
        if kind == "basis":
            return self.m, js - (self.m + self._k0)
        return self.m - 2, js + (1 - self.m - self._k0)

    def kernel_rules(self, kind: str, js, npts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss rules against the unit-integral ``"dual"`` or ``"basis"``
        kernels (see ``moments``, which validates ``js`` alike): ``(nodes,
        weights, live)``, ``npts`` entries per knot span of each window on the
        last axis, so that ``weights[g] @ f(nodes[g])`` integrates f against
        the kernel of ``js[g]``; an empty span's entries are not live and
        weigh 0.  The rules of every stored kernel of a degree are built at
        once on first use, by the Cox-de Boor recursion on each kernel's own
        knot window, and cached per ``(degree, npts)``."""
        if kind not in ("dual", "basis"):
            raise ValueError(f"unknown kernel kind {kind!r}")
        npts, js = _int_arg("npts", npts, 1), self._indices(kind, js)
        deg, start = self._kernel(kind, js)
        if (deg, npts) not in self._rules:
            nwin = len(self._t) - deg - 1
            w = self._t[np.arange(nwin)[:, None] + np.arange(deg + 2)]  # every stored window
            gx, gw = np.polynomial.legendre.leggauss(npts)
            u0, u1 = w[:, :-1, None], w[:, 1:, None]
            live = np.broadcast_to(u1 > u0, (nwin, deg + 1, npts)).reshape(nwin, -1)
            half = 0.5 * (u1 - u0)
            x = (0.5 * (u0 + u1) + half * gx).reshape(nwin, -1)
            c = w.T[:, :, None]  # c[r]: knot r of every window

            def ratio(num, den):  # num / den, and 0 where den is not positive
                return np.divide(num, den, out=np.zeros_like(x), where=den > 0.0)

            N = [((c[r] <= x) & (x < c[r + 1])).astype(float) for r in range(deg + 1)]
            for d in range(1, deg + 1):
                for r in range(deg + 1 - d):
                    left = ratio(x - c[r], c[r + d] - c[r]) * N[r]
                    N[r] = 0.0 + left + ratio(c[r + d + 1] - x, c[r + d + 1] - c[r + 1]) * N[r + 1]
            wts = (half * gw).reshape(nwin, -1) * N[0]
            wts = np.divide(wts, (c[-1] - c[0]) / (deg + 1), out=np.zeros_like(x), where=live)
            self._rules[deg, npts] = (x, wts, live)
        return tuple(v[start] for v in self._rules[deg, npts])

    def _kernel_pieces(self, kind: str, js: np.ndarray) -> np.ndarray:
        """Polynomial pieces of the unit-integral ``"dual"`` or ``"basis"``
        kernels (see ``moments``) at indices from ``_indices``, or that a
        caller has checked as it would, each from its own knot window alone.

        ``out[g, r, p]`` is the coefficient of ``tau**p`` on the r-th span
        ``[u, v]`` of the window of ``js[g]``, in the local variable
        ``tau = (x - u)/(v - u)``.  The Cox-de Boor recursion runs on
        polynomials: each level multiplies by the linear factors
        ``(x - t_i)/(t_{i+d} - t_i)``, written in tau, and a factor with a
        zero denominator is zero, so the pieces of empty spans vanish.  The
        pieces of every stored window of the kernel degree are built at once
        on first use and cached per degree (``_pieces``); a call gathers its
        rows, so a kernel's pieces do not depend on the other indices.
        """
        deg, start = self._kernel(kind, js)
        if deg not in self._pieces:
            nwin = len(self._t) - deg - 1
            w = self._t[np.arange(nwin)[:, None] + np.arange(deg + 2)]  # every stored window
            u0, h = w[:, :-1, None], np.diff(w, axis=1)[:, :, None]
            span = np.arange(deg + 1)
            # N[g, r, i, p]: the spline on w[i..i+d+1] on span r, coefficient of tau^p
            N = np.zeros((nwin, deg + 1, deg + 1, deg + 1))
            N[:, span, span, 0] = 1.0

            def inverse(den):
                return np.divide(1.0, den, out=np.zeros_like(den), where=den > 0.0)

            def times_linear(P, alpha, beta):
                out = alpha[..., None] * P
                out[..., 1:] += beta[..., None] * P[..., :-1]
                return out

            for d in range(1, deg + 1):
                i = np.arange(deg + 1 - d)
                inv_a = inverse(w[:, i + d] - w[:, i])[:, None, :]
                inv_b = inverse(w[:, i + d + 1] - w[:, i + 1])[:, None, :]
                N = times_linear(N[:, :, i], (u0 - w[:, None, i]) * inv_a, h * inv_a) + times_linear(
                    N[:, :, i + 1], (w[:, None, i + d + 1] - u0) * inv_b, -h * inv_b
                )
            self._pieces[deg] = N[:, :, 0, :] * ((deg + 1) * inverse(w[:, -1] - w[:, 0]))[:, None, None]
        return self._pieces[deg][start]

    def dual_moment(self, i: int, r: int, *, center: float = 0.0, scale: float = 1.0) -> float:
        """r-th moment of the unit-integral degree-(m-2) kernel at index i in
        the variable ``(x - center)/scale``; its knots are the Greville window."""
        return float(self.moments("dual", [i], r, center=center, scale=scale)[0, r])

    def basis_moment(self, i: int, r: int, *, center: float = 0.0, scale: float = 1.0) -> float:
        """r-th moment of the unit-integral basis kernel B_i in the variable
        ``(x - center)/scale``."""
        return float(self.moments("basis", [i], r, center=center, scale=scale)[0, r])

    def _indices(self, kind: str, js) -> np.ndarray:
        """``js`` as validated indices of a window quantity of ``kind``: the
        one place that checks an index against the stored range."""
        js, m, o = _int_indices(js), self.m, -self._k0
        if kind == "dual" and m < 2:
            raise ValueError("dual kernels need degree >= 2")
        lo, hi = self.greville_range()
        for j in (int(js.min()), int(js.max())) if js.size else ():  # the valid indices form a range
            if kind == "basis" and not (0 <= j - m + o and j + 1 + o < len(self._t)):
                raise IndexError(f"basis kernel window for index {j} not stored")
            if kind == "dual" and not self.cardinal and not 1 <= j <= self.nbasis - 2:
                raise ValueError(f"dual kernel index {j} outside interior range [1, {self.nbasis - 2}]")
            if kind != "basis" and not lo <= j <= hi:
                raise IndexError(f"Greville index {j} outside stored range [{lo}, {hi}]")
        if kind == "dual" and (flat := self._t[js + o] <= self._t[js + o - m + 1]).any():
            raise ValueError(f"degenerate dual kernel window at index {js[flat][0]}")
        return js

    def moments(self, kind: str, js, rmax: int, *, center=0.0, scale=1.0) -> np.ndarray:
        """Orders 0..rmax of a window quantity at many indices at once, in the
        variable ``(x - center)/scale``; ``out[..., r]`` belongs to ``js[...]``
        and ``center`` and ``scale`` broadcast against ``js``.  The only
        implementation of each quantity: the one-index methods call it with
        one index.

        ``kind`` is ``"point"`` (``((theta_j - center)/scale)**r`` by repeated
        products, theta_j from the array that ``greville`` reads),
        ``"symmetric"`` (``e_r / binomial(m, r)`` of the Greville window, so
        that ``x**r = sum_j out[j, r] B_j(x)`` in the variable, by the
        elementary symmetric recurrence), ``"dual"`` or ``"basis"``
        (``dual_moment`` / ``basis_moment``: ``h_r / binomial(r + k, r)`` of
        the kernel's k + 1 knots, by the complete homogeneous one, one
        cumulative sum over the knots per order).  Each recurrence runs on
        every window together.
        Indices are validated by ``_indices``; an unknown kind, an order that
        is negative or not an integer, non-integer indices, a non-finite
        ``center`` and a ``scale`` that is not finite and positive raise
        ``ValueError``.
        """
        if kind not in ("point", "symmetric", "dual", "basis"):
            raise ValueError(f"unknown moment kind {kind!r}")
        m, js, rmax = self.m, self._indices(kind, js), _int_arg("moment order", rmax)
        if kind == "symmetric" and not 0 <= rmax <= m:
            raise ValueError(f"order r={rmax} must satisfy 0 <= r <= degree={m}")
        if rmax < 0:
            raise ValueError(f"moment order must be >= 0, got {rmax}")
        center, scale = np.asarray(center, dtype=float), np.asarray(scale, dtype=float)
        # one reduction over the broadcast arrays; NaN fails every comparison
        if not ((np.abs(center) < np.inf) & (scale > 0.0) & (scale < np.inf)).all():
            raise ValueError("center must be finite, and scale finite and > 0")
        return self._moments(kind, js, rmax, center, scale)

    def _moments(self, kind: str, js: np.ndarray, rmax: int, center: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """``moments`` on arguments that passed its checks, or that a caller
        has checked as it would: indices from ``_indices``, an order in range,
        and float arrays ``center`` (finite) and ``scale`` (finite, > 0)."""
        m = self.m
        if kind == "point":
            knots = self._greville[js - self.greville_range()[0]][..., None]
        else:
            deg, start = self._kernel(kind, js)
            knots = self._t[start[..., None] + np.arange(deg + 2)]
        u = (knots - center[..., None]) / scale[..., None]
        shape, u = u.shape[:-1], u.reshape(-1, u.shape[-1]).T  # u[k, index]
        h = np.zeros((rmax + 1, u.shape[1]))
        h[0] = 1.0
        if kind == "symmetric":
            for uk in u:
                h[1:] += uk * h[:-1]  # e_s += u_k e_{s-1}, all s from the old values
        else:  # h_s after knot k = h_s after knot k-1 + u_k h_{s-1} after knot k
            H = 1.0  # h_0
            for s in range(1, rmax + 1):  # + 0.0 maps -0.0 to +0.0: the sums start from 0.0
                H = np.add.accumulate(u * H + 0.0)  # the cumulative sum over the knots
                h[s] = H[-1]
        # e_r / binomial(m, r), and h_r / binomial(r + k, r) on k + 1 knots
        norm = _binomials(m, rmax, False) if kind == "symmetric" else _binomials(len(u) - 1, rmax, True)
        return (h.T / norm).reshape(shape + (rmax + 1,))

    def __repr__(self) -> str:
        kind = "cardinal" if self.cardinal else "clamped"
        return f"KnotSequence(degree={self.m}, spans={self.n}, {kind}, domain=[{self.a:g}, {self.b:g}])"
