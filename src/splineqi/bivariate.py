"""Bivariate coefficient machinery on criss-cross triangulations.

A tensor mesh with both diagonals drawn in every rectangle supports C^1
quadratic splines; the operators here are handled entirely at the
coefficient level.  The monomial targets come from the known expansions of
the quadratics in that basis: the coefficient of e_rs for r, s <= 1 is the
cell-centre monomial value, and the second-degree targets pick up the
-h^2/4 (resp. -k^2/4) correction.  These targets and the cell functionals'
marginal moments come from one per-axis table, and a family's stencils and
l1 norms are arrays over the interior cells.  Pointwise evaluation is
provided only for the uniform four-direction quadratic box spline, whose
value is computed exactly as a square/diamond convolution overlap area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .splinecore import _int_arg

__all__ = [
    "TensorMesh",
    "BivariateFunctionalFamily",
    "nb_box_coeffs",
    "crisscross_t2",
    "crisscross_g2",
    "monomial_residuals",
    "eval_zp_box",
    "zp_dqi_empirical_norm",
]

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
_SPREAD = {"point": np.inf, "pyramid": 20.0, "cell": 12.0}  # variance = span^2 / spread
_ZP_BLOCK = 1 << 15  # elements per scratch array of the ZP norm's row blocks


@dataclass(frozen=True)
class TensorMesh:
    """Strictly increasing grid lines; cell i spans [x_i, x_{i+1}] (0-based)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if len(x) < 2 or len(y) < 2:
            raise ValueError("need at least one cell per direction")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("grid lines must be finite (no NaN or inf)")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grid lines must be strictly increasing")

    @classmethod
    def uniform(cls, nx: int, ny: int, width: float = 1.0) -> "TensorMesh":
        return cls(np.arange(nx + 1) * width, np.arange(ny + 1) * width)

    @classmethod
    def from_text(cls, text: str) -> "TensorMesh":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("expected one line of x knots and one of y knots")
        return cls(
            np.array([float(v) for v in lines[0].split()]),
            np.array([float(v) for v in lines[1].split()]),
        )

    @property
    def hx(self) -> np.ndarray:
        return np.diff(self.x)

    @property
    def hy(self) -> np.ndarray:
        return np.diff(self.y)

    @property
    def sx(self) -> np.ndarray:
        """Cell midpoints in x."""
        return 0.5 * (self.x[:-1] + self.x[1:])

    @property
    def sy(self) -> np.ndarray:
        return 0.5 * (self.y[:-1] + self.y[1:])

    @property
    def ncx(self) -> int:
        return len(self.x) - 1

    @property
    def ncy(self) -> int:
        return len(self.y) - 1


def nb_box_coeffs(mesh_type: str, s: int) -> tuple[float, float, float]:
    """Near-best stencil weights on the uniform three/four direction meshes.

    Returns (centre weight, vertex weight, nu_star).  Three-direction
    stencils put the vertex weight at the six hexagon vertices of scale s,
    four-direction at the four lozenge vertices; both have the same l1 bound
    1 + 1/s^2.
    """
    s = _int_arg("scale s", s, 1)
    center = 1.0 + 1.0 / (2.0 * s * s)
    if mesh_type == "three-direction":
        vertex = -1.0 / (12.0 * s * s)
    elif mesh_type == "four-direction":
        vertex = -1.0 / (8.0 * s * s)
    else:
        raise ValueError("mesh_type must be 'three-direction' or 'four-direction'")
    return center, vertex, 1.0 + 1.0 / (s * s)


@dataclass(frozen=True)
class BivariateFunctionalFamily:
    """Directional weights of a degree-2-reproducing cell-moment operator.

    ``a``/``abar`` act on the x-neighbour cells, ``c``/``cbar`` on the
    y-neighbours; the centre weight closes the partition of unity.  These
    four are indexed by cell column or row and hold NaN at boundary cells;
    ``stencils()`` and ``nu()`` hold each interior cell's weights and l1 norm,
    entry ``[..., i - 1, j - 1]`` for cell (i, j), 0 < i < ncx - 1, 0 < j < ncy - 1.
    """

    tag: str
    mesh: TensorMesh
    moment_kind: str
    a: np.ndarray
    abar: np.ndarray
    c: np.ndarray
    cbar: np.ndarray

    def __post_init__(self):
        if self.moment_kind not in _SPREAD:
            raise ValueError(f"unknown moment kind {self.moment_kind!r}; use one of {', '.join(_SPREAD)}")

    def stencils(self) -> np.ndarray:
        """``(a, abar, centre, c, cbar)`` stacked over the interior cells: the
        weights of the cells left of, right of, at, below and above each one."""
        a, abar = self.a[1:-1, None], self.abar[1:-1, None]
        c, cbar = self.c[None, 1:-1], self.cbar[None, 1:-1]
        w = np.empty((5, len(a), c.shape[1]))
        w[0], w[1], w[2], w[3], w[4] = a, abar, 1.0 - (a + abar + c + cbar), c, cbar
        return w

    def nu(self) -> np.ndarray:
        """Each interior cell's l1 norm, its stencil's weights summed in order."""
        return sum(np.abs(self.stencils()))

    def nu_bound(self) -> float:
        return float(self.nu().max())

    def is_exact_pi2(self, rtol: float = 1e-10) -> tuple[bool, float]:
        """Coefficient-level reproduction of all monomials of total degree <= 2,
        on all interior cells at once; a cell passes when its residual on e_rs
        is at most ``rtol * scale**(r+s)``, ``scale`` being the largest of 1 and
        ``|s| + max h`` over the neighbour spans on either axis."""
        mesh = self.mesh
        a, abar, centre, c, cbar = self.stencils()
        mx, tx, sx = _axis(self.moment_kind, mesh.sx, mesh.hx)
        my, ty, sy = _axis(self.moment_kind, mesh.sy, mesh.hy)
        scale = np.maximum(np.maximum(1.0, sx[:, None]), sy[None, :])
        ok, worst = True, 0.0
        for r, s in _MONOMIALS:
            X, Y = mx[r][:, None], my[s][None, :]
            Xc, Yc = X[1:-1], Y[:, 1:-1]
            got = a * (X[:-2] * Yc) + abar * (X[2:] * Yc) + centre * (Xc * Yc)
            got = got + c * (Xc * Y[:, :-2]) + cbar * (Xc * Y[:, 2:])
            res = np.abs(got - tx[r][1:-1, None] * ty[s][None, 1:-1])
            # a NaN residual fails the test and is reported (np.maximum keeps it)
            ok = ok and bool(np.all(res <= rtol * scale ** (r + s)))
            worst = np.maximum(worst, res.max(initial=0.0))
        return ok, float(worst)


def _axis(kind: str, mid: np.ndarray, span: np.ndarray) -> tuple:
    """Along one axis: the cell marginals' moments and the basis targets of
    orders 0, 1, 2, and for each interior cell |mid| + its largest neighbour span."""
    one = np.ones_like(mid)
    reach = np.abs(mid[1:-1]) + np.maximum(np.maximum(span[:-2], span[1:-1]), span[2:])
    moments = [one, mid, mid * mid + span * span / _SPREAD[kind]]
    return moments, [one, mid, mid**2 - span**2 / 4.0], reach


def _directional_weights(h: np.ndarray, three: float, four: float) -> tuple[np.ndarray, np.ndarray]:
    """Left/right neighbour weights -c*h_i^2 / ((h_{i-1}+h_i)(a*h_{i-1}+b*h_i+a*h_{i+1}))
    style ratios shared by the two operators; NaN at boundary cells."""
    left, right = np.full(len(h), np.nan), np.full(len(h), np.nan)
    hm, h0, hp = h[:-2], h[1:-1], h[2:]
    mid = three * hm + four * h0 + three * hp
    # float_power is libm pow, as for a scalar h_i ** 2 (h0 ** 2 squares by
    # multiplication, which can round differently in the last bit)
    left[1:-1] = -three * np.float_power(h0, 2) / ((hm + h0) * mid)
    right[1:-1] = -three * np.float_power(h0, 2) / (mid * (h0 + hp))
    return left, right


def _checked_family(tag: str, kind: str, mesh: TensorMesh, three: float, four: float):
    """The family from its directional weights, once ``is_exact_pi2`` passes."""
    a, abar = _directional_weights(mesh.hx, three, four)
    c, cbar = _directional_weights(mesh.hy, three, four)
    fam = BivariateFunctionalFamily(tag, mesh, kind, a, abar, c, cbar)
    ok, worst = fam.is_exact_pi2()
    if not ok:
        raise RuntimeError(f"{tag} reproduction check failed (worst residual {worst:.3e})")
    return fam


def crisscross_t2(mesh: TensorMesh) -> BivariateFunctionalFamily:
    """Degree-2-reproducing operator with normalized pyramid moments.

    Directional weights a_i = -3 h_i^2 / ((h_{i-1}+h_i)(3h_{i-1}+4h_i+3h_{i+1}))
    and mirrored; all four stay within [-3/4, 0] on every mesh.
    """
    return _checked_family("T2", "pyramid", mesh, 3.0, 4.0)


def crisscross_g2(mesh: TensorMesh) -> BivariateFunctionalFamily:
    """Degree-2-reproducing operator with cell-average moments.

    Directional weights alpha_i = -h_i^2 / ((h_{i-1}+h_i)(h_{i-1}+h_i+h_{i+1}))
    and mirrored; all four stay within [-1, 0] on every mesh.
    """
    return _checked_family("G2", "cell", mesh, 1.0, 1.0)


def monomial_residuals(tag: str, mesh: TensorMesh) -> dict:
    """Per-cell residual coefficients of the simple families on e_20 and e_02.

    For the Greville-sampling (S1), pyramid-moment (T1) and cell-average
    (G1) operators the residual against the degree-2 target is h_i^2 times
    1/4, 3/10 and 1/3 respectively, and the same in k_j^2 for e_02.
    """
    kinds = {"S1": "point", "T1": "pyramid", "G1": "cell"}
    if tag not in kinds:
        raise ValueError("tag must be one of S1, T1, G1")
    mx, tx, _ = _axis(kinds[tag], mesh.sx, mesh.hx)
    my, ty, _ = _axis(kinds[tag], mesh.sy, mesh.hy)
    zero = np.zeros((mesh.ncx, mesh.ncy))
    return {"e20": zero + (mx[2] - tx[2])[:, None], "e02": zero + (my[2] - ty[2])[None, :]}


def eval_zp_box(x, y):
    """Centred C^1 quadratic box spline on the uniform four-direction mesh.

    The value equals half the overlap area of the unit square centred at
    (x, y) with the unit diamond |u| + |v| <= 1, evaluated exactly in the
    rotated frame as a piecewise-linear 1-D integral.  Supported on the
    octagon with vertices (+-3/2, +-1/2), (+-1/2, +-3/2); integer translates
    form a partition of unity.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p0 = np.abs(x + y)
    q0 = np.abs(x - y)
    hi = np.maximum(p0, q0)
    lo = np.minimum(p0, q0)
    # kink offset of the section length: the branch switch at lo while the
    # diamond still reaches the square, the clipped-support edge 2 - lo beyond
    d2 = np.clip(np.minimum(lo, 2.0 - lo), 0.0, 1.0)
    bps = np.stack([hi - 1.0, hi - d2, hi, hi + d2, hi + 1.0])
    area = np.zeros(np.broadcast(x, y).shape)
    for seg in range(4):
        a = np.clip(bps[seg], -1.0, 1.0)
        b = np.clip(bps[seg + 1], -1.0, 1.0)
        width = b - a
        mid = 0.5 * (a + b)
        w = 1.0 - np.abs(mid - hi)
        length = np.maximum(0.0, np.minimum(2.0 * w, 1.0 - lo + w))
        area += np.maximum(width, 0.0) * length
    result = area / 4.0
    return float(result) if result.ndim == 0 else result


def zp_dqi_empirical_norm(s: int, grid: int = 400) -> float:
    """Empirical sup norm of the four-direction near-best operator at scale s.

    The Lebesgue function sum_n |sum_k w(n - k) B(x - k)| of the stencil
    operator is Z^2-periodic and, like the element and the stencil, invariant
    under x <-> y and x -> -x, so its supremum is attained on the triangle
    0 <= y <= x <= 1/2.  The samples are the midpoints (i + 1/2)/grid of a
    grid x grid partition of the period in that triangle: the images of all
    of the period's midpoints, since the grid is closed under x -> 1 - x.
    Only the translates with kx, ky in {-1, 0, 1} reach the triangle, which
    lies in one cell of the element's mesh (lines x, y in 1/2 + Z, x +- y in
    Z), so each is one quadratic there, fitted at the six P2 nodes (vertices
    and edge midpoints); folded with the stencil weights they give one
    quadratic per node n.  The result is a lower estimate of the true norm.

    The rows y = const of the triangle are evaluated in blocks: one pass of
    numpy calls covers several rows on a (nodes, rows, columns) array, the
    samples with x < y left out of the maximum.  The number of rows per
    block follows a fixed element budget (more rows as the triangle
    narrows, one row where a row alone exceeds it), and two scratch arrays
    serve every block, so the memory stays bounded at any grid.  Every
    sample keeps the bits of a one-row-at-a-time evaluation: the
    elementwise operations run in the same order, and the sum over the
    nodes runs in node order.  The last row, the diagonal point alone, is
    summed on its own: numpy sums a single column pairwise, and the bits
    of that sum are kept too.
    """
    grid = _int_arg("grid", grid, 1)
    center, vertex, _ = nb_box_coeffs("four-direction", s)
    stencil = ((0, 0, center), (-s, 0, vertex), (s, 0, vertex), (0, -s, vertex), (0, s, vertex))
    kx, ky = (k.ravel() for k in np.meshgrid([-1, 0, 1], [-1, 0, 1], indexing="ij"))
    # weight of node n on translate k is w(n - k): one column per translate
    nodes: dict[tuple[int, int], int] = {}
    weights = np.zeros((len(stencil) * len(kx), len(kx)))
    for col, (tx, ty) in enumerate(zip(kx, ky)):
        for ox, oy, w in stencil:
            weights[nodes.setdefault((tx + ox, ty + oy), len(nodes)), col] = w
    px, py = np.array([0.0, 0.5, 0.5, 0.25, 0.5, 0.25]), np.array([0.0, 0.0, 0.5, 0.0, 0.25, 0.25])
    vander = np.stack([np.ones(6), px, py, px * py, px * px, py * py], axis=1)
    fit = np.linalg.solve(vander, eval_zp_box(px[:, None] - kx, py[:, None] - ky))
    # coefficients of 1, x, y, xy, x^2, y^2 in each node's polynomial
    c0, cx, cy, cxy, cxx, cyy = (fit @ weights[: len(nodes)].T)[:, :, None]
    half = (np.arange((grid + 1) // 2) + 0.5) / grid  # the midpoints in [0, 1/2]
    xpart = cx * half + cxx * (half * half)
    nn, n = xpart.shape
    # a block of rows half[j:j + rows] spans the columns half[j:]; it fills at
    # most _ZP_BLOCK elements of each scratch array unless one row needs more
    cap = min(max(_ZP_BLOCK // nn, n), n * (n - 1))  # elements per node
    scratch = np.empty((2, nn * cap))
    best = 0.0
    j = 0
    while j < n - 1:
        cols = n - j
        rows = min(cap // cols, n - 1 - j)
        y = half[j : j + rows]
        val, xy = (buf[: nn * rows * cols].reshape(nn, rows, cols) for buf in scratch)
        # x-only part + y-only constant + xy term
        np.copyto(val, xpart[:, None, j:])
        val += (c0 + cy * y + cyy * (y * y))[:, :, None]
        np.copyto(xy, half[j:])
        xy *= (cxy * y)[:, :, None]
        val += xy
        # summed over the node axis in node order; x < y is outside the triangle
        lebesgue = np.abs(val, out=val).sum(axis=0)
        inside = np.arange(cols) >= np.arange(rows)[:, None]
        best = max(best, float(lebesgue.max(initial=0.0, where=inside)))
        j += rows
    # the last row is the diagonal point alone: numpy sums a one-column array
    # pairwise, not in node order, and the s = 1 maximum at grid 400 is there
    y = half[-1]
    row = xpart[:, -1:] + (c0 + cy * y + cyy * (y * y)) + (cxy * y) * half[-1:]
    return max(best, float(np.abs(row).sum(axis=0).max()))
