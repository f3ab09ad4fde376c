"""Bivariate coefficient machinery on criss-cross triangulations.

A tensor mesh with both diagonals drawn in every rectangle supports C^1
quadratic splines; the operators here are handled entirely at the
coefficient level.  The monomial targets come from the known expansions of
the quadratics in that basis: the coefficient of e_rs for r, s <= 1 is the
cell-centre monomial value, and the second-degree targets pick up the
-h^2/4 (resp. -k^2/4) correction.  These targets and the cell functionals'
marginal moments come from one per-axis table, and a family's stencils and
l1 norms are arrays over the interior cells.  Pointwise evaluation is
provided only for the uniform four-direction quadratic box spline, as an
exact square/diamond overlap area; its near-best operator's norm comes from
a Bernstein subdivision of the element's quadratic piece.
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
_ZP_LEVELS = 6  # subdivision levels of the ZP norm before it gives up


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
        nx, ny = _int_arg("nx", nx, 1), _int_arg("ny", ny, 1)
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


def zp_dqi_empirical_norm(s: int) -> float:
    """Sup norm of the four-direction near-best operator at scale s, up to
    the rounding of the element values and the sums (not a lower estimate).

    The Lebesgue function sum_n |sum_k w(n - k) B(x - k)| of the stencil
    operator is Z^2-periodic and, like the element and the stencil, invariant
    under x <-> y and x -> -x, so its supremum is attained on the triangle
    0 <= y <= x <= 1/2.  Only the translates with kx, ky in {-1, 0, 1} reach
    it, and it lies in one cell of the element's mesh (lines x, y in 1/2 + Z,
    x +- y in Z), so each node's term q_n is one quadratic there.  On a
    subtriangle the Bernstein coefficients of q_n are its vertex values and
    2 q_n(m) - (q_n(a) + q_n(b))/2 on each edge ab with midpoint m; the basis
    is a partition of unity, so the largest sum_n |b_n| over the six control
    points bounds the Lebesgue function there, and its vertex values bound
    the supremum below.  Triangles whose upper bound exceeds the best vertex
    value by more than 8 ulps are split in four until none is left.
    """
    center, vertex, _ = nb_box_coeffs("four-direction", s)
    stencil = ((0, 0, center), (-s, 0, vertex), (s, 0, vertex), (0, -s, vertex), (0, s, vertex))
    kx, ky = (k.ravel() for k in np.meshgrid([-1, 0, 1], [-1, 0, 1], indexing="ij"))
    # weight of node n on translate k is w(n - k): one column per translate
    nodes: dict[tuple[int, int], int] = {}
    weights = np.zeros((len(stencil) * len(kx), len(kx)))
    for col, (tx, ty) in enumerate(zip(kx, ky)):
        for ox, oy, w in stencil:
            weights[nodes.setdefault((tx + ox, ty + oy), len(nodes)), col] = w
    tri, best = np.array([[[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]]), 0.0  # tri[triangle, vertex, xy]
    for _ in range(_ZP_LEVELS):
        # vertices a, b, c and the midpoints of the edges opposite them
        pts = np.concatenate([tri, (tri[:, [1, 2, 0]] + tri[:, [2, 0, 1]]) / 2.0], axis=1)
        # q[triangle, point, node]: the node's term at the point
        q = eval_zp_box(pts[..., :1] - kx, pts[..., 1:] - ky) @ weights[: len(nodes)].T
        q[:, 3:] = 2.0 * q[:, 3:] - (q[:, [1, 2, 0]] + q[:, [2, 0, 1]]) / 2.0  # Bernstein form
        bound = np.abs(q).sum(axis=2)  # sum_n |b_n| at the six control points
        best = max(best, float(bound[:, :3].max()))
        live = bound.max(axis=1) > best + 8.0 * np.spacing(best)
        if not live.any():
            return best
        # the four children, by index into a, b, c and the midpoints opposite them
        tri = pts[live][:, [[0, 5, 4], [5, 1, 3], [4, 3, 2], [3, 4, 5]]].reshape(-1, 3, 2)
    raise RuntimeError(f"ZP norm bounds at s={s} did not meet within {_ZP_LEVELS} subdivision levels")
