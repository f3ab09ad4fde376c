"""Near-best weight selection: minimize the l1 norm of a coefficient vector
subject to polynomial-reproduction equality constraints.

The constraint matrix for a discrete functional with stencil half-width p
and reproduction degree q is the (q+1) x (2p+1) Vandermonde-type matrix of
node powers; integral functionals replace node powers with kernel moments.
Columns are assembled in monomials shifted to the anchor and scaled by the
stencil half-width, which keeps the systems well conditioned without
changing the feasible set.  Assembly happens once per knot sequence and
``(kind, p, q)``: the first ``from_*`` call builds every anchor whose stencil
fits in one vectorised pass and caches the stack on the sequence; each call
returns owned copies of its anchor's row.

The solver is a dense two-phase simplex on the split form
``lam = u - v, u, v >= 0``.  The pivot order is Bland's (first column with a
negative reduced cost; least ratio, ties to the smallest basic variable), so
results are deterministic and termination is finite.  A pivot is one rank-1
update of the whole tableau; the scans run over Python floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .splinecore import KnotSequence, _int_arg

__all__ = [
    "NearBestProblem",
    "NearBestSolution",
    "InfeasibleError",
    "simplex_min",
    "solve_l1",
    "solve_weighted_l1",
    "solve_symmetric_uniform",
]


class InfeasibleError(ValueError):
    """The equality constraints admit no solution (rank-deficient or non-finite data)."""


@dataclass(frozen=True)
class NearBestProblem:
    """One anchor's minimization data: matrix, right-hand side, and sizes."""

    matrix: np.ndarray  # (q+1, 2p+1)
    rhs: np.ndarray  # (q+1,)
    anchor: int
    p: int
    q: int

    def __post_init__(self):
        rows, cols = self.matrix.shape
        if rows != self.q + 1 or cols != 2 * self.p + 1:
            raise ValueError("matrix shape inconsistent with p, q")
        if self.rhs.shape != (self.q + 1,):
            raise ValueError("rhs shape inconsistent with q")
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.rhs).all()):
            raise ValueError("matrix and rhs must be finite")

    @classmethod
    def from_discrete(cls, ks: KnotSequence, i: int, p: int, q: int) -> "NearBestProblem":
        """Point-evaluation columns at Greville nodes theta_{i-p}, ..., theta_{i+p}."""
        return cls._from_stack(ks, "point", i, p, q)

    @classmethod
    def from_integral(cls, ks: KnotSequence, i: int, p: int, q: int) -> "NearBestProblem":
        """Moment columns against the unit-integral basis kernels B_{i-p}, ..., B_{i+p}."""
        return cls._from_stack(ks, "basis", i, p, q)

    @classmethod
    def _from_stack(cls, ks: KnotSequence, kind: str, i: int, p: int, q: int) -> "NearBestProblem":
        p, q = _int_arg("p", p), _int_arg("q", q)
        if q > min(ks.m, 2 * p):
            raise ValueError("reproduction degree must satisfy q <= min(m, 2p)")
        if (kind, p, q) not in ks._problems:  # every anchor whose stencil fits, at once
            lo, hi = ks.greville_range()
            lo, hi = (lo + 1, hi - 1) if kind == "basis" else (lo, hi)  # B_j reads t_{j-m}..t_{j+1}
            ks._problems[kind, p, q] = (lo + p, *_problem_data(ks, kind, np.arange(lo + p, hi - p + 1), p, q))
        first, V, b = ks._problems[kind, p, q]
        k = operator.index(i) - first
        if not 0 <= k < len(b):  # the stencil does not fit: fail as the one-anchor assembly
            for j in (i, i - p, i + p):
                ks.greville(j)
            V, b, k = *_problem_data(ks, kind, np.array([i]), p, q), 0
        # owned C-contiguous copies, not views of the cached stack: the problems are kept
        return cls(matrix=V[k].copy(), rhs=b[k].copy(), anchor=i, p=p, q=q)


def _problem_data(ks: KnotSequence, kind: str, anchors: np.ndarray, p: int, q: int):
    """Matrices ``V[g]`` and right-hand sides ``b[g]`` of the anchors
    ``i = anchors[g]`` in the monomials ``((x - theta_i)/scale_i)**r``:
    Greville-point powers (``kind`` "point") or basis-kernel moments ("basis")
    at the sources i-p..i+p, and the symmetric coefficients of i."""
    theta = ks._greville[anchors[:, None] + np.array([0, -p, p]) - ks.greville_range()[0]]
    center, lo, hi = theta.T
    spread = np.maximum(hi - center, center - lo) if kind == "point" else (hi - lo) / 2.0
    scale = np.maximum(spread, 1e-300)
    js = anchors[:, None] + np.arange(-p, p + 1)
    V = ks.moments(kind, js, q, center=center[:, None], scale=scale[:, None]).transpose(0, 2, 1)
    return V, ks.moments("symmetric", anchors, q, center=center, scale=scale)


@dataclass(frozen=True)
class NearBestSolution:
    weights: np.ndarray
    nu: float
    residual: float
    duality_gap: float


def _bland_entering(z: np.ndarray, tol: float) -> int:
    for j, v in enumerate(z.tolist()):
        if v < -tol:
            return j
    return -1


def _ratio_leaving(T: np.ndarray, col: int, basis, tol: float) -> int:
    best, leave = None, -1
    for r, (a, rhs) in enumerate(zip(T[:-1, col].tolist(), T[:-1, -1].tolist())):
        if a > tol:
            key = (rhs / a, basis[r])
            if best is None or key < best:
                best, leave = key, r
    return leave


def _pivot(T: np.ndarray, row: int, col: int):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0  # every other row r becomes T[r] - T[r, col] * T[row]
    T -= np.multiply.outer(f, T[row])


def _run_phase(T, basis, ncols: int, tol: float, max_iter: int, phase: int, stop=None):
    """Bland pivots until no reduced cost in ``T[-1, :ncols]`` is below
    ``-tol`` or, given ``stop``, the objective value ``-T[-1, -1]`` is at most
    ``stop`` (at value 0 phase 1 is done; a roundoff reduced cost must not
    pivot on)."""
    for _ in range(max_iter):
        if stop is not None and -T[-1, -1] <= stop:
            return
        col = _bland_entering(T[-1, :ncols], tol)
        if col < 0:
            return
        row = _ratio_leaving(T, col, basis, tol)
        if row < 0:
            raise RuntimeError(
                "phase 1 unbounded (should be impossible)" if phase == 1 else "objective unbounded below"
            )
        _pivot(T, row, col)
        basis[row] = col
    raise RuntimeError(f"simplex iteration limit reached in phase {phase}")


def simplex_min(A, b, c, *, tol: float = 1e-11, max_iter: int = 20000):
    """Minimize c @ z subject to A z = b, z >= 0.

    Dense two-phase simplex with Bland's rule on one tableau.  Returns
    ``(z, objective, y)`` where z and y are re-solved from the original data
    on the final basis (so ``objective - y @ b`` is the duality gap, zero up
    to roundoff).  Non-finite ``A`` or ``b`` raise ``InfeasibleError``, a
    non-finite ``c`` ``ValueError``.
    """
    A, b, c = (np.array(v, dtype=float) for v in (A, b, c))
    if not (np.isfinite(A).all() and np.isfinite(b).all()):  # no finite z solves A z = b
        raise InfeasibleError("A and b must be finite")
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")
    m, n = A.shape
    flip = np.where(b < 0, -1.0, 1.0)
    A *= flip[:, None]
    b *= flip

    # phase 1: minimize the sum of artificial variables
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    np.fill_diagonal(T[:m, n:], 1.0)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, n : n + m] = 0.0
    scale = max(1.0, float(np.abs(b).sum()))
    _run_phase(T, basis, n + m, tol, max_iter, 1, stop=tol * scale)
    if -T[m, -1] > 1e-9 * scale:
        raise InfeasibleError(f"constraints infeasible (phase 1 value {-T[m, -1]:g})")

    # drive remaining artificials out of the basis; a redundant row is zeroed,
    # so no later pivot or ratio test reads it
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j, v in enumerate(T[r, :n].tolist()) if abs(v) > tol), None)
            if piv is None:
                T[r] = 0.0
                continue
            _pivot(T, r, piv)
            basis[r] = piv
        keep_rows.append(r)

    # phase 2 in place, the artificial columns ignored: objective row
    # c - sum_r c_B[r] T[r] over the kept rows in order
    T[m, :n] = c
    T[m, n:] = 0.0
    for r in keep_rows:
        T[m] -= c[basis[r]] * T[r]
    _run_phase(T, basis, n, tol, max_iter, 2)

    rows = keep_rows if len(keep_rows) < m else slice(m)
    basis = [basis[r] for r in keep_rows]
    z = np.zeros(n)
    z[basis] = T[rows, -1]
    B = A[rows][:, basis]
    if basis:
        try:  # basic values from the original data, free of the pivots' roundoff
            z[basis] = np.linalg.solve(B, b[rows])
        except np.linalg.LinAlgError:
            pass  # keep the tableau values
    obj = float(c @ z)
    try:
        y_red = np.linalg.solve(B.T, c[basis]) if basis else np.zeros(0)
    except np.linalg.LinAlgError:
        y_red = np.linalg.lstsq(B.T, c[basis], rcond=None)[0]
    y = np.zeros(m)
    y[rows] = y_red
    return z, obj, y * flip


def solve_weighted_l1(A, b, obj_weights=None, *, tol: float = 1e-11):
    """Minimize sum(w_j |x_j|) subject to A x = b via the split LP
    ``x = u - v``; the weights must be finite and nonnegative, one per column."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    c = np.ones(2 * n)
    if obj_weights is not None:
        w = np.asarray(obj_weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"obj_weights must have shape ({n},), got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("obj_weights must be finite")
        if (w < 0).any():
            raise ValueError("obj_weights must be nonnegative")
        c[:n] = c[n:] = w
    z, obj, y = simplex_min(np.concatenate((A, -A), axis=1), b, c, tol=tol)
    return z[:n] - z[n:], obj, abs(obj - float(y @ b))


def solve_l1(prob: NearBestProblem) -> NearBestSolution:
    """Solve one anchor's minimization; certifies feasibility and optimality
    (a NaN residual or gap fails its certificate)."""
    lam, nu, gap = solve_weighted_l1(prob.matrix, prob.rhs)
    residual = float(np.abs(prob.matrix @ lam - prob.rhs).max())
    if not residual <= 1e-9 * max(float(np.abs(prob.rhs).max()), 1.0):
        raise InfeasibleError(f"feasibility residual {residual:g} too large")
    if not gap <= 1e-9 * max(nu, 1.0):
        raise RuntimeError(f"duality gap {gap:g} too large")
    return NearBestSolution(weights=lam, nu=float(nu), residual=residual, duality_gap=gap)


def _uniform_args(order, n, r) -> tuple[int, int, int]:
    """Checked ``(order, n, r)`` of a symmetric uniform stencil: an even spline
    order, half-width n >= 1 and 0 <= r <= order - 1 (r None: order - 1)."""
    order, n = _int_arg("order", order), _int_arg("n", n)
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if n < 1:
        raise ValueError("stencil half-width n must be >= 1")
    r = order - 1 if r is None else _int_arg("r", r)
    if not 0 <= r <= order - 1:
        raise ValueError("reproduction degree r must satisfy 0 <= r <= order - 1")
    return order, n, r


def solve_symmetric_uniform(order: int, n: int, r: int, kind: str = "dqi"):
    """Near-best symmetric weights (a_0, ..., a_n) in the uniform cardinal setting.

    Exploits the even symmetry a_j = a_{-j}: only the even-degree reproduction
    constraints survive (the odd ones vanish identically on a centred uniform
    stencil), and the objective becomes |a_0| + 2 sum |a_j|.  The data come
    from the centre of 24 unit spans; the arguments are checked as for
    ``uniform_nb_dqi``.  Returns the full symmetric weight vector over
    offsets -n..n together with its l1 norm.
    """
    order, n, r = _uniform_args(order, n, r)
    if kind not in ("dqi", "iqi"):
        raise ValueError("kind must be 'dqi' or 'iqi'")
    ks = KnotSequence.cardinal_uniform(order - 1, 24, pad=n + 1)
    i = ks.nbasis // 2
    # built directly: q > 2p is admissible here because the odd constraints
    # vanish identically on the symmetric stencil
    V, b = (a[0] for a in _problem_data(ks, "point" if kind == "dqi" else "basis", np.array([i]), n, r))
    even = [rr for rr in range(r + 1) if rr % 2 == 0]
    odd = [rr for rr in range(r + 1) if rr % 2 == 1]
    if odd:
        sym_defect = max(np.abs(V[odd, n + 1 :] + V[odd, :n][:, ::-1]).max(), np.abs(b[odd]).max())
        if sym_defect > 1e-9:
            raise RuntimeError("stencil is not symmetric; odd constraints do not vanish")
    cols = [V[even, n]] + [V[even, n + j] + V[even, n - j] for j in range(1, n + 1)]
    A = np.column_stack(cols)
    weights_obj = np.array([1.0] + [2.0] * n)
    a, nu, _gap = solve_weighted_l1(A, b[even], weights_obj)
    full = np.concatenate([a[:0:-1], a])
    return full, float(nu)
