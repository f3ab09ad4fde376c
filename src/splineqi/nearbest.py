"""Near-best weight selection: minimize the l1 norm of a coefficient vector
subject to polynomial-reproduction equality constraints.

The constraint matrix for a discrete functional with stencil half-width p
and reproduction degree q is the (q+1) x (2p+1) Vandermonde-type matrix of
node powers; integral functionals replace node powers with kernel moments.
Columns are assembled in monomials shifted to the anchor and scaled by the
stencil half-width, which keeps the systems well conditioned without
changing the feasible set.

The solver is a dense two-phase simplex on the split form
``lam = u - v, u, v >= 0`` with Bland's rule, so results are deterministic
and finite-termination is guaranteed.  Problems here have at most a few
dozen variables; exactness and determinism matter more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .splinecore import KnotSequence

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
    """The equality constraints admit no solution (rank-deficient data)."""


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

    @classmethod
    def from_discrete(cls, ks: KnotSequence, i: int, p: int, q: int) -> "NearBestProblem":
        """Point-evaluation columns at Greville nodes theta_{i-p}, ..., theta_{i+p}."""
        if q > min(ks.m, 2 * p):
            raise ValueError("reproduction degree must satisfy q <= min(m, 2p)")
        V, b = _problem_data(ks, "point", i, p, q)
        return cls(matrix=V, rhs=b, anchor=i, p=p, q=q)

    @classmethod
    def from_integral(cls, ks: KnotSequence, i: int, p: int, q: int) -> "NearBestProblem":
        """Moment columns against the unit-integral basis kernels B_{i-p}, ..., B_{i+p}."""
        if q > min(ks.m, 2 * p):
            raise ValueError("reproduction degree must satisfy q <= min(m, 2p)")
        V, b = _problem_data(ks, "basis", i, p, q)
        return cls(matrix=V, rhs=b, anchor=i, p=p, q=q)


def _problem_data(ks: KnotSequence, kind: str, i: int, p: int, q: int):
    """Matrix and rhs of anchor i in the monomials ``((x - theta_i)/scale)**r``:
    Greville-point powers (``kind`` "point") or basis-kernel moments ("basis")
    at the sources i-p..i+p, and the symmetric coefficients of i."""
    center, lo, hi = (ks.greville(j) for j in (i, i - p, i + p))
    spread = max(hi - center, center - lo) if kind == "point" else (hi - lo) / 2.0
    scale = max(spread, 1e-300)
    # owned copies, not views of the moment arrays: the problems are kept
    V = ks.moments(kind, range(i - p, i + p + 1), q, center=center, scale=scale).T.copy()
    return V, ks.moments("symmetric", [i], q, center=center, scale=scale)[0].copy()


@dataclass(frozen=True)
class NearBestSolution:
    weights: np.ndarray
    nu: float
    residual: float
    duality_gap: float


def _bland_entering(z: np.ndarray, tol: float) -> int:
    for j, v in enumerate(z):
        if v < -tol:
            return j
    return -1


def _ratio_leaving(T: np.ndarray, col: int, basis, tol: float) -> int:
    best = None
    for r in range(T.shape[0] - 1):
        a = T[r, col]
        if a > tol:
            ratio = T[r, -1] / a
            key = (ratio, basis[r])
            if best is None or key < best[0]:
                best = (key, r)
    return -1 if best is None else best[1]


def _pivot(T: np.ndarray, row: int, col: int):
    T[row, :] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r, :] -= T[r, col] * T[row, :]


def simplex_min(A, b, c, *, tol: float = 1e-11, max_iter: int = 20000):
    """Minimize c @ z subject to A z = b, z >= 0.

    Dense two-phase simplex with Bland's rule.  Returns ``(z, objective, y)``
    where y is the dual vector reconstructed from the final basis (so
    ``objective - y @ b`` is the duality gap, zero up to roundoff).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    flip = np.where(b < 0, -1.0, 1.0)
    A = A * flip[:, None]
    b = b * flip

    # phase 1: minimize the sum of artificial variables
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, n : n + m] = 0.0

    scale = max(1.0, float(np.abs(b).sum()))
    for _ in range(max_iter):
        # at value 0 phase 1 is done; a roundoff reduced cost must not pivot on
        if -T[m, -1] <= tol * scale:
            break
        col = _bland_entering(T[m, : n + m], tol)
        if col < 0:
            break
        row = _ratio_leaving(T, col, basis, tol)
        if row < 0:
            raise RuntimeError("phase 1 unbounded (should be impossible)")
        _pivot(T, row, col)
        basis[row] = col
    else:
        raise RuntimeError("simplex iteration limit reached in phase 1")
    if -T[m, -1] > 1e-9 * scale:
        raise InfeasibleError(f"constraints infeasible (phase 1 value {-T[m, -1]:g})")

    # drive remaining artificials out of the basis; drop redundant rows
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if abs(T[r, j]) > tol), None)
            if piv is None:
                continue  # redundant constraint
            _pivot(T, r, piv)
            basis[r] = piv
        keep_rows.append(r)

    rows = keep_rows + [m]
    T2 = np.zeros((len(keep_rows) + 1, n + 1))
    T2[:-1, :n] = T[keep_rows, :n]
    T2[:-1, -1] = T[keep_rows, -1]
    basis = [basis[r] for r in keep_rows]
    T2[-1, :n] = c
    T2[-1, -1] = 0.0
    for r, bv in enumerate(basis):
        T2[-1, :] -= c[bv] * T2[r, :]

    for _ in range(max_iter):
        col = _bland_entering(T2[-1, :n], tol)
        if col < 0:
            break
        row = _ratio_leaving(T2, col, basis, tol)
        if row < 0:
            raise RuntimeError("objective unbounded below")
        _pivot(T2, row, col)
        basis[row] = col
    else:
        raise RuntimeError("simplex iteration limit reached in phase 2")

    z = np.zeros(n)
    for r, bv in enumerate(basis):
        z[bv] = T2[r, -1]
    B = A[keep_rows, :][:, basis] if keep_rows else np.zeros((0, 0))
    if basis:
        # basic values from the original data, free of the pivots' roundoff
        try:
            z[basis] = np.linalg.solve(B, b[keep_rows])
        except np.linalg.LinAlgError:
            pass  # keep the tableau values
    obj = float(c @ z)
    try:
        y_red = np.linalg.solve(B.T, c[basis]) if len(basis) else np.zeros(0)
    except np.linalg.LinAlgError:
        y_red = np.linalg.lstsq(B.T, c[basis], rcond=None)[0]
    y = np.zeros(m)
    for idx, r in enumerate(keep_rows):
        y[r] = y_red[idx]
    return z, obj, y * flip


def solve_weighted_l1(A, b, obj_weights=None, *, tol: float = 1e-11):
    """Minimize sum(w_j |x_j|) subject to A x = b via the split LP."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    w = np.ones(n) if obj_weights is None else np.asarray(obj_weights, dtype=float)
    Asplit = np.hstack([A, -A])
    c = np.concatenate([w, w])
    z, obj, y = simplex_min(Asplit, b, c, tol=tol)
    x = z[:n] - z[n:]
    gap = abs(obj - float(y @ b))
    return x, obj, gap


def solve_l1(prob: NearBestProblem) -> NearBestSolution:
    """Solve one anchor's minimization; certifies feasibility and optimality."""
    lam, nu, gap = solve_weighted_l1(prob.matrix, prob.rhs)
    residual = float(np.max(np.abs(prob.matrix @ lam - prob.rhs)))
    bscale = max(float(np.max(np.abs(prob.rhs))), 1.0)
    if residual > 1e-9 * bscale:
        raise InfeasibleError(f"feasibility residual {residual:g} too large")
    if gap > 1e-9 * max(nu, 1.0):
        raise RuntimeError(f"duality gap {gap:g} too large")
    return NearBestSolution(weights=lam, nu=float(nu), residual=residual, duality_gap=gap)


def solve_symmetric_uniform(order: int, n: int, r: int, kind: str = "dqi", nspans: int = 24):
    """Near-best symmetric weights (a_0, ..., a_n) in the uniform cardinal setting.

    Exploits the even symmetry a_j = a_{-j}: only the even-degree reproduction
    constraints survive (the odd ones vanish identically on a centred uniform
    stencil), and the objective becomes |a_0| + 2 sum |a_j|.  Returns the full
    symmetric weight vector over offsets -n..n together with its l1 norm.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if n < 1:
        raise ValueError("stencil half-width n must be >= 1")
    degree = order - 1
    if r > degree:
        raise ValueError("reproduction degree r must be <= order - 1")
    if kind not in ("dqi", "iqi"):
        raise ValueError("kind must be 'dqi' or 'iqi'")
    ks = KnotSequence.cardinal_uniform(degree, nspans, pad=n + 1)
    i = ks.nbasis // 2
    # built directly: q > 2p is admissible here because the odd constraints
    # vanish identically on the symmetric stencil
    V, b = _problem_data(ks, "point" if kind == "dqi" else "basis", i, n, r)
    even = [rr for rr in range(r + 1) if rr % 2 == 0]
    odd = [rr for rr in range(r + 1) if rr % 2 == 1]
    if odd:
        sym_defect = max(
            float(np.max(np.abs(V[odd, n + 1 :] + V[odd, :n][:, ::-1]))),
            float(np.max(np.abs(b[odd]))),
        )
        if sym_defect > 1e-9:
            raise RuntimeError("stencil is not symmetric; odd constraints do not vanish")
    cols = [V[even, n]] + [V[even, n + j] + V[even, n - j] for j in range(1, n + 1)]
    A = np.column_stack(cols)
    weights_obj = np.array([1.0] + [2.0] * n)
    a, nu, _gap = solve_weighted_l1(A, b[even], weights_obj)
    full = np.concatenate([a[:0:-1], a])
    return full, float(nu)
