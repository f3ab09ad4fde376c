"""Near-best weight selection: minimize the l1 norm of a coefficient vector
subject to polynomial-reproduction equality constraints.

The constraint matrix for a discrete functional with stencil half-width p
and reproduction degree q is the (q+1) x (2p+1) Vandermonde-type matrix of
node powers; integral functionals replace node powers with kernel moments.
Columns are assembled in monomials shifted to the anchor and scaled by the
stencil half-width, which keeps the systems well conditioned without
changing the feasible set.

A square problem (2p + 1 = q + 1) has one feasible point.  When its
right-hand side is finite and its 1-norm condition number is below
``_KAPPA`` (1e8), one LU solve gives that point and a transposed one its
duals, for every such row of a stack at once.  Every other problem, and any
whose LU LAPACK finds singular, goes to a dense two-phase simplex on the
split form ``lam = u - v, u, v >= 0``.  The pivot order is Bland's (first
column with a negative reduced cost; least ratio, ties to the smallest basic
variable), so results are deterministic and termination is finite.
Artificial variables are only labels in the basis, with no tableau column,
so none re-enters and both phases share one tableau.  It runs on a stack of
tableaux in lockstep: each round, every live problem pivots once, a rank-1
update of its tableau, on one compacted copy of the live tableaux, which a
problem leaves when it is done or fails.  Each problem, on either route,
gets the bits and the error it gets alone.

The first ``from_*`` call for a knot sequence and ``(kind, p, q)`` assembles
every anchor whose stencil fits (clamped discrete ones in the basis range)
in one vectorised pass, solves that stack once and certifies it in one
stacked pass: weights, ``nu``, feasibility residuals, duality gaps and the
verdicts at 1e-9, as arrays cached on the sequence.  Each problem it returns
holds owned, read-only copies of its arrays and carries its anchor's
solution or error, which ``solve_l1`` raises afresh.  A row that the solve
read is finite and is copied without a second check; a row that it refused
is checked as a directly made problem is.  Problems made directly, anchors
outside the stack and ``solve_weighted_l1`` go the same way as stacks of
one, so every l1 answer passes the same certificate or raises its error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .splinecore import KnotSequence, _index, _int_arg

_TOL, _MAX_ITER = 1e-11, 20000  # the simplex pivot tolerance and iteration limit, read at each solve
_KAPPA = 1e8  # a square problem whose 1-norm condition number is below this is solved by LU

__all__ = [
    "NearBestProblem", "NearBestSolution", "InfeasibleError",
    "solve_l1", "solve_weighted_l1", "solve_symmetric_uniform",
]


class InfeasibleError(ValueError):
    """The equality constraints admit no solution (rank-deficient or non-finite data)."""


@dataclass(frozen=True)
class NearBestProblem:
    """One anchor's minimization data: matrix and right-hand side (owned, read-only copies), and sizes."""

    matrix: np.ndarray  # (q+1, 2p+1)
    rhs: np.ndarray  # (q+1,)
    anchor: int
    p: int
    q: int
    # the solution or the error of the cached stack, for problems made by ``from_*``
    _answer: NearBestSolution | Exception | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _int_arg("p", self.p, 0))
        object.__setattr__(self, "q", _int_arg("q", self.q, 0))
        for name in ("matrix", "rhs"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=float)))
        if self.matrix.shape != (self.q + 1, 2 * self.p + 1):
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
        p, q = _int_arg("p", p, 0), _int_arg("q", q, 0)
        if q > min(ks.m, 2 * p):
            raise ValueError("reproduction degree must satisfy q <= min(m, 2p)")
        cached = ks._problems.get((kind, p, q))
        if cached is None:  # every anchor whose stencil fits, assembled, solved and certified at once
            lo, hi = ks.greville_range()  # B_j reads t_{j-m}..t_{j+1}; clamped nodes stop at the basis range
            lo, hi = (lo + 1, hi - 1) if kind == "basis" or not ks.cardinal else (lo, hi)
            V, b = map(np.ascontiguousarray, _problem_data(ks, kind, np.arange(lo + p, hi - p + 1), p, q))
            cached = ks._problems[kind, p, q] = lo + p, V, b, _l1_stack(V, b, np.ones(2 * V.shape[2]))
        first, V, b, stack = cached
        k = _index(i) - first
        if not 0 <= k < len(b):  # outside the stack: the one-anchor assembly's problem, or its error
            for j in (i, i - p, i + p):
                ks.greville(j)
            return cls(*(a[0] for a in _problem_data(ks, kind, np.array([i]), p, q)), anchor=i, p=p, q=q)
        answer = _solution(stack, k)
        if isinstance(answer, Exception):  # a row the solve refused may be non-finite: check it as made directly
            prob = cls(matrix=V[k], rhs=b[k], anchor=i, p=p, q=q)
        else:  # the solve read the row, so it is finite: owned read-only copies, unchecked
            prob = object.__new__(cls)
            for name, value in (("matrix", _frozen(V[k])), ("rhs", _frozen(b[k])), ("anchor", i), ("p", p), ("q", q)):
                object.__setattr__(prob, name, value)  # in field order, so instances share their keys
        object.__setattr__(prob, "_answer", answer)
        return prob


def _frozen(a: np.ndarray) -> np.ndarray:
    """An owned, C-contiguous, read-only copy of ``a``."""
    a = a.copy()
    a.setflags(write=False)
    return a


def _problem_data(ks: KnotSequence, kind: str, anchors: np.ndarray, p: int, q: int, points=()):
    """Matrices ``V[g]`` and right-hand sides ``b[g]`` of the anchors
    ``i = anchors[g]`` in the monomials ``((x - theta_i)/scale_i)**r``:
    Greville-point powers (``kind`` "point") or kernel moments ("basis", "dual")
    at the sources i-p..i+p, those in ``points`` sampled at their Greville
    points (G2's clamped ends), and the symmetric coefficients of i (q <= m)."""
    theta = ks.greville_points(anchors[:, None] + np.array([0, -p, p]))  # checks what samples and rhs read
    center, lo, hi = theta.T
    spread = np.maximum(hi - center, center - lo) if kind == "point" else (hi - lo) / 2.0
    scale = np.maximum(spread, 1e-300)
    js = anchors[:, None] + np.arange(-p, p + 1)
    sample = (js[..., None] == points).any(axis=-1)  # a sampled source: the anchor's kernel, then the sample
    V = ks.moments(kind, np.where(sample, anchors[:, None], js), q, center=center[:, None], scale=scale[:, None])
    if sample.any():
        V[sample] = ks._moments("point", js[sample], q, *(v[np.nonzero(sample)[0]] for v in (center, scale)))
    return V.transpose(0, 2, 1), ks._moments("symmetric", anchors, q, center, scale)


@dataclass(frozen=True)
class NearBestSolution:
    weights: np.ndarray
    nu: float
    residual: float
    duality_gap: float


def _pivot(S: np.ndarray, f: np.ndarray, row: np.ndarray, col: np.ndarray, basis: np.ndarray, idx: np.ndarray):
    """Pivot every tableau ``S[g]`` of a stack on ``(row[g], col[g])`` in
    place, given its entering column ``f[g] = S[g, :, col[g]]`` (a copy, which
    this overwrites), and make ``col[g]`` the basic variable of that row of
    problem ``idx[g]`` in ``basis``: the pivot row is divided by its pivot,
    then every other row r becomes ``S[g, r] - S[g, r, col] * S[g, row]``."""
    g = np.arange(len(S))
    prow = S[g, row] / f[g, row][:, None]
    S[g, row] = prow
    f[g, row] = 0.0
    S -= f[:, :, None] * prow[:, None, :]
    basis[idx, row] = col


def _run_phase(T, basis, live, errors, tol: float, max_iter: int, phase: int, stop=None):
    """Bland pivots on every live problem k until no reduced cost of an
    original column, ``T[k, -1, :-1]``, is below ``-tol`` (an artificial
    variable has no column, so none re-enters) or, given ``stop``, the sum
    of its basic artificial variables is at most ``stop[k]`` (at 0 phase 1
    is done: a roundoff reduced cost must not pivot on, and the objective
    row's value can keep roundoff after the last one has left).  The
    problems pivot in lockstep, so each has made ``it`` pivots of this phase
    at round ``it``, on one gathered copy of their tableaux, ``S``; each
    tableau goes back to ``T`` when its problem stops.  A problem that is
    unbounded or reaches ``max_iter`` pivots gets its error and leaves ``live``."""
    idx = np.flatnonzero(live)
    S, g = T[idx], np.arange(len(idx))
    for it in itertools.count():
        if it == max_iter:
            _fail(errors, live, idx, lambda k: RuntimeError(f"simplex iteration limit reached in phase {phase}"))
            return
        neg = S[:, -1, :-1] < -tol
        col = neg.argmax(axis=1)  # Bland: the first negative reduced cost
        going = neg[g, col]
        if stop is not None:
            going &= np.where(basis[idx] >= S.shape[2] - 1, S[:, :-1, -1], 0.0).sum(axis=1) > stop[idx]
        if not going.all():
            T[idx[~going]] = S[~going]
            idx, S, col, g = idx[going], S[going], col[going], g[: going.sum()]
        if not len(idx):
            return
        # ratio test: the least (rhs / a, basic variable) over the rows with a > tol
        f = S[g, :, col]
        ok = f[:, :-1] > tol
        ratio = S[:, :-1, -1] / np.where(ok, f[:, :-1], np.nan)  # NaN on the rows without a > tol
        tie = ratio == np.fmin.reduce(ratio, axis=1, keepdims=True)
        row = np.where(tie, basis[idx], np.inf).argmin(axis=1)  # inf: above every basic variable, artificial too
        bounded = ok[g, row]
        if not bounded.all():
            msg = "phase 1 unbounded (should be impossible)" if phase == 1 else "objective unbounded below"
            _fail(errors, live, idx[~bounded], lambda k: RuntimeError(msg))
            idx, S, f, row, col = idx[bounded], S[bounded], f[bounded], row[bounded], col[bounded]
            g = g[: len(idx)]
        _pivot(S, f, row, col, basis, idx)


def _fail(errors: list, live: np.ndarray, idx: np.ndarray, error):
    """Record ``error(k)`` for each problem k in ``idx`` and take it out of ``live``."""
    for k in idx.tolist():
        errors[k] = error(k)
    live[idx] = False


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Minimize ``c @ z`` subject to ``A[k] z = b[k]``, ``z >= 0`` for every
    problem k of the stack ``A`` (K, m, n), ``b`` (K, m), in lockstep.

    ``c`` is finite: ``_l1_stack``, the only caller, passes the l1 costs.  The
    tableau is ``(K, m+1, n+1)``: artificial variable ``n + r`` is only an index
    in ``basis``.  Returns ``(Z, Y, errors)``: the solutions and duals of the
    problems whose ``errors[k]`` is None, each re-solved from ``[A[k] | I]`` on
    its final basis (so ``c @ Z[k] - Y[k] @ b[k]`` is the duality gap, zero up
    to roundoff), and for the others the problem's error: ``InfeasibleError``
    for non-finite data or infeasible constraints, ``RuntimeError`` for an
    unbounded objective or the iteration limit.
    """
    tol, max_iter = _TOL, _MAX_ITER
    K, m, n = A.shape
    errors: list = [None] * K
    live = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    _fail(errors, live, np.flatnonzero(~live), lambda k: InfeasibleError("A and b must be finite"))
    flip = np.where(b < 0, -1.0, 1.0)
    A, b = A * flip[:, :, None], b * flip
    A[~live], b[~live] = 0.0, 0.0  # no arithmetic on non-finite data

    # phase 1: minimize the sum of the artificial variables, all basic at the start
    T = np.zeros((K, m + 1, n + 1))
    T[:, :m, :n], T[:, :m, -1] = A, b
    T[:, m] = -T[:, :m].sum(axis=1)
    basis = np.tile(np.arange(n, n + m), (K, 1))
    scale = np.maximum(1.0, np.abs(b).sum(axis=1))
    _run_phase(T, basis, live, errors, tol, max_iter, 1, stop=tol * scale)
    value = np.where(basis >= n, T[:, :m, -1], 0.0).sum(axis=1)  # the basic artificial variables' sum
    bad = np.flatnonzero(live & (value > 1e-9 * scale))
    _fail(errors, live, bad, lambda k: InfeasibleError(f"constraints infeasible (phase 1 value {value[k]:g})"))

    # drive remaining artificials out of the basis; a redundant row is zeroed
    # and keeps its artificial variable, at cost 0, so no later pivot, ratio
    # test or objective row reads it
    for r in np.flatnonzero((live[:, None] & (basis >= n)).any(axis=0)).tolist():
        art = np.flatnonzero(live & (basis[:, r] >= n))
        big = np.abs(T[art, r, :n]) > tol
        has = big.any(axis=1)
        T[art[~has], r] = 0.0
        if has.any():
            art, S, piv = art[has], T[art[has]], big[has].argmax(axis=1)
            _pivot(S, S[np.arange(len(art)), :, piv], np.full(len(art), r), piv, basis, art)
            T[art] = S

    # phase 2 in place: objective row c - sum_r c_B[r] T[r] in row order; a
    # zeroed row weighs +0.0, and x - 0.0 * 0.0 is x, bit for bit
    cost = np.append(c, np.zeros(m))
    T[:, m, :n], T[:, m, -1] = c, 0.0
    for r, c_r in enumerate(cost[basis].T):
        T[:, m] -= c_r[:, None] * T[:, r]
    _run_phase(T, basis, live, errors, tol, max_iter, 2)

    # basic values and duals from the original data, free of the pivots'
    # roundoff, in one stacked solve on [A | I]: an artificial basic variable
    # reads its unit column, so its row's dual is 0
    L = np.flatnonzero(live)
    AI = np.concatenate((A[L], np.broadcast_to(np.eye(m), (len(L), m, m))), axis=2)
    B, cB = np.take_along_axis(AI, basis[L, None, :], axis=2), cost[basis[L]]
    Z, Y = np.zeros((K, n + m)), np.zeros((K, m))
    z, ok = _solve(B, b[L])
    Z[L[:, None], basis[L]] = np.where(ok[:, None], z, T[L, :m, -1])  # a refused basis keeps the tableau values
    Y[L], ok = _solve(B.transpose(0, 2, 1), cB)
    for k in np.flatnonzero(~ok).tolist():
        Y[L[k]] = np.linalg.lstsq(B[k].T, cB[k], rcond=None)[0]
    return np.ascontiguousarray(Z[:, :n]), Y * flip, errors


def _dots(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``P[k] @ Q[k]`` (``Q`` 1-D: ``P[k] @ Q``) for every k, each a BLAS dot product as for one pair of vectors."""
    return np.matmul(P[:, None, :], Q[..., None])[:, 0, 0]


def _solve(M: np.ndarray, r: np.ndarray):
    """``(x, ok)``: ``x[k] = M[k]^-1 r[k]`` for each square ``M[k]``, in one LAPACK
    call.  If LAPACK finds some ``M[k]`` singular, each row is solved again as a
    stack of one (the bits of the stack's LU); a row it refuses has ``ok[k]`` False and reads 0."""
    x, ok = np.zeros(r.shape), np.ones(len(M), dtype=bool)
    try:
        x[:] = np.linalg.solve(M, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for k in range(len(M)):
            try:
                x[k] = np.linalg.solve(M[k : k + 1], r[k : k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[k] = False
    return x, ok


def _l1_stack(V: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Solve and certify every problem k of the split stack at once: minimize
    ``c @ (u, v)`` subject to ``V[k] (u - v) = b[k]``, ``u, v >= 0``.  Returns
    ``(X, nu, residual, gap, errors, feasible, optimal)`` over the stack:
    ``x = u - v``, the objective, ``max |V[k] x - b[k]|``, the duality gap,
    the simplex's error or None, and the two certificates at 1e-9 (NaN fails).
    A square ``V[k]`` with finite ``b[k]`` and 1-norm condition number below
    ``_KAPPA`` has one feasible point, which one LU solve gives; every other
    problem goes to the simplex.  C-contiguous ``V`` and ``b`` round as the
    products of one problem do."""
    K, m, n = V.shape
    Z, Y, errors = np.zeros((K, 2 * n)), np.zeros((K, m)), [None] * K
    rest = np.arange(K)
    if m == n:  # LU takes the rows with a finite rhs and kappa_1 below _KAPPA (inf or NaN if singular or non-finite)
        lu = np.flatnonzero(np.isfinite(b).all(axis=1) & (np.linalg.cond(V, 1) < _KAPPA))
        x, ok = _solve(V[lu], b[lu])
        y, ok_y = _solve(V[lu].transpose(0, 2, 1), c[:n] * np.where(x < 0, -1.0, 1.0))  # duals: V^-T (w * sign x)
        ok &= ok_y
        lu, x = lu[ok], x[ok]
        Z[lu, :n], Z[lu, n:], Y[lu] = np.maximum(x, 0.0), np.maximum(-x, 0.0), y[ok]
        rest = np.setdiff1d(rest, lu)
    if len(rest):
        Z[rest], Y[rest], simplex_errors = _simplex(np.concatenate((V[rest], -V[rest]), axis=2), b[rest], c)
        for k, e in zip(rest.tolist(), simplex_errors):
            errors[k] = e
    X = Z[:, :n] - Z[:, n:]
    with np.errstate(invalid="ignore"):  # a failed problem's non-finite data give NaN
        nu = _dots(Z, c)
        residual = np.abs(np.matmul(V, X[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
        gap = np.abs(nu - _dots(Y, b))
    feasible = residual <= 1e-9 * np.maximum(np.abs(b).max(axis=1, initial=0.0), 1.0)
    return X, nu, residual, gap, errors, feasible, gap <= 1e-9 * np.maximum(nu, 1.0)


def _solution(stack, k: int) -> NearBestSolution | Exception:
    """Problem k's solution from an ``_l1_stack``, or its error: the simplex's, else a failed certificate's."""
    X, nu, residual, gap, errors, feasible, optimal = stack
    if errors[k] is not None:
        return errors[k]
    if not feasible[k]:
        return InfeasibleError(f"feasibility residual {residual[k]:g} too large")
    if not optimal[k]:
        return RuntimeError(f"duality gap {gap[k]:g} too large")
    return NearBestSolution(X[k].copy(), float(nu[k]), float(residual[k]), float(gap[k]))


def _raised(answer: NearBestSolution | Exception) -> NearBestSolution:
    """``answer``, or a fresh copy of it raised if it is an error (the cached one stays unraised)."""
    if isinstance(answer, Exception):
        raise type(answer)(*answer.args)
    return answer


def solve_weighted_l1(A, b, obj_weights=None):
    """Minimize sum(w_j |x_j|) subject to A x = b via the split LP
    ``x = u - v``; the weights must be finite and nonnegative, one per column.
    Returns ``(x, objective, duality gap)``, certified as ``solve_l1``
    certifies, with its errors."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    if A.shape[1] == 0:
        raise ValueError(f"A must have at least one column, got shape {A.shape}")
    if b.shape != A.shape[:1]:
        raise ValueError(f"b must have one entry per row of A: A has shape {A.shape}, b has shape {b.shape}")
    n = A.shape[1]
    w = np.ones(n) if obj_weights is None else np.asarray(obj_weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"obj_weights must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("obj_weights must be finite")
    if (w < 0).any():
        raise ValueError("obj_weights must be nonnegative")
    sol = _raised(_solution(_l1_stack(A[None], b[None], np.concatenate((w, w))), 0))
    return sol.weights, sol.nu, sol.duality_gap


def solve_l1(prob: NearBestProblem) -> NearBestSolution:
    """Solve one anchor's minimization; certifies feasibility and optimality (a
    NaN residual or gap fails).  A problem made by ``from_*`` carries its
    answer; one made directly is solved here as a stack of one."""
    return _raised(prob._answer or _solution(_l1_stack(prob.matrix[None], prob.rhs[None], np.ones(4 * prob.p + 2)), 0))


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
    even, odd = list(range(0, r + 1, 2)), list(range(1, r + 1, 2))
    if odd and max(np.abs(V[odd, n + 1 :] + V[odd, :n][:, ::-1]).max(), np.abs(b[odd]).max()) > 1e-9:
        raise RuntimeError("stencil is not symmetric; odd constraints do not vanish")
    A = np.column_stack([V[even, n]] + [V[even, n + j] + V[even, n - j] for j in range(1, n + 1)])
    a, nu, _gap = solve_weighted_l1(A, b[even], np.array([1.0] + [2.0] * n))
    return np.concatenate([a[:0:-1], a]), float(nu)
