"""Constructors for the concrete univariate quasi-interpolant families.

All constructors validate their claimed polynomial reproduction at the
coefficient level before returning, so a successfully constructed operator
is known to be exact on its advertised space.

On clamped sequences the stencils are clamped to the basis index range and
the moment operators use point evaluation at the two domain ends; on
cardinal sequences every index gets the interior-style stencil, using the
padded Greville points and kernels beyond the basis range.
"""

from __future__ import annotations

import numpy as np

from .functionals import (
    BASIS_SPLINE,
    DISCRETE,
    DUAL_SPLINE,
    CoefficientFunctional,
    QuasiInterpolant,
    is_exact_on,
)
from .nearbest import solve_symmetric_uniform
from .splinecore import KnotSequence

__all__ = [
    "PartitionConditionError",
    "schoenberg",
    "s2",
    "gs1",
    "gs2",
    "uniform_nb_dqi",
    "uniform_nb_iqi",
    "nb_dqi_nonuniform",
    "partition_condition_violations",
]


class PartitionConditionError(ValueError):
    """The partition fails the balance condition required for optimality."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _require_distinct_interior(ks: KnotSequence, family: str):
    if not ks.interior_strictly_increasing:
        raise ValueError(f"{family} requires strictly increasing interior knots")


def _validated(qi: QuasiInterpolant) -> QuasiInterpolant:
    ok, worst = is_exact_on(qi, qi.degree_exact)
    if not ok:
        raise RuntimeError(
            f"{qi.family} failed its reproduction check at degree "
            f"{qi.degree_exact} (worst residual {worst:.3e})"
        )
    return qi


def _stencil_bounds(ks: KnotSequence) -> tuple[int, int]:
    """Index range usable for stencil nodes: the basis range when clamped,
    the padded Greville range when cardinal."""
    if ks.cardinal:
        return ks.greville_range()
    return 0, ks.nbasis - 1


def schoenberg(ks: KnotSequence) -> QuasiInterpolant:
    """The positive operator sampling at Greville points; reproduces degree 1."""
    funs = tuple(
        CoefficientFunctional(ks, DISCRETE, i, point_entries=((i, 1.0),))
        for i in ks.basis_indices
    )
    return _validated(QuasiInterpolant(ks, funs, degree_exact=1, family="S1"))


def _second_dd_weights(nodes) -> np.ndarray:
    """Weights of the second divided difference over three distinct nodes."""
    x0, x1, x2 = nodes
    return np.array(
        [
            1.0 / ((x0 - x1) * (x0 - x2)),
            1.0 / ((x1 - x0) * (x1 - x2)),
            1.0 / ((x2 - x0) * (x2 - x1)),
        ]
    )


def s2(ks: KnotSequence) -> QuasiInterpolant:
    """Three-term discrete operator exact on degree 2.

    Each functional subtracts lam_i times the second divided difference of f
    over the neighbouring Greville points from the sample at theta_i; any
    second divided difference reproduces half the second derivative on
    quadratics, so the correction is degree-independent.  Where a neighbour
    is missing the nearest three Greville points are used one-sided, which
    preserves the reproduction property.
    """
    if ks.m < 2:
        raise ValueError("s2 requires degree >= 2")
    _require_distinct_interior(ks, "s2")
    lo, hi = _stencil_bounds(ks)
    funs = []
    for i in ks.basis_indices:
        l = ks.lam(i)
        if l <= 0.0:
            funs.append(CoefficientFunctional(ks, DISCRETE, i, point_entries=((i, 1.0),)))
            continue
        if i - 1 >= lo and i + 1 <= hi:
            idxs = (i - 1, i, i + 1)
        elif i - 1 < lo:
            idxs = (i, i + 1, i + 2)
        else:
            idxs = (i - 2, i - 1, i)
        nodes = [ks.greville(j) for j in idxs]
        if not nodes[0] < nodes[1] < nodes[2]:
            raise ValueError(f"coincident Greville points near index {i}")
        w = -l * _second_dd_weights(nodes)
        acc = {i: 1.0}
        for j, wj in zip(idxs, w):
            acc[j] = acc.get(j, 0.0) + wj
        entries = tuple(sorted(acc.items()))
        funs.append(CoefficientFunctional(ks, DISCRETE, i, point_entries=entries))
    return _validated(QuasiInterpolant(ks, tuple(funs), degree_exact=2, family="S2"))


def _moment_functional(ks: KnotSequence, anchor: int, entries) -> CoefficientFunctional:
    """Moment-operator functional from ``(index, weight)`` entries.  On a
    clamped sequence indices 0 and nbasis-1 have no dual kernel; their
    entries sample f at the domain end (their Greville point) instead."""
    ends = () if ks.cardinal else (0, ks.nbasis - 1)
    entries = [(idx, float(w)) for idx, w in entries]
    return CoefficientFunctional(
        ks,
        DUAL_SPLINE,
        anchor,
        point_entries=tuple(e for e in entries if e[0] in ends),
        kernel_entries=tuple(e for e in entries if e[0] not in ends),
    )


def gs1(ks: KnotSequence) -> QuasiInterpolant:
    """Unit-weight moment operator exact on degree 1, with norm bound 1.

    Interior coefficients are integrals against the unit-integral
    degree-(m-2) kernels; on a clamped sequence the two end coefficients are
    point evaluations at the domain ends.  Positive, so it preserves
    positivity; it also preserves monotonicity and convexity.
    """
    if ks.m < 2:
        raise ValueError("gs1 requires degree >= 2")
    _require_distinct_interior(ks, "gs1")
    funs = tuple(_moment_functional(ks, i, ((i, 1.0),)) for i in ks.basis_indices)
    return _validated(QuasiInterpolant(ks, funs, degree_exact=1, family="G1"))


def gs2(ks: KnotSequence) -> QuasiInterpolant:
    """Three-term moment operator exact on degree 2.

    For each index the weights on the three neighbouring moment functionals
    solve the 3x3 reproduction system for degrees 0, 1, 2 (assembled in
    monomials centred at the anchor's Greville point for conditioning).  On a
    clamped sequence the two end coefficients stay point evaluations.
    """
    if ks.m < 2:
        raise ValueError("gs2 requires degree >= 2")
    _require_distinct_interior(ks, "gs2")
    funs = []
    for i in ks.basis_indices:
        idxs = (i - 1, i, i + 1)
        members = [_moment_functional(ks, idx, ((idx, 1.0),)) for idx in idxs]
        if members[1].point_entries:  # clamped end: keep the point evaluation
            funs.append(members[1])
            continue
        center = ks.greville(i)
        M = np.array([[lam.apply_monomial(r, center=center) for lam in members] for r in range(3)])
        rhs = np.array([ks.symmetric_coeff(i, r, center=center) for r in range(3)])
        try:
            w = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular reproduction system at index {i}") from exc
        funs.append(_moment_functional(ks, i, zip(idxs, w)))
    return _validated(QuasiInterpolant(ks, tuple(funs), degree_exact=2, family="G2"))


def gs2_quadratic_closed_form(ks: KnotSequence, i: int) -> tuple[float, float, float]:
    """Closed-form degree-2 stencil weights (a_i, b_i, c_i) for quadratics.

    Uses spans h_k = t_k - t_{k-1}; on a clamped sequence the spans just
    outside the domain are zero, which matches the point-evaluation
    convention for the end functionals.
    """
    if ks.m != 2:
        raise ValueError("closed form is for degree 2 only")
    h_im1 = ks.knot(i - 1) - ks.knot(i - 2)
    h_i = ks.knot(i) - ks.knot(i - 1)
    h_ip1 = ks.knot(i + 1) - ks.knot(i)
    a = -(h_i**2) / ((h_im1 + h_i) * (h_im1 + h_i + h_ip1))
    c = -(h_i**2) / ((h_im1 + h_i + h_ip1) * (h_i + h_ip1))
    return a, 1.0 - a - c, c


def _uniform_nb(kind: str, order: int, n: int, r, nspans: int, start: float, spacing: float):
    """Body of uniform_nb_dqi (kind "dqi") and uniform_nb_iqi (kind "iqi")."""
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if n < 1:
        raise ValueError("stencil half-width n must be >= 1")
    degree = order - 1
    r = degree if r is None else r
    if not 0 <= r <= degree:
        raise ValueError("reproduction degree r must satisfy 0 <= r <= order - 1")
    ks = KnotSequence.cardinal_uniform(degree, nspans, pad=n + 1, start=start, spacing=spacing)
    if order == 4 and r == 3:
        # the cubic optimum is a_0 = 1 + 2c, a_n = -c
        c = (1.0 if kind == "dqi" else 2.0) / (6.0 * n * n)
        weights = np.zeros(2 * n + 1)
        weights[n] = 1.0 + 2.0 * c
        weights[0] = weights[-1] = -c
    else:
        weights, _nu = solve_symmetric_uniform(order, n, r, kind=kind)
    funs = []
    for i in ks.basis_indices:
        entries = tuple(
            (i + s, float(w)) for s, w in zip(range(-n, n + 1), weights) if w != 0.0
        )
        if kind == "dqi":
            funs.append(CoefficientFunctional(ks, DISCRETE, i, point_entries=entries))
        else:
            funs.append(CoefficientFunctional(ks, BASIS_SPLINE, i, kernel_entries=entries))
    family = "uniform-NB-dQI" if kind == "dqi" else "uniform-NB-iQI"
    qi = QuasiInterpolant(ks, tuple(funs), degree_exact=r, family=family, params=(order, n, r))
    return _validated(qi)


def uniform_nb_dqi(
    order: int,
    n: int,
    r: int | None = None,
    *,
    nspans: int = 50,
    start: float = 0.0,
    spacing: float = 1.0,
) -> QuasiInterpolant:
    """Symmetric discrete near-best operator in the uniform cardinal setting.

    ``order`` is the even spline order (degree order-1); the stencil spans
    offsets -n..n.  The cubic case with full reproduction degree 3 uses the
    known optimal weights a_0 = 1 + 1/(3 n^2), a_n = -1/(6 n^2); every other
    case delegates to the l1 solver.
    """
    return _uniform_nb("dqi", order, n, r, nspans, start, spacing)


def uniform_nb_iqi(
    order: int,
    n: int,
    r: int | None = None,
    *,
    nspans: int = 50,
    start: float = 0.0,
    spacing: float = 1.0,
) -> QuasiInterpolant:
    """Symmetric integral near-best operator in the uniform cardinal setting.

    Functionals take moments against the unit-integral basis kernels.  The
    cubic case with full reproduction degree uses the optimal weights
    a_0 = 1 + 2/(3 n^2), a_n = -1/(3 n^2).
    """
    return _uniform_nb("iqi", order, n, r, nspans, start, spacing)


def partition_condition_violations(ks: KnotSequence, p: int) -> list[int]:
    """Indices violating the stencil balance condition
    theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p} <= theta_i + theta_{i+1},
    checked wherever the full +-p window exists."""
    glo, ghi = ks.greville_range() if ks.cardinal else (0, ks.nbasis - 1)
    bad = []
    for i in ks.basis_indices:
        if i - p < glo or i + p > ghi or i - 1 < glo or i + 1 > ghi:
            continue
        mid = ks.greville(i - p) + ks.greville(i + p)
        width = max(1.0, abs(mid))
        if (
            ks.greville(i - 1) + ks.greville(i) > mid + 1e-12 * width
            or mid > ks.greville(i) + ks.greville(i + 1) + 1e-12 * width
        ):
            bad.append(i)
    return bad


def nb_dqi_nonuniform(ks: KnotSequence, p: int) -> QuasiInterpolant:
    """Optimal three-node discrete operator for quadratic splines.

    Nonzero weights sit at offsets {-p, 0, +p} only; the functional is the
    sample at theta_i minus lam_i times the second divided difference over
    (theta_{i-p}, theta_i, theta_{i+p}), hence exact on degree 2.  The
    partition must satisfy the balance condition for these weights to be the
    l1 optimum; violations are reported with the failing index.  Near the
    ends of a clamped sequence the offsets shrink to the available range,
    which keeps the reproduction property and the norm bound.
    """
    if ks.m != 2:
        raise ValueError("this family is defined for quadratic splines (degree 2)")
    if p < 2:
        raise ValueError("offset p must be >= 2")
    _require_distinct_interior(ks, "nb_dqi_nonuniform")
    bad = partition_condition_violations(ks, p)
    if bad:
        raise PartitionConditionError(
            bad[0], f"partition violates the stencil balance condition at index {bad[0]}"
        )
    lo, hi = _stencil_bounds(ks)
    funs = []
    for i in ks.basis_indices:
        l = ks.lam(i)
        if l <= 0.0:
            funs.append(CoefficientFunctional(ks, DISCRETE, i, point_entries=((i, 1.0),)))
            continue
        jm, jp = max(i - p, lo), min(i + p, hi)
        A = ks.greville(i) - ks.greville(jm)
        B = ks.greville(jp) - ks.greville(i)
        w0 = 1.0 + l / (A * B)
        wm = -l / (A * (A + B))
        wp = -l / (B * (A + B))
        entries = ((jm, wm), (i, w0), (jp, wp))
        funs.append(CoefficientFunctional(ks, DISCRETE, i, point_entries=entries))
    qi = QuasiInterpolant(
        ks, tuple(funs), degree_exact=2, family="Q_p2", params=(p,)
    )
    return _validated(qi)
