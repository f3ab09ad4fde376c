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
from .nearbest import _uniform_args, solve_symmetric_uniform
from .splinecore import KnotSequence, _int_arg

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
    return ks.greville_range() if ks.cardinal else (0, ks.nbasis - 1)


def _operator(ks, kind: str, live, nodes, weights, degree: int, family: str, params=()):
    """Operator with the stencil ``zip(nodes[k], weights[k])`` at index
    ``live[k]`` and the unit weight on its own source at every other index,
    as point entries or as kernel entries of flavour ``kind``.  On a clamped
    sequence indices 0 and nbasis-1 have no dual kernel: dual-flavour
    entries there sample f at the domain end (their Greville point)."""
    entries = [((i, 1.0),) for i in ks.basis_indices]
    for i, idx, w in zip(*(np.asarray(v).tolist() for v in (live, nodes, weights))):
        entries[i] = tuple(zip(idx, w))
    if kind == DISCRETE:
        funs = [CoefficientFunctional(row) for row in entries]
    else:
        ends = (0, ks.nbasis - 1) if kind == DUAL_SPLINE and not ks.cardinal else ()
        funs = [CoefficientFunctional((), row) for row in entries]
        for i, row in enumerate(entries):  # the rows that read an end sample it
            if any(idx in ends for idx, _ in row):
                funs[i] = CoefficientFunctional(
                    tuple(e for e in row if e[0] in ends), tuple(e for e in row if e[0] not in ends)
                )
    return QuasiInterpolant(ks, tuple(funs), degree_exact=degree, family=family, params=params, kind=kind)


def schoenberg(ks: KnotSequence) -> QuasiInterpolant:
    """The positive operator sampling at Greville points; reproduces degree 1."""
    return _validated(_operator(ks, DISCRETE, [], [], [], 1, "S1"))


def s2(ks: KnotSequence) -> QuasiInterpolant:
    """Three-term discrete operator exact on degree 2.

    Each functional subtracts lam_i times the second divided difference of f
    over the neighbouring Greville points from the sample at theta_i; any
    second divided difference reproduces half the second derivative on
    quadratics, so the correction is degree-independent.  All stencils are
    built at once; every index with lam_i > 0 has both neighbours.
    """
    if ks.m < 2:
        raise ValueError("s2 requires degree >= 2")
    _require_distinct_interior(ks, "s2")
    lam = ks.lam(ks.basis_indices)
    live = np.flatnonzero(lam > 0.0)  # lam = 0: the plain sample
    nodes = live[:, None] + np.arange(-1, 2)
    x = ks.greville_points(nodes)
    # weights 1 / ((x_k - x_{k-1})(x_k - x_{k-2})) of the second divided difference
    w = -lam[live, None] * (1.0 / ((x - np.roll(x, 1, axis=1)) * (x - np.roll(x, 2, axis=1))))
    w[:, 1] += 1.0
    return _validated(_operator(ks, DISCRETE, live, nodes, w, 2, "S2"))


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
    return _validated(_operator(ks, DUAL_SPLINE, [], [], [], 1, "G1"))


def gs2(ks: KnotSequence) -> QuasiInterpolant:
    """Three-term moment operator exact on degree 2.

    For each index the weights on the three neighbouring moment functionals
    solve the 3x3 reproduction system for degrees 0, 1, 2, assembled in
    monomials centred at the anchor's Greville point and scaled by the
    stencil's Greville half-spread, as ``nearbest`` assembles its systems, so
    the weights do not change under a power-of-two scaling of the knots; all
    systems are assembled at once and solved in one stacked call.  On a
    clamped sequence the two end coefficients stay point evaluations.
    """
    if ks.m < 2:
        raise ValueError("gs2 requires degree >= 2")
    _require_distinct_interior(ks, "gs2")
    ends = () if ks.cardinal else (0, ks.nbasis - 1)
    inner = np.arange(ks.nbasis) if ks.cardinal else np.arange(1, ks.nbasis - 1)
    idxs = inner[:, None] + np.arange(-1, 2)
    lo, center, hi = ks.greville_points(idxs).T
    scale = (hi - lo) / 2.0
    point = (idxs[..., None] == ends).any(axis=-1)  # members at a clamped end: the sample there
    c, s = center[:, None], scale[:, None]
    M = ks._moments("dual", ks._indices("dual", np.where(point, inner[:, None], idxs)), 2, c, s)
    M[point] = ks._moments("point", idxs[point], 2, *(np.broadcast_to(v, idxs.shape)[point] for v in (c, s)))
    rhs = ks._moments("symmetric", inner, 2, center, scale)
    try:
        w = np.linalg.solve(M.transpose(0, 2, 1), rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        i = inner[np.argmax(np.linalg.det(M) == 0.0)]
        raise RuntimeError(f"singular reproduction system at index {i}") from exc
    return _validated(_operator(ks, DUAL_SPLINE, inner, idxs, w, 2, "G2"))


def _uniform_nb(kind: str, order: int, n: int, r, nspans: int, spacing: float):
    """Body of uniform_nb_dqi (kind "dqi") and uniform_nb_iqi (kind "iqi")."""
    order, n, r = _uniform_args(order, n, r)
    ks = KnotSequence.cardinal_uniform(order - 1, nspans, pad=n + 1, spacing=spacing)
    if order == 4 and r == 3:
        # the cubic optimum is a_0 = 1 + 2c, a_n = -c
        c = (1.0 if kind == "dqi" else 2.0) / (6.0 * n * n)
        weights = np.zeros(2 * n + 1)
        weights[n] = 1.0 + 2.0 * c
        weights[0] = weights[-1] = -c
    else:
        weights, _nu = solve_symmetric_uniform(order, n, r, kind=kind)
    cols = np.flatnonzero(weights != 0.0)
    idx = np.arange(ks.nbasis)
    nodes = idx[:, None] + cols - n
    flavour = DISCRETE if kind == "dqi" else BASIS_SPLINE
    family = "uniform-NB-dQI" if kind == "dqi" else "uniform-NB-iQI"
    w = np.broadcast_to(weights[cols], nodes.shape)
    return _validated(_operator(ks, flavour, idx, nodes, w, r, family, (order, n, r)))


def uniform_nb_dqi(
    order: int,
    n: int,
    r: int | None = None,
    *,
    nspans: int = 50,
    spacing: float = 1.0,
) -> QuasiInterpolant:
    """Symmetric discrete near-best operator in the uniform cardinal setting.

    ``order`` is the even spline order (degree order-1); the stencil spans
    offsets -n..n.  The cubic case with full reproduction degree 3 uses the
    known optimal weights a_0 = 1 + 1/(3 n^2), a_n = -1/(6 n^2); every other
    case delegates to the l1 solver.
    """
    return _uniform_nb("dqi", order, n, r, nspans, spacing)


def uniform_nb_iqi(
    order: int,
    n: int,
    r: int | None = None,
    *,
    nspans: int = 50,
    spacing: float = 1.0,
) -> QuasiInterpolant:
    """Symmetric integral near-best operator in the uniform cardinal setting.

    Functionals take moments against the unit-integral basis kernels.  The
    cubic case with full reproduction degree uses the optimal weights
    a_0 = 1 + 2/(3 n^2), a_n = -1/(3 n^2).
    """
    return _uniform_nb("iqi", order, n, r, nspans, spacing)


def partition_condition_violations(ks: KnotSequence, p: int) -> list[int]:
    """Indices violating the stencil balance condition
    theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p} <= theta_i + theta_{i+1},
    checked wherever the full +-p window exists, to a tolerance relative to
    the window, so that a scaled partition gives the same answer."""
    p = _int_arg("p", p)
    glo, ghi = _stencil_bounds(ks)
    reach = max(abs(p), 1)
    i = np.arange(max(glo + reach, 0), min(ghi - reach, ks.nbasis - 1) + 1)
    g = ks.greville_points(i[:, None] + np.array([-p, -1, 0, 1, p]))
    mid = g[:, 0] + g[:, 4]
    width = np.maximum(np.abs(mid), g[:, 4] - g[:, 0])
    bad = (g[:, 1] + g[:, 2] > mid + 1e-12 * width) | (mid > g[:, 2] + g[:, 3] + 1e-12 * width)
    return i[bad].tolist()


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
    if _int_arg("p", p) < 2:
        raise ValueError("offset p must be >= 2")
    _require_distinct_interior(ks, "nb_dqi_nonuniform")
    bad = partition_condition_violations(ks, p)
    if bad:
        raise PartitionConditionError(
            bad[0], f"partition violates the stencil balance condition at index {bad[0]}"
        )
    lo, hi = _stencil_bounds(ks)
    lam = ks.lam(ks.basis_indices)
    live = np.flatnonzero(lam > 0.0)
    nodes = np.stack([np.maximum(live - p, lo), live, np.minimum(live + p, hi)], axis=1)
    tm, t0, tp = ks.greville_points(nodes).T
    A, B, l = t0 - tm, tp - t0, lam[live]
    w = np.stack([-l / (A * (A + B)), 1.0 + l / (A * B), -l / (B * (A + B))], axis=1)
    return _validated(_operator(ks, DISCRETE, live, nodes, w, 2, "Q_p2", (p,)))
