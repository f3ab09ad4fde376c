"""Coefficient functionals and the quasi-interpolant container.

A coefficient functional is a sparse linear form.  Its entries are either
point evaluations at Greville points (referenced by Greville index) or
moments against unit-integral spline kernels (referenced by kernel index);
a single functional may mix both, which the boundary rows of the moment
operators on clamped sequences use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .splinecore import KnotSequence

__all__ = [
    "DISCRETE",
    "DUAL_SPLINE",
    "BASIS_SPLINE",
    "CoefficientFunctional",
    "QuasiInterpolant",
    "is_exact_on",
]

DISCRETE = "discrete"
DUAL_SPLINE = "integral-dual-spline"
BASIS_SPLINE = "integral-basis-spline"

_KINDS = (DISCRETE, DUAL_SPLINE, BASIS_SPLINE)


@dataclass(frozen=True)
class CoefficientFunctional:
    """Sparse linear form attached to one basis index.

    ``point_entries`` holds ``(greville_index, weight)`` pairs, and
    ``kernel_entries`` holds ``(kernel_index, weight)`` pairs whose kernel
    flavour is given by ``kind``.  Immutable; safe for concurrent reads.
    """

    ks: KnotSequence
    kind: str
    anchor: int
    point_entries: tuple = ()
    kernel_entries: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == DISCRETE and self.kernel_entries:
            raise ValueError("discrete functionals cannot carry kernel entries")
        for idx, w in self.point_entries:
            if not np.isfinite(w):
                raise ValueError("non-finite weight")
            self.ks.greville(idx)  # validates the index
        for idx, w in self.kernel_entries:
            if not np.isfinite(w):
                raise ValueError("non-finite weight")

    @property
    def nu(self) -> float:
        """l1 norm of the weight vector; bounds the functional on the sup ball."""
        return float(
            sum(abs(w) for _, w in self.point_entries)
            + sum(abs(w) for _, w in self.kernel_entries)
        )

    def _kernel_moment(self, idx: int, r: int, center: float, scale: float) -> float:
        if self.kind == DUAL_SPLINE:
            return self.ks.dual_moment(idx, r, center=center, scale=scale)
        return self.ks.basis_moment(idx, r, center=center, scale=scale)

    def _kernel_apply(self, idx: int, f, npts: int) -> float:
        if self.kind == DUAL_SPLINE:
            return self.ks.dual_apply(idx, f, npts)
        return self.ks.basis_apply(idx, f, npts)

    def apply(self, f, npts: int = 8) -> float:
        """Apply the form to a function (vectorized over numpy arrays)."""
        total = 0.0
        for idx, w in self.point_entries:
            total += w * float(f(self.ks.greville(idx)))
        for idx, w in self.kernel_entries:
            total += w * self._kernel_apply(idx, f, npts)
        return total

    def apply_monomial(self, r: int, *, center: float = 0.0, scale: float = 1.0) -> float:
        """Exact value on ((x - center)/scale)**r, without sampling."""
        if r < 0:
            raise ValueError("monomial order must be >= 0")
        total = 0.0
        for idx, w in self.point_entries:
            total += w * ((self.ks.greville(idx) - center) / scale) ** r
        for idx, w in self.kernel_entries:
            total += w * self._kernel_moment(idx, r, center, scale)
        return total

    def record(self) -> dict:
        """Serializable view: {kind, anchor, offsets, weights, nodes}."""
        offsets, weights, nodes = [], [], []
        for idx, w in self.point_entries:
            offsets.append(idx - self.anchor)
            weights.append(w)
            nodes.append(self.ks.greville(idx))
        for idx, w in self.kernel_entries:
            offsets.append(idx - self.anchor)
            weights.append(w)
            nodes.append(idx)
        return {
            "kind": self.kind,
            "anchor": self.anchor,
            "offsets": offsets,
            "weights": weights,
            "nodes": nodes,
        }


@dataclass(frozen=True)
class QuasiInterpolant:
    """An indexed family of coefficient functionals bound to a spline basis."""

    ks: KnotSequence
    functionals: tuple
    degree_exact: int
    family: str
    params: tuple = field(default=())

    def __post_init__(self):
        if len(self.functionals) != self.ks.nbasis:
            raise ValueError(
                f"need one functional per basis index "
                f"({len(self.functionals)} given, {self.ks.nbasis} required)"
            )

    @property
    def is_discrete(self) -> bool:
        return all(not lam.kernel_entries for lam in self.functionals)

    def coefficients(self, f, npts: int = 8) -> np.ndarray:
        """Spline coefficients of Qf."""
        return np.array([lam.apply(f, npts) for lam in self.functionals])

    def evaluate(self, f, x, npts: int = 8):
        """Pointwise value of Qf; x may be a scalar or an array."""
        coeffs = self.coefficients(f, npts)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for n, xv in enumerate(xs):
            k, row = self.ks.basis_row(xv)
            out[n] = float(np.dot(row, coeffs[k : k + self.ks.m + 1]))
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def is_exact_on(q: QuasiInterpolant, degree: int, rtol: float = 1e-10) -> tuple[bool, float]:
    """Check coefficient-level polynomial reproduction up to the given degree.

    Exactness of the operator on polynomials of degree r is equivalent, by
    linear independence of the basis, to every functional returning the
    r-th symmetric coefficient of its own index.  Each index is checked on
    the monomials ``((x - theta_j)/(b - a))**r`` centred at its own Greville
    point ``theta_j``, so the residuals are dimensionless and do not depend
    on where the domain lies.  Returns ``(ok, worst)`` with ``worst`` the
    largest such residual; ``ok`` means ``worst <= rtol``.
    """
    ks = q.ks
    if degree > ks.m:
        raise ValueError("cannot be exact beyond the spline degree")
    scale = ks.b - ks.a
    worst = 0.0
    for j in ks.basis_indices:
        lam = q.functionals[j]
        center = ks.greville(j)
        for r in range(degree + 1):
            got = lam.apply_monomial(r, center=center, scale=scale)
            worst = max(worst, abs(got - ks.symmetric_coeff(j, r, center=center, scale=scale)))
    return worst <= rtol, worst
