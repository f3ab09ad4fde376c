"""The quasi-interpolant container: an operator is its two weight bands.

An operator ``Qf = sum_i Lambda_i(f) B_i`` is its coefficient functionals'
weights.  Their sources are either point evaluations at Greville points
(referenced by Greville index) or moments against unit-integral spline
kernels (referenced by kernel index); one functional may mix both, which
the boundary rows of the moment operators on clamped sequences use.  The
kernels of one operator share its ``kind``.  The weights form two banded
matrices, one over point sources and one over kernel sources
(``WeightBand``): every functional's stencil lies within a fixed range of
offsets from its own index.

The bands are the operator.  ``CoefficientFunctional`` is only their input:
a record of one index's ``(source, weight)`` entries, from which the
operator builds and validates its bands once, at construction.
Coefficients, evaluation, norms, quadrature rules and the reproduction
check all read the bands, over all indices or points at once; the kernel
band's Gauss rules come from one ``KnotSequence.kernel_rules`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .splinecore import _RTOL, KnotSequence, _int_arg, _int_indices

__all__ = [
    "DISCRETE",
    "DUAL_SPLINE",
    "BASIS_SPLINE",
    "CoefficientFunctional",
    "WeightBand",
    "QuasiInterpolant",
    "is_exact_on",
]

DISCRETE = "discrete"
DUAL_SPLINE = "integral-dual-spline"
BASIS_SPLINE = "integral-basis-spline"

_MOMENT_KINDS = {DISCRETE: "point", DUAL_SPLINE: "dual", BASIS_SPLINE: "basis"}


@dataclass(frozen=True)
class CoefficientFunctional:
    """One functional's ``(greville_index, weight)`` pairs and its
    ``(kernel_index, weight)`` pairs of the operator's kernel flavour.  A
    record only: ``QuasiInterpolant`` turns the records into its weight
    bands and validates them there.  Immutable; safe for concurrent reads."""

    point_entries: tuple = ()
    kernel_entries: tuple = ()


class WeightBand:
    """One source type's weights of an operator, stored by offset.

    Built from ``(source, weight)`` entry lists, one per basis index.  Row i
    holds the weights of functional i on the sources ``i + lo``, ...,
    ``i + lo + width - 1``, so ``W[i, i + lo + c] = weights[i, c]``.  A
    source is an index of the ``KnotSequence`` kind ``kind``: ``"point"``,
    ``"dual"`` or ``"basis"``.  ``sources`` lists, sorted, the source
    indices that some functional references.  Read-only.
    """

    __slots__ = ("kind", "lo", "weights", "sources")

    def __init__(self, kind: str, rows):
        entries = [(i, idx - i, w) for i, row in enumerate(rows) for idx, w in row]
        row, offset, w = zip(*entries) if entries else ((), (), ())
        self.sources = _int_indices(sorted({i + c for i, c in zip(row, offset)}))
        self.lo = min(offset, default=0)
        n, width = len(rows), max(offset, default=self.lo - 1) - self.lo + 1
        # each weight added in entry order to 0.0, as one += per entry would;
        # bincount of no entries gives integers, so the band is made float
        flat = np.array(row, dtype=int) * width + np.array(offset, dtype=int) - self.lo
        self.weights = np.bincount(flat, weights=w, minlength=n * width).reshape(n, width).astype(float, copy=False)
        self.weights.flags.writeable = False
        self.kind = kind

    @property
    def width(self) -> int:
        return self.weights.shape[1]

    def _columns(self) -> np.ndarray:
        """Source index minus ``lo`` of every band entry."""
        return np.arange(self.weights.shape[0])[:, None] + np.arange(self.width)

    def at(self, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weights on the sources at points with basis rows ``(k, rows)``
        (from ``KnotSequence.basis_rows``): ``out[p, s]`` is the weight on
        source ``k[p] + lo + s`` of the operator's value at point p."""
        out = np.zeros((len(k), rows.shape[1] + self.width - 1))
        tmp = np.empty((len(k), self.width))  # one buffer for every row's weights times its basis values
        for r in range(rows.shape[1]):
            self.weights.take(k + r, axis=0, out=tmp)
            tmp *= rows[:, r, None]
            out[:, r : r + self.width] += tmp
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``W @ values`` with ``values[j]`` the datum of source ``sources[j]``."""
        data = np.zeros(self.weights.shape[0] + self.width - 1)
        data[self.sources - self.lo] = values
        # entries outside a stencil are skipped, so a non-finite datum stays in its rows
        terms = np.where(self.weights != 0.0, self.weights * data[self._columns()], 0.0)
        return terms.sum(axis=1)

    def source_totals(self, v: np.ndarray) -> np.ndarray:
        """``v @ W`` at the referenced sources, summed in basis-index order."""
        totals = np.bincount(
            self._columns().ravel(),
            weights=(self.weights * v[:, None]).ravel(),
            minlength=self.weights.shape[0] + self.width - 1,
        )
        return totals[self.sources - self.lo]


@dataclass(frozen=True)
class QuasiInterpolant:
    """An operator on a spline basis, given by one functional per basis index.

    ``kind`` is the flavour of every kernel entry (``DISCRETE``: none).
    Construction builds ``bands``, the weights as ``(point band, kernel
    band)``, and validates them: every weight is finite and every source is
    a stored Greville point or kernel.  Everything else reads the bands.
    """

    ks: KnotSequence
    functionals: tuple
    degree_exact: int
    family: str
    params: tuple = field(default=())
    kind: str = DISCRETE

    def __post_init__(self):
        if self.kind not in _MOMENT_KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if len(self.functionals) != self.ks.nbasis:
            raise ValueError(
                f"need one functional per basis index "
                f"({len(self.functionals)} given, {self.ks.nbasis} required)"
            )
        kernel_rows = [lam.kernel_entries for lam in self.functionals]
        if self.kind == DISCRETE and any(kernel_rows):
            raise ValueError("discrete functionals cannot carry kernel entries")
        point = WeightBand("point", [lam.point_entries for lam in self.functionals])
        kernel = WeightBand(_MOMENT_KINDS[self.kind], kernel_rows)
        for band in (point, kernel):
            if band.sources.size:  # raises on a source whose Greville window or kernel is not stored
                self.ks._indices(band.kind, band.sources)
        if not (np.isfinite(point.weights).all() and np.isfinite(kernel.weights).all()):
            raise ValueError("non-finite weight")
        object.__setattr__(self, "bands", (point, kernel))

    @property
    def is_discrete(self) -> bool:
        return not self.bands[1].sources.size

    @cached_property
    def row_norms(self) -> np.ndarray:
        """The l1 norm of each functional's weights, the point band's offsets
        in order and then the kernel band's; the largest is the norm bound."""
        point, kernel = (sum(np.abs(band.weights).T, np.zeros(self.ks.nbasis)) for band in self.bands)
        out = point + kernel
        out.flags.writeable = False
        return out

    def _source_data(self, band: WeightBand, f) -> np.ndarray:
        """f at the point sources, or its kernel integrals (8 Gauss nodes a span): one call of f on the live nodes."""
        if band.kind == "point":
            return _values(f, self.ks.greville_points(band.sources))
        nodes, wts, live = self.ks.kernel_rules(band.kind, band.sources, 8)
        counts = live.sum(axis=1)
        return np.add.reduceat(wts[live] * _values(f, nodes[live]), np.cumsum(counts) - counts)

    def coefficients(self, f) -> np.ndarray:
        """Spline coefficients of Qf (f is called on arrays of nodes)."""
        out = np.zeros(self.ks.nbasis)
        for band in self.bands:
            if band.sources.size:
                out = out + band.apply(self._source_data(band, f))
        return out

    def evaluate(self, f, x):
        """Pointwise value of Qf; x may be a scalar or an array."""
        coeffs = self.coefficients(f)
        xs = np.asarray(x, dtype=float)
        k, rows = self.ks.basis_rows(xs)
        out = (rows * coeffs[k[:, None] + np.arange(self.ks.m + 1)]).sum(axis=1)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _values(f, nodes: np.ndarray) -> np.ndarray:
    """``f(nodes)`` as one float per node; f may return a scalar for all of them."""
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape not in ((), nodes.shape):
        raise ValueError(f"f must return a scalar or one value per node, got shape {vals.shape} for {nodes.size} nodes")
    return np.broadcast_to(vals, nodes.shape)


def is_exact_on(q: QuasiInterpolant, degree: int) -> tuple[bool, float]:
    """Check coefficient-level polynomial reproduction up to the given degree.

    Exactness of the operator on polynomials of degree r is equivalent, by
    linear independence of the basis, to every functional returning the
    r-th symmetric coefficient of its own index.  Each index is checked on
    the monomials ``((x - theta_j)/(b - a))**r`` centred at its own Greville
    point ``theta_j``, so the residuals are dimensionless and do not depend
    on where the domain lies.  All band entries go at once, each moment
    centred at its row's Greville point.  Returns ``(ok, worst)`` with
    ``worst`` the largest residual; ``ok`` means ``worst <= 1e-10``.
    """
    ks, degree = q.ks, _int_arg("degree", degree, 0)
    if degree > ks.m:
        raise ValueError("cannot be exact beyond the spline degree")
    # every index below was checked when the operator was built
    scale, js = np.float64(ks.b - ks.a), np.arange(ks.nbasis)
    theta = ks.greville_points(js)
    got = -ks._moments("symmetric", js, degree, theta, scale)
    for band in [b for b in q.bands if b.sources.size]:
        rows, cols = np.nonzero(band.weights)
        js = rows + band.lo + cols
        mom = ks._moments(band.kind, js, degree, theta[rows], scale)
        np.add.at(got, rows, band.weights[rows, cols, None] * mom)
    worst = float(np.abs(got).max())
    return worst <= _RTOL, worst
