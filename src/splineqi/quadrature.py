"""Quadrature rules obtained by integrating discrete quasi-interpolants.

Integrating Qf = sum_i Lambda_i(f) B_i over the domain collapses to a point
rule with nodes at the Greville points referenced by the functionals and
weights summing the basis integrals; the rule inherits the operator's
polynomial reproduction degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import QuasiInterpolant
from .splinecore import _RTOL, _int_arg

__all__ = ["QuadratureRule", "qi_to_quadrature", "exactness_degree"]


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple
    degree: int  # claimed polynomial exactness degree

    def apply(self, f) -> float:
        return float(np.dot(self.weights, np.asarray(f(self.nodes), dtype=float)))


def qi_to_quadrature(q: QuasiInterpolant) -> QuadratureRule:
    """Integrate a discrete operator into a point rule over its domain."""
    if not q.is_discrete:
        raise ValueError("only discrete operators reduce to point rules")
    ks, (band, _) = q.ks, q.bands
    nodes = ks.greville_points(band.sources)
    weights = band.source_totals(ks.basis_integrals())
    return QuadratureRule(nodes=nodes, weights=weights, domain=ks.domain, degree=q.degree_exact)


def exactness_degree(rule: QuadratureRule, max_degree: int) -> int:
    """Largest d <= max_degree with the rule exact on all polynomials of degree d
    (-1 if none) to a residual of 1e-10; ``max_degree`` is an integer >= 0.

    Degree r is checked on the centred, scaled monomial ``u**r``, ``u = (x -
    mid)/(b - a)``, whose integral over [a, b] is ``(b - a) / (2**r (r + 1))``
    for even r and 0 for odd r.  The residual divided by ``b - a`` is
    dimensionless, so a domain far from 0 gives the degree it gives at 0.
    """
    max_degree = _int_arg("max_degree", max_degree, 0)
    a, b = rule.domain
    width = b - a
    u = (rule.nodes - a) / width - 0.5
    d = -1
    for r in range(max_degree + 1):
        exact = 0.5**r / (r + 1) if r % 2 == 0 else 0.0
        err = abs(float(np.dot(rule.weights, u**r)) / width - exact)
        if err > _RTOL:
            break
        d = r
    return d
