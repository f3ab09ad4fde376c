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
    nodes = ks.moments("point", band.sources, 1)[:, 1]
    weights = band.source_totals(ks.basis_integrals())
    return QuadratureRule(nodes=nodes, weights=weights, domain=ks.domain, degree=q.degree_exact)


def exactness_degree(rule: QuadratureRule, max_degree: int, rtol: float = 1e-10) -> int:
    """Largest d <= max_degree with the rule exact on all monomials up to d."""
    a, b = rule.domain
    d = -1
    for r in range(max_degree + 1):
        exact = (b ** (r + 1) - a ** (r + 1)) / (r + 1)
        err = abs(rule.apply(lambda x: x**r) - exact)
        if err > rtol * max(1.0, abs(exact)):
            break
        d = r
    return d
