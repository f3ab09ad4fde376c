"""Spline quasi-interpolation toolkit.

Discrete and integral quasi-interpolants on uniform and non-uniform knots,
near-best (l1-minimal) coefficient functionals, operator norm bounds and
empirical estimates, bivariate criss-cross families, and spline-derived
quadrature rules.
"""

from .bivariate import (
    BivariateFunctionalFamily,
    TensorMesh,
    crisscross_g2,
    crisscross_t2,
    eval_zp_box,
    monomial_residuals,
    nb_box_coeffs,
)
from .functionals import (
    BASIS_SPLINE,
    DISCRETE,
    DUAL_SPLINE,
    CoefficientFunctional,
    QuasiInterpolant,
    is_exact_on,
)
from .nearbest import (
    InfeasibleError,
    NearBestProblem,
    NearBestSolution,
    solve_l1,
    solve_symmetric_uniform,
)
from .normest import (
    empirical_norm_discrete,
    empirical_norm_integral,
    nu_bound,
)
from .quadrature import QuadratureRule, exactness_degree, qi_to_quadrature
from .quasiinterp import (
    PartitionConditionError,
    gs1,
    gs2,
    nb_dqi_nonuniform,
    s2,
    schoenberg,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from .splinecore import KnotSequence

__version__ = "0.1.0"

__all__ = [
    "KnotSequence",
    "CoefficientFunctional",
    "QuasiInterpolant",
    "DISCRETE",
    "DUAL_SPLINE",
    "BASIS_SPLINE",
    "is_exact_on",
    "schoenberg",
    "s2",
    "gs1",
    "gs2",
    "uniform_nb_dqi",
    "uniform_nb_iqi",
    "nb_dqi_nonuniform",
    "PartitionConditionError",
    "NearBestProblem",
    "NearBestSolution",
    "InfeasibleError",
    "solve_l1",
    "solve_symmetric_uniform",
    "nu_bound",
    "empirical_norm_discrete",
    "empirical_norm_integral",
    "TensorMesh",
    "BivariateFunctionalFamily",
    "crisscross_t2",
    "crisscross_g2",
    "monomial_residuals",
    "nb_box_coeffs",
    "eval_zp_box",
    "QuadratureRule",
    "qi_to_quadrature",
    "exactness_degree",
]
