"""Output checks, computed apart from splineqi.

Each check returns a list of problems (empty when the output is right).
The references are scipy's B-splines and HiGHS, closed forms of the method,
or properties every correct output has; none is a stored copy of the
program's output.  Tolerances and their reasons:

* ``REPRO_TOL`` 1e-10: the constructors accept an operator when every
  coefficient-level reproduction residual on [0, 1] is at most 1e-10, and a
  coefficient error moves a value of a partition-of-unity spline by at most
  that much.  A random polynomial with coefficients in [-1, 1] may add that
  error once per monomial, so the value tolerance is ``(deg+1) * REPRO_TOL``.
* ``LP_RTOL`` 2e-9: the program certifies its l1 optimum by a duality gap of
  at most 1e-9 * max(nu, 1); HiGHS runs with feasibility tolerances of 1e-10,
  so the two optima may differ by the sum, rounded up.  A square system is
  compared with its one feasible point instead, with the slack its condition
  allows (``square_optimum``).  The constraint residual is held to the
  program's own acceptance, 1e-9 * max(|b|, 1).
* ``ROUND`` 64 ulps: sums of a few terms of size at most the l1 mass of a
  stencil.  Used where two computations of the same float quantity differ
  only in summation order (nu bounds, Lebesgue sums, spline evaluation,
  criss-cross reproduction on the unit square, the empirical norm of a
  positive operator, which is 1).
* ``BOUND_RTOL`` 1e-12: an empirical norm is a lower estimate of the norm,
  so it may exceed the l1 bound only by rounding.  The ZP norm at s = 3
  reads 1.1111111111111127 against 10/9, which is 1.4e-15 relative.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps
REPRO_TOL = 1e-10
LP_RTOL = 2e-9
LP_RES = 1e-9
ROUND = 64 * EPS
BOUND_RTOL = 1e-12


# ------------------------------------------------------------------ operators

def weight_table(q) -> tuple[np.ndarray, float]:
    """Dense weights (basis index x source) of an operator, where a source is a
    Greville point or a kernel, kept apart as the coefficient-mode norm does;
    and the l1 bound nu = max row l1 norm, summed here."""
    sources: dict[tuple[str, int], int] = {}
    rows = []
    for lam in q.functionals:
        row = []
        for tag, entries in (("p", lam.point_entries), ("k", lam.kernel_entries)):
            for idx, w in entries:
                col = sources.setdefault((tag, idx), len(sources))
                row.append((col, float(w)))
        rows.append(row)
    W = np.zeros((len(rows), len(sources)))
    for i, row in enumerate(rows):
        for col, w in row:
            W[i, col] += w
    return W, float(np.abs(W).sum(axis=1).max())


def design_matrix(q, xs: np.ndarray) -> np.ndarray:
    from scipy.interpolate import BSpline

    return BSpline.design_matrix(xs, q.ks.knots, q.ks.m).toarray()


def lebesgue_max(q, xs: np.ndarray) -> float:
    """Grid maximum of sum_source |sum_i B_i(x) W[i, source]| (coefficient mode)."""
    W, _ = weight_table(q)
    return float(np.abs(design_matrix(q, xs) @ W).sum(axis=1).max())


def random_poly(rng: np.random.Generator, degree: int):
    """A polynomial in raw monomials with coefficients in [-1, 1]."""
    c = rng.uniform(-1.0, 1.0, degree + 1)
    return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)


def check_reproduction(q, coeffs: np.ndarray, f, xs: np.ndarray, label: str) -> list[str]:
    """The spline with the operator's coefficients of f, evaluated by scipy,
    equals f when f has degree <= degree_exact."""
    from scipy.interpolate import BSpline

    got = BSpline(q.ks.knots, coeffs, q.ks.m)(xs)
    err = float(np.max(np.abs(got - f(xs))))
    tol = (q.degree_exact + 1) * REPRO_TOL
    return [] if err <= tol else [f"{label}: reproduction error {err:.3e} > {tol:.1e}"]


def check_nu(q, nu_program: float, label: str) -> list[str]:
    """nu_bound agrees with the weight table; S1 and G1 have nu exactly 1; G2
    stays within the paper's bound 5 for degrees 2 and 3."""
    _, nu = weight_table(q)
    out = []
    if abs(nu_program - nu) > ROUND * nu:
        out.append(f"{label}: nu_bound {nu_program!r} differs from weight table {nu!r}")
    if q.family in ("S1", "G1") and nu != 1.0:
        out.append(f"{label}: {q.family} weight norm {nu!r} is not 1")
    if q.family == "G2" and q.ks.m in (2, 3) and nu > 5.0:
        out.append(f"{label}: G2 nu {nu!r} exceeds 5")
    return out


# ------------------------------------------------------------------- l1 optima

def lp_optimum(A: np.ndarray, b: np.ndarray) -> float | None:
    """min ||x||_1 subject to A x = b, by HiGHS on the split form."""
    from scipy.optimize import linprog

    n = A.shape[1]
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([A, -A]),
        b_eq=b,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return float(res.fun) if res.status == 0 else None


def square_optimum(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """A square nonsingular system has one feasible point, so its l1 norm is
    the optimum.  Returns that norm and the slack ||A^-1||_1 ||r_x - r_ref||_1
    by which a point x with another residual may differ from it.  HiGHS is no
    reference here: on an ill-conditioned system (condition 5e6) its optimum
    was 3.6e-5 off the feasible point that numpy and the program agree on."""
    ref = np.linalg.solve(A, b)
    dr = (A @ x - b) - (A @ ref - b)
    slack = float(np.abs(np.linalg.inv(A)).sum(axis=0).max() * np.abs(dr).sum())
    return float(np.abs(ref).sum()), slack


def check_lp(A: np.ndarray, b: np.ndarray, x: np.ndarray, nu: float, ref: float | None, label: str, slack: float = 0.0) -> list[str]:
    out = []
    if ref is None:
        return [f"{label}: HiGHS finds no optimum"]
    res = float(np.max(np.abs(A @ x - b)))
    if res > LP_RES * max(1.0, float(np.max(np.abs(b)))):
        out.append(f"{label}: constraint residual {res:.3e}")
    l1 = float(np.abs(x).sum())
    if abs(l1 - nu) > ROUND * max(1.0, l1):
        out.append(f"{label}: reported nu {nu!r} is not the l1 norm {l1!r} of the weights")
    if abs(nu - ref) > LP_RTOL * max(1.0, ref) + slack:
        out.append(f"{label}: optimum {nu!r} differs from reference {ref!r}")
    return out


# ---------------------------------------------------------------- criss-cross

_CRISSCROSS = {"T2": ("pyramid", 20.0, -0.75), "G2": ("cell", 12.0, -1.0)}


def check_crisscross(fam, label: str) -> list[str]:
    """Directional weights lie in [lo, 0], and the stencils reproduce every
    monomial of total degree <= 2 against the closed-form cell moments:
    a cell functional's x-marginal has moments 1, mid, mid^2 + h^2/d (d = 20
    for the normalised pyramid, 12 for the cell average) and the criss-cross
    quadratic basis has targets 1, mid, mid^2 - h^2/4."""
    kind, d, lo = _CRISSCROSS[fam.tag]
    out = []
    if fam.moment_kind != kind:
        out.append(f"{label}: moment kind {fam.moment_kind} is not {kind}")
    x, y = np.asarray(fam.mesh.x), np.asarray(fam.mesh.y)
    ws = [np.asarray(v, dtype=float)[1:-1] for v in (fam.a, fam.abar, fam.c, fam.cbar)]
    allw = np.concatenate(ws)
    if not (np.all(np.isfinite(allw)) and np.all(allw <= 0.0) and np.all(allw >= lo)):
        out.append(f"{label}: directional weights leave [{lo}, 0]")

    def axis(lines):
        mid, h = 0.5 * (lines[:-1] + lines[1:]), np.diff(lines)
        mom = np.stack([np.ones_like(mid), mid, mid * mid + h * h / d])
        tgt = np.stack([np.ones_like(mid), mid, mid * mid - h * h / 4.0])
        return mom, tgt

    mx, tx = axis(x)
    my, ty = axis(y)
    a, abar = np.asarray(fam.a, float)[1:-1, None], np.asarray(fam.abar, float)[1:-1, None]
    c, cbar = np.asarray(fam.c, float)[None, 1:-1], np.asarray(fam.cbar, float)[None, 1:-1]
    centre = 1.0 - (a + abar + c + cbar)
    nu = np.abs(a) + np.abs(abar) + np.abs(c) + np.abs(cbar) + np.abs(centre)
    worst = 0.0
    for r, s in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        X, Y = mx[r], my[s]
        got = (
            a * X[:-2, None] * Y[None, 1:-1]
            + abar * X[2:, None] * Y[None, 1:-1]
            + c * X[1:-1, None] * Y[None, :-2]
            + cbar * X[1:-1, None] * Y[None, 2:]
            + centre * X[1:-1, None] * Y[None, 1:-1]
        )
        target = tx[r][1:-1, None] * ty[s][None, 1:-1]
        worst = max(worst, float(np.max(np.abs(got - target) / (ROUND * nu))))
    if worst > 1.0:
        out.append(f"{label}: reproduction residual {worst:.1f} x tolerance")
    return out


# --------------------------------------------------------------- paper tables

# The paper's printed values, the closed forms of the l1 bounds, and the
# tolerance the repro table itself applies to each empirical norm.
def _dqi_nu(n):
    return 1.0 + 2.0 / (3.0 * n * n)


def _iqi_nu(n):
    return 1.0 + 4.0 / (3.0 * n * n)


def _box_nu(s):
    return 1.0 + 1.0 / (s * s)


PAPER_NU = {}
PAPER_NORMS = {}  # claim -> (paper value, tolerance, claim of its nu bound or closed bound)
for _n, _v in ((1, 1.222), (2, 1.139), (3, 1.074)):
    PAPER_NU[f"uniform-dqi/nu/n={_n}"] = _dqi_nu(_n)
    PAPER_NORMS[f"uniform-dqi/norm/n={_n}"] = (_v, 0.011, _dqi_nu(_n))
for _n, _v in ((1, 1.5278), (2, 1.2778), (3, 1.1481)):
    PAPER_NU[f"uniform-iqi/nu/n={_n}"] = _iqi_nu(_n)
    PAPER_NORMS[f"uniform-iqi/norm/n={_n}"] = (_v, 0.011, _iqi_nu(_n))
for _s in (1, 2, 3):
    for _tag in ("nb3", "nb4"):
        PAPER_NU[f"box-dqi/{_tag}/nu/s={_s}"] = _box_nu(_s)
for _s, _v in ((1, 1.5), (2, 1.25), (3, 1.111)):
    PAPER_NORMS[f"box-dqi/nb4/norm/s={_s}"] = (_v, 0.011, _box_nu(_s))
PAPER_NORMS["s2-uniform/norm"] = (305.0 / 207.0, 0.0055, "s2-uniform/nu-within-2.5")
PAPER_EXACT = {
    "crisscross/t2/a": -3.0 / 20.0,
    "crisscross/t2/center": 8.0 / 5.0,
    "crisscross/t2/nu": 11.0 / 5.0,
    "crisscross/g2/a": -1.0 / 6.0,
    "crisscross/g2/center": 5.0 / 3.0,
    "crisscross/g2/nu": 7.0 / 3.0,
}
CLOSED_TOL = 1e-12
REPRO_CLAIMS = set(PAPER_NU) | set(PAPER_NORMS) | set(PAPER_EXACT) | {"s2-uniform/nu-within-2.5"}


def parse_repro_csv(text: str) -> dict[str, dict]:
    import csv
    import io

    return {row["claim"]: row for row in csv.DictReader(io.StringIO(text))}


def check_repro(text: str) -> list[str]:
    rows = parse_repro_csv(text)
    out = []
    if set(rows) != REPRO_CLAIMS:
        out.append(f"repro: claim set differs ({len(rows)} rows)")
        return out
    for claim, row in rows.items():
        if row["status"] != "pass":
            out.append(f"{claim}: status {row['status']}")
    got = {claim: float(row["computed"]) for claim, row in rows.items()}
    for claim, exact in list(PAPER_NU.items()) + list(PAPER_EXACT.items()):
        if abs(got[claim] - exact) > CLOSED_TOL:
            out.append(f"{claim}: {got[claim]!r} is not the closed form {exact!r}")
    for claim, (paper, tol, bound) in PAPER_NORMS.items():
        if abs(got[claim] - paper) > tol:
            out.append(f"{claim}: {got[claim]!r} is not within {tol} of the paper's {paper}")
        nu = got[bound] if isinstance(bound, str) else bound
        if got[claim] > nu * (1.0 + BOUND_RTOL):
            out.append(f"{claim}: {got[claim]!r} exceeds its bound {nu!r}")
    if got["s2-uniform/nu-within-2.5"] > 2.5:
        out.append("s2-uniform: nu bound exceeds 2.5")
    return out


# ---------------------------------------------------------------- norms

def check_norm_value(q, value: float, xs: np.ndarray, label: str) -> list[str]:
    """An unpolished grid maximum equals the benchmark's own Lebesgue sums on
    the same grid; no estimate exceeds nu; a positive operator's is 1."""
    out = []
    _, nu = weight_table(q)
    ref = lebesgue_max(q, xs)
    if abs(value - ref) > ROUND * nu:
        out.append(f"{label}: grid maximum {value!r} differs from recomputed {ref!r}")
    if value > nu * (1.0 + BOUND_RTOL):
        out.append(f"{label}: estimate {value!r} exceeds nu {nu!r}")
    if q.family in ("S1", "G1") and abs(value - 1.0) > ROUND:
        out.append(f"{label}: {q.family} norm {value!r} is not 1")
    return out


def check_kernel_norm(q, kernel: float, coefficient: float, label: str) -> list[str]:
    out = []
    _, nu = weight_table(q)
    if kernel > coefficient * (1.0 + BOUND_RTOL):
        out.append(f"{label}: kernel mode {kernel!r} exceeds coefficient mode {coefficient!r}")
    if not 0.0 < kernel <= nu * (1.0 + BOUND_RTOL):
        out.append(f"{label}: kernel mode {kernel!r} outside (0, nu={nu!r}]")
    return out


def check_evaluate(q, values: np.ndarray, coeffs: np.ndarray, f, xs: np.ndarray, label: str) -> list[str]:
    """evaluate agrees with scipy on the same coefficients and reproduces f."""
    from scipy.interpolate import BSpline

    out = []
    ref = BSpline(q.ks.knots, coeffs, q.ks.m)(xs)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    err = float(np.max(np.abs(values - ref)))
    if err > ROUND * scale:
        out.append(f"{label}: evaluate differs from scipy by {err:.3e}")
    rep = float(np.max(np.abs(values - f(xs))))
    if rep > (q.degree_exact + 1) * REPRO_TOL:
        out.append(f"{label}: evaluate misses the polynomial by {rep:.3e}")
    return out


def check_quadrature(nodes: np.ndarray, weights: np.ndarray, domain, degree_exact: int, verified: int, label: str) -> list[str]:
    """The rule integrates x^r exactly for r <= degree_exact (closed-form
    integrals), and the verified degree is at least that."""
    a, b = domain
    out = []
    tol = REPRO_TOL * (b - a) + ROUND * float(np.abs(weights).sum())
    for r in range(degree_exact + 1):
        exact = (b ** (r + 1) - a ** (r + 1)) / (r + 1)
        err = abs(float(weights @ nodes**r) - exact)
        if err > tol:
            out.append(f"{label}: x^{r} integrated with error {err:.3e}")
    if verified < degree_exact:
        out.append(f"{label}: verified degree {verified} < {degree_exact}")
    return out

