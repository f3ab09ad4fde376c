"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` and in
failure reports).  Criterion 9's degree-independent weight bound is asserted
exactly as stated; see the quadratic closed-form check in the same test for
the part that is provably attainable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from splineqi import (
    KnotSequence,
    NearBestProblem,
    bivariate,
    crisscross_g2,
    crisscross_t2,
    empirical_norm_discrete,
    empirical_norm_integral,
    exactness_degree,
    gs1,
    gs2,
    is_exact_on,
    nb_box_coeffs,
    nb_dqi_nonuniform,
    nu_bound,
    qi_to_quadrature,
    s2,
    schoenberg,
    solve_l1,
    solve_symmetric_uniform,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from splineqi.bivariate import zp_dqi_empirical_norm
from splineqi.partitions import (
    random_admissible_clamped,
    random_clamped,
    random_mesh,
)


def _report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_cubic_dqi_nu_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        nu = nu_bound(uniform_nb_dqi(4, n))
        worst = max(worst, abs(nu - (1.0 + 2.0 / (3.0 * n * n))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("1", ok, f"max deviation {worst:.2e}, {elapsed:.2f} s")


def test_c02_cubic_dqi_empirical_norms():
    t0 = time.perf_counter()
    worst = 0.0
    for n, ref in ((1, 1.222), (2, 1.139), (3, 1.074)):
        got = empirical_norm_discrete(uniform_nb_dqi(4, n, nspans=50), samples_per_span=64)
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 10.0
    _report("2", ok, f"max deviation {worst:.4f}, {elapsed:.1f} s")


def test_c03_cubic_iqi_nu_and_norms():
    t0 = time.perf_counter()
    worst_nu = 0.0
    worst_emp = 0.0
    for n, ref in ((1, 1.5278), (2, 1.2778), (3, 1.1481)):
        q = uniform_nb_iqi(4, n, nspans=50)
        worst_nu = max(worst_nu, abs(nu_bound(q) - (1.0 + 4.0 / (3.0 * n * n))))
        worst_emp = max(worst_emp, abs(empirical_norm_integral(q) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_nu <= 1e-12 and worst_emp <= 0.01 and elapsed < 60.0
    _report("3", ok, f"nu dev {worst_nu:.2e}, norm dev {worst_emp:.4f}, {elapsed:.1f} s")


def test_c04_box_stencil_values_and_zp_norms():
    worst_nu = 0.0
    for s in (1, 2, 3):
        for kind in ("three-direction", "four-direction"):
            _, _, nu = nb_box_coeffs(kind, s)
            worst_nu = max(worst_nu, abs(nu - (1.0 + 1.0 / (s * s))))
    worst_emp = 0.0
    t0 = time.perf_counter()
    for s, ref in ((1, 1.5), (2, 1.25), (3, 1.111)):
        worst_emp = max(worst_emp, abs(zp_dqi_empirical_norm(s) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_nu <= 1e-12 and worst_emp <= 0.01
    _report("4", ok, f"nu dev {worst_nu:.2e}, empirical dev {worst_emp:.4f}, {elapsed:.2f} s")


def test_c05_three_term_bounds_and_uniform_norm():
    rng = np.random.default_rng(2024)
    violations = 0
    for m in range(2, 9):
        bound = (m + 4) // 2
        for _ in range(1000):
            if nu_bound(s2(random_clamped(m, 8, rng))) > bound + 1e-12:
                violations += 1
    # quadratic operators stay below 2.5 in the sup norm on every partition
    worst_norm = 0.0
    for _ in range(300):
        q = s2(random_clamped(2, 8, rng))
        worst_norm = max(worst_norm, empirical_norm_discrete(q, samples_per_span=16))
    uniform_val = empirical_norm_discrete(
        s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 51))), samples_per_span=64
    )
    dev = abs(uniform_val - 305.0 / 207.0)
    ok = violations == 0 and worst_norm <= 2.5 and dev <= 0.005
    _report(
        "5",
        ok,
        f"{violations} bound violations, quadratic sup norm {worst_norm:.4f}, "
        f"uniform value dev {dev:.2e}",
    )


def test_c06_solver_reproduces_closed_forms():
    worst = 0.0
    for n in (2, 3):
        ks = KnotSequence.cardinal_uniform(3, 30, pad=n + 1)
        i = ks.nbasis // 2
        want = np.zeros(2 * n + 1)
        want[n] = 1.0 + 1.0 / (3.0 * n * n)
        want[0] = want[-1] = -1.0 / (6.0 * n * n)
        sol = solve_l1(NearBestProblem.from_discrete(ks, i, n, 3))
        worst = max(worst, float(np.max(np.abs(sol.weights - want))))
        want[n] = 1.0 + 2.0 / (3.0 * n * n)
        want[0] = want[-1] = -1.0 / (3.0 * n * n)
        sol = solve_l1(NearBestProblem.from_integral(ks, i, n, 3))
        worst = max(worst, float(np.max(np.abs(sol.weights - want))))
    for n in (1, 2, 3):
        w, _ = solve_symmetric_uniform(4, n, 3, kind="dqi")
        want = np.zeros(2 * n + 1)
        want[n] = 1.0 + 1.0 / (3.0 * n * n)
        want[0] = want[-1] = -1.0 / (6.0 * n * n)
        worst = max(worst, float(np.max(np.abs(w - want))))
        w, _ = solve_symmetric_uniform(4, n, 3, kind="iqi")
        want[n] = 1.0 + 2.0 / (3.0 * n * n)
        want[0] = want[-1] = -1.0 / (3.0 * n * n)
        worst = max(worst, float(np.max(np.abs(w - want))))

    rng = np.random.default_rng(7)
    p = 2
    for _ in range(100):
        ks = random_admissible_clamped(12, rng, p)
        q = nb_dqi_nonuniform(ks, p)
        for i in range(p, ks.nbasis - p):
            sol = solve_l1(NearBestProblem.from_discrete(ks, i, p, 2))
            want = np.zeros(2 * p + 1)
            for node, w in q.functionals[i].point_entries:
                want[node - i + p] = w
            worst = max(worst, float(np.max(np.abs(sol.weights - want))))
    ok = worst <= 1e-9
    _report("6", ok, f"max weight deviation {worst:.2e}")


def test_c07_nonuniform_nb_bound():
    rng = np.random.default_rng(31)
    violations = 0
    for p in (2, 3, 5):
        for _ in range(1000):
            ks = random_admissible_clamped(2 * p + 6, rng, p)
            if nu_bound(nb_dqi_nonuniform(ks, p)) > 3.0 + 1e-12:
                violations += 1
    ok = violations == 0
    _report("7", ok, f"{violations} violations of the bound 3")


def _monotone_functions(rng, count):
    funcs = []
    for k in range(count):
        kind = k % 5
        aa = float(rng.uniform(0.5, 4.0))
        cc = float(rng.uniform(0.1, 0.9))
        sign = 1.0 if k % 2 == 0 else -1.0
        if kind == 0:
            f = lambda x, a=aa, s=sign: s * (a * np.asarray(x) + 1.0)
        elif kind == 1:
            f = lambda x, a=aa, s=sign: s * (np.asarray(x) ** 3 + a * np.asarray(x))
        elif kind == 2:
            f = lambda x, a=aa, c=cc, s=sign: s * np.arctan(8 * a * (np.asarray(x) - c))
        elif kind == 3:
            f = lambda x, a=aa, c=cc, s=sign: s * np.tanh(5 * a * (np.asarray(x) - c))
        else:
            f = lambda x, a=aa, s=sign: s * np.exp(a * np.asarray(x))
        funcs.append((f, sign))
    return funcs


def test_c08_monotone_preservation():
    rng = np.random.default_rng(404)
    funcs = _monotone_functions(rng, 50)
    violations = 0
    for m in (2, 3, 4):
        for _ in range(100):
            ks = random_clamped(m, 8, rng)
            g1 = gs1(ks)
            nodes, wts, live = ks.kernel_rules("dual", np.arange(1, ks.nbasis - 1), 8)
            rules = [None] + [(x[on], w[on]) for x, w, on in zip(nodes, wts, live)]
            for f, sense in funcs:
                coeffs = np.empty(ks.nbasis)
                coeffs[0] = float(f(ks.a))
                coeffs[-1] = float(f(ks.b))
                for i in range(1, ks.nbasis - 1):
                    nodes, wts = rules[i]
                    coeffs[i] = float(np.dot(wts, f(nodes)))
                tol = 1e-10 * max(1.0, float(np.abs(coeffs).max()))
                diffs = np.diff(coeffs) * sense
                if np.any(diffs < -tol):
                    violations += 1
    ok = violations == 0
    _report("8", ok, f"{violations} monotonicity violations")


def test_c09_gs2_degree_independent_bound():
    rng = np.random.default_rng(55)
    sup = {}
    violations = 0
    for m in (2, 3, 4, 5, 6):
        worst = 0.0
        for _ in range(1000):
            nb = nu_bound(gs2(random_clamped(m, 8, rng)))
            worst = max(worst, nb)
            if nb > 5.0 + 1e-12:
                violations += 1
        sup[m] = worst
    detail = "per-degree suprema " + ", ".join(f"m={m}: {v:.3f}" for m, v in sup.items())
    _report("9a", violations == 0, f"{violations} violations of the bound 5; {detail}")


def _exact_symmetric(values, r, complete):
    """Complete homogeneous (complete=True) or elementary symmetric
    polynomial of degree r of the given Fractions."""
    acc = [Fraction(1)] + [Fraction(0)] * r
    for u in values:
        for s in range(1, r + 1) if complete else range(r, 0, -1):
            acc[s] += u * acc[s - 1]
    return acc[r]


def _exact_solve(M, b):
    """Gauss-Jordan elimination in Fractions."""
    n = len(b)
    A = [list(row) + [b[k]] for k, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [A[k][n] / A[k][k] for k in range(n)]


def test_c09_gs2_bound_failure_exact_certificate():
    """Criterion 9a fails in exact arithmetic, not by roundoff.

    Takes the first m=4 partition of a seeded stream with an interior G2 row
    whose floating-point weight norm exceeds 5, and solves that row's 3x3
    reproduction system again in rational arithmetic on the (exactly
    representable) knots: dual-kernel moments h_r(window)/C(r+m-1, r) against
    the symmetric coefficients e_r(window)/C(m, r).
    """
    m = 4
    rng = np.random.default_rng(55)
    for _ in range(50):
        ks = random_clamped(m, 8, rng)
        q = gs2(ks)
        rows = range(2, ks.nbasis - 2)  # all three members are dual kernels
        i = max(rows, key=lambda j: q.row_norms[j])
        if q.row_norms[i] > 5.0:
            break
    else:
        raise AssertionError("no m=4 partition with a G2 row norm above 5 found")

    def window(j):
        return [Fraction(ks.knot(k)) for k in range(j - m + 1, j + 1)]

    idxs = (i - 1, i, i + 1)
    M = [
        [_exact_symmetric(window(j), r, True) / math.comb(r + m - 1, r) for j in idxs]
        for r in range(3)
    ]
    rhs = [_exact_symmetric(window(i), r, False) / math.comb(m, r) for r in range(3)]
    w = _exact_solve(M, rhs)
    nu = sum(abs(x) for x in w)
    floats = dict(q.functionals[i].kernel_entries)
    dev = max(abs(float(x) - floats[j]) for j, x in zip(idxs, w)) / float(nu)
    print(f"ACCEPTANCE 9a certificate: m=4 row i={i} knots {ks.knots.tolist()}")
    print(f"ACCEPTANCE 9a certificate: exact nu = {nu} ~ {float(nu):.15f}")
    assert nu > 5
    assert dev <= 1e-9, dev


def _gs2_quadratic_closed_form(ks, i):
    """Closed-form G2 stencil weights (a_i, b_i, c_i) of a degree-2 sequence.

    Uses spans h_k = t_k - t_{k-1}; on a clamped sequence the spans just
    outside the domain are zero, which matches the point-evaluation
    convention for the end functionals.
    """
    h_im1 = ks.knot(i - 1) - ks.knot(i - 2)
    h_i = ks.knot(i) - ks.knot(i - 1)
    h_ip1 = ks.knot(i + 1) - ks.knot(i)
    a = -(h_i**2) / ((h_im1 + h_i) * (h_im1 + h_i + h_ip1))
    c = -(h_i**2) / ((h_im1 + h_i + h_ip1) * (h_i + h_ip1))
    return a, 1.0 - a - c, c


def test_c09_gs2_quadratic_closed_form():
    rng = np.random.default_rng(56)
    worst = 0.0
    for _ in range(100):
        ks = random_clamped(2, 9, rng)
        q = gs2(ks)
        for i in range(1, ks.nbasis - 1):
            a, b, c = _gs2_quadratic_closed_form(ks, i)
            got = dict(q.functionals[i].point_entries) | dict(q.functionals[i].kernel_entries)
            worst = max(
                worst, abs(got[i - 1] - a), abs(got[i] - b), abs(got[i + 1] - c)
            )
    ok = worst <= 1e-12
    _report("9b", ok, f"max closed-form deviation {worst:.2e}")


def test_c10_crisscross_bounds_and_uniform_values():
    rng = np.random.default_rng(606)
    violations = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        mesh = random_mesh(6, 6, rng, ratio=1e6)
        t2 = crisscross_t2(mesh)
        g2 = crisscross_g2(mesh)
        if np.nanmax(np.abs([t2.a, t2.abar, t2.c, t2.cbar])) > 0.75 + 1e-12:
            violations += 1
        if np.nanmax(np.abs([g2.a, g2.abar, g2.c, g2.cbar])) > 1.0 + 1e-12:
            violations += 1
        if t2.nu_bound() > 7.0 + 1e-12 or g2.nu_bound() > 9.0 + 1e-12:
            violations += 1
    mesh = bivariate.TensorMesh.uniform(6, 6)
    t2 = crisscross_t2(mesh)
    g2 = crisscross_g2(mesh)
    # cell (3, 3) is entry [2, 2] of the interior-cell arrays
    worst = max(
        abs(t2.a[3] + 3.0 / 20.0),
        abs(t2.stencils()[2][2, 2] - 8.0 / 5.0),
        abs(t2.nu()[2, 2] - 11.0 / 5.0),
        abs(g2.a[3] + 1.0 / 6.0),
        abs(g2.stencils()[2][2, 2] - 5.0 / 3.0),
        abs(g2.nu()[2, 2] - 7.0 / 3.0),
    )
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst <= 1e-12
    _report(
        "10", ok, f"{violations} bound violations, uniform value dev {worst:.2e}, {elapsed:.2f} s"
    )


def test_c11_exactness_suite():
    rng = np.random.default_rng(707)
    failures = 0
    worst_res = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        ks = random_clamped(m, 8, rng)
        families = [schoenberg(ks), s2(ks), gs1(ks), gs2(ks)]
        if m == 2:
            try:
                families.append(nb_dqi_nonuniform(random_admissible_clamped(10, rng, 2), 2))
            except RuntimeError:
                pass
        for q in families:
            ok, _ = is_exact_on(q, q.degree_exact)
            if not ok:
                failures += 1
        # residual identities of the unit-weight families on the squared
        # monomial, applied in the anchor-centred basis so that the relative
        # tolerance is meaningful: the point sample of (x - theta_i)^2 is 0
        # and the kernel moment is computed directly
        for i in range(1, ks.nbasis - 1):
            lam = ks.lam(i)
            c = ks.greville(i)
            target = ks.moments("symmetric", [i], 2, center=c)[0, 2]
            res_s1 = 0.0 - target
            worst_res = max(worst_res, abs(res_s1 - lam) / max(lam, 1e-300))
            nodes, wts, live = ks.kernel_rules("dual", [i], (m + 2) // 2 + 1)
            nodes, wts = nodes[live], wts[live]
            res_g1 = float(np.dot(wts, (nodes - c) ** 2)) - target
            want = 2.0 * m / (m + 1.0) * lam
            worst_res = max(worst_res, abs(res_g1 - want) / max(want, 1e-300))
    for _ in range(200):
        mesh = random_mesh(5, 5, rng)
        for fam in (crisscross_t2(mesh), crisscross_g2(mesh)):
            ok, _ = fam.is_exact_pi2()
            if not ok:
                failures += 1
    ok = failures == 0 and worst_res <= 1e-12
    _report("11", ok, f"{failures} exactness failures, worst residual identity dev {worst_res:.2e}")


def test_c12_quadrature_transfer_and_convergence():
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        ks = random_clamped(m, 9, rng)
        for q in (schoenberg(ks), s2(ks)):
            if exactness_degree(qi_to_quadrature(q), q.degree_exact) < q.degree_exact:
                failures += 1
        ks2 = random_admissible_clamped(10, rng, 2)
        q = nb_dqi_nonuniform(ks2, 2)
        if exactness_degree(qi_to_quadrature(q), 2) < 2:
            failures += 1

    import math

    slopes_ok = True
    details = []
    for maker, qdeg, name in (
        (lambda N: schoenberg(KnotSequence.clamped(2, np.linspace(0, 1, N + 1))), 1, "sample"),
        (lambda N: s2(KnotSequence.clamped(2, np.linspace(0, 1, N + 1))), 2, "three-term"),
        (lambda N: uniform_nb_dqi(4, 2, nspans=N, spacing=1.0 / N), 3, "cubic-nb"),
    ):
        sizes = (8, 16, 32, 64)
        errs = [
            abs(qi_to_quadrature(maker(N)).apply(np.exp) - (math.e - 1.0)) for N in sizes
        ]
        slope = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        details.append(f"{name}: {slope:.2f}")
        if slope < qdeg + 1 - 0.25:
            slopes_ok = False
    ok = failures == 0 and slopes_ok
    _report("12", ok, f"{failures} transfer failures; slopes {'; '.join(details)}")
