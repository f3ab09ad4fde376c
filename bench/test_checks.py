"""Negative controls for the benchmark's checks: each check passes on the
program's output and fails once that output is perturbed.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from splineqi import bivariate, nearbest, normest, quadrature, quasiinterp  # noqa: E402
from splineqi.splinecore import KnotSequence  # noqa: E402

RNG_SEED = 20


def _rough_ks(m, nspans=12, seed=RNG_SEED):
    return KnotSequence.clamped(m, inputs.rough_breakpoints(np.random.default_rng(seed), nspans))


def _perturb_weight(q, index, delta):
    lam = q.functionals[index]
    (node, w), *rest = lam.point_entries or lam.kernel_entries
    entries = ((node, w + delta), *rest)
    field = "point_entries" if lam.point_entries else "kernel_entries"
    funs = list(q.functionals)
    funs[index] = dataclasses.replace(lam, **{field: entries})
    return dataclasses.replace(q, functionals=tuple(funs))


@pytest.mark.parametrize("family", ["s2", "gs2"])
def test_reproduction_check_catches_a_perturbed_weight(family):
    q = getattr(quasiinterp, family)(_rough_ks(3))
    rng = np.random.default_rng(1)
    f = checks.random_poly(rng, q.degree_exact)
    xs = np.linspace(0.0, 1.0, 200)
    assert checks.check_reproduction(q, q.coefficients(f), f, xs, "ok") == []
    bad = _perturb_weight(q, 5, 1e-6)
    assert checks.check_reproduction(bad, bad.coefficients(f), f, xs, "bad")


def test_nu_check_catches_a_positive_operator_off_one():
    q = quasiinterp.schoenberg(_rough_ks(2))
    assert checks.check_nu(q, normest.nu_bound(q), "ok") == []
    bad = _perturb_weight(q, 3, 1e-12)
    assert checks.check_nu(bad, normest.nu_bound(bad), "bad")
    assert checks.check_nu(q, 1.0 + 1e-9, "wrong nu_bound")


def test_lp_check_catches_a_perturbed_solution():
    ks = KnotSequence.clamped(4, inputs.fixed_breakpoints())
    prob = nearbest.NearBestProblem.from_discrete(ks, 10, 4, 4)
    sol = nearbest.solve_l1(prob)
    A, b = prob.matrix, prob.rhs
    ref = checks.lp_optimum(A, b)
    assert checks.check_lp(A, b, sol.weights, sol.nu, ref, "ok") == []
    x = sol.weights.copy()
    x[0] += 1e-7
    assert checks.check_lp(A, b, x, float(np.abs(x).sum()), ref, "moved weight")
    assert checks.check_lp(A, b, sol.weights, sol.nu + 1e-7, ref, "moved optimum")


def test_square_reference_accepts_an_ill_conditioned_solution():
    # condition 5e6: HiGHS misses this optimum by 3.6e-5, the program does not
    bp = inputs.rough_breakpoints(np.random.default_rng(105), 40)
    prob = nearbest.NearBestProblem.from_discrete(KnotSequence.clamped(4, bp), 2, 2, 4)
    assert prob.matrix.shape == (5, 5)
    sol = nearbest.solve_l1(prob)
    A, b = prob.matrix, prob.rhs
    ref, slack = checks.square_optimum(A, b, sol.weights)
    assert checks.check_lp(A, b, sol.weights, sol.nu, ref, "ok", slack) == []
    assert checks.check_lp(A, b, sol.weights, sol.nu * (1 + 1e-7), ref, "moved optimum", slack)


@pytest.mark.parametrize("maker", [bivariate.crisscross_t2, bivariate.crisscross_g2])
def test_crisscross_check_catches_perturbed_weights(maker):
    rng = np.random.default_rng(3)
    mesh = bivariate.TensorMesh(inputs.rough_breakpoints(rng, 7), inputs.rough_breakpoints(rng, 7))
    fam = maker(mesh)
    assert checks.check_crisscross(fam, "ok") == []
    a = fam.a.copy()
    a[3] += 1e-9
    assert checks.check_crisscross(dataclasses.replace(fam, a=a), "moved weight")
    a[3] = -1.01
    assert checks.check_crisscross(dataclasses.replace(fam, a=a), "out of range")


def _synthetic_repro_csv(edit=None):
    rows = {}
    for claim, exact in list(checks.PAPER_NU.items()) + list(checks.PAPER_EXACT.items()):
        rows[claim] = exact
    for claim, (paper, _, _) in checks.PAPER_NORMS.items():
        rows[claim] = paper
    rows["s2-uniform/nu-within-2.5"] = 2.0
    status = {claim: "pass" for claim in rows}
    if edit:
        edit(rows, status)
    lines = ["claim,reference,computed,abs_diff,status"]
    lines += [f"{c},0,{v!r},0,{status[c]}" for c, v in rows.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows, st: rows.__setitem__("uniform-iqi/nu/n=3", 31.0 / 27.0 + 1e-9),
        lambda rows, st: rows.__setitem__("crisscross/g2/center", 5.0 / 3.0 + 1e-11),
        lambda rows, st: rows.__setitem__("uniform-dqi/norm/n=2", 1.139 + 0.02),
        lambda rows, st: rows.__setitem__("box-dqi/nb4/norm/s=3", 10.0 / 9.0 * (1 + 1e-9)),
        lambda rows, st: st.__setitem__("s2-uniform/norm", "fail"),
        lambda rows, st: rows.pop("crisscross/t2/a") and st.pop("crisscross/t2/a"),
    ],
)
def test_repro_check_catches_a_perturbed_value(edit):
    assert checks.check_repro(_synthetic_repro_csv()) == []
    assert checks.check_repro(_synthetic_repro_csv(edit))


def test_norm_checks_catch_perturbed_estimates():
    bp = inputs.rough_breakpoints(np.random.default_rng(4), 10)
    ks = KnotSequence.clamped(3, bp)
    grid = inputs.sample_grid(bp, 16)
    for q in (quasiinterp.schoenberg(ks), quasiinterp.s2(ks), quasiinterp.gs2(ks)):
        est = normest.empirical_norm_integral if q.family == "G2" else normest.empirical_norm_discrete
        value = est(q, 16, polish=False)
        assert checks.check_norm_value(q, value, grid, "ok") == []
        assert checks.check_norm_value(q, value * (1 + 1e-9), grid, "moved")
    small = quasiinterp.gs2(KnotSequence.clamped(2, inputs.rough_breakpoints(np.random.default_rng(6), 3)))
    coef = normest.empirical_norm_integral(small, 16, polish=False)
    kern = normest.empirical_norm_integral(small, 16, polish=False, mode="kernel")
    assert checks.check_kernel_norm(small, kern, coef, "ok") == []
    assert checks.check_kernel_norm(small, coef * (1 + 1e-9), coef, "kernel above coefficient")


def test_evaluate_and_quadrature_checks_catch_perturbed_output():
    q = quasiinterp.s2(_rough_ks(3))
    rng = np.random.default_rng(5)
    f = checks.random_poly(rng, q.degree_exact)
    xs = rng.uniform(0.0, 1.0, 100)
    values = q.evaluate(f, xs)
    coeffs = q.coefficients(f)
    assert checks.check_evaluate(q, values, coeffs, f, xs, "ok") == []
    moved = values.copy()
    moved[7] += 1e-9
    assert checks.check_evaluate(q, moved, coeffs, f, xs, "moved")
    rule = quadrature.qi_to_quadrature(q)
    d = quadrature.exactness_degree(rule, q.ks.m)
    assert checks.check_quadrature(rule.nodes, rule.weights, rule.domain, q.degree_exact, d, "ok") == []
    w = rule.weights.copy()
    w[2] += 1e-9
    assert checks.check_quadrature(rule.nodes, w, rule.domain, q.degree_exact, d, "moved")
