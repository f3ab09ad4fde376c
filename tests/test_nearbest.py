"""Tests for the l1-minimization machinery."""

import itertools
import math

import numpy as np
import pytest

from splineqi import (
    InfeasibleError,
    KnotSequence,
    NearBestProblem,
    nb_dqi_nonuniform,
    solve_l1,
    solve_symmetric_uniform,
)
from splineqi.nearbest import simplex_min, solve_weighted_l1
from splineqi.partitions import random_admissible_clamped, random_clamped


# ------------------------------------------------------------------ oracles
# The per-entry assembly that two batched ``KnotSequence.moments`` calls
# replaced, on scalar copies of the Greville mean, the kernel moment
# recurrence and the symmetric functions (mean, pair formula, np.poly).


def _knots(ks, j, first, count):
    """Knots t_{j+first}, ..., t_{j+first+count-1}."""
    o = ks.m + ks.pad
    return ks.knots[j + first + o : j + first + count + o]


def _greville(ks, j):
    return float(_knots(ks, j, 1 - ks.m, ks.m).mean())


def _kernel_moment(knots, r, center, scale):
    h = [1.0] + [0.0] * r
    for t in knots.tolist():
        u = (t - center) / scale
        for s in range(1, r + 1):
            h[s] += u * h[s - 1]
    return h[r] / math.comb(r + len(knots) - 1, r)


def _symmetric_coeff(ks, j, r, center, scale):
    m = ks.m
    if r == 0:
        return 1.0
    w = (_knots(ks, j, 1 - m, m) - center) / scale
    if r == 1:
        return float(w.mean())
    if r == 2:
        s1 = float(w.sum())
        return (s1 * s1 - float(w @ w)) / (m * (m - 1))
    coeffs = np.poly(w)  # coeffs[k] = (-1)^k * sigma_k
    return float(coeffs[r]) * (-1.0) ** r / math.comb(m, r)


def _discrete_data(ks, i, p, q):
    center = _greville(ks, i)
    nodes = np.array([_greville(ks, i + s) for s in range(-p, p + 1)])
    scale = max(nodes.max() - center, center - nodes.min(), 1e-300)
    tau = (nodes - center) / scale
    V = np.vstack([tau**r for r in range(q + 1)])
    b = np.array([_symmetric_coeff(ks, i, r, center, scale) for r in range(q + 1)])
    return V, b


def _integral_data(ks, i, p, q):
    center = _greville(ks, i)
    spread = _greville(ks, i + p) - _greville(ks, i - p)
    scale = max(spread / 2.0, 1e-300)
    V = np.array(
        [
            [_kernel_moment(_knots(ks, i + s, -ks.m, ks.m + 2), r, center, scale) for s in range(-p, p + 1)]
            for r in range(q + 1)
        ]
    )
    b = np.array([_symmetric_coeff(ks, i, r, center, scale) for r in range(q + 1)])
    return V, b


class TestSimplex:
    def test_small_known_lp(self):
        # min x0 + x1 s.t. x0 + 2 x1 = 4, x >= 0 -> (0, 2)
        z, obj, y = simplex_min(np.array([[1.0, 2.0]]), np.array([4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 2.0], atol=1e-12)
        assert obj == pytest.approx(2.0)
        assert obj == pytest.approx(float(y @ [4.0]))

    def test_negative_rhs_handled(self):
        z, obj, _ = simplex_min(np.array([[-1.0, -2.0]]), np.array([-4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 2.0], atol=1e-12)

    def test_infeasible_detected(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(InfeasibleError):
            simplex_min(A, b, np.ones(2))

    def test_redundant_row_tolerated(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([4.0, 8.0])
        z, obj, _ = simplex_min(A, b, np.ones(2))
        np.testing.assert_allclose(A @ z, b, atol=1e-12)

    def test_weighted_l1_sign_split(self):
        # min |x0| + |x1| s.t. x0 - x1 = 2 -> x = (2, 0) or (0, -2); value 2
        x, obj, gap = solve_weighted_l1(np.array([[1.0, -1.0]]), np.array([2.0]))
        assert obj == pytest.approx(2.0)
        assert abs(gap) < 1e-12
        np.testing.assert_allclose([[1.0, -1.0]] @ x, [2.0], atol=1e-12)


class TestProblemConstruction:
    def test_shape_consistency(self):
        ks = KnotSequence.cardinal_uniform(3, 20, pad=3)
        prob = NearBestProblem.from_discrete(ks, 10, 2, 3)
        assert prob.matrix.shape == (4, 5)
        assert prob.rhs.shape == (4,)

    def test_full_row_rank_on_distinct_nodes(self):
        rng = np.random.default_rng(1)
        ks = random_clamped(3, 10, rng)
        prob = NearBestProblem.from_discrete(ks, 6, 3, 3)
        assert np.linalg.matrix_rank(prob.matrix) == 4

    def test_degree_cap_enforced(self):
        ks = KnotSequence.cardinal_uniform(3, 20, pad=3)
        with pytest.raises(ValueError, match="q <= min"):
            NearBestProblem.from_discrete(ks, 10, 1, 3)
        with pytest.raises(ValueError, match="q <= min"):
            NearBestProblem.from_integral(ks, 10, 2, 4)


class TestSolveL1:
    def test_square_system_unique_solution(self):
        # 2p+1 = q+1: no freedom, the interpolation weights are forced
        rng = np.random.default_rng(2)
        ks = random_clamped(2, 10, rng)
        prob = NearBestProblem.from_discrete(ks, 5, 1, 2)
        sol = solve_l1(prob)
        forced = np.linalg.solve(prob.matrix, prob.rhs)
        np.testing.assert_allclose(sol.weights, forced, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n,a0,an", [(2, 13.0 / 12.0, -1.0 / 24.0), (3, 28.0 / 27.0, -1.0 / 54.0)])
    def test_cubic_uniform_unique_optimum(self, n, a0, an):
        ks = KnotSequence.cardinal_uniform(3, 30, pad=n + 1)
        sol = solve_l1(NearBestProblem.from_discrete(ks, ks.nbasis // 2, n, 3))
        want = np.zeros(2 * n + 1)
        want[n] = a0
        want[0] = want[-1] = an
        np.testing.assert_allclose(sol.weights, want, atol=1e-9)

    def test_matches_nonuniform_closed_form(self):
        rng = np.random.default_rng(3)
        for p in (2, 3):
            for _ in range(10):
                ks = random_admissible_clamped(12, rng, p)
                q = nb_dqi_nonuniform(ks, p)
                for i in range(p, ks.nbasis - p):
                    sol = solve_l1(NearBestProblem.from_discrete(ks, i, p, 2))
                    want = np.zeros(2 * p + 1)
                    for off, w in zip(*[
                        [e[0] - i for e in q.functionals[i].point_entries],
                        [e[1] for e in q.functionals[i].point_entries],
                    ]):
                        want[off + p] = w
                    np.testing.assert_allclose(sol.weights, want, atol=1e-9)

    def test_duality_gap_small(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ks = random_clamped(2, 12, rng)
            sol = solve_l1(NearBestProblem.from_discrete(ks, 6, 3, 2))
            assert sol.duality_gap <= 1e-9 * max(sol.nu, 1.0)
            assert sol.residual <= 1e-9

    def test_vertex_sparsity(self):
        # optimal vectors live on a vertex: at most q+1 nonzero entries
        rng = np.random.default_rng(5)
        for _ in range(30):
            ks = random_clamped(3, 12, rng)
            p, q = 3, 2
            sol = solve_l1(NearBestProblem.from_discrete(ks, 6, p, q))
            nnz = int(np.sum(np.abs(sol.weights) > 1e-11 * max(1.0, np.abs(sol.weights).max())))
            assert nnz <= q + 1

    def test_no_feasible_point_beats_optimum(self):
        # random search in the affine feasible set via the null space
        rng = np.random.default_rng(6)
        for trial in range(100):
            m = int(rng.integers(2, 5))
            ks = random_clamped(m, 10, rng)
            p = int(rng.integers(2, 4))
            q = int(rng.integers(1, min(m, 2 * p) + 1))
            i = int(rng.integers(p, ks.nbasis - p))
            prob = NearBestProblem.from_discrete(ks, i, p, q)
            sol = solve_l1(prob)
            _, _, vt = np.linalg.svd(prob.matrix)
            null = vt[prob.q + 1 :].T
            for _ in range(20):
                cand = sol.weights + null @ rng.standard_normal(null.shape[1])
                assert np.abs(cand).sum() >= sol.nu - 1e-8

    def test_rank_deficient_system_rejected(self):
        # coincident nodes collapse two matrix rows; an incompatible target
        # must surface as infeasibility, not as a silent answer
        prob = NearBestProblem(
            matrix=np.array([[1.0, 1.0, 1.0], [0.2, 0.2, 0.2], [0.04, 0.04, 0.04]]),
            rhs=np.array([1.0, 0.2, 0.11]),
            anchor=0,
            p=1,
            q=2,
        )
        with pytest.raises(InfeasibleError):
            solve_l1(prob)


def enumerated_l1_optimum(A, b):
    """min ||x||_1 subject to A x = b by enumeration: some optimum is a basic
    solution, supported on rank(A) = rows(A) independent columns."""
    best = np.inf
    for cols in itertools.combinations(range(A.shape[1]), A.shape[0]):
        M = A[:, cols]
        try:
            x = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(M @ x - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(b)))):
            best = min(best, float(np.abs(x).sum()))
    return best


class TestPhaseOneRoundoff:
    """Problems on which phase 1 reached the value 0 and then pivoted on a
    reduced cost of roundoff size into a column without a leaving row."""

    @pytest.mark.parametrize(
        "kind,i", [("discrete", 25), ("discrete", 40), ("integral", 25), ("integral", 37)]
    )
    def test_fixed_rough_partition(self, kind, i):
        ks = random_clamped(4, 100, np.random.default_rng(8))
        maker = getattr(NearBestProblem, f"from_{kind}")
        prob = maker(ks, i, 4, 4)
        sol = solve_l1(prob)
        assert sol.nu == pytest.approx(enumerated_l1_optimum(prob.matrix, prob.rhs), rel=1e-9)

    @pytest.mark.parametrize("m,p", [(3, 2), (5, 3), (4, 4)])
    def test_seeded_sweep_against_enumeration(self, m, p):
        for seed in range(8):
            ks = random_clamped(m, 30, np.random.default_rng(seed))
            for i in range(p, ks.nbasis - p):
                for maker in (NearBestProblem.from_discrete, NearBestProblem.from_integral):
                    prob = maker(ks, i, p, m)
                    sol = solve_l1(prob)
                    ref = enumerated_l1_optimum(prob.matrix, prob.rhs)
                    assert abs(sol.nu - ref) <= 1e-9 * max(1.0, ref), (seed, i, maker.__name__)


class TestSymmetricUniform:
    @pytest.mark.parametrize("n,want", [(1, 5.0 / 3.0), (2, 7.0 / 6.0), (3, 1 + 2.0 / 27.0)])
    def test_cubic_discrete_values(self, n, want):
        _, nu = solve_symmetric_uniform(4, n, 3, kind="dqi")
        assert nu == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n,want", [(1, 7.0 / 3.0), (2, 4.0 / 3.0), (3, 1 + 4.0 / 27.0)])
    def test_cubic_integral_values(self, n, want):
        _, nu = solve_symmetric_uniform(4, n, 3, kind="iqi")
        assert nu == pytest.approx(want, rel=1e-12)

    def test_degree_one_reproduction_is_free(self):
        for n in (1, 2, 4):
            w, nu = solve_symmetric_uniform(4, n, 1, kind="dqi")
            assert nu == pytest.approx(1.0, abs=1e-12)
            want = np.zeros(2 * n + 1)
            want[n] = 1.0
            np.testing.assert_allclose(w, want, atol=1e-12)

    def test_agrees_with_full_solver(self):
        for kind in ("dqi", "iqi"):
            for n in (2, 3):
                _, nu_sym = solve_symmetric_uniform(4, n, 3, kind=kind)
                ks = KnotSequence.cardinal_uniform(3, 24, pad=n + 1)
                maker = (
                    NearBestProblem.from_discrete
                    if kind == "dqi"
                    else NearBestProblem.from_integral
                )
                sol = solve_l1(maker(ks, ks.nbasis // 2, n, 3))
                assert nu_sym == pytest.approx(sol.nu, rel=1e-10)

    def test_order_six(self):
        w, nu = solve_symmetric_uniform(6, 3, 3, kind="dqi")
        assert len(w) == 7
        assert nu >= 1.0


class TestAssemblyAgainstThePerEntryPath:
    @staticmethod
    def problems():
        rng = np.random.default_rng(30)
        for m in (2, 3, 4, 5):
            for ks in (
                random_clamped(m, 12, rng, ratio=1e6),
                KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 13)),
                KnotSequence.cardinal_uniform(m, 10, pad=4),
            ):
                for p in (1, 2, 3):
                    q = min(m, 2 * p)
                    for i in range(p, ks.nbasis - p):
                        yield ks, i, p, q

    @pytest.mark.parametrize("kind", ["discrete", "integral"])
    def test_matrix_and_rhs_within_1e_15(self, kind):
        make = NearBestProblem.from_discrete if kind == "discrete" else NearBestProblem.from_integral
        oracle = _discrete_data if kind == "discrete" else _integral_data
        count = 0
        for ks, i, p, q in self.problems():
            prob = make(ks, i, p, q)
            V, b = oracle(ks, i, p, q)
            assert np.abs(prob.matrix - V).max() <= 1e-15 * np.abs(V).max()
            assert np.abs(prob.rhs - b).max() <= 1e-15 * np.abs(b).max()
            count += 1
        assert count > 300

    @pytest.mark.parametrize("kind", ["discrete", "integral"])
    def test_lp_optima_unchanged(self, kind):
        make = NearBestProblem.from_discrete if kind == "discrete" else NearBestProblem.from_integral
        oracle = _discrete_data if kind == "discrete" else _integral_data
        solved = 0
        for ks, i, p, q in self.problems():
            prob = make(ks, i, p, q)
            V, b = oracle(ks, i, p, q)
            try:
                want = solve_l1(NearBestProblem(matrix=V, rhs=b, anchor=i, p=p, q=q)).nu
            except InfeasibleError:
                # the per-entry data fail the same way (a roundoff pivot at offset 1e4)
                with pytest.raises(InfeasibleError):
                    solve_l1(prob)
                continue
            # the data move by at most 1e-15 relative, the optimum by condition times that
            rel = max(1e-12, 1e-15 * np.linalg.cond(V))
            assert solve_l1(prob).nu == pytest.approx(want, rel=rel)
            solved += 1
        assert solved > 350

    def test_problems_own_their_arrays(self):
        ks = random_clamped(4, 10, np.random.default_rng(31))
        for make in (NearBestProblem.from_discrete, NearBestProblem.from_integral):
            prob = make(ks, 6, 2, 4)
            assert prob.matrix.base is None and prob.rhs.base is None
            assert prob.matrix.flags.c_contiguous
