"""Tests for the l1-minimization machinery."""

import gc
import itertools
import re
import weakref

import numpy as np
import pytest

from splineqi import (
    InfeasibleError,
    KnotSequence,
    NearBestProblem,
    NearBestSolution,
    nb_dqi_nonuniform,
    solve_l1,
    solve_symmetric_uniform,
)
from splineqi import nearbest
from splineqi.nearbest import solve_weighted_l1
from splineqi.partitions import random_admissible_clamped, random_breakpoints, random_clamped

from oracles import greville_point, kernel_moment_oracle, knot_window, symmetric_coeff_oracle


# ------------------------------------------------------------------ oracles
# The per-entry assembly that two batched ``KnotSequence.moments`` calls
# replaced, on the scalar oracles of the Greville mean, the kernel moment
# recurrence and the symmetric functions (mean, pair formula, np.poly).


def _discrete_data(ks, i, p, q):
    center = greville_point(ks, i)
    nodes = np.array([greville_point(ks, i + s) for s in range(-p, p + 1)])
    scale = max(nodes.max() - center, center - nodes.min(), 1e-300)
    tau = (nodes - center) / scale
    V = np.vstack([tau**r for r in range(q + 1)])
    b = np.array([symmetric_coeff_oracle(ks, i, r, center, scale) for r in range(q + 1)])
    return V, b


def _integral_data(ks, i, p, q):
    center = greville_point(ks, i)
    spread = greville_point(ks, i + p) - greville_point(ks, i - p)
    scale = max(spread / 2.0, 1e-300)
    windows = [knot_window(ks, i + s, -ks.m, ks.m + 2) for s in range(-p, p + 1)]
    V = np.array([[kernel_moment_oracle(w, r, center, scale) for w in windows] for r in range(q + 1)])
    b = np.array([symmetric_coeff_oracle(ks, i, r, center, scale) for r in range(q + 1)])
    return V, b


def _simplex_min(A, b, c):
    """Minimize ``c @ z`` subject to ``A z = b``, ``z >= 0`` by the lockstep
    simplex on a stack of one: ``(z, c @ z, y)``, or the problem's error raised."""
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    Z, Y, errors = nearbest._simplex(A[None], b[None], c)
    if errors[0] is not None:
        raise errors[0]
    return Z[0], float(nearbest._dots(Z, c)[0]), Y[0]


class TestSimplex:
    def test_small_known_lp(self):
        # min x0 + x1 s.t. x0 + 2 x1 = 4, x >= 0 -> (0, 2)
        z, obj, y = _simplex_min(np.array([[1.0, 2.0]]), np.array([4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 2.0], atol=1e-12)
        assert obj == pytest.approx(2.0)
        assert obj == pytest.approx(float(y @ [4.0]))

    def test_unbounded_objective(self):
        # z0 - z1 = 0 with z0 = z1 = t, objective -t
        with pytest.raises(RuntimeError, match="^objective unbounded below$"):
            _simplex_min([[1.0, -1.0]], [0.0], [-1.0, 0.0])

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(nearbest, "_MAX_ITER", 0)
        with pytest.raises(RuntimeError, match="^simplex iteration limit reached in phase 1$"):
            _simplex_min([[1.0, 2.0]], [4.0], [1.0, 1.0])

    def test_negative_rhs_handled(self):
        z, obj, _ = _simplex_min(np.array([[-1.0, -2.0]]), np.array([-4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 2.0], atol=1e-12)

    def test_infeasible_detected(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(InfeasibleError):
            _simplex_min(A, b, np.ones(2))

    def test_redundant_row_tolerated(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([4.0, 8.0])
        z, obj, _ = _simplex_min(A, b, np.ones(2))
        np.testing.assert_allclose(A @ z, b, atol=1e-12)

    def test_weighted_l1_sign_split(self):
        # min |x0| + |x1| s.t. x0 - x1 = 2 -> x = (2, 0) or (0, -2); value 2
        x, obj, gap = solve_weighted_l1(np.array([[1.0, -1.0]]), np.array([2.0]))
        assert obj == pytest.approx(2.0)
        assert abs(gap) < 1e-12
        np.testing.assert_allclose([[1.0, -1.0]] @ x, [2.0], atol=1e-12)

    @pytest.mark.parametrize(
        "w,match",
        [
            ([1.0], "shape"),
            ([1.0, 1.0, 1.0], "shape"),
            ([[1.0, 1.0]], "shape"),
            ([1.0, -0.5], "nonnegative"),
            ([np.nan, 1.0], "finite"),
            ([1.0, np.inf], "finite"),
        ],
    )
    def test_weighted_l1_rejects_bad_weights(self, w, match):
        with pytest.raises(ValueError, match=match):
            solve_weighted_l1(np.array([[1.0, -1.0]]), np.array([2.0]), w)

    @pytest.mark.parametrize(
        "A,b", [([[1.0, 1.0]], [np.nan]), ([[1.0, 1.0], [1.0, 2.0]], [np.inf, 1.0])]
    )
    def test_non_finite_data_rejected(self, A, b):
        # these returned x = [nan, 0] and x = [inf, -inf] with no error
        with pytest.raises(InfeasibleError, match="A and b must be finite"):
            solve_weighted_l1(A, b)
        with pytest.raises(InfeasibleError, match="A and b must be finite"):
            _simplex_min(np.hstack([A, np.negative(A)]), b, np.ones(2 * len(A[0])))
        with pytest.raises(InfeasibleError, match="A and b must be finite"):  # the same values in A
            _simplex_min(np.outer(b, [1.0, 1.0]), np.ones(len(b)), np.ones(2))

    SHAPE_ERRORS = {
        "A": "A must be 2-D, got shape {}",
        "b": "b must have one entry per row of A: A has shape (1, 2), b has shape {}",
        "columns": "A must have at least one column, got shape {}",
    }

    @pytest.mark.parametrize(
        "args,bad,shape",
        [
            (([[1.0, 2.0]], [1.0, 2.0]), "b", (2,)),
            (([1.0, 2.0], [1.0]), "A", (2,)),
            (([[1.0, 2.0]], [[1.0]]), "b", (1, 1)),
            (([[[1.0, 2.0]]], [1.0]), "A", (1, 1, 2)),
            ((np.zeros((2, 0)), np.zeros(2)), "columns", (2, 0)),
        ],
    )
    def test_lp_shapes_checked(self, args, bad, shape):
        # these raised numpy's broadcast or unpacking errors from inside the simplex
        with pytest.raises(ValueError, match=f"^{re.escape(self.SHAPE_ERRORS[bad].format(shape))}$"):
            solve_weighted_l1(*args)

    def test_weighted_l1_zero_weight_allowed(self):
        x, obj, _ = solve_weighted_l1(np.array([[1.0, -1.0]]), np.array([2.0]), [0.0, 1.0])
        assert obj == 0.0
        np.testing.assert_array_equal(x, [2.0, 0.0])


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

    @pytest.mark.parametrize("p, q, name", [(-1, -3, "p"), (-1, 0, "p"), (2, -1, "q")])
    @pytest.mark.parametrize("kind", ["from_discrete", "from_integral"])
    def test_negative_half_width_or_degree_rejected(self, kind, p, q, name):
        # checked before q <= min(m, 2p), which p = -1, q = -3 would pass
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 9))
        bad = p if name == "p" else q
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got {bad}$"):
            getattr(NearBestProblem, kind)(ks, 4, p, q)

    @pytest.mark.parametrize("kind", ["from_discrete", "from_integral"])
    def test_zero_half_width_is_one_weight(self, kind):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 9))
        prob = getattr(NearBestProblem, kind)(ks, 4, 0, 0)
        assert prob.matrix.shape == (1, 1) and prob.rhs.shape == (1,)
        sol = solve_l1(prob)
        assert sol.weights.tolist() == [1.0] and sol.nu == 1.0

    @pytest.mark.parametrize(
        "matrix, rhs, message",
        [
            (np.zeros((2, 5)), np.zeros(3), "matrix shape inconsistent with p, q"),
            (np.zeros((3, 3)), np.zeros(3), "matrix shape inconsistent with p, q"),
            (np.zeros((3, 5)), np.zeros(2), "rhs shape inconsistent with q"),
            (np.zeros(5), np.zeros(3), "matrix shape inconsistent with p, q"),
            (np.zeros((3, 5, 1)), np.zeros(3), "matrix shape inconsistent with p, q"),
        ],
    )
    def test_shapes_must_match_p_and_q(self, matrix, rhs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NearBestProblem(matrix=matrix, rhs=rhs, anchor=10, p=2, q=2)

    @pytest.mark.parametrize(
        "p, q, name, bad",
        [(2.0, 2, "p", 2.0), (True, 2, "p", True), (-1, 2, "p", -1), (2, 2.0, "q", 2.0), (2, np.float64(2), "q", np.float64(2))],
    )
    def test_direct_sizes_must_be_integers(self, p, q, name, bad):
        # as from_* checks them: p = 2.0 would build and fail later in the solve, q = 2.0 would pass
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got {re.escape(repr(bad))}$"):
            NearBestProblem(matrix=np.zeros((3, 5)), rhs=np.zeros(3), anchor=10, p=p, q=q)
        prob = NearBestProblem(matrix=np.eye(3, 5), rhs=np.ones(3), anchor=10, p=np.int64(2), q=np.int32(2))
        assert type(prob.p) is int and type(prob.q) is int and (prob.p, prob.q) == (2, 2)

    @pytest.mark.parametrize("anchor", [True, False, np.True_])
    @pytest.mark.parametrize("kind", ["from_discrete", "from_integral"])
    def test_bool_anchor_refused(self, kind, anchor):
        # as ks.greville_points refuses bool indices; a bool is not read as anchor 0 or 1
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 9))
        with pytest.raises(ValueError, match="^indices must be integers, got bool values$"):
            getattr(NearBestProblem, kind)(ks, anchor, 1, 2)
        with pytest.raises(TypeError):
            getattr(NearBestProblem, kind)(ks, 3.0, 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["matrix", "rhs"])
    def test_non_finite_data_rejected(self, field, bad):
        prob = NearBestProblem.from_discrete(KnotSequence.cardinal_uniform(3, 20, pad=3), 10, 2, 3)
        data = {"matrix": prob.matrix.copy(), "rhs": prob.rhs.copy()}
        data[field].flat[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            NearBestProblem(anchor=10, p=2, q=3, **data)


def _ill_conditioned_problem():
    """Condition 5.9e9: the first spans are tiny and the Greville points
    cluster at the clamped end, so the re-solved optimum misses its dual."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        bp = random_breakpoints(12, rng)
    return NearBestProblem.from_discrete(KnotSequence.clamped(6, bp), 3, 3, 6)


def _nearly_dependent_problem():
    """The third row is the sum of the first two but for 2**-21 in its last
    entry: the simplex solves, and its optimum misses b by 7.5e-9."""
    return NearBestProblem(matrix=[[1, 2, 3], [4, 5, 6], [5, 7, 9 + 2**-21]], rhs=[1, 2, 0], anchor=0, p=1, q=2)


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

    def test_ill_conditioned_gap_is_not_certified(self):
        with pytest.raises(RuntimeError, match=r"^duality gap 1\.93496e-07 too large$"):
            solve_l1(_ill_conditioned_problem())

    def test_infeasible_residual_is_not_certified(self):
        prob = _nearly_dependent_problem()
        with pytest.raises(InfeasibleError, match=r"^feasibility residual 7\.45058e-09 too large$"):
            solve_l1(prob)
        *_, errors, feasible, optimal = nearbest._l1_stack(prob.matrix[None], prob.rhs[None], np.ones(6))
        assert errors == [None] and not feasible[0]

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (_nearly_dependent_problem, InfeasibleError, r"^feasibility residual 7\.45058e-09 too large$"),
            (_ill_conditioned_problem, RuntimeError, r"^duality gap 1\.93496e-07 too large$"),
        ],
    )
    def test_weighted_l1_refuses_what_solve_l1_refuses(self, make, error, message):
        # these returned objective 25165825.04 (gap 0.039) and 25.42 (gap 1.9e-7) with no error
        prob = make()
        with pytest.raises(error, match=message) as raised:
            solve_weighted_l1(prob.matrix, prob.rhs)
        assert type(raised.value) is error

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

    @pytest.mark.parametrize("field", ["matrix", "rhs"])
    def test_nan_data_are_not_certified(self, field):
        # a NaN can reach a problem neither at construction nor by a later
        # write, so none comes back as a certified optimum with nu = nan
        prob = NearBestProblem.from_discrete(KnotSequence.cardinal_uniform(3, 20, pad=3), 10, 2, 3)
        data = {"matrix": prob.matrix.copy(), "rhs": prob.rhs.copy()}
        data[field][0] = np.nan
        with pytest.raises(ValueError, match="^matrix and rhs must be finite$"):
            NearBestProblem(anchor=10, p=2, q=3, **data)
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, field)[0] = np.nan
        assert np.isfinite(solve_l1(prob).nu)


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

    def test_asymmetric_stencil_refused(self, monkeypatch):
        problem_data = nearbest._problem_data

        def lopsided(*args):
            V, b = problem_data(*args)
            V = V.copy()
            V[:, 1, -1] += 1.0  # the first odd row no longer cancels
            return V, b

        monkeypatch.setattr(nearbest, "_problem_data", lopsided)
        with pytest.raises(RuntimeError, match="^stencil is not symmetric; odd constraints do not vanish$"):
            solve_symmetric_uniform(4, 2, 3)

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
            want = (prob.matrix.tobytes(), prob.rhs.tobytes())
            # made directly from writable arrays: the problem keeps copies of its own
            matrix, rhs = prob.matrix.copy(), prob.rhs.copy()
            direct = NearBestProblem(matrix=matrix, rhs=rhs, anchor=6, p=2, q=4)
            matrix[:] = 7.0
            rhs[:] = 7.0
            for held in (prob, direct):
                assert held.matrix.base is None and held.rhs.base is None
                assert held.matrix.flags.c_contiguous and held.rhs.flags.c_contiguous
                assert not (held.matrix.flags.writeable or held.rhs.flags.writeable)
                assert (held.matrix.tobytes(), held.rhs.tobytes()) == want
                with pytest.raises(ValueError, match="read-only"):
                    held.matrix[:] = 7.0
                with pytest.raises(ValueError, match="read-only"):
                    held.rhs[:] = 7.0
            again = make(ks, 6, 2, 4)
            assert (again.matrix.tobytes(), again.rhs.tobytes()) == want


    @pytest.mark.parametrize("kind", ["discrete", "integral"])
    @pytest.mark.parametrize("field, bad", [("matrix", np.nan), ("matrix", np.inf), ("rhs", -np.inf)])
    def test_non_finite_stack_row_raises_as_made_directly(self, kind, field, bad, monkeypatch):
        # a stack row is copied without a second check only when its solve
        # read it; a non-finite row raises the error of direct construction
        assemble = nearbest._problem_data

        def poisoned(ks, kind, anchors, p, q):
            V, b = assemble(ks, kind, anchors, p, q)
            if len(anchors) > 1:
                (V if field == "matrix" else b)[2].flat[1] = bad
            return V, b

        monkeypatch.setattr(nearbest, "_problem_data", poisoned)
        ks = random_clamped(4, 12, np.random.default_rng(33))
        make = getattr(NearBestProblem, f"from_{kind}")
        first = ks.greville_range()[0] + 2 + (kind == "integral")
        with pytest.raises(ValueError, match="^matrix and rhs must be finite$"):
            make(ks, first + 2, 2, 4)
        first_V, V, b, _ = ks._problems["point" if kind == "discrete" else "basis", 2, 4]
        assert first_V == first
        with pytest.raises(ValueError, match="^matrix and rhs must be finite$"):
            NearBestProblem(matrix=V[2], rhs=b[2], anchor=first + 2, p=2, q=4)
        for k in (1, 3):  # the other rows build and solve
            prob = make(ks, first + k, 2, 4)
            assert (prob.matrix.tobytes(), prob.rhs.tobytes()) == (V[k].tobytes(), b[k].tobytes())
            assert _outcome(solve_l1, prob) == _outcome(_oracle_solve_l1, prob)

    def test_solved_and_failed_anchors_hold_the_same_copies(self):
        # anchors 1 and 22 of this stack are infeasible (theta_{-1} = theta_0
        # at the clamped ends): their problems are checked as made directly,
        # the solved ones are copied unchecked; both hold owned, read-only,
        # C-contiguous copies
        ks = random_clamped(4, 20, np.random.default_rng(1004))
        lo, hi = ks.greville_range()
        outcomes = {}
        for i in range(lo + 2, hi - 1):
            prob = NearBestProblem.from_discrete(ks, i, 2, 4)
            direct = NearBestProblem(matrix=prob.matrix, rhs=prob.rhs, anchor=i, p=2, q=4)
            for held in (prob, direct):
                for a in (held.matrix, held.rhs):
                    assert a.base is None and a.flags.c_contiguous and not a.flags.writeable
                assert (held.matrix.tobytes(), held.rhs.tobytes()) == (direct.matrix.tobytes(), direct.rhs.tobytes())
                assert (held.anchor, held.p, held.q) == (i, 2, 4)
            assert prob.matrix is not direct.matrix
            out = _outcome(solve_l1, prob)
            outcomes[i] = out[0] if isinstance(out, tuple) else NearBestSolution
        assert [i for i, out in outcomes.items() if out is not NearBestSolution] == [1, 22]
        assert {outcomes[1], outcomes[22]} == {InfeasibleError}


def _problem_outcome(make, ks, i, p, q):
    """The problem's bytes, shape and anchor, or its error."""
    try:
        prob = make(ks, i, p, q)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)
    return prob.matrix.tobytes(), prob.rhs.tobytes(), prob.matrix.shape, prob.anchor


def _stencil_error(ks, kind, i, p):
    """The error of one anchor's assembly when its stencil does not fit: the
    Greville points theta_i, theta_{i-p}, theta_{i+p} are read in that order,
    then the basis kernel windows of the ends."""
    lo, hi = ks.greville_range()
    for j in (i, i - p, i + p):
        if not lo <= j <= hi:
            return IndexError, f"Greville index {j} outside stored range [{lo}, {hi}]"
    for j in (i - p, i + p) if kind == "integral" else ():
        if not lo < j < hi:
            return IndexError, f"basis kernel window for index {j} not stored"
    return None


class TestAssemblyOrder:
    """All anchors of one ``(ks, kind, p, q)`` are assembled at the first
    ``from_*`` call; what one anchor gets must not depend on which came first."""

    @staticmethod
    def sequences(m):
        yield lambda: random_clamped(m, 8, np.random.default_rng(40 + m), ratio=1e6)
        yield lambda: KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 9))
        yield lambda: KnotSequence.cardinal_uniform(m, 6, pad=2)

    @pytest.mark.parametrize("kind", ["discrete", "integral"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_first_and_last_anchor_bitwise_equal(self, m, kind):
        make = getattr(NearBestProblem, f"from_{kind}")
        checked = failed = 0
        for fresh in self.sequences(m):
            for p in (1, 2):
                q = min(m, 2 * p)
                anchors = range(-3, fresh().nbasis + 3)
                ks = fresh()
                after = {i: _problem_outcome(make, ks, i, p, q) for i in anchors}
                for i in anchors:
                    first = _problem_outcome(make, fresh(), i, p, q)
                    assert first == after[i], (i, p, q)
                    assert _problem_outcome(make, ks, i, p, q) == first
                    err = _stencil_error(ks, kind, i, p)
                    assert (first if err else None) == err, (i, p, q)
                    checked += 1
                    failed += err is not None
        assert checked > 90 and 0 < failed < checked

    def test_out_of_range_messages(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 6))
        lo, hi = ks.greville_range()
        cases = [
            (NearBestProblem.from_discrete, lo - 1, f"Greville index {lo - 1} outside stored range"),
            (NearBestProblem.from_discrete, lo + 1, f"Greville index {lo - 1} outside stored range"),
            (NearBestProblem.from_discrete, hi, f"Greville index {hi + 2} outside stored range"),
            (NearBestProblem.from_integral, lo + 2, f"basis kernel window for index {lo} not stored"),
            (NearBestProblem.from_integral, hi - 2, f"basis kernel window for index {hi} not stored"),
        ]
        for make, i, msg in cases:
            with pytest.raises(IndexError, match=msg):
                make(ks, i, 2, 2)
        assert NearBestProblem.from_integral(ks, hi - 3, 2, 2).anchor == hi - 3
        with pytest.raises(TypeError):
            NearBestProblem.from_discrete(ks, 3.0, 2, 2)


# ------------------------------------------------------- the tableau oracle
# The simplex before pivots became rank-1 updates and the scans read Python
# floats: one numpy call per tableau row and per scanned entry, phase 2 on a
# copied tableau of the kept rows.  The new solver must take the same pivots
# and return the same bits.


def _oracle_bland_entering(z, tol):
    for j, v in enumerate(z):
        if v < -tol:
            return j
    return -1


def _oracle_ratio_leaving(T, col, basis, tol):
    best = None
    for r in range(T.shape[0] - 1):
        a = T[r, col]
        if a > tol:
            ratio = T[r, -1] / a
            key = (ratio, basis[r])
            if best is None or key < best[0]:
                best = (key, r)
    return -1 if best is None else best[1]


def _oracle_pivot(T, row, col):
    T[row, :] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r, :] -= T[r, col] * T[row, :]


def _oracle_simplex_min(A, b, c, *, tol=1e-11, max_iter=20000):
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    flip = np.where(b < 0, -1.0, 1.0)
    A = A * flip[:, None]
    b = b * flip
    # the artificial variables n..n+m-1 are basis labels without a column,
    # so Bland's rule reads the original columns only and none re-enters
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :] = -T[:m, :].sum(axis=0)
    scale = max(1.0, float(np.abs(b).sum()))
    for _ in range(max_iter):
        if float(np.where(np.array(basis) >= n, T[:m, -1], 0.0).sum()) <= tol * scale:
            break  # no artificial variable left in the basis, or all at 0
        col = _oracle_bland_entering(T[m, :n], tol)
        if col < 0:
            break
        row = _oracle_ratio_leaving(T, col, basis, tol)
        if row < 0:
            raise RuntimeError("phase 1 unbounded (should be impossible)")
        _oracle_pivot(T, row, col)
        basis[row] = col
    else:
        raise RuntimeError("simplex iteration limit reached in phase 1")
    value = float(np.where(np.array(basis) >= n, T[:m, -1], 0.0).sum())
    if value > 1e-9 * scale:
        raise InfeasibleError(f"constraints infeasible (phase 1 value {value:g})")
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if abs(T[r, j]) > tol), None)
            if piv is None:
                continue
            _oracle_pivot(T, r, piv)
            basis[r] = piv
        keep_rows.append(r)
    T2 = np.zeros((len(keep_rows) + 1, n + 1))
    T2[:-1, :n] = T[keep_rows, :n]
    T2[:-1, -1] = T[keep_rows, -1]
    basis = [basis[r] for r in keep_rows]
    T2[-1, :n] = c
    T2[-1, -1] = 0.0
    for r, bv in enumerate(basis):
        T2[-1, :] -= c[bv] * T2[r, :]
    for _ in range(max_iter):
        col = _oracle_bland_entering(T2[-1, :n], tol)
        if col < 0:
            break
        row = _oracle_ratio_leaving(T2, col, basis, tol)
        if row < 0:
            raise RuntimeError("objective unbounded below")
        _oracle_pivot(T2, row, col)
        basis[row] = col
    else:
        raise RuntimeError("simplex iteration limit reached in phase 2")
    z = np.zeros(n)
    for r, bv in enumerate(basis):
        z[bv] = T2[r, -1]
    B = A[keep_rows, :][:, basis] if keep_rows else np.zeros((0, 0))
    if basis:
        try:
            z[basis] = np.linalg.solve(B, b[keep_rows])
        except np.linalg.LinAlgError:
            pass
    obj = float(c @ z)
    try:
        y_red = np.linalg.solve(B.T, c[basis]) if len(basis) else np.zeros(0)
    except np.linalg.LinAlgError:
        y_red = np.linalg.lstsq(B.T, c[basis], rcond=None)[0]
    y = np.zeros(m)
    for idx, r in enumerate(keep_rows):
        y[r] = y_red[idx]
    return z, obj, y * flip


def _oracle_solve_weighted_l1(A, b, obj_weights=None, *, tol=1e-11):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    w = np.ones(n) if obj_weights is None else np.asarray(obj_weights, dtype=float)
    z, obj, y = _oracle_simplex_min(np.hstack([A, -A]), b, np.concatenate([w, w]), tol=tol)
    return z[:n] - z[n:], obj, abs(obj - float(y @ b))


def _oracle_solve_l1(prob):
    lam, nu, gap = _oracle_solve_weighted_l1(prob.matrix, prob.rhs)
    residual = float(np.max(np.abs(prob.matrix @ lam - prob.rhs)))
    if residual > 1e-9 * max(float(np.max(np.abs(prob.rhs))), 1.0):
        raise InfeasibleError(f"feasibility residual {residual:g} too large")
    if gap > 1e-9 * max(nu, 1.0):
        raise RuntimeError(f"duality gap {gap:g} too large")
    return lam, float(nu), residual, gap


def _outcome(fn, *args, **kwargs):
    """The values of ``fn`` as (dtype, shape, bytes) triples, or its error."""
    try:
        out = fn(*args, **kwargs)
    except (InfeasibleError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(out, NearBestSolution):
        out = (out.weights, out.nu, out.residual, out.duality_gap)
    return [(v.dtype, v.shape, v.tobytes()) for v in map(np.asarray, out)]


def _sweep():
    """Rough partitions (ratio 1e3), m = 2..5, several (p, q), both kinds, as
    ``(ks, kind, problem)``: the sequences hold the cached stacks."""
    seqs = [random_clamped(m, 14, np.random.default_rng(70 + 10 * m + seed)) for m in (2, 3, 4, 5) for seed in range(2)]
    return [
        (ks, kind, getattr(NearBestProblem, f"from_{maker}")(ks, i, p, q))
        for ks in seqs
        for p in (1, 2, 3, 4)
        for q in sorted({1, min(ks.m, 2 * p) - 1, min(ks.m, 2 * p)})
        for i in range(p, ks.nbasis - p)
        for maker, kind in (("discrete", "point"), ("integral", "basis"))
    ]


def _fixed_anchors():
    ks = random_clamped(4, 100, np.random.default_rng(8))
    return [
        (ks, kind, getattr(NearBestProblem, f"from_{maker}")(ks, i, 4, 4))
        for maker, kind, i in (
            ("discrete", "point", 25), ("discrete", "point", 40), ("integral", "basis", 25), ("integral", "basis", 37),
        )
    ]


def _count_simplex(monkeypatch):
    """Record the stack size of every ``_simplex`` call from now on."""
    sizes = []
    simplex = nearbest._simplex
    monkeypatch.setattr(nearbest, "_simplex", lambda A, b, c: sizes.append(len(A)) or simplex(A, b, c))
    return sizes


class TestSimplexAgainstTheTableauOracle:
    @pytest.mark.parametrize("source", ["sweep", "fixed"])
    def test_solutions_bitwise_equal(self, source, monkeypatch):
        sizes = _count_simplex(monkeypatch)
        cases = _sweep() if source == "sweep" else _fixed_anchors()
        # the from_* calls solved each stack once, every stack of more than one problem
        assert len(sizes) == len({(id(ks), kind, prob.p, prob.q) for ks, kind, prob in cases})
        assert min(sizes) > 1
        solved = 0
        for _, _, prob in cases:
            want = _outcome(_oracle_solve_l1, prob)
            before = len(sizes)
            assert _outcome(solve_l1, prob) == want, (prob.anchor, prob.p, prob.q)
            assert len(sizes) == before  # the answer came with the problem, from its stack's solve
            A = np.hstack([prob.matrix, -prob.matrix])
            c = np.ones(A.shape[1])
            assert _outcome(_simplex_min, A, prob.rhs, c) == _outcome(_oracle_simplex_min, A, prob.rhs, c)
            solved += isinstance(want, list)
        assert solved == len(cases) >= 4
        assert source == "fixed" or solved > 1000

    def test_same_pivot_sequence(self, monkeypatch):
        # full-rank problems: no row is dropped, so phase-2 rows index alike
        new, oracle = [], []
        stacked, oracle_pivot, l1_stack = nearbest._pivot, _oracle_pivot, nearbest._l1_stack

        def record(S, f, row, col, basis, idx):
            assert len(idx) == len(S) > 0  # no pivot call on an empty set
            new.extend(zip(idx.tolist(), row.tolist(), col.tolist()))
            stacked(S, f, row, col, basis, idx)

        def record_oracle(T, row, col):
            oracle.append((row, col))
            oracle_pivot(T, row, col)

        seen = {}  # id of a cached stack's matrices -> pivots per problem of its lockstep solve

        def record_stack(V, b, c):
            new.clear()
            out = l1_stack(V, b, c)
            seen[id(V)] = [[(r, c) for g, r, c in new if g == h] for h in range(len(V))]
            return out

        monkeypatch.setattr(nearbest, "_pivot", record)
        monkeypatch.setattr(nearbest, "_l1_stack", record_stack)
        monkeypatch.setitem(globals(), "_oracle_pivot", record_oracle)
        cases = _sweep() + _fixed_anchors()  # each stack is solved at its first from_* call
        used = set()
        for ks, kind, prob in cases:
            first, V, _, _ = ks._problems[kind, prob.p, prob.q]
            oracle.clear()
            _oracle_solve_l1(prob)
            assert seen[id(V)][prob.anchor - first] == oracle, (prob.anchor, prob.p, prob.q)
            used.add(id(V))
        assert len(used) > 100 and min(len(seen[v]) for v in used) > 1

    def test_symmetric_uniform_bitwise_equal(self, monkeypatch):
        cases = [(o, n, r, k) for o in (4, 6, 8) for n in (1, 2, 3) for r in range(o) for k in ("dqi", "iqi")]
        got = [_outcome(solve_symmetric_uniform, *case[:3], kind=case[3]) for case in cases]
        monkeypatch.setattr(nearbest, "solve_weighted_l1", _oracle_solve_weighted_l1)
        want = [_outcome(solve_symmetric_uniform, *case[:3], kind=case[3]) for case in cases]
        assert got == want
        assert sum(isinstance(w, list) for w in want) > 50

    def test_small_lps_bitwise_equal(self):
        for A, b in (
            ([[1.0, 2.0]], [4.0]),
            ([[-1.0, -2.0]], [-4.0]),
            ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),
            ([[1.0, 2.0], [2.0, 4.0]], [4.0, 8.0]),
            ([[1.0, -1.0]], [2.0]),
        ):
            assert _outcome(_simplex_min, A, b, np.ones(2)) == _outcome(_oracle_simplex_min, A, b, np.ones(2))
            assert _outcome(solve_weighted_l1, A, b) == _outcome(_oracle_solve_weighted_l1, A, b)


def _mixed_stack():
    """Five LPs of one shape, min c @ z with c = (1, 1, -1): bounded,
    unbounded (the ray (0, 1, 2)), a redundant row, infeasible, non-finite."""
    A = np.array(
        [
            [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 2.0, -1.0]],
            [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            [[1.0, np.nan, 1.0], [1.0, 1.0, 1.0]],
        ]
    )
    b = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 2.0], [1.0, 1.0]])
    return A, b, np.array([1.0, 1.0, -1.0])


def _stack_outcomes(A, b, c):
    """Per problem, what the lockstep solve of the whole stack gives it, as
    ``_outcome`` reads ``_simplex_min``'s ``(z, c @ z, y)``."""
    Z, Y, errors = nearbest._simplex(A, b, c)

    def outcome(k, e):
        if e:
            return type(e), str(e)
        z = Z[k].copy()
        return [(v.dtype, v.shape, v.tobytes()) for v in map(np.asarray, (z, float(c @ z), Y[k]))]

    return [outcome(k, e) for k, e in enumerate(errors)]


class TestStackSolve:
    """The first ``from_*`` call for a ``(ks, kind, p, q)`` solves every anchor
    of the stack in lockstep; each answer must be the one-problem answer, bit
    for bit, and a failing anchor must fail as it does alone."""

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3, 20000])
    def test_each_problem_as_alone(self, max_iter, monkeypatch):
        monkeypatch.setattr(nearbest, "_MAX_ITER", max_iter)
        A, b, c = _mixed_stack()
        want = [_outcome(_simplex_min, A[k], b[k], c) for k in range(len(A))]
        assert _stack_outcomes(A, b, c) == want
        if max_iter == 20000:
            assert [w[0] if isinstance(w, tuple) else list for w in want] == [
                list, RuntimeError, list, InfeasibleError, InfeasibleError,
            ]

    def test_singular_bases(self, monkeypatch):
        # no LP of these tests ends on a basis that LAPACK finds exactly
        # singular, so every square solve is made to fail: the answers are
        # then the tableau values and the least-squares duals
        def singular(B, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        probs = [prob for _, _, prob in _sweep()[::40] if prob.matrix.shape == (3, 3)]
        A = np.stack([np.hstack([p.matrix, -p.matrix]) for p in probs])
        b = np.stack([p.rhs for p in probs])
        c = np.ones(A.shape[2])
        monkeypatch.setattr(np.linalg, "solve", singular)
        want = [_outcome(_oracle_simplex_min, A[k], b[k], c) for k in range(len(A))]
        assert _stack_outcomes(A, b, c) == want
        assert len(want) > 5 and all(isinstance(w, list) for w in want)

    def test_batched_solve_failure_gives_the_bits_of_one(self, monkeypatch):
        # only the stacked, 3-D re-solve raises: every problem is then
        # re-solved on its own and gets the bits of a stack of one
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5))
        NearBestProblem.from_discrete(ks, 0, 1, 2)
        _, V, b, _ = ks._problems["point", 1, 2]  # anchors 0 and 5 repeat a Greville column and drop a row
        stacks = [(np.concatenate((V, -V), axis=2), b, np.ones(2 * V.shape[2])), _mixed_stack()]
        want = [[_outcome(_simplex_min, A[k], b[k], c) for k in range(len(A))] for A, b, c in stacks]
        solve, alone = np.linalg.solve, []

        def batched_fails(B, rhs):
            if B.ndim == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            alone.append(B.shape)
            return solve(B, rhs)

        monkeypatch.setattr(np.linalg, "solve", batched_fails)
        assert [_stack_outcomes(*stack) for stack in stacks] == want
        # every problem of the clamped stack and two of the mixed one solve, each with two lone solves
        assert all(isinstance(w, list) for w in want[0]) and len(alone) == 2 * (len(V) + 2)

    @pytest.mark.parametrize("case", ["small", "clamped end"])
    def test_redundant_row_keeps_its_bits_and_a_zero_dual(self, case):
        if case == "small":
            A, b, dropped = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([4.0, 8.0]), 1
        else:  # theta_{-1} = theta_0 at the clamped end: two equal columns, rank 2, rows 1 and 2 equal
            prob = NearBestProblem.from_discrete(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5)), 0, 1, 2)
            np.testing.assert_array_equal(prob.matrix[1], prob.matrix[2])
            A, b, dropped = np.hstack([prob.matrix, -prob.matrix]), prob.rhs, 2
            assert _outcome(solve_l1, prob) == _outcome(_oracle_solve_l1, prob)
        c = np.ones(A.shape[1])
        # the oracle re-solves the kept rows alone; the solver reads [A | I]
        assert _outcome(_simplex_min, A, b, c) == _outcome(_oracle_simplex_min, A, b, c)
        z, _, y = _simplex_min(A, b, c)
        np.testing.assert_array_equal(A @ z, b)
        assert y[dropped] == 0.0

    def test_roundoff_pivot_anchors_solve(self, monkeypatch):
        # at offset 1e4, phase 1 of anchors 3, 4, 6, 7, 9 and 10 pivots on a
        # roundoff entry (1.6e-11), which leaves 1.9e-6 in the objective
        # row's value once no artificial variable is basic; the verdict read
        # that value and raised InfeasibleError.  Phase 1 reads the sum of
        # its basic artificial variables, 0 there, and every anchor solves,
        # as at offset 0: weights (-1/4, 3/2, -1/4), nu = 2.  The stack solve
        # answers all of them: none is solved again.
        linprog = pytest.importorskip("scipy.optimize").linprog
        ks = KnotSequence.clamped(2, 1e4 + np.linspace(0.0, 1.0, 13))
        lo, hi = ks.greville_range()
        probs = [NearBestProblem.from_integral(ks, i, 1, 2) for i in range(lo + 2, hi - 1)]
        # the cached stack: (first anchor, V, b, (X, nu, residual, gap, errors, feasible, optimal))
        _, V, _, (*_, errors, feasible, optimal) = ks._problems["basis", 1, 2]
        assert len(V) == len(probs) > 6
        assert errors == [None] * len(V) and (feasible & optimal).all()
        sizes = _count_simplex(monkeypatch)
        got = [_outcome(solve_l1, prob) for prob in probs]
        assert sizes == []
        for prob, out in zip(probs, got):
            assert out == _outcome(_oracle_solve_l1, prob), prob.anchor
            sol = solve_l1(prob)
            if prob.anchor in (3, 4, 6, 7, 9, 10):
                np.testing.assert_allclose(sol.weights, [-0.25, 1.5, -0.25], rtol=0, atol=1e-10)
                assert sol.nu == pytest.approx(2.0, rel=1e-10)
            hi_s = linprog(np.ones(6), A_eq=np.hstack([prob.matrix, -prob.matrix]), b_eq=prob.rhs, method="highs")
            assert sol.nu == pytest.approx(hi_s.fun, rel=1e-14), prob.anchor
        assert sizes == []

    @pytest.mark.parametrize(
        "m, p, q, i", [(2, 2, 2, 3), (3, 3, 3, 3), (4, 2, 4, 11), (4, 3, 3, 5), (4, 4, 3, 5), (4, 4, 4, 11)]
    )
    def test_offset_1e8_anchors_solve(self, m, p, q, i):
        # phase 1 ran on after the last artificial variable had left the
        # basis, on a roundoff value, and raised "phase 1 unbounded" or
        # InfeasibleError; each solves, to the LP optimum HiGHS finds
        linprog = pytest.importorskip("scipy.optimize").linprog
        prob = NearBestProblem.from_integral(KnotSequence.clamped(m, 1e8 + np.linspace(0.0, 1.0, 13)), i, p, q)
        sol = solve_l1(prob)
        assert _outcome(solve_l1, prob) == _outcome(_oracle_solve_l1, prob)
        V, n = prob.matrix, prob.matrix.shape[1]
        hi_s = linprog(np.ones(2 * n), A_eq=np.hstack([V, -V]), b_eq=prob.rhs, method="highs")
        assert sol.nu == pytest.approx(hi_s.fun, rel=1e-14)

    @pytest.mark.parametrize("field", ["matrix", "rhs"])
    def test_written_problem_is_refused(self, field):
        # a carried answer cannot go stale: the arrays it answers are read-only
        ks = random_clamped(4, 12, np.random.default_rng(90))
        probs = [NearBestProblem.from_integral(ks, i, 2, 4) for i in (5, 6, 7)]
        want = [_outcome(solve_l1, prob) for prob in probs]
        with pytest.raises(ValueError, match="read-only"):
            getattr(probs[0], field)[1] *= 1.5
        for prob, out in zip(probs, want):
            assert _outcome(solve_l1, prob) == out == _outcome(_oracle_solve_l1, prob), prob.anchor

    def test_dropped_sequence_solves_the_same(self, monkeypatch):
        def make():
            ks = random_clamped(5, 12, np.random.default_rng(91))
            return NearBestProblem.from_discrete(ks, 6, 3, 5), weakref.ref(ks)

        orphan, gone = make()  # its sequence, and with it the cached stack, is gone
        gc.collect()
        assert gone() is None
        ks = random_clamped(5, 12, np.random.default_rng(91))
        kept = NearBestProblem.from_discrete(ks, 6, 3, 5)
        sizes = _count_simplex(monkeypatch)
        assert _outcome(solve_l1, orphan) == _outcome(solve_l1, kept) == _outcome(_oracle_solve_l1, orphan)
        assert sizes == []  # the orphan kept its answer

    def test_remade_problem_same_bits(self, monkeypatch):
        # a problem made directly from a from_* problem's arrays is solved
        # alone, as a stack of one, and gets the same bits
        cases = _sweep()[::13] + _fixed_anchors()
        sizes = _count_simplex(monkeypatch)
        for _, _, prob in cases:
            again = NearBestProblem(matrix=prob.matrix, rhs=prob.rhs, anchor=prob.anchor, p=prob.p, q=prob.q)
            assert _outcome(solve_l1, again) == _outcome(solve_l1, prob), (prob.anchor, prob.p, prob.q)
        assert sizes == [1] * len(cases)
