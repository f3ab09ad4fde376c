"""Tests for the bivariate criss-cross machinery and the box-spline element."""

import dataclasses

import numpy as np
import pytest

from splineqi import (
    BivariateFunctionalFamily,
    TensorMesh,
    crisscross_g2,
    crisscross_t2,
    eval_zp_box,
    monomial_residuals,
    nb_box_coeffs,
)
from splineqi.bivariate import (
    _MONOMIALS,
    _directional_weights,
    bcoef_monomial,
    family_moment,
    zp_dqi_empirical_norm,
)
from splineqi.partitions import random_mesh


# ------------------------------------------------------------------ oracles
# The per-cell loops that the whole-mesh array code replaced.


def _directional_weights_loop(h, three, four):
    n = len(h)
    left = np.full(n, np.nan)
    right = np.full(n, np.nan)
    for i in range(1, n - 1):
        mid = three * h[i - 1] + four * h[i] + three * h[i + 1]
        left[i] = -three * h[i] ** 2 / ((h[i - 1] + h[i]) * mid)
        right[i] = -three * h[i] ** 2 / (mid * (h[i] + h[i + 1]))
    return left, right


def _is_exact_pi2_loop(fam, rtol=1e-10):
    ok = True
    worst = 0.0
    mesh = fam.mesh
    for i, j in mesh.interior_cells():
        scale = max(
            1.0,
            abs(mesh.sx[i]) + mesh.hx[max(i - 1, 0) : i + 2].max(),
            abs(mesh.sy[j]) + mesh.hy[max(j - 1, 0) : j + 2].max(),
        )
        for r, s in _MONOMIALS:
            got = 0.0
            for (ci, cj), w in fam.weights(i, j).items():
                got += w * family_moment(fam.moment_kind, mesh, ci, cj, r, s)
            res = abs(got - bcoef_monomial(mesh, i, j, r, s))
            worst = max(worst, res)
            if res > rtol * scale ** (r + s):
                ok = False
    return ok, worst


def _test_meshes():
    rng = np.random.default_rng(16)
    for _ in range(12):
        yield random_mesh(int(rng.integers(3, 9)), int(rng.integers(3, 9)), rng, ratio=1e6)
    for _ in range(6):
        mesh = random_mesh(6, 5, rng)
        yield TensorMesh(mesh.x + 1e4, mesh.y - 1e4)
    yield TensorMesh.uniform(6, 6)


def _same_check(got, want, mesh):
    """(ok, worst) pairs agree; worst to a few ulps of the mesh's squared scale."""
    big = max(1.0, np.abs(mesh.x).max() + 1.0, np.abs(mesh.y).max() + 1.0)
    return got[0] == want[0] and abs(got[1] - want[1]) <= 1e-14 * big**2


def _nb4_stencil(s):
    center, vertex, _ = nb_box_coeffs("four-direction", s)
    return [((0, 0), center)] + [
        ((ds, 0), vertex) for ds in (-s, s)
    ] + [((0, ds), vertex) for ds in (-s, s)]


def _full_period_norm(s, grid):
    """Reference sampler: every grid point of the period, per-node dict sums."""
    stencil = _nb4_stencil(s)
    offs = (np.arange(grid) + 0.5) / grid
    best = 0.0
    ky_range = range(-2, 3)
    kx_range = range(-2, 3)
    for gy in offs:
        # accumulate per-node weight rows over the x line y = gy
        coef: dict[tuple[int, int], np.ndarray] = {}
        for kx in kx_range:
            for ky in ky_range:
                vals = eval_zp_box(offs - kx, gy - ky)
                if not np.any(vals):
                    continue
                for (ox, oy), w in stencil:
                    node = (kx + ox, ky + oy)
                    acc = coef.get(node)
                    if acc is None:
                        coef[node] = w * vals
                    else:
                        coef[node] = acc + w * vals
        leb = np.zeros(grid)
        for arr in coef.values():
            leb += np.abs(arr)
        best = max(best, float(leb.max()))
    return best


def _zp_norm_row_loop(s, grid):
    """The eighth-period sampler the polynomial form replaced: one row y at a
    time, every translate evaluated through ``eval_zp_box``."""
    stencil = _nb4_stencil(s)
    kx, ky = (k.ravel() for k in np.meshgrid([-1, 0, 1], [-1, 0, 1], indexing="ij"))
    nodes = {}
    weights = np.zeros((len(stencil) * len(kx), len(kx)))
    for col, (tx, ty) in enumerate(zip(kx, ky)):
        for (ox, oy), w in stencil:
            weights[nodes.setdefault((tx + ox, ty + oy), len(nodes)), col] = w
    weights = weights[: len(nodes)]
    offs = (np.arange(grid) + 0.5) / grid
    half = offs[offs <= 0.5]
    best = 0.0
    for j, y in enumerate(half):
        vals = eval_zp_box(half[None, j:] - kx[:, None], y - ky[:, None])
        best = max(best, float(np.abs(weights @ vals).sum(axis=0).max()))
    return best


def _abs_weight_sum(s, x, y):
    """sum_n |sum_k w(n - k) B((x, y) - k)| at points with |x|, |y| <= 1."""
    stencil = _nb4_stencil(s)
    coef: dict[tuple[int, int], np.ndarray] = {}
    for kx in range(-3, 4):
        for ky in range(-3, 4):
            vals = eval_zp_box(x - kx, y - ky)
            for (ox, oy), w in stencil:
                node = (kx + ox, ky + oy)
                coef[node] = coef.get(node, 0.0) + w * vals
    return sum(np.abs(arr) for arr in coef.values())


class TestTensorMesh:
    def test_spans_and_midpoints(self):
        mesh = TensorMesh([0.0, 1.0, 3.0], [0.0, 2.0])
        np.testing.assert_allclose(mesh.hx, [1.0, 2.0])
        np.testing.assert_allclose(mesh.sx, [0.5, 2.0])
        np.testing.assert_allclose(mesh.sy, [1.0])

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TensorMesh([0.0, 1.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_lines(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TensorMesh([0.0, bad, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            TensorMesh([0.0, 1.0], [bad, 1.0])

    def test_from_text(self):
        mesh = TensorMesh.from_text("0 0.5 1\n0 1 2 3\n")
        assert mesh.ncx == 2 and mesh.ncy == 3


class TestBoxCoeffs:
    def test_three_direction_values(self):
        center, vertex, nu = nb_box_coeffs("three-direction", 2)
        assert center == pytest.approx(1 + 1 / 8)
        assert vertex == pytest.approx(-1 / 48)
        assert nu == pytest.approx(1.25)

    def test_four_direction_s1(self):
        center, vertex, nu = nb_box_coeffs("four-direction", 1)
        assert center == pytest.approx(1.5)
        assert vertex == pytest.approx(-0.125)
        assert nu == pytest.approx(2.0)

    @pytest.mark.parametrize("kind,count", [("three-direction", 6), ("four-direction", 4)])
    def test_weight_arithmetic_identity(self, kind, count):
        for s in (1, 2, 3, 5):
            center, vertex, nu = nb_box_coeffs(kind, s)
            assert center + count * abs(vertex) == pytest.approx(nu, rel=1e-15)
            assert nu == pytest.approx(1 + 1 / s**2, rel=1e-15)

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            nb_box_coeffs("four-direction", 0)


class TestCrissCrossFamilies:
    def test_t2_uniform_values(self):
        fam = crisscross_t2(TensorMesh.uniform(5, 5))
        assert fam.a[2] == pytest.approx(-3.0 / 20.0, rel=1e-14)
        assert fam.center(2, 2) == pytest.approx(8.0 / 5.0, rel=1e-14)
        assert fam.nu(2, 2) == pytest.approx(11.0 / 5.0, rel=1e-14)

    def test_g2_uniform_values(self):
        fam = crisscross_g2(TensorMesh.uniform(5, 5))
        assert fam.a[2] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert fam.center(2, 2) == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert fam.nu(2, 2) == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_directional_weight_bounds_on_rough_meshes(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            mesh = random_mesh(6, 6, rng, ratio=1e6)
            t2 = crisscross_t2(mesh)
            g2 = crisscross_g2(mesh)
            assert t2.max_directional_weight() <= 0.75 + 1e-12
            assert np.nanmax([-t2.a, -t2.abar, -t2.c, -t2.cbar]) >= 0  # all nonpositive
            assert g2.max_directional_weight() <= 1.0 + 1e-12

    def test_norm_bounds_on_rough_meshes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mesh = random_mesh(5, 7, rng, ratio=1e6)
            assert crisscross_t2(mesh).nu_bound() <= 7.0 + 1e-12
            assert crisscross_g2(mesh).nu_bound() <= 9.0 + 1e-12

    def test_center_closes_partition_of_unity(self):
        rng = np.random.default_rng(12)
        mesh = random_mesh(6, 6, rng)
        for fam in (crisscross_t2(mesh), crisscross_g2(mesh)):
            for i, j in mesh.interior_cells():
                assert sum(fam.weights(i, j).values()) == pytest.approx(1.0, rel=1e-12)

    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mesh = random_mesh(5, 6, rng)
            for fam in (crisscross_t2(mesh), crisscross_g2(mesh)):
                ok, worst = fam.is_exact_pi2()
                assert ok, (fam.tag, worst)


class TestWholeMeshChecks:
    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    def test_directional_weights_bitwise_equal_to_the_loop(self, maker):
        three, four = (3.0, 4.0) if maker is crisscross_t2 else (1.0, 1.0)
        for mesh in _test_meshes():
            fam = maker(mesh)
            for got, want in zip(
                (fam.a, fam.abar, fam.c, fam.cbar),
                _directional_weights_loop(mesh.hx, three, four)
                + _directional_weights_loop(mesh.hy, three, four),
            ):
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    def test_is_exact_pi2_matches_the_per_cell_loop(self, maker):
        for mesh in _test_meshes():
            fam = maker(mesh)
            got, want = fam.is_exact_pi2(), _is_exact_pi2_loop(fam)
            assert got[0] and _same_check(got, want, mesh), (got, want)
            # a tolerance this tight rejects roundoff, in both
            got, want = fam.is_exact_pi2(1e-20), _is_exact_pi2_loop(fam, 1e-20)
            assert _same_check(got, want, mesh), (got, want)

    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (2, 7), (6, 2), (2, 2)])
    def test_fewer_than_three_cells_has_nothing_to_check(self, maker, nx, ny):
        mesh = random_mesh(nx, ny, np.random.default_rng(17), ratio=1e6)
        fam = maker(mesh)
        assert fam.is_exact_pi2() == (True, 0.0) == _is_exact_pi2_loop(fam)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # h^2 overflows on purpose
    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    def test_lines_whose_spans_square_to_inf_are_rejected(self, maker):
        # h^2 overflows, the directional weights are NaN and so are the residuals
        lines = 1e160 * (1 + 1e-3 * np.arange(6))
        mesh = TensorMesh(lines, lines)
        with pytest.raises(RuntimeError, match="reproduction check failed .worst residual nan"):
            maker(mesh)
        three, four = (3.0, 4.0) if maker is crisscross_t2 else (1.0, 1.0)
        a, abar = _directional_weights(mesh.hx, three, four)
        fam = BivariateFunctionalFamily("X", mesh, "cell", a, abar, a, abar)
        ok, worst = fam.is_exact_pi2()
        assert not ok and np.isnan(worst)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    @pytest.mark.parametrize("nx, ny", [(2, 5), (5, 2), (1, 1)])
    def test_huge_lines_with_no_interior_cell_pass(self, maker, nx, ny):
        x, y = (1e160 * (1 + 1e-3 * np.arange(n + 1)) for n in (nx, ny))
        mesh = TensorMesh(x, y)
        assert maker(mesh).is_exact_pi2() == (True, 0.0)

    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    @pytest.mark.parametrize("field", ["a", "abar", "c", "cbar"])
    def test_a_perturbed_weight_is_rejected(self, maker, field):
        mesh = random_mesh(6, 7, np.random.default_rng(18))
        fam = maker(mesh)
        # the cell whose neighbours' midpoints lie furthest apart
        h = mesh.hx if field in ("a", "abar") else mesh.hy
        k = 1 + int(np.argmax(h[:-2] + 2.0 * h[1:-1] + h[2:]))
        bumped = getattr(fam, field).copy()
        bumped[k] += 1e-8
        broken = dataclasses.replace(fam, **{field: bumped})
        got, want = broken.is_exact_pi2(), _is_exact_pi2_loop(broken)
        # the centre weight follows the partition of unity, so the residual
        # is the perturbation times a difference of neighbour moments
        assert not got[0] and got[1] > 1e-10, got
        assert _same_check(got, want, mesh), (got, want)

    @pytest.mark.parametrize("maker", [crisscross_t2, crisscross_g2])
    def test_nu_bound_bitwise_equal_to_the_per_cell_max(self, maker):
        for mesh in _test_meshes():
            fam = maker(mesh)
            assert fam.nu_bound() == max(fam.nu(i, j) for i, j in mesh.interior_cells())

    def test_monomial_residuals_match_the_per_cell_loop(self):
        for mesh in _test_meshes():
            big = max(1.0, np.abs(mesh.x).max(), np.abs(mesh.y).max()) ** 2
            for tag, kind in (("S1", "point"), ("T1", "pyramid"), ("G1", "cell")):
                res = monomial_residuals(tag, mesh)
                for i in range(mesh.ncx):
                    for j in range(mesh.ncy):
                        for key, (r, s) in (("e20", (2, 0)), ("e02", (0, 2))):
                            want = family_moment(kind, mesh, i, j, r, s) - bcoef_monomial(
                                mesh, i, j, r, s
                            )
                            assert abs(res[key][i, j] - want) <= 1e-15 * big


class TestMonomialResiduals:
    def test_uniform_unit_mesh(self):
        mesh = TensorMesh.uniform(4, 4)
        assert monomial_residuals("S1", mesh)["e20"][2, 2] == pytest.approx(0.25, rel=1e-12)
        assert monomial_residuals("T1", mesh)["e20"][2, 2] == pytest.approx(0.3, rel=1e-12)
        assert monomial_residuals("G1", mesh)["e02"][2, 2] == pytest.approx(1 / 3, rel=1e-12)

    def test_scaling_in_span_squared(self):
        mesh = TensorMesh(2.0 * np.arange(5), 1.0 * np.arange(5))
        res = monomial_residuals("G1", mesh)
        assert res["e20"][2, 2] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert res["e02"][2, 2] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_random_mesh_residual_coefficients(self):
        rng = np.random.default_rng(14)
        mesh = random_mesh(5, 5, rng)
        factors = {"S1": 0.25, "T1": 0.3, "G1": 1.0 / 3.0}
        for tag, fac in factors.items():
            res = monomial_residuals(tag, mesh)
            for i in range(mesh.ncx):
                for j in range(mesh.ncy):
                    assert res["e20"][i, j] == pytest.approx(
                        fac * mesh.hx[i] ** 2, rel=1e-12
                    )
                    assert res["e02"][i, j] == pytest.approx(
                        fac * mesh.hy[j] ** 2, rel=1e-12
                    )

    def test_bilinear_monomials_are_exact(self):
        rng = np.random.default_rng(15)
        mesh = random_mesh(4, 4, rng)
        for kind in ("point", "pyramid", "cell"):
            for i in range(mesh.ncx):
                for j in range(mesh.ncy):
                    for r, s in ((0, 0), (1, 0), (0, 1), (1, 1)):
                        assert family_moment(kind, mesh, i, j, r, s) == pytest.approx(
                            bcoef_monomial(mesh, i, j, r, s), rel=1e-12
                        )


class TestZPElement:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        total = np.zeros(len(pts))
        for kx in range(-6, 7):
            for ky in range(-6, 7):
                total += eval_zp_box(pts[:, 0] - kx, pts[:, 1] - ky)
        np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_support_boundary_vanishes(self):
        for x, y in ((1.5, 0.5), (0.5, 1.5), (-1.5, 0.5), (1.0, 1.0), (1.5, -0.5)):
            assert eval_zp_box(x, y) == pytest.approx(0.0, abs=1e-12)
        assert eval_zp_box(2.0, 0.0) == 0.0

    def test_symmetries(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1.6, 1.6, 200)
        y = rng.uniform(-1.6, 1.6, 200)
        base = eval_zp_box(x, y)
        np.testing.assert_allclose(eval_zp_box(-x, y), base, atol=1e-14)
        np.testing.assert_allclose(eval_zp_box(x, -y), base, atol=1e-14)
        np.testing.assert_allclose(eval_zp_box(y, x), base, atol=1e-14)

    def test_center_value(self):
        assert eval_zp_box(0.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_continuity_across_cell_edges(self):
        # C^1 element: values approach the same limit from both sides
        for edge in (0.5, 1.0):
            lo = eval_zp_box(edge - 1e-8, 0.3)
            hi = eval_zp_box(edge + 1e-8, 0.3)
            assert lo == pytest.approx(hi, abs=1e-7)

    @pytest.mark.parametrize("s,want", [(1, 1.5), (2, 1.25), (3, 1 + 1.0 / 9.0)])
    def test_stencil_empirical_norm(self, s, want):
        got = zp_dqi_empirical_norm(s, grid=200)
        assert got == pytest.approx(want, abs=0.01)
        assert got <= 1 + 1 / s**2 + 1e-9

    @pytest.mark.parametrize("grid", [37, 40, 64])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_eighth_period_matches_full_period(self, s, grid):
        assert zp_dqi_empirical_norm(s, grid=grid) == pytest.approx(
            _full_period_norm(s, grid), rel=1e-14
        )

    @pytest.mark.parametrize(
        "s,want", [(1, 1.4999957031250002), (2, 1.2499963867187502), (3, 1.1111111111111127)]
    )
    def test_default_grid_values(self, s, want):
        assert zp_dqi_empirical_norm(s) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_abs_weight_sum_is_d4_invariant(self, s):
        # the symmetry that lets the norm sample one eighth of the period
        rng = np.random.default_rng(18 + s)
        x = rng.uniform(0.0, 1.0, 300)
        y = rng.uniform(0.0, 1.0, 300)
        base = _abs_weight_sum(s, x, y)
        assert base.max() > 1.0
        for u, v in ((y, x), (-x, y), (1.0 - x, y)):
            np.testing.assert_allclose(_abs_weight_sum(s, u, v), base, rtol=0, atol=1e-13)


class TestZPPolynomialPiece:
    """On 0 <= y <= x <= 1/2 each translate of the element is one quadratic."""

    _PX = np.array([0.0, 0.5, 0.5, 0.25, 0.5, 0.25])
    _PY = np.array([0.0, 0.0, 0.5, 0.0, 0.25, 0.25])

    @staticmethod
    def _monomials(x, y):
        return np.stack([np.ones_like(x), x, y, x * y, x * x, y * y], axis=-1)

    def _triangle_points(self):
        rng = np.random.default_rng(19)
        u = rng.uniform(0.0, 0.5, (2, 8000))
        x, y = u.max(axis=0), u.min(axis=0)
        t = rng.uniform(0.0, 0.5, 1000)
        s = rng.uniform(0.0, 0.5, 1000)
        # 1000 points on the edge x = y and 1000 on the edge x = 1/2
        return np.concatenate([x, t, np.full(1000, 0.5)]), np.concatenate([y, t, s])

    @pytest.mark.parametrize("kx", [-1, 0, 1])
    @pytest.mark.parametrize("ky", [-1, 0, 1])
    def test_each_translate_is_one_quadratic(self, kx, ky):
        vander = self._monomials(self._PX, self._PY)
        coef = np.linalg.solve(vander, eval_zp_box(self._PX - kx, self._PY - ky))
        x, y = self._triangle_points()
        assert len(x) == 10_000
        want = eval_zp_box(x - kx, y - ky)
        np.testing.assert_allclose(self._monomials(x, y) @ coef, want, rtol=0, atol=1e-15)

    def test_a_cell_crossing_the_triangle_would_show(self):
        # the fit is not vacuous: moved by 1/4 in x the triangle crosses the
        # mesh line x = 1/2 and one quadratic no longer fits
        px, py = self._PX + 0.25, self._PY
        coef = np.linalg.solve(self._monomials(px, py), eval_zp_box(px, py))
        x, y = self._triangle_points()
        err = np.abs(self._monomials(x + 0.25, y) @ coef - eval_zp_box(x + 0.25, y))
        assert err.max() > 1e-3

    @pytest.mark.parametrize("grid", [1, 2, 3, 37, 40, 64, 399, 400, 401])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_the_row_loop(self, s, grid):
        assert zp_dqi_empirical_norm(s, grid=grid) == pytest.approx(
            _zp_norm_row_loop(s, grid), rel=1e-14
        )

    @pytest.mark.parametrize("grid", [0, -3, 2.5, 400.0, "400", None])
    def test_rejects_a_grid_that_is_not_a_positive_integer(self, grid):
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            zp_dqi_empirical_norm(1, grid=grid)

    def test_numpy_integer_grid_accepted(self):
        assert zp_dqi_empirical_norm(2, grid=np.int64(40)) == zp_dqi_empirical_norm(2, grid=40)
