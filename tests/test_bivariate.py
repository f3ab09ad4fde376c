"""Tests for the bivariate criss-cross machinery and the box-spline element."""

import dataclasses
import itertools
import re
from fractions import Fraction

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
from splineqi import bivariate
from splineqi.bivariate import _MONOMIALS, _directional_weights, zp_dqi_empirical_norm
from splineqi.partitions import random_mesh


# ------------------------------------------------------------------ oracles
# The per-cell loops that the whole-mesh array code replaced, reading only
# the directional weights and the closed forms written here.


def _interior_cells(mesh):
    return itertools.product(range(1, mesh.ncx - 1), range(1, mesh.ncy - 1))


def _cell_stencil(fam, i, j):
    """Cell (i, j)'s weights keyed by its left, right, own, lower and upper neighbour."""
    a, abar, c, cbar = fam.a[i], fam.abar[i], fam.c[j], fam.cbar[j]
    centre = 1.0 - (a + abar + c + cbar)
    return {(i - 1, j): a, (i + 1, j): abar, (i, j): centre, (i, j - 1): c, (i, j + 1): cbar}


def _marginal_moment(kind, mid, h, r):
    """r-th moment of the 1-D marginal of a cell functional on a span h around
    mid: its variance is 0 for the point value, h^2/20 for the normalised
    pyramid and h^2/12 for the cell average."""
    variance = {"point": 0.0, "pyramid": h * h / 20.0, "cell": h * h / 12.0}[kind]
    return (1.0, mid, mid * mid + variance)[r]


def _basis_target(mid, h, r):
    """Factor of x^r's coefficient in the criss-cross quadratic basis on a cell."""
    return (1.0, mid, mid * mid - h * h / 4.0)[r]


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
    mesh, kind = fam.mesh, fam.moment_kind
    for i, j in _interior_cells(mesh):
        scale = max(
            1.0,
            abs(mesh.sx[i]) + mesh.hx[max(i - 1, 0) : i + 2].max(),
            abs(mesh.sy[j]) + mesh.hy[max(j - 1, 0) : j + 2].max(),
        )
        for r, s in _MONOMIALS:
            got = 0.0
            for (ci, cj), w in _cell_stencil(fam, i, j).items():
                x = _marginal_moment(kind, mesh.sx[ci], mesh.hx[ci], r)
                got += w * (x * _marginal_moment(kind, mesh.sy[cj], mesh.hy[cj], s))
            target = _basis_target(mesh.sx[i], mesh.hx[i], r) * _basis_target(mesh.sy[j], mesh.hy[j], s)
            res = abs(got - target)
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
    """Eighth-period sampler: the midpoints of a grid x grid net of the
    period that lie in 0 <= y <= x <= 1/2, one row y at a time, every
    translate with kx, ky in {-1, 0, 1} evaluated through ``eval_zp_box``."""
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


def _bumped_element(x, y):
    """The element plus a smooth bump that is no quadratic on any triangle."""
    return eval_zp_box(x, y) + 0.3 * np.exp(-50.0 * ((x - 0.2) ** 2 + (y - 0.1) ** 2))


def _capped_element(x0, y0):
    """The element plus a quadratic cap 5 (1/4 - |(x, y) - (x0, y0)|^2) on the
    home cell -1/2 < x, y <= 1/2 only.  On 0 <= y <= x <= 1/2 only translate
    (0, 0) meets the cap, so every node term stays one quadratic there."""

    def element(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        home = (-0.5 < x) & (x <= 0.5) & (-0.5 < y) & (y <= 0.5)
        cap = 5.0 * (0.25 - (x - x0) ** 2 - (y - y0) ** 2)
        return eval_zp_box(x, y) + np.where(home, cap, 0.0)

    return element


# cap centres that put the maximum inside the triangle, on its edge y = 0,
# on its edge x = 1/2 and on its diagonal y = x
_CAP_CENTRES = {"inside": (0.3, 0.1), "bottom": (0.3, -0.1), "right": (0.6, 0.2), "diagonal": (0.15, 0.3)}


def _lebesgue_max(element, s, n):
    """Largest sum_n |sum_k w(n - k) E(x - k)| over an n x n grid of the
    triangle 0 <= y <= x <= 1/2, on the nine translates kx, ky in {-1, 0, 1}
    that the ZP norm reads."""
    u = np.linspace(0.0, 0.5, n)
    x, y = np.meshgrid(u, u, indexing="ij")
    x, y = x[y <= x], y[y <= x]
    coef: dict[tuple[int, int], np.ndarray] = {}
    for kx, ky in itertools.product((-1, 0, 1), repeat=2):
        vals = element(x - kx, y - ky)
        for (ox, oy), w in _nb4_stencil(s):
            coef[kx + ox, ky + oy] = coef.get((kx + ox, ky + oy), 0.0) + w * vals
    return float(sum(np.abs(arr) for arr in coef.values()).max())


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

    def test_rejects_a_single_grid_line(self):
        with pytest.raises(ValueError, match="^need at least one cell per direction$"):
            TensorMesh([0.0, 1.0], [0.5])

    @pytest.mark.parametrize(
        "nx, ny, message",
        [
            (2.5, 2, "nx must be an integer >= 1, got 2.5"),
            (True, 3, "nx must be an integer >= 1, got True"),
            (2, 0, "ny must be an integer >= 1, got 0"),
            (2, "3", "ny must be an integer >= 1, got '3'"),
        ],
    )
    def test_uniform_checks_the_cell_counts(self, nx, ny, message):
        # checked before the grid lines are made: 2.5 made three cells, True one
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TensorMesh.uniform(nx, ny)

    def test_from_text_needs_two_lines(self):
        with pytest.raises(ValueError, match="^expected one line of x knots and one of y knots$"):
            TensorMesh.from_text("0 0.5 1\n\n")


class TestBoxCoeffs:
    def test_rejects_an_unknown_mesh_type(self):
        with pytest.raises(ValueError, match="^mesh_type must be 'three-direction' or 'four-direction'$"):
            nb_box_coeffs("six-direction", 1)

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

    @pytest.mark.parametrize("s", [1.5, 2.0, True, False, np.float64(2.0), np.bool_(True), "2", None, -1])
    @pytest.mark.parametrize("kind", ["three-direction", "four-direction"])
    def test_scale_must_be_an_integer_of_at_least_one(self, kind, s):
        # a half-integer scale puts the vertex nodes off the lattice
        with pytest.raises(ValueError, match="scale s must be an integer >= 1"):
            nb_box_coeffs(kind, s)

    def test_numpy_integer_scale_accepted(self):
        for kind in ("three-direction", "four-direction"):
            assert nb_box_coeffs(kind, np.int64(3)) == nb_box_coeffs(kind, 3)


class TestCrissCrossFamilies:
    def test_rejects_an_unknown_moment_kind(self):
        fam = crisscross_t2(TensorMesh.uniform(5, 5))
        with pytest.raises(ValueError, match="^unknown moment kind 'gauss'; use one of point, pyramid, cell$"):
            dataclasses.replace(fam, moment_kind="gauss")

    def test_t2_uniform_values(self):
        fam = crisscross_t2(TensorMesh.uniform(5, 5))
        assert fam.a[2] == pytest.approx(-3.0 / 20.0, rel=1e-14)
        # cell (2, 2) is entry [1, 1] of the interior-cell arrays
        assert fam.stencils()[2][1, 1] == pytest.approx(8.0 / 5.0, rel=1e-14)
        assert fam.nu()[1, 1] == pytest.approx(11.0 / 5.0, rel=1e-14)

    def test_g2_uniform_values(self):
        fam = crisscross_g2(TensorMesh.uniform(5, 5))
        assert fam.a[2] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert fam.stencils()[2][1, 1] == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert fam.nu()[1, 1] == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_directional_weight_bounds_on_rough_meshes(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            mesh = random_mesh(6, 6, rng, ratio=1e6)
            t2 = crisscross_t2(mesh)
            g2 = crisscross_g2(mesh)
            assert np.nanmax(np.abs([t2.a, t2.abar, t2.c, t2.cbar])) <= 0.75 + 1e-12
            assert np.nanmax([-t2.a, -t2.abar, -t2.c, -t2.cbar]) >= 0  # all nonpositive
            assert np.nanmax(np.abs([g2.a, g2.abar, g2.c, g2.cbar])) <= 1.0 + 1e-12

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
            assert fam.nu().shape == (mesh.ncx - 2, mesh.ncy - 2)
            np.testing.assert_allclose(sum(fam.stencils()), 1.0, rtol=1e-12)

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
            nu = fam.nu()
            want = {}
            for i, j in _interior_cells(mesh):
                want[i, j] = sum(abs(w) for w in _cell_stencil(fam, i, j).values())
                assert nu[i - 1, j - 1] == want[i, j]
            assert fam.nu_bound() == max(want.values())

    def test_monomial_residuals_match_the_per_cell_loop(self):
        for mesh in _test_meshes():
            big = max(1.0, np.abs(mesh.x).max(), np.abs(mesh.y).max()) ** 2
            for tag, kind in (("S1", "point"), ("T1", "pyramid"), ("G1", "cell")):
                res = monomial_residuals(tag, mesh)
                for i in range(mesh.ncx):
                    for j in range(mesh.ncy):
                        mx, my = mesh.sx[i], mesh.sy[j]
                        for key, (r, s) in (("e20", (2, 0)), ("e02", (0, 2))):
                            moment = _marginal_moment(kind, mx, mesh.hx[i], r) * _marginal_moment(
                                kind, my, mesh.hy[j], s
                            )
                            target = _basis_target(mx, mesh.hx[i], r) * _basis_target(my, mesh.hy[j], s)
                            assert abs(res[key][i, j] - (moment - target)) <= 1e-15 * big


class TestMonomialResiduals:
    def test_rejects_an_unknown_tag(self):
        with pytest.raises(ValueError, match="^tag must be one of S1, T1, G1$"):
            monomial_residuals("G2", TensorMesh.uniform(4, 4))

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
        got = zp_dqi_empirical_norm(s)
        assert got == pytest.approx(want, abs=0.01)
        assert got <= 1 + 1 / s**2 + 1e-9

    @pytest.mark.parametrize("grid", [37, 40, 64])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_eighth_period_matches_full_period(self, s, grid):
        # the premise of the norm: the triangle 0 <= y <= x <= 1/2 and the
        # nine translates kx, ky in {-1, 0, 1} see the whole period's maximum
        assert _zp_norm_row_loop(s, grid) == pytest.approx(_full_period_norm(s, grid), rel=1e-14)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_norm_within_4_ulps_of_the_exact_value(self, s):
        # the supremum sits at the vertex (1/2, 1/2): 3/2 at s = 1, else nu = 1 + 1/s^2
        exact = Fraction(3, 2) if s == 1 else 1 + Fraction(1, s * s)
        got = zp_dqi_empirical_norm(s)
        assert abs(Fraction(got) - exact) <= 4 * Fraction(np.spacing(float(exact)))

    @pytest.mark.parametrize("grid", [37, 40, 64])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_never_below_the_full_period_sampler(self, s, grid):
        # the sampler reads up to 8 ulps above 10/9 at s = 3 (grid 37 samples
        # the maximiser), so the margin is a few ulps of nu
        nu = nb_box_coeffs("four-direction", s)[2]
        eps = np.finfo(float).eps
        assert zp_dqi_empirical_norm(s) >= _full_period_norm(s, grid) - 64 * eps * nu

    @pytest.mark.parametrize("s", range(1, 13))
    def test_never_above_the_l1_bound(self, s):
        nu = nb_box_coeffs("four-direction", s)[2]
        assert zp_dqi_empirical_norm(s) <= nu * (1 + 64 * np.finfo(float).eps)

    @pytest.mark.parametrize("s,want", [(1, 1.5), (2, 1.25), (3, 1.1111111111111114)])
    def test_default_grid_values(self, s, want):
        # the bits of box-dqi/nb4/norm/s=* in tests/data/repro_golden.csv
        assert zp_dqi_empirical_norm(s) == want

    def test_bounds_that_never_meet_hit_the_level_cap(self, monkeypatch):
        # a bump that is no quadratic, peaked off every dyadic vertex: the
        # bounds close only as fast as the triangles' squared size, and the
        # cap comes first (random noise lets some draws close by chance)
        monkeypatch.setattr(bivariate, "eval_zp_box", _bumped_element)
        with pytest.raises(RuntimeError, match="s=2 did not meet within 6 subdivision levels"):
            zp_dqi_empirical_norm(2)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_an_interior_maximum_is_not_missed(self, s, monkeypatch):
        # with the bump the maximum leaves the vertices; given levels enough,
        # the Bernstein upper bounds keep every triangle that could hold it,
        # so the result is not below a dense sample of the bumped function
        monkeypatch.setattr(bivariate, "eval_zp_box", _bumped_element)
        monkeypatch.setattr(bivariate, "_ZP_LEVELS", 40)
        got = zp_dqi_empirical_norm(s)
        sampled = _lebesgue_max(_bumped_element, s, 401)
        assert sampled - 64 * np.finfo(float).eps * got <= got <= sampled + 1e-4

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("where", sorted(_CAP_CENTRES))
    def test_a_quadratic_cap_is_read_wherever_its_maximum_lies(self, where, s, monkeypatch):
        # every node term is one quadratic on every triangle, so the Bernstein
        # upper bounds hold and the vertex values close on the maximum, on an
        # edge or inside, to the accuracy of a dense sample
        element = _capped_element(*_CAP_CENTRES[where])
        monkeypatch.setattr(bivariate, "eval_zp_box", element)
        monkeypatch.setattr(bivariate, "_ZP_LEVELS", 40)
        got = zp_dqi_empirical_norm(s)
        sampled = _lebesgue_max(element, s, 401)
        assert sampled - 64 * np.finfo(float).eps * got <= got <= sampled + 1e-5

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
    """On 0 <= y <= x <= 1/2 each translate of the element is one quadratic,
    the premise of the ZP norm's Bernstein bounds."""

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
        # odd grids sample the maximiser (1/2, 1/2) and agree to rounding;
        # even grids miss it by half a step and read below by O(grid^-2)
        # (11/16 grid^-2 at s = 1)
        got, sampled = zp_dqi_empirical_norm(s), _zp_norm_row_loop(s, grid)
        slack = 64 * np.finfo(float).eps * got
        assert sampled - slack <= got <= sampled + (slack if grid % 2 else 0.7 / grid**2)

    @pytest.mark.parametrize("s", [1.5, 2.0, 0.5, True, np.float64(1.0), 0, -2])
    def test_rejects_a_scale_that_is_not_a_positive_integer(self, s):
        with pytest.raises(ValueError, match="scale s must be an integer >= 1"):
            zp_dqi_empirical_norm(s)

    def test_numpy_integer_scale_accepted(self):
        assert zp_dqi_empirical_norm(np.int32(2)) == zp_dqi_empirical_norm(2)
